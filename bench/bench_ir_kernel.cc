// Scoring-kernel benchmark: the block-structured SoA kernel, the WAND
// pruned evaluation and the auto planner against the PR-1
// accumulator path, measured end to end on the E4-style workload
// (TextIndex::RankTopN over a Zipf corpus).
//
// Variants (all timed on the default head+needle query mix: two Zipf
// head terms plus two needle terms per query — the shape of a real
// query-log entry, where the needle contributors set θ and the head
// lists get galloped between their docs):
//   pr1_accumulator — the PR-1 kernel, reproduced verbatim: AoS
//                     posting vectors scored with TermScore() (divide
//                     + libm log1p per posting) into the dense
//                     accumulator with a bounded top-N heap.
//   scalar          — hoisted term weight + precomputed 1/doclen +
//                     VecLog1p, one posting at a time.
//   block           — the same arithmetic strip-mined over SoA posting
//                     blocks (auto-vectorised straight-line kernel).
//   block_prune     — block layout + forced WAND top-N pruning (exact:
//                     galloping cursors, keyed block bounds, batched
//                     run scoring).
//   auto            — RankStrategy::kAuto: the per-query cost model
//                     picks TAAT or WAND. This is the gated
//                     variant: ci/bench_gate.py requires
//                     speedups.prune_vs_block >= 1.0 (pruning must win
//                     wall-clock against the exhaustive block scan,
//                     not just touch fewer postings).
//
// Skewed query mixes probe the planner's extremes (informational):
// high_df_skew (all terms dense — TAAT must win, DAAT has nothing to
// skip), rare_only (all terms rare — tiny queries, TAAT's scan is
// already cheap), dense_plus_rare (the blend), and zipf_iid (terms
// drawn iid from the Zipf corpus — mostly-dense queries the planner
// should decline to prune).
//
// Also reports the cluster-level pruning effect (postings_touched /
// blocks_skipped / pivot_iterations with and without prune).
//
// Prints a human table and writes machine-readable JSON (default
// BENCH_ir_kernel.json, or argv[1]).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "common/timer.h"
#include "ir/accumulator.h"
#include "ir/cluster.h"
#include "ir/index.h"
#include "ir/kernel.h"

namespace dls {
namespace {

constexpr int kDocs = 8000;
// Document lengths are log-uniform in [kMinWordsPerDoc, kMaxWordsPerDoc]
// (mean ≈ 100): real digital-library corpora mix abstracts with full
// documents, and the resulting 1/doclen spread is what gives scores
// block-level variance — a fixed length would make every block bound
// flat and leave θ nothing to prune against.
constexpr int kMinWordsPerDoc = 16;
constexpr int kMaxWordsPerDoc = 320;
constexpr size_t kVocab = 3000;
constexpr double kZipfTheta = 1.1;
constexpr int kQueries = 24;
constexpr int kTermsPerQuery = 4;
constexpr size_t kTopN = 10;
constexpr int kReps = 3;  // best-of wall clock per variant
constexpr size_t kClusterNodes = 4;

void BuildCorpus(ir::TextIndex* index, ir::ClusterIndex* cluster) {
  Rng rng(4);
  ZipfSampler zipf(kVocab, kZipfTheta);
  const double log_ratio =
      std::log(static_cast<double>(kMaxWordsPerDoc) / kMinWordsPerDoc);
  std::vector<int> lengths(kDocs);
  for (int d = 0; d < kDocs; ++d) {
    const double u =
        static_cast<double>(rng.Uniform(1 << 20)) / (1 << 20);
    lengths[d] = static_cast<int>(kMinWordsPerDoc * std::exp(u * log_ratio));
  }
  // Docid reassignment by ascending document length (the standard
  // reassignment trick): score potential is monotone in 1/doclen, so
  // clustering lengths makes per-block score keys separate — short-doc
  // blocks sit at the front and warm θ, long-doc blocks (which hold
  // the bulk of the posting mass, length ∝ postings) get uniformly low
  // bounds and are skippable wholesale. A random id order would put a
  // short doc in almost every block and leave θ nothing to prune.
  // TAAT scans every posting either way, so the exhaustive baseline
  // is unaffected.
  std::sort(lengths.begin(), lengths.end());
  for (int d = 0; d < kDocs; ++d) {
    const int words = lengths[d];
    std::string body;
    body.reserve(words * 9);
    for (int w = 0; w < words; ++w) {
      body += StrFormat("term%04zu ", zipf.Sample(&rng));
    }
    std::string url = StrFormat("doc%05d", d);
    index->AddDocument(url, body);
    cluster->AddDocument(url, body);
  }
  index->Flush();
  cluster->Finalize();
}

std::vector<std::vector<std::string>> MakeZipfQueries(uint64_t seed) {
  Rng rng(seed);
  ZipfSampler zipf(kVocab, kZipfTheta);
  std::vector<std::vector<std::string>> queries;
  for (int q = 0; q < kQueries; ++q) {
    std::vector<std::string> words;
    for (int w = 0; w < kTermsPerQuery; ++w) {
      words.push_back(StrFormat("term%04zu", zipf.Sample(&rng)));
    }
    queries.push_back(std::move(words));
  }
  return queries;
}

/// Terms of the index bucketed by df, for the query mixes: `dense`
/// terms are above the planner's rare cut (df > docs/kRareDfDivisor),
/// `rare` at or below it (but df >= 8 so a query still matches
/// something), and `needle` is the discriminative end of the rare
/// bucket (df <= kNeedleMaxDf) — the proper names / identifiers that
/// make real query-log entries selective.
constexpr int32_t kNeedleMaxDf = 64;

struct DfBuckets {
  std::vector<std::string> dense;
  std::vector<std::string> rare;
  std::vector<std::string> needle;
};

DfBuckets BucketTermsByDf(const ir::TextIndex& index) {
  DfBuckets buckets;
  const int32_t cut =
      static_cast<int32_t>(index.document_count() / ir::kRareDfDivisor);
  for (ir::TermId t = 0; t < index.vocabulary_size(); ++t) {
    if (index.df(t) > cut) {
      buckets.dense.emplace_back(index.term(t));
    } else if (index.df(t) >= 8) {
      buckets.rare.emplace_back(index.term(t));
      if (index.df(t) <= kNeedleMaxDf) {
        buckets.needle.emplace_back(index.term(t));
      }
    }
  }
  // Deterministic order: term id order is insertion order already.
  return buckets;
}

/// The default (gated) workload: each query is two head terms (Zipf
/// sample over the vocabulary — "the", "tennis") plus two
/// discriminative terms (uniform over the needle bucket — names,
/// identifiers). Real query logs look like this: users type frequent
/// context words *and* the selective words that make the query worth
/// asking, and the selective words are what give exact pruning its
/// structure (θ is set by their contributors, so the long lists can
/// gallop between their documents). The iid-Zipf mix below keeps the
/// old all-frequency-sampled shape visible as a reported variant.
std::vector<std::vector<std::string>> MakeQueries(const DfBuckets& buckets) {
  Rng rng(5);
  ZipfSampler zipf(kVocab, kZipfTheta);
  std::vector<std::vector<std::string>> queries;
  for (int q = 0; q < kQueries; ++q) {
    std::vector<std::string> words;
    words.push_back(StrFormat("term%04zu", zipf.Sample(&rng)));
    words.push_back(StrFormat("term%04zu", zipf.Sample(&rng)));
    words.push_back(buckets.needle[rng.Uniform(buckets.needle.size())]);
    words.push_back(buckets.needle[rng.Uniform(buckets.needle.size())]);
    queries.push_back(std::move(words));
  }
  return queries;
}

std::vector<std::vector<std::string>> MakeMixQueries(
    const std::vector<std::string>& pool, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::string>> queries;
  for (int q = 0; q < kQueries; ++q) {
    std::vector<std::string> words;
    for (int w = 0; w < kTermsPerQuery; ++w) {
      words.push_back(pool[rng.Uniform(pool.size())]);
    }
    queries.push_back(std::move(words));
  }
  return queries;
}

/// The PR-1 scoring path, reproduced as the measured baseline: AoS
/// posting vectors, per-posting TermScore (a divide and a libm log1p),
/// dense accumulator, bounded top-N heap. Term resolution is shared
/// with the new paths so the comparison isolates the kernel.
struct Pr1Baseline {
  std::vector<std::vector<ir::Posting>> postings;  // AoS copies per term

  explicit Pr1Baseline(const ir::TextIndex& index) {
    postings.resize(index.vocabulary_size());
    for (ir::TermId t = 0; t < index.vocabulary_size(); ++t) {
      const ir::PostingList& list = index.postings(t);
      postings[t].reserve(list.size());
      for (const ir::Posting& p : list) postings[t].push_back(p);
    }
  }

  std::vector<ir::ScoredDoc> RankTopN(const ir::TextIndex& index,
                                      const std::vector<std::string>& words,
                                      size_t n) const {
    ir::RankOptions options;
    ir::ScoreAccumulator& scores = ir::ScoreAccumulator::ThreadLocal();
    scores.Reset(index.document_count());
    for (ir::TermId term : index.ResolveQuery(words)) {
      for (const ir::Posting& p : postings[term]) {
        scores.Add(p.doc,
                   ir::TermScore(p.tf, index.df(term), index.doc_length(p.doc),
                                 index.collection_length(), options));
      }
    }
    return scores.ExtractTopN(n);
  }
};

template <typename RunQuery>
double MeasureBatchMs(const std::vector<std::vector<std::string>>& queries,
                      RunQuery&& run_query) {
  double best = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    Timer timer;
    for (const auto& q : queries) run_query(q);
    best = std::min(best, timer.ElapsedMillis());
  }
  return best;
}

bool SameDocs(const std::vector<ir::ScoredDoc>& a,
              const std::vector<ir::ScoredDoc>& b, bool check_scores) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].doc != b[i].doc) return false;
    if (check_scores && a[i].score != b[i].score) return false;
  }
  return true;
}

ir::RankOptions StrategyOptions(ir::RankStrategy strategy) {
  ir::RankOptions options;
  options.kernel = ir::ScoreKernel::kBlock;
  options.prune = true;
  options.strategy = strategy;
  return options;
}

/// Sums RankStats over a query batch under one options set (the
/// evaluators *assign* the out-param per call, so sum here).
ir::RankStats BatchStats(const ir::TextIndex& index,
                         const std::vector<std::vector<std::string>>& queries,
                         const ir::RankOptions& options) {
  ir::RankStats sum;
  for (const auto& q : queries) {
    ir::RankStats s;
    index.RankTopN(q, kTopN, options, &s);
    sum += s;
  }
  return sum;
}

void PrintStatsRow(const char* name, double ms, const ir::RankStats& s) {
  std::printf("%-12s %-10.2f %-12zu %-10zu %-10zu %-10zu %-10zu\n", name, ms,
              s.postings_touched, s.blocks_skipped, s.blocks_decoded,
              s.pivot_iterations, s.cursor_advances);
}

void PrintJsonStats(std::FILE* out, const char* name, double ms,
                    const ir::RankStats& s, const char* trailer) {
  std::fprintf(out,
               "    \"%s\": {\"batch_ms\": %.3f, \"postings_touched\": %zu, "
               "\"blocks_skipped\": %zu, \"blocks_decoded\": %zu, "
               "\"pivot_iterations\": %zu, \"cursor_advances\": %zu}%s\n",
               name, ms, s.postings_touched, s.blocks_skipped, s.blocks_decoded,
               s.pivot_iterations, s.cursor_advances, trailer);
}

}  // namespace
}  // namespace dls

int main(int argc, char** argv) {
  using namespace dls;
  const char* json_path = argc > 1 ? argv[1] : "BENCH_ir_kernel.json";

  ir::TextIndex index;
  ir::ClusterIndex cluster(kClusterNodes, /*num_fragments=*/4);
  BuildCorpus(&index, &cluster);
  DfBuckets buckets = BucketTermsByDf(index);
  auto queries = MakeQueries(buckets);
  Pr1Baseline pr1(index);

  ir::RankOptions scalar;
  scalar.kernel = ir::ScoreKernel::kScalar;
  ir::RankOptions block;
  block.kernel = ir::ScoreKernel::kBlock;
  const ir::RankOptions wand = StrategyOptions(ir::RankStrategy::kWand);
  const ir::RankOptions autop = StrategyOptions(ir::RankStrategy::kAuto);

  std::printf(
      "scoring kernel: %d docs, %d-%d words/doc, vocab %zu, %d queries x %d "
      "terms, top %zu\n\n",
      kDocs, kMinWordsPerDoc, kMaxWordsPerDoc, kVocab, kQueries,
      kTermsPerQuery, kTopN);

  // Exactness cross-checks before timing: scalar and block must be
  // bit-identical (docs AND scores); every pruning strategy must
  // return the identical ranking; the PR-1 baseline agrees on the
  // documents (its libm scores differ from VecLog1p by ulps, so scores
  // are not compared).
  bool block_exact = true, prune_exact = true, pr1_same_docs = true;
  for (const auto& q : queries) {
    std::vector<ir::ScoredDoc> s = index.RankTopN(q, kTopN, scalar);
    std::vector<ir::ScoredDoc> b = index.RankTopN(q, kTopN, block);
    if (!SameDocs(s, b, /*check_scores=*/true)) block_exact = false;
    for (const ir::RankOptions* options : {&wand, &autop}) {
      if (!SameDocs(b, index.RankTopN(q, kTopN, *options),
                    /*check_scores=*/true)) {
        prune_exact = false;
      }
    }
    if (!SameDocs(b, pr1.RankTopN(index, q, kTopN), /*check_scores=*/false)) {
      pr1_same_docs = false;
    }
  }

  double pr1_ms = MeasureBatchMs(queries, [&](const auto& q) {
    pr1.RankTopN(index, q, kTopN);
  });
  double scalar_ms = MeasureBatchMs(queries, [&](const auto& q) {
    index.RankTopN(q, kTopN, scalar);
  });
  double block_ms = MeasureBatchMs(queries, [&](const auto& q) {
    index.RankTopN(q, kTopN, block);
  });
  double wand_ms = MeasureBatchMs(queries, [&](const auto& q) {
    index.RankTopN(q, kTopN, wand);
  });
  double auto_ms = MeasureBatchMs(queries, [&](const auto& q) {
    index.RankTopN(q, kTopN, autop);
  });

  struct Row {
    const char* name;
    double ms;
    const char* exact;
  };
  Row rows[] = {
      {"pr1_accumulator", pr1_ms, pr1_same_docs ? "docs" : "NO"},
      {"scalar", scalar_ms, "ref"},
      {"block", block_ms, block_exact ? "bits" : "NO"},
      {"block_prune", wand_ms, prune_exact ? "bits" : "NO"},
      {"auto", auto_ms, prune_exact ? "bits" : "NO"},
  };
  std::printf("%-16s %-10s %-12s %-10s %-8s\n", "variant", "batch_ms",
              "ms/query", "vs_pr1", "exact");
  for (const Row& r : rows) {
    std::printf("%-16s %-10.2f %-12.4f %-10.2f %-8s\n", r.name, r.ms,
                r.ms / kQueries, pr1_ms / r.ms, r.exact);
  }
  std::printf("\nprune_vs_block (gated >= 1.0): %.3f\n", block_ms / auto_ms);

  // Work accounting per strategy on the default mix.
  const ir::RankStats taat_stats = BatchStats(index, queries, block);
  const ir::RankStats wand_stats = BatchStats(index, queries, wand);
  const ir::RankStats auto_stats = BatchStats(index, queries, autop);
  std::printf("\n%-12s %-10s %-12s %-10s %-10s %-10s %-10s\n", "strategy",
              "batch_ms", "postings", "skipped", "decoded", "pivots",
              "advances");
  PrintStatsRow("taat", block_ms, taat_stats);
  PrintStatsRow("wand", wand_ms, wand_stats);
  PrintStatsRow("auto", auto_ms, auto_stats);

  // Skewed mixes probe the planner's extremes: all-dense (TAAT
  // territory), all-rare (DAAT territory), the dense+rare blend, and
  // the historical iid-Zipf sample.
  struct Mix {
    const char* name;
    std::vector<std::vector<std::string>> queries;
    double block_ms = 0, wand_ms = 0, auto_ms = 0;
    ir::RankStats wand_stats{}, auto_stats{};
  };
  std::vector<Mix> mixes;
  if (!buckets.dense.empty()) {
    mixes.push_back({"high_df_skew", MakeMixQueries(buckets.dense, 6)});
  }
  if (!buckets.rare.empty()) {
    mixes.push_back({"rare_only", MakeMixQueries(buckets.rare, 7)});
  }
  if (!buckets.dense.empty() && !buckets.rare.empty()) {
    // Head terms + discriminative terms — the shape of a real query
    // log entry, and the one where pruning has structure to exploit:
    // θ is set by the rare contributors, so the dense lists can be
    // galloped between their docs instead of scanned.
    Rng rng(8);
    std::vector<std::vector<std::string>> queries;
    for (int q = 0; q < kQueries; ++q) {
      std::vector<std::string> words;
      words.push_back(buckets.dense[rng.Uniform(buckets.dense.size())]);
      words.push_back(buckets.dense[rng.Uniform(buckets.dense.size())]);
      words.push_back(buckets.rare[rng.Uniform(buckets.rare.size())]);
      words.push_back(buckets.rare[rng.Uniform(buckets.rare.size())]);
      queries.push_back(std::move(words));
    }
    mixes.push_back({"dense_plus_rare", std::move(queries)});
  }
  mixes.push_back({"zipf_iid", MakeZipfQueries(5)});
  for (Mix& mix : mixes) {
    for (const auto& q : mix.queries) {
      std::vector<ir::ScoredDoc> b = index.RankTopN(q, kTopN, block);
      for (const ir::RankOptions* options : {&wand, &autop}) {
        if (!SameDocs(b, index.RankTopN(q, kTopN, *options),
                      /*check_scores=*/true)) {
          prune_exact = false;
        }
      }
    }
    mix.block_ms = MeasureBatchMs(mix.queries, [&](const auto& q) {
      index.RankTopN(q, kTopN, block);
    });
    mix.wand_ms = MeasureBatchMs(mix.queries, [&](const auto& q) {
      index.RankTopN(q, kTopN, wand);
    });
    mix.auto_ms = MeasureBatchMs(mix.queries, [&](const auto& q) {
      index.RankTopN(q, kTopN, autop);
    });
    mix.wand_stats = BatchStats(index, mix.queries, wand);
    mix.auto_stats = BatchStats(index, mix.queries, autop);

    std::printf("\nmix %s (%zu queries):\n", mix.name, mix.queries.size());
    std::printf("%-12s %-10s %-12s %-10s %-10s %-10s %-10s\n", "strategy",
                "batch_ms", "postings", "skipped", "decoded", "pivots",
                "advances");
    ir::RankStats block_mix_stats = BatchStats(index, mix.queries, block);
    PrintStatsRow("taat", mix.block_ms, block_mix_stats);
    PrintStatsRow("wand", mix.wand_ms, mix.wand_stats);
    PrintStatsRow("auto", mix.auto_ms, mix.auto_stats);
  }

  // Cluster-level pruning effect: postings touched, blocks skipped and
  // pivot iterations across the distributed evaluation under the auto
  // planner (sequential => threshold feedback tightens later nodes).
  ir::ClusterQueryStats full_stats_sum, prune_stats_sum;
  bool cluster_exact = true;
  for (const auto& q : queries) {
    ir::ClusterQueryStats full_stats, prune_stats;
    auto full = cluster.Query(q, kTopN, 4, &full_stats);
    auto pruned = cluster.Query(q, kTopN, 4, &prune_stats, autop);
    if (full.size() != pruned.size()) cluster_exact = false;
    for (size_t i = 0; i < full.size() && i < pruned.size(); ++i) {
      if (full[i].url != pruned[i].url || full[i].score != pruned[i].score) {
        cluster_exact = false;
      }
    }
    full_stats_sum.postings_touched_total += full_stats.postings_touched_total;
    full_stats_sum.blocks_skipped += full_stats.blocks_skipped;
    prune_stats_sum.postings_touched_total +=
        prune_stats.postings_touched_total;
    prune_stats_sum.blocks_skipped += prune_stats.blocks_skipped;
    prune_stats_sum.pivot_iterations += prune_stats.pivot_iterations;
    prune_stats_sum.cursor_advances += prune_stats.cursor_advances;
  }
  double touched_ratio =
      full_stats_sum.postings_touched_total > 0
          ? static_cast<double>(prune_stats_sum.postings_touched_total) /
                static_cast<double>(full_stats_sum.postings_touched_total)
          : 1.0;
  std::printf(
      "\ncluster (%zu nodes, sequential threshold feedback, auto): "
      "postings_touched %zu -> %zu (%.1f%%), blocks_skipped %zu, "
      "pivot_iterations %zu, exact %s\n",
      kClusterNodes, full_stats_sum.postings_touched_total,
      prune_stats_sum.postings_touched_total, touched_ratio * 100.0,
      prune_stats_sum.blocks_skipped, prune_stats_sum.pivot_iterations,
      cluster_exact ? "yes" : "NO");
  std::printf(
      "(vs_pr1 = wall-clock speedup over the PR-1 accumulator kernel; "
      "exact: bits = bit-identical docs+scores, docs = same ranking)\n");

  std::FILE* out = std::fopen(json_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(
      out,
      "{\n"
      "  \"bench\": \"ir_kernel\",\n"
      "  \"corpus\": {\"docs\": %d, \"max_words_per_doc\": %d, \"vocab\": %zu, "
      "\"zipf_theta\": %.2f, \"queries\": %d, \"terms_per_query\": %d, "
      "\"top_n\": %zu},\n"
      "  \"variants\": {\n"
      "    \"pr1_accumulator_batch_ms\": %.3f,\n"
      "    \"scalar_batch_ms\": %.3f,\n"
      "    \"block_batch_ms\": %.3f,\n"
      "    \"block_prune_batch_ms\": %.3f,\n"
      "    \"auto_batch_ms\": %.3f\n"
      "  },\n"
      "  \"speedups\": {\n"
      "    \"scalar_vs_pr1\": %.3f,\n"
      "    \"block_vs_pr1\": %.3f,\n"
      "    \"block_prune_vs_pr1\": %.3f,\n"
      "    \"block_prune_vs_block\": %.3f,\n"
      "    \"prune_vs_block\": %.3f\n"
      "  },\n"
      "  \"exact\": {\"block_bit_identical\": %s, "
      "\"prune_bit_identical\": %s, \"pr1_same_docs\": %s, "
      "\"cluster_prune_identical\": %s},\n",
      kDocs, kMaxWordsPerDoc, kVocab, kZipfTheta, kQueries, kTermsPerQuery, kTopN,
      pr1_ms, scalar_ms, block_ms, wand_ms, auto_ms,
      pr1_ms / scalar_ms, pr1_ms / block_ms, pr1_ms / wand_ms,
      block_ms / wand_ms, block_ms / auto_ms,
      block_exact ? "true" : "false", prune_exact ? "true" : "false",
      pr1_same_docs ? "true" : "false", cluster_exact ? "true" : "false");
  std::fprintf(out, "  \"pruning_stats\": {\n");
  PrintJsonStats(out, "taat", block_ms, taat_stats, ",");
  PrintJsonStats(out, "wand", wand_ms, wand_stats, ",");
  PrintJsonStats(out, "auto", auto_ms, auto_stats, "");
  std::fprintf(out, "  },\n  \"mixes\": {\n");
  for (size_t m = 0; m < mixes.size(); ++m) {
    const Mix& mix = mixes[m];
    std::fprintf(out, "    \"%s\": {\n  ", mix.name);
    PrintJsonStats(out, "wand", mix.wand_ms, mix.wand_stats, ",  ");
    std::fprintf(out, "  ");
    PrintJsonStats(out, "auto", mix.auto_ms, mix.auto_stats, ",  ");
    std::fprintf(out, "    \"block_batch_ms\": %.3f\n    }%s\n", mix.block_ms,
                 m + 1 < mixes.size() ? "," : "");
  }
  std::fprintf(
      out,
      "  },\n"
      "  \"cluster_pruning\": {\"nodes\": %zu, "
      "\"postings_touched_full\": %zu, \"postings_touched_pruned\": %zu, "
      "\"postings_touched_ratio\": %.4f, \"blocks_skipped\": %zu, "
      "\"pivot_iterations\": %zu, \"cursor_advances\": %zu}\n"
      "}\n",
      kClusterNodes, full_stats_sum.postings_touched_total,
      prune_stats_sum.postings_touched_total, touched_ratio,
      prune_stats_sum.blocks_skipped, prune_stats_sum.pivot_iterations,
      prune_stats_sum.cursor_advances);
  std::fclose(out);
  std::printf("wrote %s\n", json_path);
  return 0;
}
