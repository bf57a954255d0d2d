// Bit-identity contract of RankOptions::strategy: every evaluation
// strategy — TAAT, WAND and the auto cost model — must return the
// identical ranking (documents AND scores) as the exhaustive scalar
// reference, on every index shape (Text, Fragmented, Cluster),
// execution mode (sequential, parallel), storage mode (heap,
// mmap-served segment) and kernel. The Strategy* suite is also run
// under TSan and ASan+UBSan by ci/check.sh.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "ir/cluster.h"
#include "ir/fragments.h"
#include "ir/index.h"
#include "ir/kernel.h"

namespace dls::ir {
namespace {

TextIndex::Options RawOptions() {
  TextIndex::Options options;
  options.stem = false;
  options.stop = false;
  return options;
}

void BuildCorpus(TextIndex* index, int docs, int words_per_doc, size_t vocab,
                 uint64_t seed) {
  Rng rng(seed);
  ZipfSampler zipf(vocab, 1.1);
  for (int d = 0; d < docs; ++d) {
    std::string body;
    for (int w = 0; w < words_per_doc; ++w) {
      body += StrFormat("term%04zu ", zipf.Sample(&rng));
    }
    index->AddDocument(StrFormat("doc%05d", d), body);
  }
  index->Flush();
}

std::vector<std::vector<std::string>> SeededQueries(int count, int words,
                                                    size_t vocab,
                                                    uint64_t seed) {
  Rng rng(seed);
  ZipfSampler zipf(vocab, 1.1);
  std::vector<std::vector<std::string>> queries;
  for (int q = 0; q < count; ++q) {
    std::vector<std::string> query;
    for (int w = 0; w < words; ++w) {
      query.push_back(StrFormat("term%04zu", zipf.Sample(&rng)));
    }
    queries.push_back(std::move(query));
  }
  return queries;
}

void ExpectBitIdentical(const std::vector<ScoredDoc>& a,
                        const std::vector<ScoredDoc>& b,
                        const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].doc, b[i].doc) << what << " rank " << i;
    EXPECT_EQ(a[i].score, b[i].score) << what << " rank " << i;
  }
}

void ExpectClusterIdentical(const std::vector<ClusterScoredDoc>& a,
                            const std::vector<ClusterScoredDoc>& b,
                            const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].url, b[i].url) << what << " rank " << i;
    EXPECT_EQ(a[i].score, b[i].score) << what << " rank " << i;
  }
}

const RankStrategy kAllStrategies[] = {RankStrategy::kAuto,
                                       RankStrategy::kTaat,
                                       RankStrategy::kWand};

const char* StrategyName(RankStrategy s) {
  switch (s) {
    case RankStrategy::kAuto:
      return "auto";
    case RankStrategy::kTaat:
      return "taat";
    case RankStrategy::kWand:
      return "wand";
  }
  return "?";
}

TEST(StrategyTest, AllStrategiesBitIdenticalOnTextIndex) {
  for (uint64_t seed : {201u, 202u}) {
    TextIndex index(RawOptions());
    BuildCorpus(&index, 800, 40, 300, seed);
    RankOptions exhaustive;
    exhaustive.kernel = ScoreKernel::kScalar;
    for (size_t n : {1u, 10u, 50u}) {
      for (const auto& query : SeededQueries(15, 4, 300, seed + 100)) {
        const std::vector<ScoredDoc> expected =
            index.RankTopN(query, n, exhaustive);
        for (RankStrategy strategy : kAllStrategies) {
          for (ScoreKernel kernel : {ScoreKernel::kScalar, ScoreKernel::kBlock,
                                     ScoreKernel::kPacked}) {
            RankOptions options;
            options.kernel = kernel;
            options.prune = true;
            options.strategy = strategy;
            ExpectBitIdentical(
                index.RankTopN(query, n, options), expected,
                StrFormat("seed %zu n %zu strategy %s kernel %d",
                          static_cast<size_t>(seed), n, StrategyName(strategy),
                          static_cast<int>(kernel)));
          }
        }
      }
    }
  }
}

TEST(StrategyTest, AllStrategiesBitIdenticalOnFragmentedIndex) {
  TextIndex index(RawOptions());
  BuildCorpus(&index, 600, 40, 300, 211);
  FragmentedIndex fragments(&index, 8);
  for (size_t cutoff : {2u, 5u, 8u}) {
    for (const auto& query : SeededQueries(12, 4, 300, 212)) {
      const std::vector<ScoredDoc> expected =
          fragments.RankTopN(query, 10, cutoff);
      for (RankStrategy strategy : kAllStrategies) {
        RankOptions options;
        options.prune = true;
        options.strategy = strategy;
        FragmentQueryStats stats;
        ExpectBitIdentical(fragments.RankTopN(query, 10, cutoff, &stats,
                                              options),
                           expected,
                           StrFormat("cutoff %zu strategy %s", cutoff,
                                     StrategyName(strategy)));
        // Any strategy reads at most what the exhaustive scan reads.
        EXPECT_LE(stats.postings_touched, 40u * 600u);
      }
    }
  }
}

TEST(StrategyTest, AllStrategiesBitIdenticalOnClusterSequentialAndParallel) {
  ClusterIndex cluster(5, 4, RawOptions());
  Rng rng(221);
  ZipfSampler zipf(300, 1.1);
  for (int d = 0; d < 600; ++d) {
    std::string body;
    for (int w = 0; w < 40; ++w) {
      body += StrFormat("term%04zu ", zipf.Sample(&rng));
    }
    cluster.AddDocument(StrFormat("doc%05d", d), body);
  }
  cluster.Finalize();

  auto queries = SeededQueries(15, 4, 300, 222);
  std::vector<std::vector<ClusterScoredDoc>> expected;
  for (const auto& q : queries) expected.push_back(cluster.Query(q, 10, 4));

  // Sequential exercises the threshold-feedback protocol (a later node
  // starts from an earlier node's n-th best); parallel the θ0 = 0 path.
  for (int parallel = 0; parallel < 2; ++parallel) {
    ThreadPool pool(4);
    if (parallel) cluster.SetExecutor(&pool);
    for (RankStrategy strategy : kAllStrategies) {
      RankOptions options;
      options.prune = true;
      options.strategy = strategy;
      for (size_t q = 0; q < queries.size(); ++q) {
        ExpectClusterIdentical(
            cluster.Query(queries[q], 10, 4, nullptr, options), expected[q],
            StrFormat("%s strategy %s query %zu",
                      parallel ? "par" : "seq", StrategyName(strategy), q));
      }
    }
    if (parallel) cluster.SetExecutor(nullptr);
  }
}

TEST(StrategyTest, AllStrategiesBitIdenticalOnMmapSegment) {
  TextIndex index(RawOptions());
  BuildCorpus(&index, 700, 40, 300, 231);
  auto queries = SeededQueries(15, 4, 300, 232);
  std::vector<std::vector<ScoredDoc>> expected;
  for (const auto& q : queries) expected.push_back(index.RankTopN(q, 10));

  const std::string path =
      testing::TempDir() + "/strategy_mmap_segment.dls";
  ASSERT_TRUE(index.FlushToDisk(path).ok());
  Result<std::unique_ptr<TextIndex>> loaded = TextIndex::LoadFromSegment(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // The mmap-served index carries the v2 per-block score keys straight
  // from the file; every strategy must rank identically off them.
  for (RankStrategy strategy : kAllStrategies) {
    RankOptions options;
    options.prune = true;
    options.strategy = strategy;
    for (size_t q = 0; q < queries.size(); ++q) {
      ExpectBitIdentical(loaded.value()->RankTopN(queries[q], 10, options),
                         expected[q],
                         StrFormat("mmap strategy %s query %zu",
                                   StrategyName(strategy), q));
    }
  }
  std::remove(path.c_str());
}

// The lone-contributor regression the v2 keyed bound exists for: filler
// documents with a HIGHER tf than the hot documents but much longer
// bodies. The pre-v2 bound (block max_tf × collection-wide max inverse
// length) pairs the filler's tf with the hot documents' short length
// and lands ABOVE θ — it would decode every filler block. The keyed
// bound is the block's real max of tf/doclen, far below θ, so every
// filler block skips without a decode.
TEST(StrategyTest, LoneContributorKeyedBoundSkipsWhereUnkeyedBoundCannot) {
  TextIndex index(RawOptions());
  for (int d = 0; d < 16; ++d) {
    index.AddDocument(StrFormat("hot%03d", d), "sig sig sig pad");
  }
  for (int d = 0; d < 600; ++d) {
    std::string body = "sig sig sig sig";  // tf = 4 > hot tf = 3
    for (int w = 0; w < 96; ++w) body += StrFormat(" fill%02d", w % 20);
    index.AddDocument(StrFormat("cold%04d", d), body);
  }
  index.Flush();

  FragmentedIndex fragments(&index, 1);
  RankOptions pruned;
  pruned.prune = true;
  pruned.strategy = RankStrategy::kWand;
  FragmentQueryStats exhaustive_stats;
  FragmentQueryStats pruned_stats;
  std::vector<ScoredDoc> exhaustive =
      fragments.RankTopN({"sig"}, 5, 1, &exhaustive_stats);
  std::vector<ScoredDoc> got =
      fragments.RankTopN({"sig"}, 5, 1, &pruned_stats, pruned);
  ExpectBitIdentical(exhaustive, got, "keyed lone contributor");
  ASSERT_EQ(got.size(), 5u);

  // The unkeyed bound provably could not have skipped: it dominates θ.
  const TermId sig = *index.LookupTerm("sig");
  const double w = TermWeight(index.df(sig), index.collection_length(), pruned);
  const double theta = got.back().score;
  EXPECT_GT(ScoreUpperBound(w, /*max_tf=*/4, index.max_inv_doc_length()),
            theta);
  // The keyed bound did skip — and never read a filler posting.
  EXPECT_GT(pruned_stats.blocks_skipped, 0u);
  EXPECT_LT(pruned_stats.postings_touched,
            exhaustive_stats.postings_touched / 2);
}

// 800 documents that all hold "dense" (df 800, above the rare cut of
// 800/32) and 9 that hold "needle" (df 9, below it).
void BuildDenseNeedleIndex(TextIndex* index) {
  Rng rng(251);
  for (int d = 0; d < 800; ++d) {
    std::string body = "dense";
    for (int w = 0; w < 19; ++w) {
      body += StrFormat(" term%04zu", rng.Uniform(300));
    }
    if (d % 97 == 0) body += " needle";
    index->AddDocument(StrFormat("doc%05d", d), body);
  }
  index->Flush();
}

// The auto planner's contract is *which* evaluation runs, never what it
// returns; spot-check its decisions through the work-stats shape.
TEST(StrategyTest, AutoPlannerPicksTaatForDenseAndDaatForRare) {
  TextIndex index(RawOptions());
  BuildDenseNeedleIndex(&index);
  FragmentedIndex fragments(&index, 1);

  RankOptions auto_prune;
  auto_prune.prune = true;  // strategy stays kAuto

  // All-dense query → TAAT: no pivots.
  FragmentQueryStats dense_stats;
  fragments.RankTopN({"dense"}, 10, 1, &dense_stats, auto_prune);
  EXPECT_EQ(dense_stats.pivot_iterations, 0u);

  // Dense + rare → WAND: the rare list holds under 1/8 of the query's
  // postings behind one dense cursor, so θ is set by the needle
  // documents and the dense list gallops between them.
  FragmentQueryStats mixed_stats;
  fragments.RankTopN({"dense", "needle"}, 10, 1, &mixed_stats, auto_prune);
  EXPECT_GT(mixed_stats.pivot_iterations, 0u);
  EXPECT_LT(mixed_stats.pivot_iterations, 20u);  // df(needle) ≈ 9 pivots
}

// A top-n as deep as the corpus is planned TAAT however large n is: n
// arrives from the wire unbounded, and a depth test that multiplies n
// wraps for n ≥ 2^61 and plans such a query as a shallow one.
TEST(StrategyTest, AutoPlannerPlansHugeNAsDeep) {
  TextIndex index(RawOptions());
  BuildDenseNeedleIndex(&index);
  const std::vector<std::string> query = {"dense", "needle"};
  const size_t huge_n = size_t{1} << 62;
  RankOptions exhaustive;
  exhaustive.kernel = ScoreKernel::kScalar;
  const std::vector<ScoredDoc> expected =
      index.RankTopN(query, huge_n, exhaustive);
  ASSERT_EQ(expected.size(), 800u);  // every matching document

  RankOptions auto_prune;
  auto_prune.prune = true;  // strategy stays kAuto
  RankStats stats;
  ExpectBitIdentical(index.RankTopN(query, huge_n, auto_prune, &stats),
                     expected, "n = 2^62");
  EXPECT_EQ(stats.pivot_iterations, 0u);
}

// One term above the rare cut and four at it, the rare lists holding
// a third of the query's postings: too heavy a rare tail for kWand
// (rare·8 > total), so the planner scans it — kTaat, no pivots.
TEST(StrategyTest, AutoPlannerScansHeavyRareTailBehindDenseTerm) {
  constexpr int kDocs = 3200;  // rare cut: df ≤ 3200/32 = 100
  TextIndex index(RawOptions());
  Rng rng(271);
  for (int d = 0; d < kDocs; ++d) {
    std::string body = StrFormat("filler%02zu", rng.Uniform(50));
    for (size_t w = rng.Uniform(12); w > 0; --w) {
      body += StrFormat(" filler%02zu", rng.Uniform(50));
    }
    if (d % 4 == 0) body += " dense";  // df 800
    // rare0..rare3: df 100 each, on disjoint documents.
    if (d % 32 < 4) body += StrFormat(" rare%d", d % 32);
    index.AddDocument(StrFormat("doc%05d", d), body);
  }
  index.Flush();
  const std::vector<std::string> query = {"dense", "rare0", "rare1", "rare2",
                                          "rare3"};
  for (const std::string& word : query) {
    const int32_t df = index.df(*index.LookupTerm(word));
    EXPECT_EQ(df, word == "dense" ? 800 : kDocs / 32) << word;
  }

  RankOptions exhaustive;
  exhaustive.kernel = ScoreKernel::kScalar;
  const std::vector<ScoredDoc> expected = index.RankTopN(query, 10, exhaustive);
  ASSERT_EQ(expected.size(), 10u);
  for (ScoreKernel kernel :
       {ScoreKernel::kScalar, ScoreKernel::kBlock, ScoreKernel::kPacked}) {
    RankOptions auto_prune;
    auto_prune.prune = true;  // strategy stays kAuto
    auto_prune.kernel = kernel;
    RankStats stats;
    ExpectBitIdentical(index.RankTopN(query, 10, auto_prune, &stats), expected,
                       StrFormat("kernel %d", static_cast<int>(kernel)));
    EXPECT_EQ(stats.pivot_iterations, 0u);
    EXPECT_EQ(stats.postings_touched, 1200u);  // the whole scan
  }
}

}  // namespace
}  // namespace dls::ir
