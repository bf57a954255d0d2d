// Parallel query execution benchmark: sequential-vs-parallel cluster
// fan-out (pool sizes 1/2/4/8 × nodes 1/4/16) plus the scoring-kernel
// speedup of the dense accumulator + bounded heap over the seed's
// unordered_map + full-sort implementation. The seed-style evaluator
// below reproduces the pre-parallel ClusterIndex::Query algorithm so
// "speedup vs seed" is measured end to end on the same E4-style
// corpus, not modelled from posting counts.
//
// Prints a human table and writes machine-readable JSON (default
// BENCH_parallel_query.json, or argv[1]) for the repo's perf
// trajectory.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "ir/cluster.h"

namespace dls {
namespace {

constexpr int kDocs = 8000;
constexpr int kWordsPerDoc = 80;
constexpr size_t kVocab = 3000;
constexpr double kZipfTheta = 1.1;
constexpr size_t kFragments = 4;
constexpr int kQueries = 24;
constexpr int kTermsPerQuery = 4;
constexpr size_t kTopN = 10;
constexpr int kReps = 3;  // best-of wall clock per configuration

std::vector<std::pair<std::string, std::string>> MakeCorpus() {
  Rng rng(4);
  ZipfSampler zipf(kVocab, kZipfTheta);
  std::vector<std::pair<std::string, std::string>> corpus;
  corpus.reserve(kDocs);
  for (int d = 0; d < kDocs; ++d) {
    std::string body;
    body.reserve(kWordsPerDoc * 9);
    for (int w = 0; w < kWordsPerDoc; ++w) {
      body += StrFormat("term%04zu ", zipf.Sample(&rng));
    }
    corpus.emplace_back(StrFormat("doc%05d", d), body);
  }
  return corpus;
}

std::vector<std::vector<std::string>> MakeQueries() {
  Rng rng(5);
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

/// The seed implementation of the distributed query, kept verbatim as
/// the measured baseline: per node an unordered_map<DocId, double>
/// accumulator and a full sort of every scored document, then one
/// global sort of the concatenated top lists.
std::vector<ir::ClusterScoredDoc> SeedStyleQuery(
    const ir::ClusterIndex& cluster, const std::vector<std::string>& words,
    size_t n, size_t max_fragments) {
  const ir::RankOptions options;
  std::vector<std::string> stems;
  for (const std::string& word : words) {
    std::optional<std::string> norm =
        cluster.node_index(0).NormalizeWord(word);
    if (!norm) continue;
    // Match the engine's query semantics: a repeated term scores once.
    if (std::find(stems.begin(), stems.end(), *norm) != stems.end()) continue;
    if (cluster.global_df(*norm) == 0) continue;
    stems.push_back(*norm);
  }

  std::vector<ir::ClusterScoredDoc> merged;
  for (size_t node = 0; node < cluster.num_nodes(); ++node) {
    const ir::TextIndex& index = cluster.node_index(node);
    std::unordered_map<ir::DocId, double> scores;
    for (const std::string& stem : stems) {
      std::optional<ir::TermId> term = index.LookupTerm(stem);
      if (!term) continue;
      if (cluster.node_fragments(node).FragmentOf(*term) >= max_fragments) {
        continue;
      }
      int32_t global_df = cluster.global_df(stem);
      for (const ir::Posting& p : index.postings(*term)) {
        scores[p.doc] +=
            ir::TermScore(p.tf, global_df, index.doc_length(p.doc),
                          cluster.global_collection_length(), options);
      }
    }
    std::vector<ir::ScoredDoc> local;
    local.reserve(scores.size());
    for (const auto& [doc, score] : scores) local.push_back({doc, score});
    std::sort(local.begin(), local.end(),
              [](const ir::ScoredDoc& a, const ir::ScoredDoc& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.doc < b.doc;
              });
    if (local.size() > n) local.resize(n);
    for (const ir::ScoredDoc& d : local) {
      merged.push_back({std::string(index.url(d.doc)), d.score});
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const ir::ClusterScoredDoc& a, const ir::ClusterScoredDoc& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.url < b.url;
            });
  if (merged.size() > n) merged.resize(n);
  return merged;
}

struct Measurement {
  double batch_ms = 0;  // best-of-kReps for the whole query batch
  double critical_path_us = 0;
  double total_cpu_us = 0;
};

template <typename QueryFn>
Measurement MeasureBatch(const std::vector<std::vector<std::string>>& queries,
                         QueryFn&& run_query) {
  Measurement m;
  m.batch_ms = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    double critical = 0, total = 0;
    Timer timer;
    for (const auto& q : queries) {
      ir::ClusterQueryStats stats;
      run_query(q, &stats);
      critical += stats.critical_path_us;
      total += stats.total_cpu_us;
    }
    double ms = timer.ElapsedMillis();
    if (ms < m.batch_ms) {
      m.batch_ms = ms;
      m.critical_path_us = critical / queries.size();
      m.total_cpu_us = total / queries.size();
    }
  }
  return m;
}

bool SameRanking(const std::vector<ir::ClusterScoredDoc>& a,
                 const std::vector<ir::ClusterScoredDoc>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].url != b[i].url) return false;
  }
  return true;
}

}  // namespace
}  // namespace dls

int main(int argc, char** argv) {
  using namespace dls;
  const char* json_path =
      argc > 1 ? argv[1] : "BENCH_parallel_query.json";

  auto corpus = MakeCorpus();
  auto queries = MakeQueries();

  std::printf(
      "parallel query execution: %d docs, %d words/doc, vocab %zu, "
      "%d queries x %d terms, top %zu, %u hardware threads\n\n",
      kDocs, kWordsPerDoc, kVocab, kQueries, kTermsPerQuery, kTopN,
      std::thread::hardware_concurrency());

  std::string sweep_json;
  double kernel_seq_ms = 0, kernel_seed_ms = 0;

  std::printf("%-6s %-8s %-12s %-12s %-10s %-12s %-12s %-8s\n", "nodes",
              "threads", "batch_ms", "ms/query", "vs_seed", "critical_us",
              "cpu_us", "exact");

  for (size_t nodes : {1u, 4u, 16u}) {
    ir::ClusterIndex cluster(nodes, kFragments);
    for (const auto& [url, body] : corpus) cluster.AddDocument(url, body);
    cluster.Finalize();

    // Reference rankings from the seed-style evaluator.
    std::vector<std::vector<ir::ClusterScoredDoc>> reference;
    for (const auto& q : queries) {
      reference.push_back(SeedStyleQuery(cluster, q, kTopN, kFragments));
    }

    // Seed baseline: map+sort kernel, node loop on one thread.
    Measurement seed = MeasureBatch(
        queries, [&](const std::vector<std::string>& q,
                     ir::ClusterQueryStats*) {
          SeedStyleQuery(cluster, q, kTopN, kFragments);
        });
    std::printf("%-6zu %-8s %-12.2f %-12.3f %-10s %-12s %-12s %-8s\n", nodes,
                "seed", seed.batch_ms, seed.batch_ms / kQueries, "1.00", "-",
                "-", "ref");

    for (size_t threads : {1u, 2u, 4u, 8u}) {
      std::unique_ptr<ThreadPool> pool;
      if (threads == 1) {
        cluster.SetExecutor(nullptr);  // sequential engine, new kernel
      } else {
        pool = std::make_unique<ThreadPool>(threads);
        cluster.SetExecutor(pool.get());
      }

      bool exact = true;
      for (size_t q = 0; q < queries.size(); ++q) {
        if (!SameRanking(cluster.Query(queries[q], kTopN, kFragments),
                         reference[q])) {
          exact = false;
        }
      }

      Measurement m = MeasureBatch(
          queries, [&](const std::vector<std::string>& q,
                       ir::ClusterQueryStats* stats) {
            cluster.Query(q, kTopN, kFragments, stats);
          });
      double vs_seed = seed.batch_ms / m.batch_ms;
      std::printf("%-6zu %-8zu %-12.2f %-12.3f %-10.2f %-12.1f %-12.1f %-8s\n",
                  nodes, threads, m.batch_ms, m.batch_ms / kQueries, vs_seed,
                  m.critical_path_us, m.total_cpu_us, exact ? "yes" : "NO");

      if (nodes == 1 && threads == 1) kernel_seq_ms = m.batch_ms;
      if (nodes == 1) kernel_seed_ms = seed.batch_ms;

      sweep_json += StrFormat(
          "    {\"nodes\": %zu, \"threads\": %zu, \"batch_ms\": %.3f, "
          "\"ms_per_query\": %.4f, \"speedup_vs_seed_baseline\": %.3f, "
          "\"seed_baseline_batch_ms\": %.3f, "
          "\"critical_path_us_per_query\": %.2f, "
          "\"total_cpu_us_per_query\": %.2f, "
          "\"shared_nothing_speedup\": %.3f, \"exact\": %s},\n",
          nodes, threads, m.batch_ms, m.batch_ms / kQueries, vs_seed,
          seed.batch_ms, m.critical_path_us, m.total_cpu_us,
          m.critical_path_us > 0 ? m.total_cpu_us / m.critical_path_us : 1.0,
          exact ? "true" : "false");
    }
    cluster.SetExecutor(nullptr);
    std::printf("\n");
  }

  double kernel_speedup =
      kernel_seq_ms > 0 ? kernel_seed_ms / kernel_seq_ms : 0;
  std::printf(
      "scoring kernel (1 node, 1 thread): seed map+sort %.2f ms vs "
      "accumulator+heap %.2f ms -> %.2fx\n",
      kernel_seed_ms, kernel_seq_ms, kernel_speedup);
  std::printf(
      "(vs_seed = wall-clock speedup over the seed map+sort sequential "
      "implementation; shared_nothing_speedup = total_cpu/critical_path, "
      "the measured E4 bound)\n");

  if (!sweep_json.empty()) sweep_json.resize(sweep_json.size() - 2);
  std::FILE* out = std::fopen(json_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"parallel_query\",\n"
               "  \"corpus\": {\"docs\": %d, \"words_per_doc\": %d, "
               "\"vocab\": %zu, \"zipf_theta\": %.2f, \"fragments\": %zu, "
               "\"queries\": %d, \"terms_per_query\": %d, \"top_n\": %zu},\n"
               "  \"hardware_threads\": %u,\n"
               "  \"kernel\": {\"seed_map_sort_batch_ms\": %.3f, "
               "\"accumulator_heap_batch_ms\": %.3f, \"speedup\": %.3f},\n"
               "  \"sweep\": [\n%s\n  ]\n"
               "}\n",
               kDocs, kWordsPerDoc, kVocab, kZipfTheta, kFragments, kQueries,
               kTermsPerQuery, kTopN, std::thread::hardware_concurrency(),
               kernel_seed_ms, kernel_seq_ms, kernel_speedup,
               sweep_json.c_str());
  std::fclose(out);
  std::printf("wrote %s\n", json_path);
  return 0;
}
