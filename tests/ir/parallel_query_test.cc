// Determinism and thread-safety of the parallel cluster execution
// engine: fan-out over the pool must be invisible in the results —
// bit-identical rankings, scores, and work stats — and concurrent
// Query() calls against one frozen ClusterIndex must be race-free
// (this suite is the ThreadSanitizer target of ci/check.sh).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "ir/cluster.h"

namespace dls::ir {
namespace {

void BuildCorpus(ClusterIndex* cluster, int docs, uint64_t seed) {
  Rng rng(seed);
  ZipfSampler zipf(400, 1.1);
  for (int d = 0; d < docs; ++d) {
    std::string body;
    for (int w = 0; w < 50; ++w) {
      body += StrFormat("term%03zu ", zipf.Sample(&rng));
    }
    cluster->AddDocument(StrFormat("doc%04d", d), body);
  }
  cluster->Finalize();
}

std::vector<std::vector<std::string>> SeededQueries(int count, uint64_t seed) {
  Rng rng(seed);
  ZipfSampler zipf(400, 1.1);
  std::vector<std::vector<std::string>> queries;
  for (int q = 0; q < count; ++q) {
    std::vector<std::string> words;
    for (int w = 0; w < 3; ++w) {
      words.push_back(StrFormat("term%03zu", zipf.Sample(&rng)));
    }
    queries.push_back(std::move(words));
  }
  return queries;
}

void ExpectIdentical(const std::vector<ClusterScoredDoc>& a,
                     const std::vector<ClusterScoredDoc>& b, size_t q) {
  ASSERT_EQ(a.size(), b.size()) << "query " << q;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].url, b[i].url) << "query " << q << " rank " << i;
    // Bit-identical, not approximately equal: the parallel path must
    // accumulate in exactly the same order per document.
    EXPECT_EQ(a[i].score, b[i].score) << "query " << q << " rank " << i;
  }
}

TEST(ParallelQueryTest, MatchesSequentialAcross100SeededQueries) {
  ClusterIndex cluster(7, 4);
  BuildCorpus(&cluster, 600, 11);
  auto queries = SeededQueries(100, 12);

  // Sequential reference first (no executor attached).
  std::vector<std::vector<ClusterScoredDoc>> expected;
  std::vector<ClusterQueryStats> expected_stats(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    expected.push_back(cluster.Query(queries[q], 10, 4, &expected_stats[q]));
  }

  ThreadPool pool(4);
  cluster.SetExecutor(&pool);
  for (size_t q = 0; q < queries.size(); ++q) {
    ClusterQueryStats stats;
    std::vector<ClusterScoredDoc> got =
        cluster.Query(queries[q], 10, 4, &stats);
    ExpectIdentical(got, expected[q], q);
    EXPECT_EQ(stats.postings_touched_total,
              expected_stats[q].postings_touched_total);
    EXPECT_EQ(stats.postings_touched_max_node,
              expected_stats[q].postings_touched_max_node);
    EXPECT_EQ(stats.messages, expected_stats[q].messages);
    EXPECT_EQ(stats.bytes_shipped, expected_stats[q].bytes_shipped);
    EXPECT_DOUBLE_EQ(stats.predicted_quality,
                     expected_stats[q].predicted_quality);
    EXPECT_GT(stats.critical_path_us, 0.0);
    EXPECT_GE(stats.total_cpu_us, stats.critical_path_us);
  }
}

TEST(ParallelQueryTest, FragmentCutoffPathAlsoIdentical) {
  ClusterIndex cluster(5, 8);
  BuildCorpus(&cluster, 400, 21);
  auto queries = SeededQueries(40, 22);

  std::vector<std::vector<ClusterScoredDoc>> expected;
  for (const auto& q : queries) expected.push_back(cluster.Query(q, 10, 2));

  cluster.EnableParallelism(3);
  for (size_t q = 0; q < queries.size(); ++q) {
    ExpectIdentical(cluster.Query(queries[q], 10, 2), expected[q], q);
  }
}

TEST(ParallelQueryTest, ParallelFinalizeMatchesSequentialBuild) {
  ClusterIndex sequential(6, 4);
  ClusterIndex parallel(6, 4);
  parallel.EnableParallelism(4);  // Finalize() fans out per-node work

  Rng rng(31);
  ZipfSampler zipf(400, 1.1);
  for (int d = 0; d < 500; ++d) {
    std::string body;
    for (int w = 0; w < 50; ++w) {
      body += StrFormat("term%03zu ", zipf.Sample(&rng));
    }
    std::string url = StrFormat("doc%04d", d);
    sequential.AddDocument(url, body);
    parallel.AddDocument(url, body);
  }
  sequential.Finalize();
  parallel.Finalize();

  for (const auto& q : SeededQueries(30, 32)) {
    ExpectIdentical(parallel.Query(q, 10, 4), sequential.Query(q, 10, 4), 0);
  }
}

TEST(ParallelQueryTest, ConcurrentQueriesAreThreadSafe) {
  ClusterIndex cluster(4, 4);
  BuildCorpus(&cluster, 300, 41);
  cluster.EnableParallelism(4);

  auto queries = SeededQueries(24, 42);
  std::vector<std::vector<ClusterScoredDoc>> expected;
  for (const auto& q : queries) expected.push_back(cluster.Query(q, 10, 4));

  // Four client threads hammer the same frozen cluster; each issues
  // every query and checks the answer. Under TSan this exercises the
  // shared pool, the thread-local accumulators, and the frozen read
  // path of all four node indexes.
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      for (size_t q = 0; q < queries.size(); ++q) {
        std::vector<ClusterScoredDoc> got = cluster.Query(queries[q], 10, 4);
        if (got.size() != expected[q].size()) {
          ++failures;
          continue;
        }
        for (size_t i = 0; i < got.size(); ++i) {
          if (got[i].url != expected[q][i].url ||
              got[i].score != expected[q][i].score) {
            ++failures;
          }
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
}

// QueryBatch runs the same coordinator as Query: with the nodes called
// in turn, every rider — pruned ones included, through their own
// threshold feedback — ranks and counts exactly as when it travels
// alone; over the pool the rankings stay identical.
TEST(ParallelQueryTest, QueryBatchMatchesPerQuery) {
  ClusterIndex cluster(5, 4);
  BuildCorpus(&cluster, 400, 61);
  auto queries = SeededQueries(16, 62);

  RankOptions pruned;
  pruned.prune = true;
  pruned.strategy = RankStrategy::kWand;
  ThreadPool pool(3);
  for (const RankOptions& options : {RankOptions(), pruned}) {
    cluster.SetExecutor(nullptr);
    ClusterQueryStats batch_stats;
    std::vector<ClusterQueryStats> per_query;
    std::vector<std::vector<ClusterScoredDoc>> batched =
        cluster.QueryBatch(queries, 10, 3, &batch_stats, options, &per_query);
    ASSERT_EQ(batched.size(), queries.size());
    ASSERT_EQ(per_query.size(), queries.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      ClusterQueryStats solo;
      ExpectIdentical(batched[q],
                      cluster.Query(queries[q], 10, 3, &solo, options), q);
      const ClusterQueryStats& rider = per_query[q];
      EXPECT_EQ(rider.postings_touched_total, solo.postings_touched_total);
      EXPECT_EQ(rider.postings_touched_max_node,
                solo.postings_touched_max_node);
      EXPECT_EQ(rider.blocks_skipped, solo.blocks_skipped);
      EXPECT_EQ(rider.blocks_decoded, solo.blocks_decoded);
      EXPECT_EQ(rider.pivot_iterations, solo.pivot_iterations);
      EXPECT_EQ(rider.cursor_advances, solo.cursor_advances);
      EXPECT_EQ(rider.messages, solo.messages);
      EXPECT_EQ(rider.bytes_shipped, solo.bytes_shipped);
      EXPECT_EQ(rider.predicted_quality, solo.predicted_quality);
    }

    cluster.SetExecutor(&pool);
    std::vector<std::vector<ClusterScoredDoc>> parallel =
        cluster.QueryBatch(queries, 10, 3, nullptr, options);
    ASSERT_EQ(parallel.size(), queries.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      ExpectIdentical(parallel[q], batched[q], q);
    }
  }
  cluster.SetExecutor(nullptr);
}

TEST(ParallelQueryTest, DetachingExecutorRestoresSequentialPath) {
  ClusterIndex cluster(3, 2);
  BuildCorpus(&cluster, 100, 51);
  std::vector<ClusterScoredDoc> before = cluster.Query({"term001"}, 5, 2);
  cluster.EnableParallelism(2);
  std::vector<ClusterScoredDoc> during = cluster.Query({"term001"}, 5, 2);
  cluster.SetExecutor(nullptr);
  std::vector<ClusterScoredDoc> after = cluster.Query({"term001"}, 5, 2);
  ExpectIdentical(during, before, 0);
  ExpectIdentical(after, before, 0);
}

}  // namespace
}  // namespace dls::ir
