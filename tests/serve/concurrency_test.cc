// Overload-shaped concurrency over the whole serving stack: many more
// clients than capacity, a tiny admission queue, degradation and
// shedding both active. Every answered query must still be
// bit-identical to a direct cluster query at its effective cut-off,
// every shed must carry the right status, and the admission counters
// must balance exactly. ci/check.sh runs this suite under
// ThreadSanitizer (all three kernels).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "ir/cluster.h"
#include "serve/backend.h"
#include "serve/frontend.h"

namespace dls::serve {
namespace {

void BuildCorpus(ir::ClusterIndex* cluster, int docs, uint64_t seed) {
  Rng rng(seed);
  ZipfSampler zipf(300, 1.1);
  for (int d = 0; d < docs; ++d) {
    std::string body;
    for (int w = 0; w < 50; ++w) {
      body += StrFormat("term%03zu ", zipf.Sample(&rng));
    }
    cluster->AddDocument(StrFormat("doc%03d", d), body);
  }
  cluster->Finalize();
}

std::vector<std::vector<std::string>> SeededQueries(int count, uint64_t seed) {
  Rng rng(seed);
  ZipfSampler zipf(300, 1.1);
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

bool SameRanking(const std::vector<ir::ClusterScoredDoc>& got,
                 const std::vector<ir::ClusterScoredDoc>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].url != want[i].url || got[i].score != want[i].score) {
      return false;
    }
  }
  return true;
}

TEST(ServeConcurrencyTest, OverloadedFrontendStaysExactAndBalanced) {
  constexpr size_t kFragments = 4;
  ir::ClusterIndex cluster(3, kFragments);
  BuildCorpus(&cluster, 250, 141);
  LocalBackend backend(&cluster);

  // Deliberately undersized: 12 clients against 2 workers and a
  // 2-deep queue, watermark at 1 — shedding and degradation both fire.
  FrontendOptions options;
  options.max_queue = 2;
  options.num_workers = 2;
  options.max_batch = 4;
  options.degrade_watermark = 1;
  options.default_deadline_ms = 10000;
  options.cache_entries = 64;
  options.cache_shards = 4;
  Frontend frontend(&backend, options);

  const auto queries = SeededQueries(12, 142);
  // A degraded answer is exact for the halved cut-off: precompute both
  // references and pick by the response's own degraded flag.
  std::vector<std::vector<ir::ClusterScoredDoc>> expected_full;
  std::vector<std::vector<ir::ClusterScoredDoc>> expected_degraded;
  for (const auto& q : queries) {
    expected_full.push_back(cluster.Query(q, 10, kFragments, nullptr, {}));
    expected_degraded.push_back(
        cluster.Query(q, 10, kFragments / 2, nullptr, {}));
  }

  constexpr int kThreads = 12;
  constexpr int kItersPerThread = 40;
  std::atomic<int> failures{0};
  std::atomic<int> answered{0};
  std::atomic<int> shed{0};
  std::atomic<bool> done{false};

  // A stats reader races the clients the whole time (TSan coverage of
  // the counter/histogram read path).
  std::thread stats_reader([&frontend, &done] {
    while (!done.load(std::memory_order_relaxed)) {
      ServeStats stats = frontend.Stats();
      if (stats.submitted >
          stats.completed + stats.shed_queue_full + stats.shed_deadline +
              stats.expired_in_queue + 1000000) {
        // Unreachable; keeps the read from being optimised out.
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        const size_t qi = (t * 7 + i) % queries.size();
        SearchQuery query;
        query.words = queries[qi];
        query.n = 10;
        query.max_fragments = kFragments;
        query.options.prune = (i % 2) == 0;  // shares cache entries
        if (i % 9 == 8) query.deadline_ms = 1;  // exercises expiry paths

        SearchResult result = frontend.Search(query);
        if (result.status.ok()) {
          const auto& want =
              result.degraded ? expected_degraded[qi] : expected_full[qi];
          if (!SameRanking(result.results, want)) failures.fetch_add(1);
          answered.fetch_add(1);
        } else if (result.status.code() == StatusCode::kUnavailable ||
                   result.status.code() == StatusCode::kDeadlineExceeded) {
          shed.fetch_add(1);
        } else {
          failures.fetch_add(1);  // any other status is a bug
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  done.store(true, std::memory_order_relaxed);
  stats_reader.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(answered.load(), 0);
  EXPECT_EQ(answered.load() + shed.load(), kThreads * kItersPerThread);

  // The admission ledger balances exactly once the system is idle.
  const ServeStats stats = frontend.Stats();
  EXPECT_EQ(stats.submitted,
            static_cast<uint64_t>(kThreads) * kItersPerThread);
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.shed_queue_full + stats.shed_deadline +
                stats.expired_in_queue);
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(answered.load()));
  EXPECT_EQ(stats.latency.count, stats.completed);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.submitted);
}

// Stop() racing live traffic: admitted requests drain with answers,
// late arrivals shed kUnavailable, nothing hangs or crashes.
TEST(ServeConcurrencyTest, StopUnderLoadDrainsAdmittedRequests) {
  ir::ClusterIndex cluster(2, 2);
  BuildCorpus(&cluster, 150, 151);
  LocalBackend backend(&cluster);

  FrontendOptions options;
  options.num_workers = 2;
  options.max_batch = 4;
  options.default_deadline_ms = 10000;
  Frontend frontend(&backend, options);

  const auto queries = SeededQueries(8, 152);
  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        SearchQuery query;
        query.words = queries[(t + i) % queries.size()];
        query.max_fragments = 2;
        SearchResult result = frontend.Search(query);
        // Every outcome during shutdown is ok-with-results or a shed.
        if (result.status.ok()) {
          if (result.results.empty() && !query.words.empty()) {
            // An answered query over this corpus always finds docs.
            bad.fetch_add(1);
          }
        } else if (result.status.code() != StatusCode::kUnavailable &&
                   result.status.code() != StatusCode::kDeadlineExceeded) {
          bad.fetch_add(1);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  frontend.Stop();
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(bad.load(), 0);
  SearchQuery late;
  late.words = queries[0];
  EXPECT_EQ(frontend.Search(late).status.code(), StatusCode::kUnavailable);
  const ServeStats stats = frontend.Stats();
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.shed_queue_full + stats.shed_deadline +
                stats.expired_in_queue);
}

}  // namespace
}  // namespace dls::serve
