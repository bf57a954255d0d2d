// The serving frontend's contract: every answered query is
// bit-identical to a direct ClusterIndex::Query at the effective
// (possibly degraded) cut-off, whatever combination of cache, batcher
// and backend produced it — and everything that is not answered is
// shed honestly, with the right status and counter.
#include "serve/frontend.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "ingest/live_index.h"
#include "ir/cluster.h"
#include "net/remote_cluster.h"
#include "net/shard_server.h"
#include "net/transport.h"
#include "serve/backend.h"

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

void ExpectIdentical(const std::vector<ir::ClusterScoredDoc>& got,
                     const std::vector<ir::ClusterScoredDoc>& want,
                     size_t q) {
  ASSERT_EQ(got.size(), want.size()) << "query " << q;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].url, want[i].url) << "query " << q << " rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "query " << q << " rank " << i;
  }
}

/// Delegating backend whose QueryBatch blocks until Open(): the
/// deterministic handle on the frontend's queue — park the worker in
/// the backend, stack requests behind it, observe degradation /
/// shedding / coalescing, then release.
class GatedBackend final : public Backend {
 public:
  explicit GatedBackend(const Backend* inner) : inner_(inner) {}

  uint64_t Epoch() const override { return inner_->Epoch(); }
  bool NormStem() const override { return inner_->NormStem(); }
  bool NormStop() const override { return inner_->NormStop(); }

  std::vector<std::vector<ir::ClusterScoredDoc>> QueryBatch(
      const std::vector<std::vector<std::string>>& queries, size_t n,
      size_t max_fragments, ir::ClusterQueryStats* stats,
      std::vector<ir::ClusterQueryStats>* per_query_stats,
      const ir::RankOptions& options) const override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++entered_;
      batch_sizes_.push_back(queries.size());
      cv_.notify_all();
      cv_.wait(lock, [this] { return open_; });
    }
    return inner_->QueryBatch(queries, n, max_fragments, stats,
                              per_query_stats, options);
  }

  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

  /// Blocks until `count` QueryBatch calls have started.
  void AwaitEntered(int count) const {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this, count] { return entered_ >= count; });
  }

  std::vector<size_t> batch_sizes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return batch_sizes_;
  }

 private:
  const Backend* inner_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable int entered_ = 0;
  mutable bool open_ = false;
  mutable std::vector<size_t> batch_sizes_;
};

/// Delegating backend with a fixed service-time floor — feeds the
/// frontend's EWMA predictor a fat, stable batch cost.
class SlowBackend final : public Backend {
 public:
  SlowBackend(const Backend* inner, int millis)
      : inner_(inner), millis_(millis) {}

  uint64_t Epoch() const override { return inner_->Epoch(); }
  bool NormStem() const override { return inner_->NormStem(); }
  bool NormStop() const override { return inner_->NormStop(); }

  std::vector<std::vector<ir::ClusterScoredDoc>> QueryBatch(
      const std::vector<std::vector<std::string>>& queries, size_t n,
      size_t max_fragments, ir::ClusterQueryStats* stats,
      std::vector<ir::ClusterQueryStats>* per_query_stats,
      const ir::RankOptions& options) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(millis_));
    return inner_->QueryBatch(queries, n, max_fragments, stats,
                              per_query_stats, options);
  }

 private:
  const Backend* inner_;
  const int millis_;
};

/// Polls Stats() until `pred` holds (the queue is filled by other
/// threads; depth changes are not condition-variable-visible to the
/// test). Hard 10 s bail-out so a bug fails instead of hanging CI.
void AwaitStats(const Frontend& frontend,
                const std::function<bool(const ServeStats&)>& pred) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!pred(frontend.Stats())) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up)
        << "stats predicate never held";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(FrontendTest, AnswersBitIdenticalToDirectQueryThenServesFromCache) {
  ir::ClusterIndex cluster(4, 4);
  BuildCorpus(&cluster, 300, 21);
  LocalBackend backend(&cluster);
  Frontend frontend(&backend);

  auto queries = SeededQueries(30, 22);
  for (const bool prune : {false, true}) {
    ir::RankOptions options;
    options.prune = prune;
    for (size_t q = 0; q < queries.size(); ++q) {
      SearchQuery query;
      query.words = queries[q];
      query.n = 10;
      query.max_fragments = 4;
      query.options = options;

      const std::vector<ir::ClusterScoredDoc> expected =
          cluster.Query(queries[q], 10, 4, nullptr, options);

      SearchResult first = frontend.Search(query);
      ASSERT_TRUE(first.status.ok()) << first.status.message();
      EXPECT_FALSE(first.degraded);
      ExpectIdentical(first.results, expected, q);

      SearchResult second = frontend.Search(query);
      ASSERT_TRUE(second.status.ok());
      EXPECT_TRUE(second.cache_hit) << "query " << q;
      ExpectIdentical(second.results, expected, q);
    }
  }
  const ServeStats stats = frontend.Stats();
  EXPECT_GE(stats.cache_hits, queries.size());
  EXPECT_EQ(stats.submitted, stats.completed);
  EXPECT_GT(stats.latency.count, 0u);
}

// Pruned and exhaustive rankings are bit-identical by the kernel
// contract, so they deliberately share cache entries: an exhaustive
// fill must be served to a pruned lookup.
TEST(FrontendTest, PruneModesShareCacheEntries) {
  ir::ClusterIndex cluster(3, 2);
  BuildCorpus(&cluster, 200, 31);
  LocalBackend backend(&cluster);
  Frontend frontend(&backend);

  SearchQuery query;
  query.words = {"term001", "term002"};
  query.max_fragments = 2;
  query.options.prune = false;
  SearchResult exhaustive = frontend.Search(query);
  ASSERT_TRUE(exhaustive.status.ok());

  query.options.prune = true;
  SearchResult pruned = frontend.Search(query);
  ASSERT_TRUE(pruned.status.ok());
  EXPECT_TRUE(pruned.cache_hit);
  ExpectIdentical(pruned.results, exhaustive.results, 0);
}

// Two spellings that normalise to the same resolved query share one
// entry — the cache key runs the backend's own pipeline.
TEST(FrontendTest, SpellingsOfOneResolvedQueryShareACacheEntry) {
  ir::ClusterIndex cluster(3, 2);
  BuildCorpus(&cluster, 200, 41);
  LocalBackend backend(&cluster);
  Frontend frontend(&backend);

  SearchQuery query;
  query.words = {"term007", "term008"};
  query.max_fragments = 2;
  SearchResult first = frontend.Search(query);
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.cache_hit);

  // Different raw words: case, duplicates — same resolved stems.
  query.words = {"TERM007", "Term008", "term007"};
  SearchResult second = frontend.Search(query);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cache_hit);
  ExpectIdentical(second.results, first.results, 0);
}

// The epoch key at work: a reindex (AddDocument + Finalize drives
// TextIndex::Flush on the dirty node) must invalidate every cached
// ranking, and the re-evaluation must see the new corpus.
TEST(FrontendTest, ReindexInvalidatesCacheThroughEpoch) {
  ir::ClusterIndex cluster(2, 2);
  BuildCorpus(&cluster, 120, 51);
  LocalBackend backend(&cluster);
  Frontend frontend(&backend);

  SearchQuery query;
  query.words = {"term003"};
  query.max_fragments = 2;
  ASSERT_TRUE(frontend.Search(query).status.ok());
  ASSERT_TRUE(frontend.Search(query).cache_hit);

  const uint64_t epoch_before = frontend.Stats().epoch;
  // Mutate: a new document stuffed with the query term reranks it.
  cluster.AddDocument("doc-new", "term003 term003 term003 term003");
  cluster.Finalize();
  ASSERT_NE(frontend.Stats().epoch, epoch_before);

  SearchResult fresh = frontend.Search(query);
  ASSERT_TRUE(fresh.status.ok());
  EXPECT_FALSE(fresh.cache_hit);  // the stale entry died, not served
  ExpectIdentical(fresh.results,
                  cluster.Query(query.words, 10, 2, nullptr, {}), 0);
  // And the ranking really changed: the stuffed document is in it.
  bool found = false;
  for (const auto& doc : fresh.results) found |= doc.url == "doc-new";
  EXPECT_TRUE(found);
}

// Past the watermark the fragment cut-off halves: the answer is still
// bit-identical to a direct query at the *degraded* cut-off, flagged
// honestly, and cheaper — quality degrades before availability.
TEST(FrontendTest, DegradesFragmentCutoffAtQueueWatermark) {
  ir::ClusterIndex cluster(3, 4);
  BuildCorpus(&cluster, 250, 61);
  LocalBackend local(&cluster);
  GatedBackend gate(&local);

  FrontendOptions options;
  options.num_workers = 1;
  options.max_batch = 1;
  options.degrade_watermark = 1;
  options.default_deadline_ms = 60000;
  Frontend frontend(&gate, options);

  auto submit = [&frontend](std::vector<std::string> words,
                            size_t max_fragments) {
    return std::async(std::launch::async, [&frontend, words, max_fragments] {
      SearchQuery query;
      query.words = words;
      query.max_fragments = max_fragments;
      return frontend.Search(query);
    });
  };

  // q1 parks the only worker inside the backend; q2 sits in the queue.
  auto f1 = submit({"term001"}, 4);
  gate.AwaitEntered(1);
  auto f2 = submit({"term002"}, 4);
  AwaitStats(frontend, [](const ServeStats& s) { return s.queue_depth >= 1; });

  // q3 sees depth >= watermark: admitted at half the cut-off.
  auto f3 = submit({"term003"}, 4);
  AwaitStats(frontend, [](const ServeStats& s) { return s.queue_depth >= 2; });
  gate.Open();

  SearchResult r1 = f1.get(), r2 = f2.get(), r3 = f3.get();
  ASSERT_TRUE(r1.status.ok());
  ASSERT_TRUE(r2.status.ok());
  ASSERT_TRUE(r3.status.ok());
  EXPECT_FALSE(r1.degraded);
  EXPECT_TRUE(r3.degraded);
  ExpectIdentical(r1.results, cluster.Query({"term001"}, 10, 4, nullptr, {}),
                  1);
  ExpectIdentical(r3.results, cluster.Query({"term003"}, 10, 2, nullptr, {}),
                  3);
  EXPECT_GE(frontend.Stats().degraded, 1u);
}

TEST(FrontendTest, ShedsWithUnavailableWhenQueueIsFull) {
  ir::ClusterIndex cluster(2, 2);
  BuildCorpus(&cluster, 120, 71);
  LocalBackend local(&cluster);
  GatedBackend gate(&local);

  FrontendOptions options;
  options.num_workers = 1;
  options.max_batch = 1;
  options.max_queue = 2;
  options.degrade_watermark = 0;
  options.default_deadline_ms = 60000;
  Frontend frontend(&gate, options);

  auto submit = [&frontend](std::vector<std::string> words) {
    return std::async(std::launch::async, [&frontend, words] {
      SearchQuery query;
      query.words = words;
      query.max_fragments = 2;
      return frontend.Search(query);
    });
  };

  auto f1 = submit({"term001"});
  gate.AwaitEntered(1);  // worker parked; queue now fills
  auto f2 = submit({"term002"});
  auto f3 = submit({"term003"});
  AwaitStats(frontend, [](const ServeStats& s) { return s.queue_depth >= 2; });

  SearchQuery overflow;
  overflow.words = {"term004"};
  overflow.max_fragments = 2;
  SearchResult shed = frontend.Search(overflow);
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(shed.results.empty());
  EXPECT_EQ(frontend.Stats().shed_queue_full, 1u);

  gate.Open();
  // Everything admitted still completes, correctly.
  for (auto* f : {&f1, &f2, &f3}) {
    SearchResult r = f->get();
    ASSERT_TRUE(r.status.ok()) << r.status.message();
    EXPECT_FALSE(r.results.empty());
  }
  const ServeStats stats = frontend.Stats();
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.shed_queue_full + stats.shed_deadline +
                stats.expired_in_queue);
}

// A request that expires while queued is answered kDeadlineExceeded
// without ever reaching the backend.
TEST(FrontendTest, ExpiresInQueueWithoutTouchingBackend) {
  ir::ClusterIndex cluster(2, 2);
  BuildCorpus(&cluster, 120, 81);
  LocalBackend local(&cluster);
  GatedBackend gate(&local);

  FrontendOptions options;
  options.num_workers = 1;
  options.max_batch = 1;
  options.default_deadline_ms = 60000;
  Frontend frontend(&gate, options);

  auto f1 = std::async(std::launch::async, [&frontend] {
    SearchQuery query;
    query.words = {"term001"};
    query.max_fragments = 2;
    return frontend.Search(query);
  });
  gate.AwaitEntered(1);

  auto f2 = std::async(std::launch::async, [&frontend] {
    SearchQuery query;
    query.words = {"term002"};
    query.max_fragments = 2;
    query.deadline_ms = 30;  // will rot behind the parked worker
    return frontend.Search(query);
  });
  AwaitStats(frontend, [](const ServeStats& s) { return s.queue_depth >= 1; });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  gate.Open();

  ASSERT_TRUE(f1.get().status.ok());
  SearchResult expired = f2.get();
  EXPECT_EQ(expired.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(expired.results.empty());
  const ServeStats stats = frontend.Stats();
  EXPECT_EQ(stats.expired_in_queue, 1u);
  // The expired request's batch never shipped: one backend call only.
  EXPECT_EQ(gate.batch_sizes().size(), 1u);
}

// Deadline-aware admission: once the EWMA knows a batch costs ~40 ms,
// a 1 ms-deadline request is refused *at admission* with a
// retry-after hint, not queued to die.
TEST(FrontendTest, ShedsAtAdmissionWhenPredictedWaitExceedsDeadline) {
  ir::ClusterIndex cluster(2, 2);
  BuildCorpus(&cluster, 120, 91);
  LocalBackend local(&cluster);
  SlowBackend slow(&local, 40);

  FrontendOptions options;
  options.num_workers = 1;
  options.max_batch = 1;
  Frontend frontend(&slow, options);

  SearchQuery warm;
  warm.words = {"term001"};
  warm.max_fragments = 2;
  ASSERT_TRUE(frontend.Search(warm).status.ok());  // teaches the EWMA

  SearchQuery hurried;
  hurried.words = {"term002"};
  hurried.max_fragments = 2;
  hurried.deadline_ms = 20;  // well under the learnt ~40 ms batch cost
  SearchResult shed = frontend.Search(hurried);
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);
  EXPECT_GT(shed.retry_after_ms, 0u);
  EXPECT_GE(frontend.Stats().shed_deadline, 1u);
}

// The dynamic batcher: requests stacked behind a parked worker ship as
// ONE backend call, and duplicate resolved queries inside the batch
// evaluate once.
TEST(FrontendTest, CoalescesQueuedRequestsAndDeduplicatesWithinBatch) {
  ir::ClusterIndex cluster(3, 2);
  BuildCorpus(&cluster, 200, 101);
  LocalBackend local(&cluster);
  GatedBackend gate(&local);

  FrontendOptions options;
  options.num_workers = 1;
  options.max_batch = 8;
  options.degrade_watermark = 0;
  options.default_deadline_ms = 60000;
  Frontend frontend(&gate, options);

  auto submit = [&frontend](std::vector<std::string> words) {
    return std::async(std::launch::async, [&frontend, words] {
      SearchQuery query;
      query.words = words;
      query.max_fragments = 2;
      return frontend.Search(query);
    });
  };

  auto f1 = submit({"term001"});
  gate.AwaitEntered(1);  // first batch (size 1) parked in the backend
  auto f2 = submit({"term002"});
  auto f3 = submit({"term002"});  // duplicate of f2 — must not re-evaluate
  auto f4 = submit({"term003"});
  AwaitStats(frontend, [](const ServeStats& s) { return s.queue_depth >= 3; });
  gate.Open();

  SearchResult r2 = f2.get(), r3 = f3.get();
  ASSERT_TRUE(f1.get().status.ok());
  ASSERT_TRUE(r2.status.ok());
  ASSERT_TRUE(r3.status.ok());
  ASSERT_TRUE(f4.get().status.ok());
  ExpectIdentical(r3.results, r2.results, 3);

  const ServeStats stats = frontend.Stats();
  EXPECT_EQ(stats.batches, 2u);          // [q1], [q2,q2',q3]
  EXPECT_EQ(stats.batched_queries, 4u);  // all four requests answered
  const std::vector<size_t> sizes = gate.batch_sizes();
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0], 1u);
  EXPECT_EQ(sizes[1], 2u);  // the duplicate collapsed before the backend
}

// Same frontend, remote backend: the full stack — frontend cache and
// batcher over RemoteClusterIndex over wire frames over a ShardServer —
// stays bit-identical to the in-process cluster.
TEST(FrontendTest, RemoteBackendStaysBitIdenticalAndCaches) {
  ir::ClusterIndex cluster(3, 4);
  BuildCorpus(&cluster, 250, 111);

  net::ShardServer server;
  std::vector<std::unique_ptr<net::LoopbackTransport>> transports;
  std::vector<net::RemoteClusterIndex::Shard> shards;
  for (size_t i = 0; i < 3; ++i) {
    server.AddNode(&cluster.node_index(i), &cluster.node_fragments(i));
    transports.push_back(
        std::make_unique<net::LoopbackTransport>(server.Handler()));
    shards.push_back({transports[i].get(), static_cast<uint32_t>(i)});
  }
  net::RemoteClusterIndex remote(std::move(shards));
  ASSERT_TRUE(remote.Connect().ok());

  RemoteBackend backend(&remote);
  Frontend frontend(&backend);

  auto queries = SeededQueries(20, 112);
  for (const bool prune : {false, true}) {
    ir::RankOptions options;
    options.prune = prune;
    for (size_t q = 0; q < queries.size(); ++q) {
      SearchQuery query;
      query.words = queries[q];
      query.max_fragments = 4;
      query.options = options;
      const std::vector<ir::ClusterScoredDoc> expected =
          cluster.Query(queries[q], 10, 4, nullptr, options);
      SearchResult got = frontend.Search(query);
      ASSERT_TRUE(got.status.ok()) << got.status.message();
      ExpectIdentical(got.results, expected, q);
      SearchResult again = frontend.Search(query);
      ASSERT_TRUE(again.status.ok());
      EXPECT_TRUE(again.cache_hit);
      ExpectIdentical(again.results, expected, q);
    }
  }
}

// Read-your-writes on the remote live path: the centre applies an
// insert's statistics delta and the shard's new epoch before Insert()
// returns, so the backend epoch has already moved and the next search
// of a cached query misses the cache and ranks the new document —
// instead of serving the pre-insert ranking as an unflagged hit.
TEST(FrontendTest, RemoteLiveInsertIsVisibleToTheNextSearch) {
  net::ShardServer server;
  std::vector<std::unique_ptr<ingest::LiveIndex>> lives;
  std::vector<std::unique_ptr<net::LoopbackTransport>> transports;
  std::vector<net::RemoteClusterIndex::Shard> shards;
  for (uint32_t i = 0; i < 3; ++i) {
    lives.push_back(std::make_unique<ingest::LiveIndex>());
    server.AddLiveNode(lives.back().get());
    transports.push_back(
        std::make_unique<net::LoopbackTransport>(server.Handler()));
    shards.push_back({transports.back().get(), i});
  }
  net::RemoteClusterIndex remote(std::move(shards));
  // Preload each shard directly, under the centre's routing, then
  // connect: the handshake sees every preloaded document.
  Rng rng(151);
  ZipfSampler zipf(300, 1.1);
  for (int d = 0; d < 90; ++d) {
    std::string body;
    for (int w = 0; w < 30; ++w) {
      body += StrFormat("term%03zu ", zipf.Sample(&rng));
    }
    const std::string url = StrFormat("doc%03d", d);
    ASSERT_TRUE(lives[remote.ShardForUrl(url)]->Insert(url, body).ok());
  }
  ASSERT_TRUE(remote.Connect().ok());

  RemoteBackend backend(&remote);
  FrontendOptions options;
  options.warm_top_k = 0;  // strict: a cached entry never outlives its epoch
  Frontend frontend(&backend, options);

  SearchQuery query;
  query.words = {"term004", "term009"};
  query.max_fragments = 4;
  SearchResult before = frontend.Search(query);
  ASSERT_TRUE(before.status.ok());
  EXPECT_FALSE(before.cache_hit);
  ASSERT_TRUE(frontend.Search(query).cache_hit);

  const uint64_t epoch = backend.Epoch();
  ASSERT_TRUE(remote.Insert("doc-new", "term004 term009 term004 term009").ok());
  EXPECT_NE(backend.Epoch(), epoch);

  SearchResult after = frontend.Search(query);
  ASSERT_TRUE(after.status.ok());
  EXPECT_FALSE(after.cache_hit);
  EXPECT_FALSE(after.stale);
  ASSERT_FALSE(after.results.empty());
  EXPECT_EQ(after.results[0].url, "doc-new");
  ExpectIdentical(after.results,
                  remote.Query(query.words, 10, 4, nullptr, {}), 0);
}

// An operator watching ServeStats must be able to tell heap from
// mapped memory: a heap-built cluster reports zero mapped bytes; one
// cold-started from segment files reports the mapping and answers
// identically.
TEST(FrontendTest, StatsSplitResidentFromMappedBytes) {
  ir::ClusterIndex cluster(2, 4);
  BuildCorpus(&cluster, 200, 131);
  LocalBackend heap_backend(&cluster);
  Frontend heap_frontend(&heap_backend);
  const ServeStats heap_stats = heap_frontend.Stats();
  EXPECT_GT(heap_stats.bytes_resident, 0u);
  EXPECT_EQ(heap_stats.bytes_mapped, 0u);

  const std::string prefix = testing::TempDir() + "frontend_segments";
  ASSERT_TRUE(cluster.FlushToDisk(prefix).ok());
  std::vector<std::string> paths;
  for (size_t i = 0; i < 2; ++i) {
    paths.push_back(ir::ClusterIndex::SegmentPath(prefix, i));
  }
  Result<std::unique_ptr<ir::ClusterIndex>> loaded =
      ir::ClusterIndex::LoadFromSegments(paths, 4);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  LocalBackend backend(loaded.value().get());
  Frontend frontend(&backend);
  const ServeStats stats = frontend.Stats();
  EXPECT_GT(stats.bytes_mapped, 0u);
  EXPECT_GT(stats.bytes_resident, 0u);
  EXPECT_LT(stats.bytes_resident, heap_stats.bytes_resident);

  auto queries = SeededQueries(5, 132);
  for (size_t q = 0; q < queries.size(); ++q) {
    SearchQuery query;
    query.words = queries[q];
    query.max_fragments = 4;
    SearchResult got = frontend.Search(query);
    ASSERT_TRUE(got.status.ok()) << got.status.message();
    ExpectIdentical(got.results, cluster.Query(queries[q], 10, 4), q);
  }
  for (const std::string& p : paths) std::remove(p.c_str());
}

TEST(FrontendTest, StopShedsNewSearchesAndIsIdempotent) {
  ir::ClusterIndex cluster(2, 2);
  BuildCorpus(&cluster, 100, 121);
  LocalBackend backend(&cluster);
  Frontend frontend(&backend);

  frontend.Stop();
  frontend.Stop();  // idempotent

  SearchQuery query;
  query.words = {"term001"};
  SearchResult shed = frontend.Search(query);
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace dls::serve
