// Replica sets: health-aware routing, failover, and tail-latency
// hedging in RemoteClusterIndex. The cross-cutting claim under test is
// the exactness-safety argument from DESIGN.md: replicas serve
// byte-identical node content, so *whatever* the router does — fail
// over, hedge, race two replicas and keep the first answer — the
// ranking that comes back must stay bit-identical to the in-process
// reference. The FaultScheduleTest suite at the bottom drives a
// deterministic randomized fault schedule seeded from DLS_FAULT_SEED
// (ci/check.sh faults runs it under several seeds).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "ir/cluster.h"
#include "net/remote_cluster.h"
#include "net/shard_server.h"
#include "net/tcp.h"
#include "net/transport.h"

namespace dls::net {
namespace {

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

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

void ExpectSameRanking(const std::vector<ir::ClusterScoredDoc>& got,
                       const std::vector<ir::ClusterScoredDoc>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].url, want[i].url) << "rank " << i;
    EXPECT_EQ(Bits(got[i].score), Bits(want[i].score)) << "rank " << i;
  }
}

const std::vector<std::vector<std::string>> kQueries = {
    {"term000", "term001"},
    {"term005", "term050", "term123"},
    {"term010"},
    {"term002", "unknownterm", "term002", "term090"},
};

/// In-process cluster + ShardServer + R LoopbackTransports per shard
/// (each individually fault-injectable) + the RemoteClusterIndex
/// dialling them as replica sets. All replicas of a shard hit the same
/// frozen node, which is exactly the deployment contract — identical
/// replica content — the router relies on.
struct ReplicatedCluster {
  ReplicatedCluster(size_t nodes, size_t replicas_per_shard, int docs,
                    uint64_t seed,
                    RemoteClusterIndex::Options options =
                        RemoteClusterIndex::Options())
      : cluster(nodes, /*num_fragments=*/4) {
    BuildCorpus(&cluster, docs, seed);
    std::vector<RemoteClusterIndex::ReplicaSet> sets(nodes);
    transports.resize(nodes);
    for (size_t i = 0; i < nodes; ++i) {
      server.AddNode(&cluster.node_index(i), &cluster.node_fragments(i));
    }
    for (size_t i = 0; i < nodes; ++i) {
      for (size_t r = 0; r < replicas_per_shard; ++r) {
        transports[i].push_back(
            std::make_unique<LoopbackTransport>(server.Handler()));
        sets[i].replicas.push_back(
            {transports[i][r].get(), static_cast<uint32_t>(i)});
      }
    }
    remote = std::make_unique<RemoteClusterIndex>(std::move(sets), options);
  }

  ir::ClusterIndex cluster;
  ShardServer server;
  std::vector<std::vector<std::unique_ptr<LoopbackTransport>>> transports;
  std::unique_ptr<RemoteClusterIndex> remote;
};

TEST(ReplicaTest, HealthyReplicaSetStaysBitIdentical) {
  ReplicatedCluster fx(4, 2, 120, 1);
  ASSERT_TRUE(fx.remote->Connect().ok());
  EXPECT_EQ(fx.remote->num_replicas(0), 2u);
  for (const auto& query : kQueries) {
    ir::ClusterQueryStats stats;
    ExpectSameRanking(fx.remote->Query(query, 10, 4, &stats),
                      fx.cluster.Query(query, 10, 4));
    // A healthy cold-start cluster routes like the single-replica
    // code: one request + one response per shard, nothing hedged.
    EXPECT_EQ(stats.messages, 2u * 4u);
    EXPECT_EQ(stats.hedges_fired, 0u);
    EXPECT_EQ(stats.failovers, 0u);
    EXPECT_EQ(Bits(stats.predicted_quality), Bits(1.0));
  }
  const RemoteClusterIndex::ReplicaCounters counters =
      fx.remote->replica_counters();
  EXPECT_EQ(counters.hedges_fired, 0u);
  EXPECT_EQ(counters.failovers, 0u);
  EXPECT_EQ(counters.replica_errors, 0u);
}

TEST(ReplicaTest, ConnectChecksEveryReplica) {
  ReplicatedCluster fx(3, 2, 60, 2);
  // A dead *replica* (not shard) still fails Connect: a cluster that
  // starts degraded is a deployment error.
  fx.transports[1][1]->Kill();
  Status status = fx.remote->Connect();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST(ReplicaTest, ConnectRetriesAFailedHandshake) {
  // The handshake is idempotent, so unlike a write it retries: a
  // replica whose first stats call fails still connects with one
  // retry, and fails Connect without one.
  RemoteClusterIndex::Options options;
  options.retries = 1;
  ReplicatedCluster fx(2, 2, 60, 2, options);
  fx.transports[1][1]->FailCalls(1);
  EXPECT_TRUE(fx.remote->Connect().ok());

  options.retries = 0;
  ReplicatedCluster no_retry(2, 2, 60, 2, options);
  no_retry.transports[1][1]->FailCalls(1);
  EXPECT_EQ(no_retry.remote->Connect().code(), StatusCode::kUnavailable);
}

TEST(ReplicaTest, ConnectRejectsInconsistentReplicas) {
  ir::ClusterIndex cluster(2, 2);
  BuildCorpus(&cluster, 61, 3);  // odd count: nodes hold 31 vs 30 docs
  ShardServer server;
  server.AddNode(&cluster.node_index(0), &cluster.node_fragments(0));
  server.AddNode(&cluster.node_index(1), &cluster.node_fragments(1));
  LoopbackTransport t0(server.Handler()), t1(server.Handler()),
      t2(server.Handler());
  // Shard 0's second "replica" actually serves node 1 — different
  // content, which would silently break bit-identity under failover.
  std::vector<RemoteClusterIndex::ReplicaSet> sets(2);
  sets[0].replicas = {{&t0, 0}, {&t1, 1}};
  sets[1].replicas = {{&t2, 1}};
  RemoteClusterIndex remote(std::move(sets), {});
  Status status = remote.Connect();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(ReplicaTest, FailoverOnDeadReplica) {
  RemoteClusterIndex::Options options;
  options.timeout_ms = 200;
  options.retries = 1;
  ReplicatedCluster fx(4, 2, 120, 1, options);
  ASSERT_TRUE(fx.remote->Connect().ok());

  for (size_t i = 0; i < 4; ++i) fx.transports[i][0]->Kill();
  ir::ClusterQueryStats stats;
  ExpectSameRanking(fx.remote->Query(kQueries[1], 10, 4, &stats),
                    fx.cluster.Query(kQueries[1], 10, 4));
  // Losing a replica loses nothing: full quality, one failover per
  // shard, and the second replica's answer counted on the wire.
  EXPECT_EQ(Bits(stats.predicted_quality), Bits(1.0));
  EXPECT_EQ(stats.failovers, 4u);
  EXPECT_EQ(stats.messages, 4u * 3u);  // 2 requests + 1 response per shard
  EXPECT_GE(fx.remote->replica_counters().replica_errors, 4u);
}

TEST(ReplicaTest, FailoverOnErrorFrame) {
  RemoteClusterIndex::Options options;
  options.timeout_ms = 200;
  options.retries = 1;
  ReplicatedCluster fx(4, 2, 120, 1, options);
  ASSERT_TRUE(fx.remote->Connect().ok());

  // Replica up but refusing: a well-formed kUnavailable Error frame
  // (draining / overloaded peer) must fail over like a dead one.
  fx.transports[2][0]->ErrorFrameCalls(1);
  ir::ClusterQueryStats stats;
  ExpectSameRanking(fx.remote->Query(kQueries[0], 10, 4, &stats),
                    fx.cluster.Query(kQueries[0], 10, 4));
  EXPECT_EQ(Bits(stats.predicted_quality), Bits(1.0));
  EXPECT_EQ(stats.failovers, 1u);
}

TEST(ReplicaTest, FailoverOnTruncatedResponse) {
  RemoteClusterIndex::Options options;
  options.timeout_ms = 200;
  options.retries = 1;
  ReplicatedCluster fx(4, 2, 120, 1, options);
  ASSERT_TRUE(fx.remote->Connect().ok());

  // A peer killed mid-frame: the length prefix promises bytes that
  // never arrive. The frame is charged to the wire but the attempt
  // fails over.
  fx.transports[0][0]->TruncateCalls(1);
  ir::ClusterQueryStats stats;
  ExpectSameRanking(fx.remote->Query(kQueries[2], 10, 4, &stats),
                    fx.cluster.Query(kQueries[2], 10, 4));
  EXPECT_EQ(Bits(stats.predicted_quality), Bits(1.0));
  EXPECT_EQ(stats.failovers, 1u);
}

TEST(ReplicaTest, FailoverOnTimeout) {
  RemoteClusterIndex::Options options;
  options.timeout_ms = 50;
  options.retries = 1;
  ReplicatedCluster fx(4, 2, 120, 1, options);
  ASSERT_TRUE(fx.remote->Connect().ok());

  fx.transports[3][0]->DelayCalls(1, 5000);
  ir::ClusterQueryStats stats;
  ExpectSameRanking(fx.remote->Query(kQueries[1], 10, 4, &stats),
                    fx.cluster.Query(kQueries[1], 10, 4));
  EXPECT_EQ(Bits(stats.predicted_quality), Bits(1.0));
  EXPECT_EQ(stats.failovers, 1u);
}

// The hedge race with BOTH replicas answering: both replicas carry a
// 2ms injected latency against a 500µs budget, so every shard call is
// guaranteed to blow its budget and fire the hedge while the primary
// is still in flight — two live attempts racing on every exchange,
// and the loser always completes after the winner was taken.
// Whichever attempt wins, every ranking must stay bit-identical — the
// exactness-safety claim under maximal racing. (TSan runs this suite.)
TEST(ReplicaTest, HedgeRaceBothAnswerBitIdentical) {
  RemoteClusterIndex::Options options;
  options.timeout_ms = 5000;
  options.hedge_budget_us = 500;  // fixed, well under the 2ms latency
  ReplicatedCluster fx(2, 2, 120, 1, options);
  ASSERT_TRUE(fx.remote->Connect().ok());
  for (auto& shard : fx.transports) {
    for (auto& replica : shard) replica->SetLatency(2);
  }

  std::vector<std::vector<ir::ClusterScoredDoc>> reference;
  for (const auto& query : kQueries) {
    reference.push_back(fx.cluster.Query(query, 10, 4));
  }
  size_t exchanges = 0;
  for (int round = 0; round < 12; ++round) {
    const auto& query = kQueries[round % kQueries.size()];
    ir::ClusterQueryStats stats;
    ExpectSameRanking(fx.remote->Query(query, 10, 4, &stats),
                      reference[round % kQueries.size()]);
    EXPECT_EQ(Bits(stats.predicted_quality), Bits(1.0));
    EXPECT_EQ(stats.hedges_fired, 2u) << "round " << round;  // one per shard
    exchanges += 2;
  }
  EXPECT_EQ(fx.remote->replica_counters().hedges_fired, exchanges);
}

TEST(ReplicaTest, HedgeRecoversFromSlowReplicaAndHealthRoutesAround) {
  RemoteClusterIndex::Options options;
  options.timeout_ms = 2000;
  options.hedge_budget_us = 2000;  // fixed 2ms budget
  ReplicatedCluster fx(1, 2, 60, 4, options);
  ASSERT_TRUE(fx.remote->Connect().ok());
  const int connect_calls = fx.transports[0][0]->dispatched_calls();

  // Replica 0 turns persistently slow (50ms per call ≫ the budget).
  fx.transports[0][0]->SetLatency(50);

  // First query: routed to replica 0 (cold health, configured order),
  // budget blows, hedge to replica 1 wins — the answer arrives fast
  // and bit-identical, the slow replica becomes the loser.
  ir::ClusterQueryStats stats;
  ExpectSameRanking(fx.remote->Query(kQueries[0], 10, 4, &stats),
                    fx.cluster.Query(kQueries[0], 10, 4));
  EXPECT_EQ(stats.hedges_fired, 1u);
  EXPECT_EQ(stats.hedge_wins, 1u);

  // Wait for the loser to finish so its 50ms latency sample lands in
  // replica 0's health EWMA (the loser dispatches after its sleep).
  for (int spin = 0; spin < 1000; ++spin) {
    if (fx.transports[0][0]->dispatched_calls() >= connect_calls + 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // Health routing now prefers replica 1: further queries neither
  // touch the slow replica nor hedge.
  const int slow_dispatched = fx.transports[0][0]->dispatched_calls();
  const uint64_t hedges_before = fx.remote->replica_counters().hedges_fired;
  for (int round = 0; round < 5; ++round) {
    ExpectSameRanking(fx.remote->Query(kQueries[1], 10, 4),
                      fx.cluster.Query(kQueries[1], 10, 4));
  }
  EXPECT_EQ(fx.transports[0][0]->dispatched_calls(), slow_dispatched);
  EXPECT_EQ(fx.remote->replica_counters().hedges_fired, hedges_before);
}

TEST(ReplicaTest, PerQueryStatsAttributePerRider) {
  ReplicatedCluster fx(4, 2, 120, 1);
  ASSERT_TRUE(fx.remote->Connect().ok());

  // Exhaustive, and pruned with the shards called in turn: a pruned
  // rider gets the same per-shard threshold feedback in a batch as
  // alone, so it does exactly its solo work.
  ir::RankOptions pruned;
  pruned.prune = true;
  pruned.strategy = ir::RankStrategy::kWand;
  for (const ir::RankOptions& options : {ir::RankOptions(), pruned}) {
    ir::ClusterQueryStats batch_stats;
    std::vector<ir::ClusterQueryStats> per_query;
    std::vector<std::vector<ir::ClusterScoredDoc>> batched =
        fx.remote->QueryBatch(kQueries, 10, 4, &batch_stats, options,
                              &per_query);
    ASSERT_EQ(per_query.size(), kQueries.size());

    size_t postings_sum = 0;
    for (size_t q = 0; q < kQueries.size(); ++q) {
      // Each rider's attribution matches what the same query reports
      // when it travels alone (work counters and quality are per-query
      // deterministic; only wire traffic is batch-level).
      ir::ClusterQueryStats solo;
      ExpectSameRanking(batched[q],
                        fx.remote->Query(kQueries[q], 10, 4, &solo, options));
      EXPECT_EQ(per_query[q].postings_touched_total,
                solo.postings_touched_total)
          << "prune " << options.prune << " query " << q;
      EXPECT_EQ(per_query[q].pivot_iterations, solo.pivot_iterations)
          << "prune " << options.prune << " query " << q;
      EXPECT_EQ(Bits(per_query[q].predicted_quality),
                Bits(solo.predicted_quality))
          << "prune " << options.prune << " query " << q;
      EXPECT_EQ(per_query[q].messages, 0u);  // wire traffic stays aggregate
      postings_sum += per_query[q].postings_touched_total;
    }
    EXPECT_EQ(postings_sum, batch_stats.postings_touched_total);
  }
}

/// Transport decorator that stalls before forwarding — makes the inner
/// transport a predictable hedge loser whose real exchange happens
/// *after* the caller has already taken the winner.
class DelayedTransport final : public Transport {
 public:
  DelayedTransport(Transport* inner, int millis)
      : inner_(inner), millis_(millis) {}

  Result<std::vector<uint8_t>> Call(const std::vector<uint8_t>& request_frame,
                                    Deadline deadline) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(millis_));
    return inner_->Call(request_frame, deadline);
  }

 private:
  Transport* inner_;
  const int millis_;
};

// Regression: a hedge loser's late response must never corrupt a
// reused connection. Replica A is a real TcpTransport behind a delay,
// so every round leaves a full TCP exchange in flight on A's ONE
// connection while the caller already moved on; the next query that
// lands on A shares that connection and must still get *its own*
// response frame, not the loser's. The final round forces A to serve
// for real after a pile of loser traffic.
TEST(ReplicaTest, HedgeLoserDoesNotCorruptReusedTcpConnection) {
  ir::ClusterIndex cluster(1, 4);
  BuildCorpus(&cluster, 60, 7);
  ShardServer server;
  server.AddNode(&cluster.node_index(0), &cluster.node_fragments(0));
  ASSERT_TRUE(server.Start(0).ok());

  TcpTransport tcp("127.0.0.1", server.port());
  DelayedTransport slow_tcp(&tcp, 30);
  LoopbackTransport fast(server.Handler());

  RemoteClusterIndex::Options options;
  options.timeout_ms = 5000;
  options.hedge_budget_us = 1000;
  {
    std::vector<RemoteClusterIndex::ReplicaSet> sets(1);
    sets[0].replicas = {{&slow_tcp, 0}, {&fast, 0}};
    RemoteClusterIndex remote(std::move(sets), options);
    ASSERT_TRUE(remote.Connect().ok());

    const std::vector<ir::ClusterScoredDoc> want =
        cluster.Query(kQueries[0], 10, 4);
    for (int round = 0; round < 8; ++round) {
      // Rounds where the fast replica refuses force a failover onto
      // the delayed TCP replica while earlier rounds' losers are still
      // draining through the same connection.
      if (round % 2 == 1) fast.FailCalls(1);
      ExpectSameRanking(remote.Query(kQueries[0], 10, 4), want);
    }
    // Final proof: kill the fast replica entirely; the answer can only
    // come through the TCP connection the losers have been chewing on.
    fast.Kill();
    ir::ClusterQueryStats stats;
    ExpectSameRanking(remote.Query(kQueries[0], 10, 4, &stats), want);
    EXPECT_EQ(Bits(stats.predicted_quality), Bits(1.0));
    // ~RemoteClusterIndex waits for stray losers before the transports
    // above go out of scope.
  }
  server.Stop();
}

// ---------------------------------------------------------------------
// Deterministic randomized fault schedule, seeded from DLS_FAULT_SEED
// (ci/check.sh faults runs the suite under several seeds). Replica 0
// of a random shard takes a random fault each round — kill-for-one-
// call, delay, error frame, truncated frame — while replica 1 stays
// healthy, so every query must still answer bit-identically at full
// quality: the router's job is to make faults invisible, not cheap.
// ---------------------------------------------------------------------

uint64_t FaultSeed() {
  const char* env = std::getenv("DLS_FAULT_SEED");
  if (env == nullptr || *env == '\0') return 1;
  return std::strtoull(env, nullptr, 10);
}

TEST(FaultScheduleTest, RandomFaultsStayBitIdenticalAtFullQuality) {
  RemoteClusterIndex::Options options;
  options.timeout_ms = 25;
  options.retries = 1;
  options.hedge_budget_us = 3000;  // hedging live during the schedule
  ReplicatedCluster fx(4, 2, 120, 1, options);
  ASSERT_TRUE(fx.remote->Connect().ok());

  std::vector<std::vector<ir::ClusterScoredDoc>> reference;
  for (const auto& query : kQueries) {
    reference.push_back(fx.cluster.Query(query, 10, 4));
  }

  Rng rng(FaultSeed());
  for (int round = 0; round < 24; ++round) {
    const size_t shard = rng.Next() % 4;
    LoopbackTransport* victim = fx.transports[shard][0].get();
    switch (rng.Next() % 5) {
      case 0:
        victim->FailCalls(1 + static_cast<int>(rng.Next() % 2));
        break;
      case 1:
        // Sometimes within the deadline (slow success), sometimes past
        // it (timeout + failover).
        victim->DelayCalls(1, 5 + static_cast<int>(rng.Next() % 35));
        break;
      case 2:
        victim->ErrorFrameCalls(1 + static_cast<int>(rng.Next() % 2));
        break;
      case 3:
        victim->TruncateCalls(1);
        break;
      default:
        break;  // a healthy round between faults
    }
    const size_t q = rng.Next() % kQueries.size();
    ir::ClusterQueryStats stats;
    if (round % 3 == 2) {
      // Every third round ships as a batch — the serve-path shape.
      std::vector<ir::ClusterQueryStats> per_query;
      auto batched =
          fx.remote->QueryBatch({kQueries[q], kQueries[(q + 1) % 4]}, 10, 4,
                                &stats, {}, &per_query);
      ASSERT_EQ(batched.size(), 2u);
      ExpectSameRanking(batched[0], reference[q]);
      ExpectSameRanking(batched[1], reference[(q + 1) % 4]);
      ASSERT_EQ(per_query.size(), 2u);
      EXPECT_EQ(Bits(per_query[0].predicted_quality), Bits(1.0));
    } else {
      ExpectSameRanking(fx.remote->Query(kQueries[q], 10, 4, &stats),
                        reference[q]);
    }
    EXPECT_EQ(Bits(stats.predicted_quality), Bits(1.0)) << "round " << round;
  }
}

}  // namespace
}  // namespace dls::net
