#include "net/remote_cluster.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "ir/cluster.h"
#include "net/shard_server.h"
#include "net/transport.h"
#include "net/wire.h"

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

/// In-process cluster + a ShardServer hosting its nodes + one
/// LoopbackTransport per shard (individually fault-injectable) + the
/// RemoteClusterIndex dialling them. The remote and in-process paths
/// see the exact same frozen node state, so any ranking difference is
/// the protocol's fault.
struct LoopbackCluster {
  LoopbackCluster(size_t nodes, size_t fragments, int docs, uint64_t seed,
                  RemoteClusterIndex::Options options =
                      RemoteClusterIndex::Options())
      : cluster(nodes, fragments) {
    BuildCorpus(&cluster, docs, seed);
    std::vector<RemoteClusterIndex::Shard> shards;
    for (size_t i = 0; i < nodes; ++i) {
      server.AddNode(&cluster.node_index(i), &cluster.node_fragments(i));
      transports.push_back(
          std::make_unique<LoopbackTransport>(server.Handler()));
      shards.push_back({transports[i].get(), static_cast<uint32_t>(i)});
    }
    remote = std::make_unique<RemoteClusterIndex>(std::move(shards), options);
  }

  ir::ClusterIndex cluster;
  ShardServer server;
  std::vector<std::unique_ptr<LoopbackTransport>> transports;
  std::unique_ptr<RemoteClusterIndex> remote;
};

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
    {"term002", "unknownterm", "term002", "term090"},  // dup + unknown
};

TEST(RemoteClusterTest, ConnectAggregatesGlobalStats) {
  LoopbackCluster fx(4, 4, 120, 1);
  ASSERT_TRUE(fx.remote->Connect().ok());
  EXPECT_EQ(fx.remote->document_count(), fx.cluster.document_count());
  EXPECT_EQ(fx.remote->global_collection_length(),
            fx.cluster.global_collection_length());
  for (const char* stem : {"term000", "term005", "term123", "nosuchterm"}) {
    EXPECT_EQ(fx.remote->global_df(stem), fx.cluster.global_df(stem)) << stem;
  }
}

TEST(RemoteClusterTest, ConnectFailsOnUnreachableShard) {
  LoopbackCluster fx(3, 2, 60, 2);
  fx.transports[1]->Kill();
  Status status = fx.remote->Connect();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST(RemoteClusterTest, BitIdentityExhaustive) {
  LoopbackCluster fx(4, 4, 120, 1);
  ASSERT_TRUE(fx.remote->Connect().ok());
  for (size_t max_fragments : {size_t{4}, size_t{2}}) {
    for (const auto& query : kQueries) {
      ir::ClusterQueryStats remote_stats, local_stats;
      ExpectSameRanking(
          fx.remote->Query(query, 10, max_fragments, &remote_stats),
          fx.cluster.Query(query, 10, max_fragments, &local_stats));
      EXPECT_EQ(Bits(remote_stats.predicted_quality),
                Bits(local_stats.predicted_quality));
      EXPECT_EQ(remote_stats.postings_touched_total,
                local_stats.postings_touched_total);
    }
  }
}

TEST(RemoteClusterTest, BitIdentityPruned) {
  LoopbackCluster fx(4, 4, 120, 1);
  ASSERT_TRUE(fx.remote->Connect().ok());
  ir::RankOptions options;
  options.prune = true;
  for (const auto& query : kQueries) {
    ir::ClusterQueryStats remote_stats, local_stats;
    ExpectSameRanking(
        fx.remote->Query(query, 10, 4, &remote_stats, options),
        fx.cluster.Query(query, 10, 4, &local_stats, options));
    // Sequential threshold feedback runs node-by-node on both sides
    // with the same thresholds, so even the work counters agree.
    EXPECT_EQ(remote_stats.postings_touched_total,
              local_stats.postings_touched_total);
    EXPECT_EQ(remote_stats.blocks_skipped, local_stats.blocks_skipped);
  }
}

TEST(RemoteClusterTest, BitIdentityParallel) {
  LoopbackCluster fx(4, 4, 120, 3);
  ASSERT_TRUE(fx.remote->Connect().ok());
  fx.cluster.EnableParallelism(3);
  fx.remote->EnableParallelism(3);
  for (bool prune : {false, true}) {
    ir::RankOptions options;
    options.prune = prune;
    for (const auto& query : kQueries) {
      ExpectSameRanking(fx.remote->Query(query, 10, 4, nullptr, options),
                        fx.cluster.Query(query, 10, 4, nullptr, options));
    }
  }
}

TEST(RemoteClusterTest, StatsReportMeasuredFrames) {
  LoopbackCluster fx(4, 4, 120, 1);
  ASSERT_TRUE(fx.remote->Connect().ok());
  ir::ClusterQueryStats stats;
  fx.remote->Query(kQueries[0], 10, 4, &stats);
  // One request + one response frame per healthy shard.
  EXPECT_EQ(stats.messages, 2u * 4u);
  // Every frame costs at least its header and type byte; a real
  // response also carries RES tuples.
  EXPECT_GT(stats.bytes_shipped, 8u * (kFrameHeaderBytes + 1));

  // The in-process path ships nothing.
  ir::ClusterQueryStats local_stats;
  fx.cluster.Query(kQueries[0], 10, 4, &local_stats);
  EXPECT_EQ(local_stats.messages, 0u);
  EXPECT_EQ(local_stats.bytes_shipped, 0u);
}

TEST(RemoteClusterTest, QueryBatchMatchesPerQuery) {
  LoopbackCluster fx(4, 4, 120, 1);
  ASSERT_TRUE(fx.remote->Connect().ok());
  ir::ClusterQueryStats batch_stats;
  std::vector<std::vector<ir::ClusterScoredDoc>> batched =
      fx.remote->QueryBatch(kQueries, 10, 4, &batch_stats);
  ASSERT_EQ(batched.size(), kQueries.size());
  for (size_t q = 0; q < kQueries.size(); ++q) {
    ExpectSameRanking(batched[q], fx.remote->Query(kQueries[q], 10, 4));
    ExpectSameRanking(batched[q], fx.cluster.Query(kQueries[q], 10, 4));
  }
  // The whole batch rides in ONE frame per shard each way.
  EXPECT_EQ(batch_stats.messages, 2u * 4u);
}

TEST(RemoteClusterTest, SlowShardTimesOutAndRetrySucceeds) {
  RemoteClusterIndex::Options options;
  options.timeout_ms = 50;
  options.retries = 1;
  LoopbackCluster fx(4, 4, 120, 1, options);
  ASSERT_TRUE(fx.remote->Connect().ok());

  fx.transports[2]->DelayCalls(1, 5000);
  const int dispatched_before = fx.transports[2]->dispatched_calls();
  ir::ClusterQueryStats stats;
  ExpectSameRanking(fx.remote->Query(kQueries[1], 10, 4, &stats),
                    fx.cluster.Query(kQueries[1], 10, 4));
  // The delayed attempt burned its deadline without dispatching; the
  // retry reached the handler. Request frames count per attempt.
  EXPECT_EQ(fx.transports[2]->dispatched_calls(), dispatched_before + 1);
  EXPECT_EQ(stats.messages, 2u * 4u + 1u);
  EXPECT_EQ(Bits(stats.predicted_quality), Bits(1.0));
}

TEST(RemoteClusterTest, FailedCallRetriesTransparently) {
  RemoteClusterIndex::Options options;
  options.timeout_ms = 200;
  options.retries = 1;
  LoopbackCluster fx(4, 4, 120, 1, options);
  ASSERT_TRUE(fx.remote->Connect().ok());

  fx.transports[0]->FailCalls(1);
  ir::ClusterQueryStats stats;
  ExpectSameRanking(fx.remote->Query(kQueries[0], 10, 4, &stats),
                    fx.cluster.Query(kQueries[0], 10, 4));
  EXPECT_EQ(stats.messages, 2u * 4u + 1u);
  EXPECT_EQ(Bits(stats.predicted_quality), Bits(1.0));
}

TEST(RemoteClusterTest, DeadShardDegradesGracefully) {
  RemoteClusterIndex::Options options;
  options.timeout_ms = 200;
  options.retries = 1;
  LoopbackCluster fx(4, 4, 120, 1, options);
  ASSERT_TRUE(fx.remote->Connect().ok());

  fx.transports[1]->Kill();
  ir::ClusterQueryStats stats;
  std::vector<ir::ClusterScoredDoc> top =
      fx.remote->Query(kQueries[1], 10, 4, &stats);

  // The query still answers from the surviving shards; documents of
  // the dead node (round-robin: doc d lives on node d % 4) are gone.
  EXPECT_FALSE(top.empty());
  for (const ir::ClusterScoredDoc& d : top) {
    const int doc = std::stoi(d.url.substr(3));
    EXPECT_NE(doc % 4, 1) << d.url << " belongs to the dead node";
  }
  // 120 docs round-robin over 4 nodes: losing one loses exactly 1/4 of
  // the collection; with all fragments read the idf estimate stays 1.
  EXPECT_DOUBLE_EQ(stats.predicted_quality, 0.75);
  // Dead shard: 2 request attempts, no response. Alive: 2 frames each.
  EXPECT_EQ(stats.messages, 2u * 3u + 2u);
}

TEST(RemoteClusterTest, CorruptResponseDegradesCleanly) {
  ir::ClusterIndex cluster(2, 2);
  BuildCorpus(&cluster, 60, 5);
  ShardServer server;
  server.AddNode(&cluster.node_index(0), &cluster.node_fragments(0));
  server.AddNode(&cluster.node_index(1), &cluster.node_fragments(1));

  bool corrupt = false;
  LoopbackTransport good(server.Handler());
  LoopbackTransport evil([&](const std::vector<uint8_t>& frame)
                             -> Result<std::vector<uint8_t>> {
    if (!corrupt) return server.HandleFrame(frame);
    // Truncated garbage: a length prefix promising more than follows.
    return std::vector<uint8_t>{42, 0, 0, 0, 1, 2};
  });
  RemoteClusterIndex::Options options;
  options.timeout_ms = 200;
  options.retries = 0;
  RemoteClusterIndex remote({{&good, 0}, {&evil, 1}}, options);
  ASSERT_TRUE(remote.Connect().ok());

  corrupt = true;
  ir::ClusterQueryStats stats;
  std::vector<ir::ClusterScoredDoc> top =
      remote.Query(kQueries[0], 10, 2, &stats);
  EXPECT_FALSE(top.empty());
  for (const ir::ClusterScoredDoc& d : top) {
    EXPECT_EQ(std::stoi(d.url.substr(3)) % 2, 0)
        << d.url << " came from the corrupt node";
  }
  EXPECT_DOUBLE_EQ(stats.predicted_quality, 0.5);
}

// Shards built with a NON-default normalisation pipeline: the client
// must resolve queries through the configuration the shards advertise
// in the stats handshake, not the standalone default (which would stem
// "running" -> "run" and silently break bit-identity and recall).
TEST(RemoteClusterTest, NonDefaultNormalizationStaysBitIdentical) {
  ir::TextIndex::Options node_options;
  node_options.stem = false;
  node_options.stop = false;
  ir::ClusterIndex cluster(2, 2, node_options);
  const char* bodies[] = {
      "running the marathon route", "run the shorter route today",
      "runner profiles and the routes", "running routes running again",
      "the quick runner ran", "marathon training schedule"};
  for (size_t d = 0; d < 6; ++d) {
    cluster.AddDocument(StrFormat("doc%03zu", d), bodies[d]);
  }
  cluster.Finalize();

  ShardServer server;
  std::vector<std::unique_ptr<LoopbackTransport>> transports;
  std::vector<RemoteClusterIndex::Shard> shards;
  for (size_t i = 0; i < 2; ++i) {
    server.AddNode(&cluster.node_index(i), &cluster.node_fragments(i));
    transports.push_back(std::make_unique<LoopbackTransport>(server.Handler()));
    shards.push_back({transports[i].get(), static_cast<uint32_t>(i)});
  }
  RemoteClusterIndex remote(std::move(shards));
  ASSERT_TRUE(remote.Connect().ok());

  // "Running" exercises lowercasing without stemming; "the" is only a
  // term at all because stopwords are kept.
  const std::vector<std::vector<std::string>> queries = {
      {"Running", "route"}, {"the"}, {"runner", "marathon", "runner"}};
  for (const auto& query : queries) {
    ExpectSameRanking(remote.Query(query, 10, 2),
                      cluster.Query(query, 10, 2));
  }
  EXPECT_EQ(remote.global_df("the"), cluster.global_df("the"));
  EXPECT_EQ(remote.global_df("running"), cluster.global_df("running"));
}

// Cold start from disk: shards hosted via AddNodeFromSegment (mmap,
// no heap rebuild) must be indistinguishable on the wire from shards
// wrapping the live in-process indexes they were flushed from.
TEST(RemoteClusterTest, SegmentLoadedShardsServeBitIdentically) {
  LoopbackCluster fx(3, 4, 120, 9);
  ASSERT_TRUE(fx.remote->Connect().ok());

  const std::string prefix = testing::TempDir() + "remote_cluster_segments";
  ASSERT_TRUE(fx.cluster.FlushToDisk(prefix).ok());

  ShardServer loaded_server;
  std::vector<std::unique_ptr<LoopbackTransport>> transports;
  std::vector<RemoteClusterIndex::Shard> shards;
  std::vector<std::string> paths;
  for (size_t i = 0; i < 3; ++i) {
    paths.push_back(ir::ClusterIndex::SegmentPath(prefix, i));
    Result<uint32_t> id = loaded_server.AddNodeFromSegment(paths[i], 4);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_EQ(id.value(), static_cast<uint32_t>(i));
    transports.push_back(
        std::make_unique<LoopbackTransport>(loaded_server.Handler()));
    shards.push_back({transports[i].get(), static_cast<uint32_t>(i)});
  }
  RemoteClusterIndex loaded_remote(std::move(shards));
  ASSERT_TRUE(loaded_remote.Connect().ok());
  EXPECT_EQ(loaded_remote.document_count(), fx.cluster.document_count());
  EXPECT_EQ(loaded_remote.global_collection_length(),
            fx.cluster.global_collection_length());

  for (bool prune : {false, true}) {
    ir::RankOptions options;
    options.prune = prune;
    for (const auto& query : kQueries) {
      ExpectSameRanking(loaded_remote.Query(query, 10, 4, nullptr, options),
                        fx.cluster.Query(query, 10, 4, nullptr, options));
    }
  }
  // A missing segment is a startup error, not a crash.
  EXPECT_FALSE(loaded_server.AddNodeFromSegment(prefix + ".nope", 4).ok());
  for (const std::string& p : paths) std::remove(p.c_str());
}

// A cluster whose shards disagree on the normalisation pipeline cannot
// resolve queries consistently for all of them; Connect() must refuse
// it instead of silently favouring one shard's configuration.
TEST(RemoteClusterTest, ConnectRejectsMixedNormalization) {
  ir::TextIndex::Options no_stem;
  no_stem.stem = false;
  ir::ClusterIndex stemmed(1, 2), unstemmed(1, 2, no_stem);
  BuildCorpus(&stemmed, 20, 7);
  BuildCorpus(&unstemmed, 20, 7);

  ShardServer server;
  server.AddNode(&stemmed.node_index(0), &stemmed.node_fragments(0));
  server.AddNode(&unstemmed.node_index(0), &unstemmed.node_fragments(0));
  LoopbackTransport t0(server.Handler()), t1(server.Handler());
  RemoteClusterIndex remote({{&t0, 0}, {&t1, 1}});
  Status status = remote.Connect();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(RemoteClusterTest, ConnectRejectsReplicasWithMixedNormalization) {
  // One shard whose two replicas hold the same documents, but only one
  // stems them.
  ir::TextIndex::Options no_stem;
  no_stem.stem = false;
  ir::ClusterIndex stemmed(1, 2), unstemmed(1, 2, no_stem);
  BuildCorpus(&stemmed, 20, 7);
  BuildCorpus(&unstemmed, 20, 7);

  ShardServer server;
  server.AddNode(&stemmed.node_index(0), &stemmed.node_fragments(0));
  server.AddNode(&unstemmed.node_index(0), &unstemmed.node_fragments(0));
  LoopbackTransport t0(server.Handler()), t1(server.Handler());
  RemoteClusterIndex::ReplicaSet set;
  set.replicas = {{&t0, 0}, {&t1, 1}};
  RemoteClusterIndex remote({set}, {});
  Status status = remote.Connect();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

/// A shard that answers every handshake with `advertised` and every
/// insert with `ack`, whatever it is asked: the harness for a hostile
/// peer's statistics.
struct AdvertisingShard {
  StatsResponse advertised;
  InsertResponse ack;
  LoopbackTransport transport{
      [this](const std::vector<uint8_t>& frame)
          -> Result<std::vector<uint8_t>> {
        MessageType type;
        const uint8_t* body = nullptr;
        size_t body_len = 0;
        DLS_RETURN_IF_ERROR(DecodeFrame(frame, &type, &body, &body_len));
        if (type == MessageType::kInsertRequest) {
          return EncodeInsertResponse(ack);
        }
        return EncodeStatsResponse(advertised);
      }};
};

// Statistics the centre's counters cannot hold are kCorruption naming
// the shard, never a signed overflow, and the previous handshake's
// statistics stay in place.
TEST(RemoteClusterTest, ConnectRefusesStatisticsTheCentreCannotHold) {
  AdvertisingShard a, b;
  for (AdvertisingShard* shard : {&a, &b}) {
    shard->advertised.document_count = 2;
    shard->advertised.collection_length = 10;
    shard->advertised.term_dfs = {{"t", 1}};
  }
  RemoteClusterIndex remote({{&a.transport, 0}, {&b.transport, 0}});
  ASSERT_TRUE(remote.Connect().ok());

  const auto expect_refused = [&](const char* shard) {
    const Status status = remote.Connect();
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
    EXPECT_NE(status.message().find(shard), std::string::npos)
        << status.ToString();
    EXPECT_EQ(remote.document_count(), 4u);
    EXPECT_EQ(remote.global_collection_length(), 20);
    EXPECT_EQ(remote.global_df("t"), 2);
  };
  // Two dfs of INT32_MAX for one stem.
  a.advertised.term_dfs = {{"t", std::numeric_limits<int32_t>::max()}};
  b.advertised.term_dfs = a.advertised.term_dfs;
  expect_refused("shard 1");
  a.advertised.term_dfs = b.advertised.term_dfs = {{"t", 1}};
  // Two collection lengths of INT64_MAX.
  a.advertised.collection_length = std::numeric_limits<int64_t>::max();
  b.advertised.collection_length = a.advertised.collection_length;
  expect_refused("shard 1");
  // A negative collection length.
  a.advertised.collection_length = -1;
  b.advertised.collection_length = 10;
  expect_refused("shard 0");
}

TEST(RemoteClusterTest, InsertAckTheCentreCannotHoldIsCorruption) {
  AdvertisingShard shard;
  shard.advertised.document_count = 1;
  shard.advertised.collection_length = 10;
  shard.advertised.mutation_epoch = 4;
  shard.advertised.term_dfs = {{"t", std::numeric_limits<int32_t>::max()}};
  RemoteClusterIndex remote({{&shard.transport, 0}});
  ASSERT_TRUE(remote.Connect().ok());

  const auto expect_refused = [&](const char* what) {
    const Result<uint64_t> id = remote.Insert("doc", "text");
    EXPECT_EQ(id.status().code(), StatusCode::kCorruption) << what;
    EXPECT_NE(id.status().message().find("shard 0"), std::string::npos)
        << id.status().ToString();
    EXPECT_EQ(remote.document_count(), 1u) << what;
    EXPECT_EQ(remote.global_collection_length(), 10) << what;
    EXPECT_EQ(remote.global_df("t"), std::numeric_limits<int32_t>::max())
        << what;
    EXPECT_EQ(remote.global_df("u"), 0) << what;
    EXPECT_EQ(remote.cluster_epoch(), 4u) << what;
  };
  shard.ack.epoch = 5;
  shard.ack.delta = {std::numeric_limits<int64_t>::max(), {"u"}};
  expect_refused("a length of INT64_MAX");
  shard.ack.delta = {2, {"t", "u"}};
  expect_refused("a df past INT32_MAX");
}

}  // namespace
}  // namespace dls::net
