// FrontendServer over both transports: the serving protocol (wire
// types 6-9) answers bit-identically to the in-process frontend, sheds
// as a protocol answer rather than a transport failure, and redirects
// shard-protocol frames instead of serving them.
#include "serve/frontend_server.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "ir/cluster.h"
#include "net/shard_server.h"
#include "net/tcp.h"
#include "net/transport.h"
#include "net/wire.h"
#include "serve/backend.h"
#include "serve/frontend.h"

namespace dls::serve {
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

/// One search exchange over `transport`; fails the test on transport
/// or framing errors.
net::SearchResponse Exchange(net::Transport* transport,
                             const net::SearchRequest& request) {
  Result<std::vector<uint8_t>> frame = net::EncodeSearchRequest(request);
  EXPECT_TRUE(frame.ok());
  Result<std::vector<uint8_t>> reply =
      transport->Call(frame.value(), Deadline::After(5000));
  EXPECT_TRUE(reply.ok()) << reply.status().message();
  net::MessageType type;
  const uint8_t* body = nullptr;
  size_t body_len = 0;
  EXPECT_TRUE(net::DecodeFrame(reply.value(), &type, &body, &body_len).ok());
  EXPECT_EQ(type, net::MessageType::kSearchResponse);
  Result<net::SearchResponse> response =
      net::DecodeSearchResponse(body, body_len);
  EXPECT_TRUE(response.ok()) << response.status().message();
  return response.value();
}

struct ServedCluster {
  ServedCluster() : cluster(3, 4) {
    BuildCorpus(&cluster, 250, 131);
    backend = std::make_unique<LocalBackend>(&cluster);
    frontend = std::make_unique<Frontend>(backend.get());
    server = std::make_unique<FrontendServer>(frontend.get());
  }

  ir::ClusterIndex cluster;
  std::unique_ptr<LocalBackend> backend;
  std::unique_ptr<Frontend> frontend;
  std::unique_ptr<FrontendServer> server;
};

TEST(FrontendServerTest, LoopbackSearchMatchesDirectQueryAndCaches) {
  ServedCluster fx;
  net::LoopbackTransport transport(fx.server->Handler());

  net::SearchRequest request;
  request.words = {"term001", "term005"};
  request.n = 10;
  request.max_fragments = 4;
  request.options.prune = true;

  const std::vector<ir::ClusterScoredDoc> expected =
      fx.cluster.Query(request.words, 10, 4, nullptr, request.options);

  net::SearchResponse first = Exchange(&transport, request);
  ASSERT_TRUE(first.status.ok()) << first.status.message();
  EXPECT_FALSE(first.cache_hit);
  ASSERT_EQ(first.results.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(first.results[i].url, expected[i].url) << "rank " << i;
    EXPECT_EQ(Bits(first.results[i].score), Bits(expected[i].score))
        << "rank " << i;
  }

  net::SearchResponse second = Exchange(&transport, request);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cache_hit);
  ASSERT_EQ(second.results.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(Bits(second.results[i].score), Bits(expected[i].score));
  }
}

TEST(FrontendServerTest, ServeStatsFrameReportsTheFrontendCounters) {
  ServedCluster fx;
  net::LoopbackTransport transport(fx.server->Handler());

  net::SearchRequest request;
  request.words = {"term002"};
  request.max_fragments = 2;
  ASSERT_TRUE(Exchange(&transport, request).status.ok());
  ASSERT_TRUE(Exchange(&transport, request).status.ok());  // cache hit

  std::vector<uint8_t> frame =
      net::EncodeServeStatsRequest(net::ServeStatsRequest{});
  Result<std::vector<uint8_t>> reply =
      transport.Call(frame, Deadline::After(5000));
  ASSERT_TRUE(reply.ok());
  net::MessageType type;
  const uint8_t* body = nullptr;
  size_t body_len = 0;
  ASSERT_TRUE(net::DecodeFrame(reply.value(), &type, &body, &body_len).ok());
  ASSERT_EQ(type, net::MessageType::kServeStatsResponse);
  Result<ServeStats> stats =
      net::DecodeServeStatsResponse(body, body_len);
  ASSERT_TRUE(stats.ok());

  EXPECT_EQ(stats.value().submitted, 2u);
  EXPECT_EQ(stats.value().completed, 2u);
  EXPECT_EQ(stats.value().cache_hits, 1u);
  EXPECT_EQ(stats.value().epoch, fx.cluster.mutation_epoch());
  EXPECT_EQ(stats.value().latency.count, 2u);
  EXPECT_GE(stats.value().latency.max, stats.value().latency.p50);
}

// Shedding rides the protocol: the exchange succeeds and the
// SearchResponse carries the error status — the connection is not
// torn down and no Error frame is involved.
TEST(FrontendServerTest, ShedIsAProtocolAnswerNotATransportFailure) {
  ServedCluster fx;
  fx.frontend->Stop();  // every admission now sheds kUnavailable
  net::LoopbackTransport transport(fx.server->Handler());

  net::SearchRequest request;
  request.words = {"term003"};
  net::SearchResponse shed = Exchange(&transport, request);
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(shed.results.empty());

  // The connection (handler) still serves follow-ups.
  net::SearchResponse again = Exchange(&transport, request);
  EXPECT_EQ(again.status.code(), StatusCode::kUnavailable);
}

TEST(FrontendServerTest, RedirectsShardProtocolFramesWithUnsupported) {
  ServedCluster fx;
  net::LoopbackTransport transport(fx.server->Handler());

  // A shard-protocol StatsRequest at the frontend: Error(kUnsupported).
  Result<std::vector<uint8_t>> reply = transport.Call(
      net::EncodeStatsRequest(net::StatsRequest{}), Deadline::After(5000));
  ASSERT_TRUE(reply.ok());
  net::MessageType type;
  const uint8_t* body = nullptr;
  size_t body_len = 0;
  ASSERT_TRUE(net::DecodeFrame(reply.value(), &type, &body, &body_len).ok());
  ASSERT_EQ(type, net::MessageType::kError);
  Status status = net::DecodeError(body, body_len);
  EXPECT_EQ(status.code(), StatusCode::kUnsupported);

  // And the mirror image: a SearchRequest at a ShardServer.
  net::ShardServer shard_server;
  shard_server.AddNode(&fx.cluster.node_index(0),
                       &fx.cluster.node_fragments(0));
  net::LoopbackTransport shard_transport(shard_server.Handler());
  net::SearchRequest search;
  search.words = {"term001"};
  Result<std::vector<uint8_t>> search_frame = net::EncodeSearchRequest(search);
  ASSERT_TRUE(search_frame.ok());
  Result<std::vector<uint8_t>> shard_reply =
      shard_transport.Call(search_frame.value(), Deadline::After(5000));
  ASSERT_TRUE(shard_reply.ok());
  ASSERT_TRUE(
      net::DecodeFrame(shard_reply.value(), &type, &body, &body_len).ok());
  ASSERT_EQ(type, net::MessageType::kError);
  EXPECT_EQ(net::DecodeError(body, body_len).code(),
            StatusCode::kUnsupported);
}

TEST(FrontendServerTest, GarbageFrameYieldsAnErrorFrame) {
  ServedCluster fx;
  net::LoopbackTransport transport(fx.server->Handler());
  // A self-consistent frame with an undefined type byte.
  std::vector<uint8_t> garbage = {1, 0, 0, 0, 0xee};
  Result<std::vector<uint8_t>> reply =
      transport.Call(garbage, Deadline::After(5000));
  ASSERT_TRUE(reply.ok());
  net::MessageType type;
  const uint8_t* body = nullptr;
  size_t body_len = 0;
  ASSERT_TRUE(net::DecodeFrame(reply.value(), &type, &body, &body_len).ok());
  EXPECT_EQ(type, net::MessageType::kError);
  EXPECT_EQ(net::DecodeError(body, body_len).code(), StatusCode::kCorruption);
}

// The full production shape: FrontendServer on a real ephemeral TCP
// port, TcpTransport dialling it, identical answers.
TEST(FrontendServerTest, ServesSearchAndStatsOverRealTcp) {
  ServedCluster fx;
  ASSERT_TRUE(fx.server->Start(0).ok());
  ASSERT_NE(fx.server->port(), 0);
  net::TcpTransport transport("127.0.0.1", fx.server->port());

  net::SearchRequest request;
  request.words = {"term004", "term010"};
  request.max_fragments = 4;
  const std::vector<ir::ClusterScoredDoc> expected =
      fx.cluster.Query(request.words, 10, 4, nullptr, request.options);

  net::SearchResponse answer = Exchange(&transport, request);
  ASSERT_TRUE(answer.status.ok()) << answer.status.message();
  ASSERT_EQ(answer.results.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(answer.results[i].url, expected[i].url);
    EXPECT_EQ(Bits(answer.results[i].score), Bits(expected[i].score));
  }

  net::SearchResponse repeat = Exchange(&transport, request);
  ASSERT_TRUE(repeat.status.ok());
  EXPECT_TRUE(repeat.cache_hit);

  std::vector<uint8_t> stats_frame =
      net::EncodeServeStatsRequest(net::ServeStatsRequest{});
  Result<std::vector<uint8_t>> reply =
      transport.Call(stats_frame, Deadline::After(5000));
  ASSERT_TRUE(reply.ok());
  net::MessageType type;
  const uint8_t* body = nullptr;
  size_t body_len = 0;
  ASSERT_TRUE(net::DecodeFrame(reply.value(), &type, &body, &body_len).ok());
  ASSERT_EQ(type, net::MessageType::kServeStatsResponse);

  fx.server->Stop();
}

}  // namespace
}  // namespace dls::serve
