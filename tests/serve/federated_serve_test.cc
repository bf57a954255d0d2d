// End-to-end federated serving: one SearchRequest carrying a
// structured query crosses the wire, runs through the frontend's
// admission/batching/caching, is planned and executed by the mediator,
// and comes back bit-identical to exhaustive-evaluate-and-intersect —
// with the executed plan visible in the response and in ServeStats.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "federate/backend.h"
#include "federate/executor.h"
#include "ir/cluster.h"
#include "net/transport.h"
#include "net/wire.h"
#include "serve/backend.h"
#include "serve/frontend.h"
#include "serve/frontend_server.h"
#include "webspace/objects.h"
#include "webspace/schema.h"

namespace dls::serve {
namespace {

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

constexpr const char kSchema[] = R"(
webspace Tennis;
class Player {
  name: varchar(50);
  gender: varchar(10);
}
)";

std::string EntityOf(const std::string& url) {
  return url.substr(0, url.find('#'));
}

/// The full federated serving stack over the three-level corpus of
/// tests/federate/mediator_test.cc.
struct FederatedStack {
  FederatedStack() : cluster(3, 2) {
    Result<webspace::Schema> s = webspace::ParseSchema(kSchema);
    EXPECT_TRUE(s.ok()) << s.status().ToString();
    schema = std::move(s).value();
    instance = std::make_unique<webspace::WebspaceInstance>(&schema);

    webspace::DocumentView view;
    view.document_url = "site/p.html";
    auto player = [](const char* id, const char* name, const char* gender) {
      webspace::WebObject o;
      o.cls = "Player";
      o.id = id;
      o.attributes = {{"name", name, ""}, {"gender", gender, ""}};
      return o;
    };
    view.objects.push_back(player("p1", "Anna Smith", "female"));
    view.objects.push_back(player("p2", "Bob Jones", "male"));
    view.objects.push_back(player("p3", "Cara Smithson", "female"));
    view.objects.push_back(player("p4", "Dan Lee", "male"));
    EXPECT_TRUE(instance->Merge(view).ok());

    cluster.AddDocument("p1#bio", "champion net play volley");
    cluster.AddDocument("p1#news", "tennis net play finals");
    cluster.AddDocument("p2#bio", "baseline power serve");
    cluster.AddDocument("p3#bio", "net play approach slice");
    cluster.AddDocument("p4#bio", "serve volley classic net");
    cluster.Finalize();

    text = std::make_unique<federate::TextBackend>(&cluster);
    web = std::make_unique<federate::WebspaceBackend>(instance.get());
    cobra = std::make_unique<federate::CobraBackend>(
        std::vector<federate::CobraEvent>{{"p1", "rally", 6.0},
                                          {"p2", "rally", 3.0},
                                          {"p3", "rally", 8.0},
                                          {"p4", "ace", 2.0}});
    mediator = std::make_unique<federate::Mediator>(
        federate::BackendSet{text.get(), web.get(), cobra.get()});

    backend = std::make_unique<LocalBackend>(&cluster);
    frontend = std::make_unique<Frontend>(backend.get());
    frontend->AttachMediator(mediator.get());
    server = std::make_unique<FrontendServer>(frontend.get());
  }

  webspace::Schema schema;
  std::unique_ptr<webspace::WebspaceInstance> instance;
  ir::ClusterIndex cluster;
  std::unique_ptr<federate::TextBackend> text;
  std::unique_ptr<federate::WebspaceBackend> web;
  std::unique_ptr<federate::CobraBackend> cobra;
  std::unique_ptr<federate::Mediator> mediator;
  std::unique_ptr<LocalBackend> backend;
  std::unique_ptr<Frontend> frontend;
  std::unique_ptr<FrontendServer> server;
};

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

ServeStats FetchStats(net::Transport* transport) {
  std::vector<uint8_t> frame =
      net::EncodeServeStatsRequest(net::ServeStatsRequest{});
  Result<std::vector<uint8_t>> reply =
      transport->Call(frame, Deadline::After(5000));
  EXPECT_TRUE(reply.ok());
  net::MessageType type;
  const uint8_t* body = nullptr;
  size_t body_len = 0;
  EXPECT_TRUE(net::DecodeFrame(reply.value(), &type, &body, &body_len).ok());
  Result<ServeStats> stats =
      net::DecodeServeStatsResponse(body, body_len);
  EXPECT_TRUE(stats.ok());
  return stats.value();
}

constexpr const char kThreeLevelQuery[] =
    "text(\"net play\") AND webspace(class=Player, name~\"Smith\") AND "
    "cobra(event=rally, min_len=5s)";

TEST(FederatedServeTest, ThreeLevelQueryOverTheWireMatchesPostFilter) {
  FederatedStack fx;
  net::LoopbackTransport transport(fx.server->Handler());

  net::SearchRequest request;
  request.structured = kThreeLevelQuery;
  request.n = 10;
  request.max_fragments = 2;

  // The oracle: exhaustive text ranking, post-filtered by the
  // intersection of exhaustive webspace and cobra evaluation.
  const federate::CandidateSet survivors = {"p1", "p3"};
  std::vector<ir::ClusterScoredDoc> exhaustive =
      fx.cluster.Query({"net", "play"}, 100, 2);
  std::vector<ir::ClusterScoredDoc> want;
  for (const ir::ClusterScoredDoc& d : exhaustive) {
    if (std::binary_search(survivors.begin(), survivors.end(),
                           EntityOf(d.url))) {
      want.push_back(d);
    }
  }
  ASSERT_EQ(want.size(), 3u);

  net::SearchResponse first = Exchange(&transport, request);
  ASSERT_TRUE(first.status.ok()) << first.status.message();
  EXPECT_FALSE(first.cache_hit);
  ASSERT_EQ(first.results.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(first.results[i].url, want[i].url) << "rank " << i;
    EXPECT_EQ(Bits(first.results[i].score), Bits(want[i].score))
        << "rank " << i;
  }
  EXPECT_NE(first.plan.find("rank text(\"net play\") with pushdown"),
            std::string::npos)
      << first.plan;

  // A cache hit reproduces results and plan.
  net::SearchResponse second = Exchange(&transport, request);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.plan, first.plan);
  ASSERT_EQ(second.results.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(Bits(second.results[i].score), Bits(want[i].score));
  }
}

TEST(FederatedServeTest, SpellingVariantsShareOneCacheEntry) {
  FederatedStack fx;
  net::LoopbackTransport transport(fx.server->Handler());

  net::SearchRequest request;
  request.structured = "cobra(event=rally,min_len=5s)   and   text(\"net\")";
  request.n = 10;
  request.max_fragments = 2;
  net::SearchResponse first = Exchange(&transport, request);
  ASSERT_TRUE(first.status.ok()) << first.status.message();
  EXPECT_FALSE(first.cache_hit);

  // Same query, different whitespace/case/ordering-insensitive
  // spelling: canonicalisation at admission makes it the same key.
  request.structured = "COBRA(event=rally, min_len=5s) AND TEXT(\"net\")";
  net::SearchResponse second = Exchange(&transport, request);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cache_hit);
  ASSERT_EQ(second.results.size(), first.results.size());
  for (size_t i = 0; i < first.results.size(); ++i) {
    EXPECT_EQ(second.results[i].url, first.results[i].url);
    EXPECT_EQ(Bits(second.results[i].score), Bits(first.results[i].score));
  }
}

TEST(FederatedServeTest, ServeStatsSurfaceTheFederatedCountersAndPlan) {
  FederatedStack fx;
  net::LoopbackTransport transport(fx.server->Handler());

  net::SearchRequest request;
  request.structured = kThreeLevelQuery;
  request.n = 10;
  request.max_fragments = 2;
  ASSERT_TRUE(Exchange(&transport, request).status.ok());

  ServeStats stats = FetchStats(&transport);
  EXPECT_EQ(stats.federated_queries, 1u);
  EXPECT_EQ(stats.federated_filter_docs, 3u);
  // The per-backend timers are truncated to whole microseconds; on a
  // five-document corpus they may legitimately be zero, so only their
  // presence on the wire is asserted (tests/net/wire_test.cc pins the
  // round-trip with non-zero values).
  EXPECT_NE(stats.last_federated_plan.find("with pushdown"),
            std::string::npos)
      << stats.last_federated_plan;

  // A plain word query does not move the federated counters.
  net::SearchRequest plain;
  plain.words = {"net"};
  plain.n = 5;
  plain.max_fragments = 2;
  ASSERT_TRUE(Exchange(&transport, plain).status.ok());
  stats = FetchStats(&transport);
  EXPECT_EQ(stats.federated_queries, 1u);
}

TEST(FederatedServeTest, LargeNumbersSurviveCanonicalisationOverTheWire) {
  FederatedStack fx;
  net::LoopbackTransport transport(fx.server->Handler());

  // The canonical rendering is what the mediator actually executes; a
  // seven-digit literal must re-parse (scientific notation would be
  // admitted and then fail at execution).
  net::SearchRequest request;
  request.structured = "text(\"net\") AND cobra(event=rally, min_len=5000000s)";
  request.n = 10;
  request.max_fragments = 2;
  net::SearchResponse response = Exchange(&transport, request);
  ASSERT_TRUE(response.status.ok()) << response.status.message();
  EXPECT_TRUE(response.results.empty());  // no rally lasts 5000000s

  ServeStats stats = FetchStats(&transport);
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(FederatedServeTest, RefusalsCountAsCompletions) {
  // A parse error is a definitive answer: submitted and completed stay
  // reconciled and the refusal lands in the latency histogram.
  {
    FederatedStack fx;
    net::LoopbackTransport transport(fx.server->Handler());
    net::SearchRequest request;
    request.structured = "text(\"unterminated";
    EXPECT_EQ(Exchange(&transport, request).status.code(),
              StatusCode::kParseError);
    ServeStats stats = FetchStats(&transport);
    EXPECT_EQ(stats.submitted, 1u);
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.latency.count, 1u);
  }

  // Same for the no-mediator refusal.
  {
    ir::ClusterIndex cluster(2, 2);
    cluster.AddDocument("d1", "alpha beta");
    cluster.Finalize();
    LocalBackend backend(&cluster);
    Frontend frontend(&backend);  // no AttachMediator
    FrontendServer server(&frontend);
    net::LoopbackTransport transport(server.Handler());
    net::SearchRequest request;
    request.structured = "text(\"alpha\")";
    EXPECT_EQ(Exchange(&transport, request).status.code(),
              StatusCode::kUnsupported);
    ServeStats stats = FetchStats(&transport);
    EXPECT_EQ(stats.submitted, 1u);
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.latency.count, 1u);
  }
}

TEST(FederatedServeTest, ParseErrorIsAProtocolAnswer) {
  FederatedStack fx;
  net::LoopbackTransport transport(fx.server->Handler());

  net::SearchRequest request;
  request.structured = "text(\"unterminated";
  net::SearchResponse response = Exchange(&transport, request);
  EXPECT_EQ(response.status.code(), StatusCode::kParseError);
  EXPECT_TRUE(response.results.empty());
}

TEST(FederatedServeTest, NoMediatorMeansUnsupported) {
  ir::ClusterIndex cluster(2, 2);
  cluster.AddDocument("d1", "alpha beta");
  cluster.Finalize();
  LocalBackend backend(&cluster);
  Frontend frontend(&backend);  // no AttachMediator
  FrontendServer server(&frontend);
  net::LoopbackTransport transport(server.Handler());

  net::SearchRequest request;
  request.structured = "text(\"alpha\")";
  net::SearchResponse response = Exchange(&transport, request);
  EXPECT_EQ(response.status.code(), StatusCode::kUnsupported);
}

}  // namespace
}  // namespace dls::serve
