#include "federate/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "federate/backend.h"
#include "federate/planner.h"
#include "federate/query_lang.h"
#include "ir/cluster.h"
#include "webspace/objects.h"
#include "webspace/schema.h"

namespace dls::federate {
namespace {

constexpr const char kSchema[] = R"(
webspace Tennis;
class Player {
  name: varchar(50);
  gender: varchar(10);
  ranking: varchar(10);
}
class Profile {
  video: Video;
}
association Covered_by(Player, Profile);
)";

std::string EntityOf(const std::string& url) {
  return url.substr(0, url.find('#'));
}

/// Shared three-level corpus: a webspace instance, a COBRA event
/// table, and a cluster text index keyed by the same object ids.
class MediatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<webspace::Schema> s = webspace::ParseSchema(kSchema);
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    schema_ = std::move(s).value();
    instance_ = std::make_unique<webspace::WebspaceInstance>(&schema_);

    webspace::DocumentView view;
    view.document_url = "site/p.html";
    auto player = [](const char* id, const char* name, const char* gender,
                     const char* ranking) {
      webspace::WebObject o;
      o.cls = "Player";
      o.id = id;
      o.attributes = {{"name", name, ""},
                      {"gender", gender, ""},
                      {"ranking", ranking, ""}};
      return o;
    };
    view.objects.push_back(player("p1", "Anna Smith", "female", "3"));
    view.objects.push_back(player("p2", "Bob Jones", "male", "12"));
    view.objects.push_back(player("p3", "Cara Smithson", "female", "7"));
    view.objects.push_back(player("p4", "Dan Lee", "male", "1"));
    webspace::WebObject v1;
    v1.cls = "Profile";
    v1.id = "v1";
    v1.attributes = {{"video", "", "http://v/1"}};
    view.objects.push_back(v1);
    webspace::WebObject v2 = v1;
    v2.id = "v2";
    v2.attributes = {{"video", "", "http://v/2"}};
    view.objects.push_back(v2);
    view.associations = {{"Covered_by", "p1", "v1"}, {"Covered_by", "p3", "v2"}};
    ASSERT_TRUE(instance_->Merge(view).ok());

    events_ = {{"p1", "rally", 6.0}, {"p1", "serve", 1.2},
               {"p2", "rally", 3.0}, {"p3", "rally", 8.0},
               {"p4", "ace", 2.0}};

    cluster_ = std::make_unique<ir::ClusterIndex>(3, 2);
    cluster_->AddDocument("p1#bio", "champion net play volley");
    cluster_->AddDocument("p1#news", "tennis net play finals");
    cluster_->AddDocument("p2#bio", "baseline power serve");
    cluster_->AddDocument("p3#bio", "net play approach slice");
    cluster_->AddDocument("p4#bio", "serve volley classic net");
    cluster_->AddDocument("other1", "net play unrelated commentary");
    cluster_->Finalize();

    text_ = std::make_unique<TextBackend>(cluster_.get());
    web_ = std::make_unique<WebspaceBackend>(instance_.get());
    cobra_ = std::make_unique<CobraBackend>(events_);
  }

  BackendSet Backends() const {
    return BackendSet{text_.get(), web_.get(), cobra_.get()};
  }

  /// The exactness oracle: rank the whole cluster exhaustively, keep
  /// only documents whose entity survives every non-text filter, then
  /// cut to n. The mediator's pushdown must match this bit for bit.
  std::vector<ir::ClusterScoredDoc> PostFilterReference(
      const std::vector<std::string>& words, const CandidateSet& survivors,
      size_t n, const ir::RankOptions& options = {}) const {
    std::vector<ir::ClusterScoredDoc> all =
        cluster_->Query(words, /*n=*/100, 2, nullptr, options);
    std::vector<ir::ClusterScoredDoc> kept;
    for (const ir::ClusterScoredDoc& d : all) {
      if (std::binary_search(survivors.begin(), survivors.end(),
                             EntityOf(d.url))) {
        kept.push_back(d);
      }
    }
    if (kept.size() > n) kept.resize(n);
    return kept;
  }

  webspace::Schema schema_;
  std::unique_ptr<webspace::WebspaceInstance> instance_;
  std::vector<CobraEvent> events_;
  std::unique_ptr<ir::ClusterIndex> cluster_;
  std::unique_ptr<TextBackend> text_;
  std::unique_ptr<WebspaceBackend> web_;
  std::unique_ptr<CobraBackend> cobra_;
};

TEST_F(MediatorTest, BackendSemantics) {
  auto eval = [&](const FederateBackend& b, const char* q) {
    Result<FederatedQuery> parsed = ParseFederatedQuery(q);
    EXPECT_TRUE(parsed.ok()) << q;
    Result<CandidateSet> r = b.EvalFilter(parsed.value().root.pred);
    EXPECT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    return r.ok() ? std::move(r).value() : CandidateSet{};
  };

  EXPECT_EQ(eval(*web_, "webspace(class=Player, gender=female)"),
            (CandidateSet{"p1", "p3"}));
  EXPECT_EQ(eval(*web_, "webspace(class=Player, gender!=female)"),
            (CandidateSet{"p2", "p4"}));
  EXPECT_EQ(eval(*web_, "webspace(class=Player, ranking>=5)"),
            (CandidateSet{"p2", "p3"}));
  // ~ is case-insensitive containment within a token: "Smith" hits
  // both "Anna Smith" and "Cara Smithson".
  EXPECT_EQ(eval(*web_, "webspace(class=Player, name~\"smith\")"),
            (CandidateSet{"p1", "p3"}));
  // Two-step path follows the association to the linked object.
  EXPECT_EQ(eval(*web_, "webspace(class=Player, Covered_by.video=\"http://v/1\")"),
            (CandidateSet{"p1"}));
  // Unknown class is an empty set, not an error (lenient semantics).
  EXPECT_TRUE(eval(*web_, "webspace(class=Coach)").empty());

  EXPECT_EQ(eval(*cobra_, "cobra(event=serve)"), (CandidateSet{"p1"}));
  EXPECT_EQ(eval(*cobra_, "cobra(event=rally, min_len=5s)"),
            (CandidateSet{"p1", "p3"}));
  // ms durations normalise to seconds: 3000ms keeps p2's 3.0s rally.
  EXPECT_EQ(eval(*cobra_, "cobra(event=rally, min_len>=3000ms)"),
            (CandidateSet{"p1", "p2", "p3"}));

  EXPECT_EQ(eval(*text_, "text(\"serve\")"), (CandidateSet{"p2", "p4"}));
  EXPECT_EQ(eval(*text_, "text(\"net\")"),
            (CandidateSet{"other1", "p1", "p3", "p4"}));
}

TEST_F(MediatorTest, FederatedMatchesPostFilterAcrossOptions) {
  const char* query =
      "text(\"net play\") AND webspace(class=Player, name~\"Smith\") "
      "AND cobra(event=rally, min_len=5s)";
  const CandidateSet survivors = {"p1", "p3"};

  ir::RankOptions configs[3];
  configs[1].prune = true;
  configs[2].prune = true;
  configs[2].strategy = ir::RankStrategy::kWand;

  Mediator mediator(Backends());
  for (const ir::RankOptions& options : configs) {
    FederatedStats stats;
    Result<std::vector<ir::ClusterScoredDoc>> got =
        mediator.ExecuteString(query, 10, 2, options, &stats);
    ASSERT_TRUE(got.ok()) << got.status().ToString();

    const std::vector<ir::ClusterScoredDoc> want =
        PostFilterReference({"net", "play"}, survivors, 10, options);
    ASSERT_EQ(got.value().size(), want.size());
    ASSERT_EQ(want.size(), 3u);  // p1#bio, p1#news, p3#bio in some order
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got.value()[i].url, want[i].url) << "rank " << i;
      EXPECT_EQ(got.value()[i].score, want[i].score) << "rank " << i;
    }
    EXPECT_TRUE(stats.pushdown);
    EXPECT_EQ(stats.filter_candidates, 2u);
    EXPECT_EQ(stats.filter_docs, 3u);
  }
}

TEST_F(MediatorTest, ParallelOrEqualsSequential) {
  const char* query =
      "text(\"net\") AND (webspace(class=Player, name~\"Smith\") OR "
      "cobra(event=ace) OR webspace(class=Player, ranking>=10))";

  Mediator sequential(Backends());
  ThreadPool pool(3);
  Mediator parallel(Backends(), &pool);

  Result<std::vector<ir::ClusterScoredDoc>> a =
      sequential.ExecuteString(query, 10, 2);
  Result<std::vector<ir::ClusterScoredDoc>> b =
      parallel.ExecuteString(query, 10, 2);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ(a.value().size(), b.value().size());
  for (size_t i = 0; i < a.value().size(); ++i) {
    EXPECT_EQ(a.value()[i].url, b.value()[i].url);
    EXPECT_EQ(a.value()[i].score, b.value()[i].score);
  }
  // OR of Smiths {p1,p3}, ace {p4}, ranking>=10 {p2} = all four
  // players; "net" matches every doc but p2#bio.
  ASSERT_FALSE(a.value().empty());
}

TEST_F(MediatorTest, TextInsideOrIsABooleanFilter) {
  // No top-level text() => no ranking; the nested text("volley") is a
  // contains-a-stem filter. volley -> {p1, p4}; ace -> {p4}; union
  // {p1, p4}; intersect Players -> {p1, p4}. Result: their documents,
  // score 0, url-ascending.
  Mediator mediator(Backends());
  Result<std::vector<ir::ClusterScoredDoc>> r = mediator.ExecuteString(
      "webspace(class=Player) AND (text(\"volley\") OR cobra(event=ace))", 10,
      2);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().size(), 3u);
  EXPECT_EQ(r.value()[0].url, "p1#bio");
  EXPECT_EQ(r.value()[1].url, "p1#news");
  EXPECT_EQ(r.value()[2].url, "p4#bio");
  for (const ir::ClusterScoredDoc& d : r.value()) {
    EXPECT_EQ(d.score, 0.0);
  }
}

TEST_F(MediatorTest, PlannerOrdersMostSelectiveFirst) {
  Result<FederatedQuery> q = ParseFederatedQuery(
      "text(\"net\") AND webspace(class=Player) AND "
      "cobra(event=ace)");
  ASSERT_TRUE(q.ok());
  Result<Plan> plan = BuildPlan(q.value(), Backends());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan.value().has_ranker);
  ASSERT_EQ(plan.value().steps.size(), 2u);
  // cobra(event=ace) matches 1/4 distinct ids; webspace(class=Player)
  // matches 4/6 objects — cobra must run first.
  EXPECT_EQ(plan.value().steps[0].node.pred.kind, PredKind::kCobra);
  EXPECT_LE(plan.value().steps[0].selectivity,
            plan.value().steps[1].selectivity);
  EXPECT_NE(plan.value().ToString().find("rank text"), std::string::npos);
}

TEST_F(MediatorTest, SecondTopLevelTextRejected) {
  Result<FederatedQuery> q =
      ParseFederatedQuery("text(\"a\") AND text(\"b\")");
  ASSERT_TRUE(q.ok());
  Result<Plan> plan = BuildPlan(q.value(), Backends());
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(MediatorTest, MissingBackendRejected) {
  BackendSet no_cobra = Backends();
  no_cobra.cobra = nullptr;
  Mediator mediator(no_cobra);
  Result<std::vector<ir::ClusterScoredDoc>> r =
      mediator.ExecuteString("cobra(event=rally)", 10, 2);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(MediatorTest, UnknownCobraKeyRejectedAtPlanTime) {
  Mediator mediator(Backends());
  Result<std::vector<ir::ClusterScoredDoc>> r =
      mediator.ExecuteString("cobra(event=rally, colour=red)", 10, 2);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(MediatorTest, EmptyFilterShortCircuits) {
  Mediator mediator(Backends());
  FederatedStats stats;
  Result<std::vector<ir::ClusterScoredDoc>> r = mediator.ExecuteString(
      "text(\"net\") AND cobra(event=nosuchevent) AND "
      "webspace(class=Player)",
      10, 2, {}, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().empty());
  ASSERT_EQ(stats.steps.size(), 2u);
  EXPECT_FALSE(stats.steps[0].skipped);
  EXPECT_EQ(stats.steps[0].candidates, 0u);
  EXPECT_TRUE(stats.steps[1].skipped);
  EXPECT_NE(stats.plan.find("[skipped]"), std::string::npos);
}

TEST_F(MediatorTest, PlanSurfacesLiveCounts) {
  Mediator mediator(Backends());
  FederatedStats stats;
  Result<std::vector<ir::ClusterScoredDoc>> r = mediator.ExecuteString(
      "text(\"net play\") AND cobra(event=rally, min_len=5s)", 10, 2, {},
      &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(stats.plan.find("cobra(event=rally, min_len=5s)"),
            std::string::npos)
      << stats.plan;
  EXPECT_NE(stats.plan.find("2 ids"), std::string::npos) << stats.plan;
  EXPECT_NE(stats.plan.find("rank text(\"net play\") with pushdown"),
            std::string::npos)
      << stats.plan;
  EXPECT_GT(stats.cobra_us, 0.0);
  EXPECT_GT(stats.text_us, 0.0);
}

TEST_F(MediatorTest, NoTextQueryReturnsDocsScoreZeroUrlAscending) {
  Mediator mediator(Backends());
  Result<std::vector<ir::ClusterScoredDoc>> r = mediator.ExecuteString(
      "webspace(class=Player, gender=female)", 10, 2);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().size(), 3u);
  EXPECT_EQ(r.value()[0].url, "p1#bio");
  EXPECT_EQ(r.value()[1].url, "p1#news");
  EXPECT_EQ(r.value()[2].url, "p3#bio");
  EXPECT_TRUE(std::is_sorted(
      r.value().begin(), r.value().end(),
      [](const auto& a, const auto& b) { return a.url < b.url; }));
}

TEST_F(MediatorTest, PureTextQueryRanksWithoutPushdown) {
  Mediator mediator(Backends());
  FederatedStats stats;
  Result<std::vector<ir::ClusterScoredDoc>> got =
      mediator.ExecuteString("text(\"net play\")", 10, 2, {}, &stats);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(stats.pushdown);
  std::vector<ir::ClusterScoredDoc> want =
      cluster_->Query({"net", "play"}, 10, 2);
  ASSERT_EQ(got.value().size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.value()[i].url, want[i].url);
    EXPECT_EQ(got.value()[i].score, want[i].score);
  }
}

// The text backend snapshots the cluster's entity table; if the
// cluster mutates afterwards (live ingestion), evaluation must refuse
// with a clean kUnavailable — in release builds too, where the old
// assert would have compiled out and left the stale snapshot to build
// out-of-range candidate bitmaps.
TEST_F(MediatorTest, StaleTextSnapshotRefusedAfterClusterMutation) {
  Mediator mediator(Backends());
  ASSERT_TRUE(text_->CheckFrozen().ok());

  cluster_->AddDocument("p9#bio", "late arrival net play");

  EXPECT_FALSE(text_->CheckFrozen().ok());
  Result<std::vector<ir::ClusterScoredDoc>> r = mediator.ExecuteString(
      "text(\"net\") AND cobra(event=rally, min_len=5s)", 10, 2);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(r.status().message().find("stale"), std::string::npos);

  // Direct backend entry points refuse the same way.
  const FederatedQuery q = ParseFederatedQuery("text(\"net\")").value();
  EXPECT_FALSE(text_->EvalFilter(q.root.pred).ok());

  // A backend rebuilt against the mutated cluster serves again.
  cluster_->Finalize();
  TextBackend rebuilt(cluster_.get());
  EXPECT_TRUE(rebuilt.CheckFrozen().ok());
  EXPECT_TRUE(rebuilt.EvalFilter(q.root.pred).ok());
}

TEST_F(MediatorTest, DisjunctionOfAllThreeLevels) {
  // OR across levels: union of candidate sets, then ranked by the
  // separate top-level text conjunct.
  const char* query =
      "text(\"net\") AND (webspace(class=Player, gender=female) OR "
      "cobra(event=ace) OR text(\"baseline\"))";
  Mediator mediator(Backends());
  Result<std::vector<ir::ClusterScoredDoc>> got =
      mediator.ExecuteString(query, 10, 2);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  // female {p1,p3} + ace {p4} + baseline {p2} = all players; every
  // doc with "net" except other1 (not a candidate) survives.
  const CandidateSet survivors = {"p1", "p2", "p3", "p4"};
  std::vector<ir::ClusterScoredDoc> want =
      PostFilterReference({"net"}, survivors, 10);
  ASSERT_EQ(got.value().size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.value()[i].url, want[i].url);
    EXPECT_EQ(got.value()[i].score, want[i].score);
  }
}

}  // namespace
}  // namespace dls::federate
