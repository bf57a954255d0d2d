// One node evaluator behind ShardServer: a frozen node is a one-part
// snapshot and a live node a many-part one, and both answer query and
// stats frames the same way. Frozen and one-run live nodes over the
// same documents do identical work; a live node's handshake reports the
// work it served; and under a seeded insert / re-insert / delete /
// merge schedule every live node answers exactly like a from-scratch
// rebuild of its live documents while its snapshot's deletion state
// matches a shadow model.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/rng.h"
#include "common/strings.h"
#include "ingest/live_index.h"
#include "ir/cluster.h"
#include "ir/fragments.h"
#include "ir/index.h"
#include "net/shard_server.h"
#include "net/transport.h"
#include "net/wire.h"

namespace dls::net {
namespace {

constexpr size_t kFragments = 4;

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::string Body(Rng* rng, ZipfSampler* zipf, size_t words) {
  std::string body;
  for (size_t i = 0; i < words; ++i) {
    if (!body.empty()) body += ' ';
    body += StrFormat("term%03zu", zipf->Sample(rng));
  }
  return body;
}

/// Sends `frame` through `transport` and decodes the reply as a
/// `Message`; a failed call or an Error frame fails the test.
template <typename Message>
Message Exchange(Transport* transport, const std::vector<uint8_t>& frame,
                 Result<Message> (*decode)(const uint8_t*, size_t)) {
  Result<std::vector<uint8_t>> reply =
      transport->Call(frame, Deadline::Infinite());
  EXPECT_TRUE(reply.ok()) << reply.status().ToString();
  if (!reply.ok()) return Message{};
  MessageType type;
  const uint8_t* body = nullptr;
  size_t len = 0;
  EXPECT_TRUE(DecodeFrame(reply.value(), &type, &body, &len).ok());
  Result<Message> message = decode(body, len);
  EXPECT_TRUE(message.ok()) << message.status().ToString();
  return message.ok() ? std::move(message).value() : Message{};
}

ir::ShardResult QueryNode(Transport* transport, uint32_t node,
                          const ir::ShardQuery& query) {
  QueryResponse response = Exchange(
      transport, EncodeQueryRequest(QueryRequest{node, {query}}).value(),
      &DecodeQueryResponse);
  EXPECT_EQ(1u, response.results.size());
  return response.results.empty() ? ir::ShardResult{}
                                  : std::move(response.results[0]);
}

StatsResponse StatsOf(Transport* transport, uint32_t node) {
  return Exchange(transport, EncodeStatsRequest(StatsRequest{node}),
                  &DecodeStatsResponse);
}

/// The query a centre holding `df` and `collection_length` pushes.
ir::ShardQuery Resolve(const std::vector<std::string>& words,
                       const std::function<int32_t(std::string_view)>& df,
                       int64_t collection_length, size_t n,
                       size_t max_fragments, const ir::RankOptions& options) {
  ir::ShardQuery query;
  query.n = n;
  query.max_fragments = max_fragments;
  query.collection_length = collection_length;
  query.options = options;
  ir::ResolveShardQuery(words, /*stem=*/true, /*stop=*/true, df, &query);
  return query;
}

/// Every kernel × strategy × prune configuration.
std::vector<std::pair<std::string, ir::RankOptions>> Configs() {
  std::vector<std::pair<std::string, ir::RankOptions>> configs;
  const std::pair<const char*, ir::ScoreKernel> kernels[] = {
      {"scalar", ir::ScoreKernel::kScalar},
      {"block", ir::ScoreKernel::kBlock},
      {"packed", ir::ScoreKernel::kPacked},
  };
  const std::pair<const char*, ir::RankStrategy> strategies[] = {
      {"auto", ir::RankStrategy::kAuto},
      {"taat", ir::RankStrategy::kTaat},
      {"wand", ir::RankStrategy::kWand},
  };
  for (const auto& [kname, kernel] : kernels) {
    for (const auto& [sname, strategy] : strategies) {
      for (bool prune : {false, true}) {
        ir::RankOptions o;
        o.kernel = kernel;
        o.strategy = strategy;
        o.prune = prune;
        configs.emplace_back(
            StrFormat("%s+%s%s", kname, sname, prune ? "+prune" : ""), o);
      }
    }
  }
  return configs;
}

void ExpectSameTop(const ir::ShardResult& want, const ir::ShardResult& got,
                   const std::string& what) {
  ASSERT_EQ(want.top.size(), got.top.size()) << what;
  for (size_t i = 0; i < want.top.size(); ++i) {
    EXPECT_EQ(want.top[i].url, got.top[i].url) << what << " rank " << i;
    EXPECT_EQ(Bits(want.top[i].score), Bits(got.top[i].score))
        << what << " rank " << i;
  }
}

TEST(LiveClusterTest, FrozenAndOneRunLiveNodesDoIdenticalWork) {
  Rng rng(31);
  ZipfSampler zipf(150, 1.1);
  std::vector<std::pair<std::string, std::string>> docs;
  for (size_t i = 0; i < 600; ++i) {
    docs.emplace_back(StrFormat("doc-%04zu", i), Body(&rng, &zipf, 24));
  }
  ir::TextIndex::Options frozen_options;
  frozen_options.flush_batch = docs.size() + 1;  // one fold, as a merge
  ir::TextIndex frozen(frozen_options);
  for (const auto& [url, text] : docs) frozen.AddDocument(url, text);
  frozen.Flush();
  ir::FragmentedIndex fragments(&frozen, kFragments);

  ingest::LiveIndexOptions live_options;
  live_options.num_fragments = kFragments;
  ingest::LiveIndex live(live_options);
  for (const auto& [url, text] : docs) ASSERT_TRUE(live.Insert(url, text).ok());
  live.Merge();
  ASSERT_EQ(1u, live.Pin()->parts().size());

  ShardServer server;
  const uint32_t frozen_node = server.AddNode(&frozen, &fragments);
  const uint32_t live_node = server.AddLiveNode(&live);
  LoopbackTransport transport(server.Handler());

  const auto df = [&frozen](std::string_view stem) {
    std::optional<ir::TermId> t = frozen.LookupTerm(stem);
    return t ? frozen.df(*t) : 0;
  };
  const std::vector<std::vector<std::string>> queries = {
      {"term000", "term007", "term090"},
      {"term003", "term011"},
      {"term140"},
      {"term001", "term002", "term005", "term060"},
  };
  for (const auto& [name, options] : Configs()) {
    for (size_t max_fragments : {kFragments, size_t{2}}) {
      for (const auto& words : queries) {
        const std::string what =
            StrFormat("%s frags=%zu %s", name.c_str(), max_fragments,
                      words[0].c_str());
        const ir::ShardQuery query =
            Resolve(words, df, frozen.collection_length(), 10, max_fragments,
                    options);
        const ir::ShardResult a = QueryNode(&transport, frozen_node, query);
        const ir::ShardResult b = QueryNode(&transport, live_node, query);
        ExpectSameTop(a, b, what);
        EXPECT_EQ(a.stem_evaluated, b.stem_evaluated) << what;
        EXPECT_EQ(a.work, b.work) << what;
      }
    }
  }

  // The handshakes agree too, but for the epoch: a frozen node reports
  // its index's mutation_epoch(), a live node its writer's epoch.
  const StatsResponse a = StatsOf(&transport, frozen_node);
  const StatsResponse b = StatsOf(&transport, live_node);
  EXPECT_EQ(a.stem, b.stem);
  EXPECT_EQ(a.stop, b.stop);
  EXPECT_EQ(a.document_count, b.document_count);
  EXPECT_EQ(a.collection_length, b.collection_length);
  EXPECT_EQ(a.term_dfs, b.term_dfs);
  EXPECT_EQ(a.work, b.work);
  EXPECT_EQ(a.mutation_epoch, frozen.mutation_epoch());
  EXPECT_EQ(b.mutation_epoch, live.epoch());
}

TEST(LiveClusterTest, LiveHandshakeReportsServedWork) {
  Rng rng(77);
  ZipfSampler zipf(60, 1.1);
  ingest::LiveIndexOptions options;
  options.delta_seal_docs = 8;
  ingest::LiveIndex live(options);
  for (size_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(
        live.Insert(StrFormat("doc-%03zu", i), Body(&rng, &zipf, 16)).ok());
  }
  live.Merge();
  for (size_t i = 1000; i < 1020; ++i) {
    ASSERT_TRUE(
        live.Insert(StrFormat("doc-%03zu", i), Body(&rng, &zipf, 16)).ok());
  }
  ASSERT_TRUE(live.Delete("doc-005"));
  ASSERT_TRUE(live.Delete("doc-1010"));

  ShardServer server;
  const uint32_t node = server.AddLiveNode(&live);
  LoopbackTransport transport(server.Handler());
  const StatsResponse before = StatsOf(&transport, node);
  const auto df = [&before](std::string_view stem) {
    for (const auto& [term, value] : before.term_dfs) {
      if (term == stem) return value;
    }
    return 0;
  };

  uint64_t postings = 0, skipped = 0, decoded = 0, pivots = 0, advances = 0;
  const std::vector<std::vector<std::string>> queries = {
      {"term000", "term009"}, {"term001"}, {"term002", "term030", "term050"},
      {"term004", "term007"}, {"term003", "term010", "term020"}};
  for (bool prune : {false, true}) {
    for (const auto& words : queries) {
      ir::RankOptions query_options;
      query_options.prune = prune;
      if (prune) {
        // Pruned block-max WAND over packed postings: the plan that
        // moves every counter the handshake reports.
        query_options.strategy = ir::RankStrategy::kWand;
        query_options.kernel = ir::ScoreKernel::kPacked;
      }
      const ir::ShardResult r = QueryNode(
          &transport, node,
          Resolve(words, df, before.collection_length, 5, kFragments,
                  query_options));
      postings += r.work.postings_touched;
      skipped += r.work.blocks_skipped;
      decoded += r.work.blocks_decoded;
      pivots += r.work.pivot_iterations;
      advances += r.work.cursor_advances;
    }
  }
  ASSERT_GT(postings, 0u);
  ASSERT_GT(skipped, 0u);
  ASSERT_GT(decoded, 0u);
  ASSERT_GT(pivots, 0u);
  ASSERT_GT(advances, 0u);
  const StatsResponse after = StatsOf(&transport, node);
  EXPECT_EQ(postings, after.work.postings_touched);
  EXPECT_EQ(skipped, after.work.blocks_skipped);
  EXPECT_EQ(decoded, after.work.blocks_decoded);
  EXPECT_EQ(pivots, after.work.pivot_iterations);
  EXPECT_EQ(advances, after.work.cursor_advances);
}

uint64_t FaultSeed() {
  const char* env = std::getenv("DLS_FAULT_SEED");
  if (env == nullptr || *env == '\0') return 1;
  return std::strtoull(env, nullptr, 10);
}

/// The shadow of one live node: every document it was ever sent, by
/// global id (insertion order).
struct ShadowNode {
  struct Doc {
    std::string url;
    std::string text;
    bool alive = true;
  };
  std::vector<Doc> docs;

  std::unique_ptr<ir::TextIndex> Rebuild() const {
    ir::TextIndex::Options options;
    options.flush_batch = docs.size() + 2;
    auto index = std::make_unique<ir::TextIndex>(options);
    for (const Doc& d : docs) {
      if (d.alive) index->AddDocument(d.url, d.text);
    }
    index->Flush();
    return index;
  }
};

/// The snapshot's deletion state against the shadow: every document a
/// part still holds is deleted iff the shadow says so, the per-part
/// counts are those documents, documents no part holds were deleted
/// (and merged away), and the live count matches.
void ExpectDeletionStateMatches(const ingest::LiveIndex::Snapshot& snap,
                                const ShadowNode& shadow,
                                const std::string& where) {
  std::vector<bool> held(shadow.docs.size(), false);
  ASSERT_EQ(snap.parts().size(), snap.part_tombstones().size()) << where;
  for (size_t pi = 0; pi < snap.parts().size(); ++pi) {
    uint32_t dead = 0;
    for (uint64_t id : snap.parts()[pi]->global_ids) {
      ASSERT_LT(id, shadow.docs.size()) << where;
      held[id] = true;
      const bool deleted = !shadow.docs[id].alive;
      EXPECT_EQ(deleted, snap.IsDeleted(id)) << where << " id " << id;
      if (deleted) ++dead;
    }
    EXPECT_EQ(dead, snap.part_tombstones()[pi]) << where << " part " << pi;
  }
  size_t alive = 0;
  for (size_t id = 0; id < shadow.docs.size(); ++id) {
    if (shadow.docs[id].alive) ++alive;
    if (held[id]) continue;
    EXPECT_FALSE(shadow.docs[id].alive) << where << " lost id " << id;
    EXPECT_FALSE(snap.IsDeleted(id)) << where << " id " << id;
  }
  EXPECT_EQ(alive, snap.live_docs()) << where;
}

TEST(LiveClusterTest, SeededScheduleMatchesPerNodeRebuild) {
  const uint64_t seed = FaultSeed();
  std::printf("LiveClusterTest.SeededScheduleMatchesPerNodeRebuild: "
              "DLS_FAULT_SEED=%llu\n",
              static_cast<unsigned long long>(seed));
  Rng rng(seed);
  ZipfSampler zipf(50, 1.05);
  const size_t num_nodes = 2 + rng.Uniform(2);
  ShardServer server;
  std::vector<std::unique_ptr<ingest::LiveIndex>> lives;
  std::vector<ShadowNode> shadows(num_nodes);
  for (size_t i = 0; i < num_nodes; ++i) {
    ingest::LiveIndexOptions options;
    options.delta_seal_docs = 3 + rng.Uniform(5);
    options.num_fragments = kFragments;
    lives.push_back(std::make_unique<ingest::LiveIndex>(options));
    ASSERT_EQ(i, server.AddLiveNode(lives.back().get()));
  }
  LoopbackTransport transport(server.Handler());
  const auto configs = Configs();
  size_t next_url = 0;

  for (size_t step = 0; step < 160; ++step) {
    const uint32_t node = static_cast<uint32_t>(rng.Uniform(num_nodes));
    ShadowNode& shadow = shadows[node];
    std::vector<size_t> alive, dead;
    for (size_t id = 0; id < shadow.docs.size(); ++id) {
      (shadow.docs[id].alive ? alive : dead).push_back(id);
    }
    const double roll = rng.NextDouble();
    std::string op;
    if (roll < 0.45 || alive.empty()) {
      op = "insert";
      ShadowNode::Doc doc{StrFormat("n%u-doc%04zu", node, next_url++),
                          Body(&rng, &zipf, 4 + rng.Uniform(16))};
      const InsertResponse r =
          Exchange(&transport,
                   EncodeInsertRequest({node, doc.url, doc.text}).value(),
                   &DecodeInsertResponse);
      EXPECT_EQ(shadow.docs.size(), r.doc_id) << "step " << step;
      shadow.docs.push_back(std::move(doc));
    } else if (roll < 0.55 && !dead.empty()) {
      op = "re-insert";
      const std::string url = shadow.docs[dead[rng.Uniform(dead.size())]].url;
      bool live_copy = false;
      for (const auto& d : shadow.docs) live_copy |= d.alive && d.url == url;
      if (live_copy) continue;  // re-inserted already
      ShadowNode::Doc doc{url, Body(&rng, &zipf, 4 + rng.Uniform(16))};
      const InsertResponse r =
          Exchange(&transport,
                   EncodeInsertRequest({node, doc.url, doc.text}).value(),
                   &DecodeInsertResponse);
      EXPECT_EQ(shadow.docs.size(), r.doc_id) << "step " << step;
      shadow.docs.push_back(std::move(doc));
    } else if (roll < 0.85) {
      op = "delete";
      const size_t victim = alive[rng.Uniform(alive.size())];
      const DeleteResponse r = Exchange(
          &transport,
          EncodeDeleteRequest({node, shadow.docs[victim].url}).value(),
          &DecodeDeleteResponse);
      EXPECT_TRUE(r.found) << "step " << step;
      shadow.docs[victim].alive = false;
    } else {
      op = "merge";
      Exchange(&transport, EncodeMergeRequest({node}), &DecodeMergeResponse);
    }

    // Every node against its own rebuild, under the statistics of the
    // whole cluster's live documents.
    std::vector<std::unique_ptr<ir::TextIndex>> rebuilds;
    int64_t collection_length = 0;
    for (const ShadowNode& s : shadows) {
      rebuilds.push_back(s.Rebuild());
      collection_length += rebuilds.back()->collection_length();
    }
    const auto df = [&rebuilds](std::string_view stem) {
      int32_t sum = 0;
      for (const auto& index : rebuilds) {
        std::optional<ir::TermId> t = index->LookupTerm(stem);
        if (t) sum += index->df(*t);
      }
      return sum;
    };
    const std::vector<std::string> words = {
        StrFormat("term%03zu", zipf.Sample(&rng)),
        StrFormat("term%03zu", zipf.Sample(&rng))};
    const size_t ns[] = {1, 5, std::numeric_limits<size_t>::max()};
    const size_t n = ns[rng.Uniform(3)];
    const auto& [config, options] = configs[rng.Uniform(configs.size())];
    const ir::ShardQuery query =
        Resolve(words, df, collection_length, n, kFragments, options);
    for (uint32_t i = 0; i < num_nodes; ++i) {
      const std::string where = StrFormat(
          "seed %llu step %zu (%s on node %u) node %u %s n=%zu %s %s",
          static_cast<unsigned long long>(seed), step, op.c_str(), node, i,
          config.c_str(), n, words[0].c_str(), words[1].c_str());
      ir::FragmentedIndex fragments(rebuilds[i].get(), kFragments);
      ExpectSameTop(ir::EvaluateShardQuery(*rebuilds[i], fragments, query),
                    QueryNode(&transport, i, query), where);
      ExpectDeletionStateMatches(*lives[i]->Pin(), shadows[i], where);
    }
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace dls::net
