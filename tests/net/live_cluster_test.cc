// Live ingestion over the wire: mutation frames (Insert/Delete/Merge),
// ShardServer live nodes, RemoteClusterIndex url-hash routing with
// replica agreement, and the end-to-end exactness contract — after
// every mutation the centre's global statistics (advanced by the
// statistics delta each acknowledgement carries) equal a fresh stats
// handshake's, and a remote query is bit-identical to manually
// rebuilding each shard's live documents from scratch and running the
// in-process shard evaluation + merge.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "ingest/live_index.h"
#include "ir/cluster.h"
#include "ir/fragments.h"
#include "ir/index.h"
#include "ir/tokenizer.h"
#include "net/remote_cluster.h"
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

/// Decodes `body` through `decode` after copying it into an allocation
/// of exactly its size, so ASan sees any read past the end.
template <typename Message>
Status DecodeCopy(const std::vector<uint8_t>& body,
                  Result<Message> (*decode)(const uint8_t*, size_t)) {
  const std::vector<uint8_t> copy(body);
  return decode(copy.data(), copy.size()).status();
}

/// The body span of an encoded frame.
std::vector<uint8_t> BodyOf(const std::vector<uint8_t>& frame) {
  return std::vector<uint8_t>(frame.begin() + kFrameHeaderBytes + 1,
                              frame.end());
}

/// Every strict prefix of `frame`'s body must decode to kCorruption —
/// never succeed, never read past the prefix — and so must the frame
/// itself cut at every byte.
template <typename Message>
void ExpectTruncationsRejected(const std::vector<uint8_t>& frame,
                               Result<Message> (*decode)(const uint8_t*,
                                                         size_t),
                               const char* what) {
  const std::vector<uint8_t> body = BodyOf(frame);
  ASSERT_TRUE(DecodeCopy(body, decode).ok()) << what;
  for (size_t cut = 0; cut < body.size(); ++cut) {
    const std::vector<uint8_t> prefix(body.begin(), body.begin() + cut);
    EXPECT_EQ(DecodeCopy(prefix, decode).code(), StatusCode::kCorruption)
        << what << " body cut at " << cut;
  }
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    const std::vector<uint8_t> prefix(frame.begin(), frame.begin() + cut);
    MessageType type;
    const uint8_t* b = nullptr;
    size_t len = 0;
    EXPECT_EQ(DecodeFrame(prefix, &type, &b, &len).code(),
              StatusCode::kCorruption)
        << what << " frame cut at " << cut;
  }
}

TEST(LiveWireTest, MutationFramesRoundTrip) {
  InsertRequest insert{3, "http://a/b", "some document text here"};
  Result<std::vector<uint8_t>> frame = EncodeInsertRequest(insert);
  ASSERT_TRUE(frame.ok());
  MessageType type;
  const uint8_t* body = nullptr;
  size_t body_len = 0;
  ASSERT_TRUE(DecodeFrame(frame.value(), &type, &body, &body_len).ok());
  ASSERT_EQ(type, MessageType::kInsertRequest);
  Result<InsertRequest> decoded = DecodeInsertRequest(body, body_len);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().node_id, 3u);
  EXPECT_EQ(decoded.value().url, insert.url);
  EXPECT_EQ(decoded.value().text, insert.text);

  InsertResponse ins_resp{3, 12345678901234ull, 42, {5, {"document", "text"}}};
  Result<std::vector<uint8_t>> f2 = EncodeInsertResponse(ins_resp);
  ASSERT_TRUE(f2.ok());
  ASSERT_TRUE(DecodeFrame(f2.value(), &type, &body, &body_len).ok());
  ASSERT_EQ(type, MessageType::kInsertResponse);
  Result<InsertResponse> d2 = DecodeInsertResponse(body, body_len);
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(d2.value().doc_id, ins_resp.doc_id);
  EXPECT_EQ(d2.value().epoch, ins_resp.epoch);
  EXPECT_EQ(d2.value().delta, ins_resp.delta);

  DeleteRequest del{1, "http://a/b"};
  Result<std::vector<uint8_t>> f3 = EncodeDeleteRequest(del);
  ASSERT_TRUE(f3.ok());
  ASSERT_TRUE(DecodeFrame(f3.value(), &type, &body, &body_len).ok());
  ASSERT_EQ(type, MessageType::kDeleteRequest);
  Result<DeleteRequest> d3 = DecodeDeleteRequest(body, body_len);
  ASSERT_TRUE(d3.ok());
  EXPECT_EQ(d3.value().url, del.url);

  DeleteResponse del_resp{1, true, 43, {3, {"alpha", "beta", "gamma"}}};
  Result<std::vector<uint8_t>> f4 = EncodeDeleteResponse(del_resp);
  ASSERT_TRUE(f4.ok());
  ASSERT_TRUE(DecodeFrame(f4.value(), &type, &body, &body_len).ok());
  ASSERT_EQ(type, MessageType::kDeleteResponse);
  Result<DeleteResponse> d4 = DecodeDeleteResponse(body, body_len);
  ASSERT_TRUE(d4.ok());
  EXPECT_TRUE(d4.value().found);
  EXPECT_EQ(d4.value().epoch, 43u);
  EXPECT_EQ(d4.value().delta, del_resp.delta);

  // A delete that found nothing carries an empty delta.
  Result<std::vector<uint8_t>> f4_missing =
      EncodeDeleteResponse(DeleteResponse{1, false, 43, {}});
  ASSERT_TRUE(f4_missing.ok());
  Result<DeleteResponse> d4_missing = DecodeDeleteResponse(
      BodyOf(f4_missing.value()).data(), BodyOf(f4_missing.value()).size());
  ASSERT_TRUE(d4_missing.ok());
  EXPECT_FALSE(d4_missing.value().found);

  MergeRequest merge{2};
  std::vector<uint8_t> f5 = EncodeMergeRequest(merge);
  ASSERT_TRUE(DecodeFrame(f5, &type, &body, &body_len).ok());
  ASSERT_EQ(type, MessageType::kMergeRequest);
  ASSERT_TRUE(DecodeMergeRequest(body, body_len).ok());

  MergeResponse merge_resp{2, 44, 7};
  std::vector<uint8_t> f6 = EncodeMergeResponse(merge_resp);
  ASSERT_TRUE(DecodeFrame(f6, &type, &body, &body_len).ok());
  ASSERT_EQ(type, MessageType::kMergeResponse);
  Result<MergeResponse> d6 = DecodeMergeResponse(body, body_len);
  ASSERT_TRUE(d6.ok());
  EXPECT_EQ(d6.value().epoch, 44u);
  EXPECT_EQ(d6.value().merges, 7u);

  // Truncated mutation frames surface as clean corruption at every
  // byte, like every other frame.
  ExpectTruncationsRejected(frame.value(), &DecodeInsertRequest, "insert");
  ExpectTruncationsRejected(f2.value(), &DecodeInsertResponse, "insert ack");
  ExpectTruncationsRejected(f3.value(), &DecodeDeleteRequest, "delete");
  ExpectTruncationsRejected(f4.value(), &DecodeDeleteResponse, "delete ack");
  ExpectTruncationsRejected(f5, &DecodeMergeRequest, "merge");
  ExpectTruncationsRejected(f6, &DecodeMergeResponse, "merge ack");
}

/// Encodes an InsertResponse body by hand, so a test can write deltas
/// no LiveIndex reports: `stems_count` need not match `stems`.
std::vector<uint8_t> RawInsertAckBody(uint8_t length, uint8_t stems_count,
                                      const std::vector<std::string>& stems) {
  std::vector<uint8_t> body = {0, 1, 2, length, stems_count};
  for (const std::string& stem : stems) {
    body.push_back(static_cast<uint8_t>(stem.size()));
    body.insert(body.end(), stem.begin(), stem.end());
  }
  return body;
}

TEST(LiveWireTest, HostileStatsDeltasAreCorruption) {
  // The hand encoding matches the encoder's.
  Result<std::vector<uint8_t>> ack =
      EncodeInsertResponse(InsertResponse{0, 1, 2, {3, {"ab", "cd"}}});
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(BodyOf(ack.value()), RawInsertAckBody(3, 2, {"ab", "cd"}));

  const struct {
    const char* what;
    std::vector<uint8_t> body;
  } hostile[] = {
      {"descending stems", RawInsertAckBody(3, 2, {"cd", "ab"})},
      {"duplicate stem", RawInsertAckBody(3, 2, {"ab", "ab"})},
      {"count beyond the frame", RawInsertAckBody(3, 100, {"ab", "cd"})},
      {"count short of the stems", RawInsertAckBody(3, 1, {"ab", "cd"})},
      {"length below the stem count", RawInsertAckBody(1, 2, {"ab", "cd"})},
  };
  for (const auto& h : hostile) {
    EXPECT_EQ(DecodeCopy(h.body, &DecodeInsertResponse).code(),
              StatusCode::kCorruption)
        << h.what;
  }

  // The delete ack shares the delta encoding and adds one rule: a
  // delete that found nothing changed no statistics.
  Result<std::vector<uint8_t>> missing =
      EncodeDeleteResponse(DeleteResponse{0, false, 9, {2, {"ab"}}});
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(DecodeCopy(BodyOf(missing.value()), &DecodeDeleteResponse).code(),
            StatusCode::kCorruption);
  Result<std::vector<uint8_t>> descending =
      EncodeDeleteResponse(DeleteResponse{0, true, 9, {2, {"cd", "ab"}}});
  ASSERT_TRUE(descending.ok());
  EXPECT_EQ(
      DecodeCopy(BodyOf(descending.value()), &DecodeDeleteResponse).code(),
      StatusCode::kCorruption);
}

/// `num_shards` live shards, each `num_replicas` LiveIndex copies
/// hosted as nodes on one ShardServer, dialled over loopback.
struct LiveLoopbackCluster {
  LiveLoopbackCluster(size_t num_shards, size_t num_replicas,
                      size_t delta_seal_docs = 8)
      : num_replicas_(num_replicas) {
    std::vector<RemoteClusterIndex::ReplicaSet> sets(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      for (size_t r = 0; r < num_replicas; ++r) {
        ingest::LiveIndexOptions options;
        options.delta_seal_docs = delta_seal_docs;
        lives.push_back(std::make_unique<ingest::LiveIndex>(options));
        const uint32_t node_id = server.AddLiveNode(lives.back().get());
        transports.push_back(
            std::make_unique<LoopbackTransport>(server.Handler()));
        sets[s].replicas.push_back({transports.back().get(), node_id});
      }
    }
    remote = std::make_unique<RemoteClusterIndex>(sets, Options());
    sets_ = std::move(sets);
  }

  static RemoteClusterIndex::Options Options() {
    RemoteClusterIndex::Options options;
    options.hedge = false;  // deterministic frames for this test
    return options;
  }

  /// A second centre over the same replicas: its Connect() handshake
  /// is the oracle for the statistics `remote` maintains by deltas.
  std::unique_ptr<RemoteClusterIndex> FreshCentre() const {
    return std::make_unique<RemoteClusterIndex>(sets_, Options());
  }

  /// The LiveIndex behind replica `r` of shard `s` (s-major layout).
  ingest::LiveIndex& live(size_t s, size_t r) {
    return *lives[s * num_replicas_ + r];
  }

  size_t num_replicas_;
  std::vector<RemoteClusterIndex::ReplicaSet> sets_;
  ShardServer server;
  std::vector<std::unique_ptr<ingest::LiveIndex>> lives;
  std::vector<std::unique_ptr<LoopbackTransport>> transports;
  std::unique_ptr<RemoteClusterIndex> remote;
};

/// The from-scratch reference: partitions the live documents by the
/// centre's routing hash, rebuilds one TextIndex per shard, aggregates
/// global statistics exactly as the handshake does, and runs the
/// in-process shard evaluation + merge.
std::vector<ir::ClusterScoredDoc> RebuildReference(
    const RemoteClusterIndex& remote,
    const std::vector<std::pair<std::string, std::string>>& live_docs,
    const std::vector<std::string>& words, size_t n, size_t max_fragments,
    size_t num_fragments) {
  const size_t shards = remote.num_shards();
  std::vector<std::unique_ptr<ir::TextIndex>> indexes;
  for (size_t s = 0; s < shards; ++s) {
    ir::TextIndex::Options options;
    options.flush_batch = live_docs.size() + 2;
    indexes.push_back(std::make_unique<ir::TextIndex>(options));
  }
  for (const auto& [url, text] : live_docs) {
    indexes[remote.ShardForUrl(url)]->AddDocument(url, text);
  }
  int64_t collection_length = 0;
  for (auto& index : indexes) {
    index->Flush();
    collection_length += index->collection_length();
  }

  ir::ShardQuery query;
  query.n = n;
  query.max_fragments = max_fragments;
  query.collection_length = collection_length;
  for (const std::string& word : words) {
    std::optional<std::string> stem = ir::NormalizeWordAs(word, true, true);
    if (!stem) continue;
    if (std::find(query.stems.begin(), query.stems.end(), *stem) !=
        query.stems.end()) {
      continue;
    }
    int32_t df = 0;
    for (auto& index : indexes) {
      std::optional<ir::TermId> t = index->LookupTerm(*stem);
      if (t) df += index->df(*t);
    }
    if (df == 0) continue;
    query.stems.push_back(*stem);
    query.stem_global_df.push_back(df);
  }

  std::vector<ir::ShardResult> results(shards);
  for (size_t s = 0; s < shards; ++s) {
    ir::FragmentedIndex fragments(indexes[s].get(), num_fragments);
    results[s] = ir::EvaluateShardQuery(*indexes[s], fragments, query);
  }
  return ir::MergeShardResults(&results, n);
}

std::string MakeBody(Rng* rng, ZipfSampler* zipf, size_t words) {
  std::string body;
  for (size_t i = 0; i < words; ++i) {
    if (!body.empty()) body += ' ';
    body += StrFormat("term%03zu", zipf->Sample(rng));
  }
  return body;
}

/// The stems of MakeBody's vocabulary of `size` words.
std::vector<std::string> VocabularyStems(size_t size) {
  std::vector<std::string> stems;
  for (size_t i = 0; i < size; ++i) {
    std::optional<std::string> stem =
        ir::NormalizeWordAs(StrFormat("term%03zu", i), true, true);
    if (stem) stems.push_back(*stem);
  }
  return stems;
}

/// The centre's statistics must equal a fresh Connect() handshake's
/// over the same replicas: document count, collection length, cluster
/// epoch, vocabulary size (a stem whose df fell to 0 must have left)
/// and the global df of every stem in `stems`.
void ExpectMatchesFreshHandshake(const LiveLoopbackCluster& fx,
                                 const std::vector<std::string>& stems,
                                 const std::string& where) {
  std::unique_ptr<RemoteClusterIndex> oracle = fx.FreshCentre();
  ASSERT_TRUE(oracle->Connect().ok()) << where;
  EXPECT_EQ(fx.remote->document_count(), oracle->document_count()) << where;
  EXPECT_EQ(fx.remote->global_collection_length(),
            oracle->global_collection_length())
      << where;
  EXPECT_EQ(fx.remote->cluster_epoch(), oracle->cluster_epoch()) << where;
  EXPECT_EQ(fx.remote->vocabulary_size(), oracle->vocabulary_size())
      << where;
  for (const std::string& stem : stems) {
    EXPECT_EQ(fx.remote->global_df(stem), oracle->global_df(stem))
        << where << " stem " << stem;
  }
}

uint64_t FaultSeed() {
  const char* env = std::getenv("DLS_FAULT_SEED");
  if (env == nullptr || *env == '\0') return 1;
  return std::strtoull(env, nullptr, 10);
}

TEST(LiveClusterTest, FrozenNodeRefusesMutations) {
  ir::TextIndex index;
  index.AddDocument("doc0", "hello world");
  index.Flush();
  ir::FragmentedIndex fragments(&index, 2);
  ShardServer server;
  server.AddNode(&index, &fragments);
  LoopbackTransport transport(server.Handler());
  RemoteClusterIndex remote({{&transport, 0}});
  ASSERT_TRUE(remote.Connect().ok());
  Result<uint64_t> inserted = remote.Insert("doc1", "new text");
  ASSERT_FALSE(inserted.ok());
  EXPECT_EQ(inserted.status().code(), StatusCode::kUnsupported);
}

TEST(LiveClusterTest, MutationsRouteByUrlHashAndSearchIsBitIdentical) {
  LiveLoopbackCluster fx(/*num_shards=*/3, /*num_replicas=*/1);
  ASSERT_TRUE(fx.remote->Connect().ok());
  EXPECT_EQ(fx.remote->document_count(), 0u);

  Rng rng(20260808);
  ZipfSampler zipf(150, 1.1);
  std::vector<std::pair<std::string, std::string>> live_docs;
  std::vector<size_t> expect_docs(3, 0);
  for (size_t d = 0; d < 60; ++d) {
    const std::string url = StrFormat("http://site/%04zu", d);
    const std::string text = MakeBody(&rng, &zipf, 20);
    Result<uint64_t> id = fx.remote->Insert(url, text);
    ASSERT_TRUE(id.ok()) << id.status().message();
    live_docs.emplace_back(url, text);
    // Routing check: exactly the owning shard's LiveIndex grew.
    const size_t owner = fx.remote->ShardForUrl(url);
    expect_docs[owner] += 1;
    for (size_t s = 0; s < 3; ++s) {
      EXPECT_EQ(fx.live(s, 0).Pin()->live_docs(), expect_docs[s]);
    }
  }
  // Delete a third of them through the centre.
  for (size_t d = 0; d < 60; d += 3) {
    Result<bool> found = fx.remote->Delete(live_docs[d].first);
    ASSERT_TRUE(found.ok());
    EXPECT_TRUE(found.value());
  }
  std::vector<std::pair<std::string, std::string>> survivors;
  for (size_t d = 0; d < live_docs.size(); ++d) {
    if (d % 3 != 0) survivors.push_back(live_docs[d]);
  }

  // Deleting a url nobody has reports found == false on every shard.
  Result<bool> missing = fx.remote->Delete("http://site/none");
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing.value());

  // The acknowledgements' deltas kept the centre's statistics exact.
  const std::vector<std::string> vocabulary = VocabularyStems(150);
  ExpectMatchesFreshHandshake(fx, vocabulary, "after inserts and deletes");
  const std::vector<std::vector<std::string>> queries = {
      {"term000", "term001"},
      {"term004", "term020", "term077"},
      {"term002"},
  };
  for (const auto& words : queries) {
    std::vector<ir::ClusterScoredDoc> got =
        fx.remote->Query(words, 10, /*max_fragments=*/4);
    std::vector<ir::ClusterScoredDoc> want = RebuildReference(
        *fx.remote, survivors, words, 10, /*max_fragments=*/4,
        /*num_fragments=*/4);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].url, want[i].url) << "rank " << i;
      EXPECT_EQ(Bits(got[i].score), Bits(want[i].score)) << "rank " << i;
    }
  }
  ExpectMatchesFreshHandshake(fx, vocabulary, "after queries");
  EXPECT_EQ(fx.remote->document_count(), survivors.size());

  // After MergeAll every shard serves one frozen run; the fragment
  // cut-off now applies exactly like the rebuild's, so a truncated
  // fan-out stays bit-identical too.
  ASSERT_TRUE(fx.remote->MergeAll().ok());
  for (const auto& words : queries) {
    std::vector<ir::ClusterScoredDoc> got =
        fx.remote->Query(words, 10, /*max_fragments=*/2);
    std::vector<ir::ClusterScoredDoc> want = RebuildReference(
        *fx.remote, survivors, words, 10, /*max_fragments=*/2,
        /*num_fragments=*/4);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].url, want[i].url) << "rank " << i;
      EXPECT_EQ(Bits(got[i].score), Bits(want[i].score)) << "rank " << i;
    }
  }
}

TEST(LiveClusterTest, MutationsKeepReplicasIdentical) {
  LiveLoopbackCluster fx(/*num_shards=*/2, /*num_replicas=*/2);
  ASSERT_TRUE(fx.remote->Connect().ok());

  Rng rng(7);
  ZipfSampler zipf(100, 1.1);
  for (size_t d = 0; d < 30; ++d) {
    ASSERT_TRUE(
        fx.remote->Insert(StrFormat("u%04zu", d), MakeBody(&rng, &zipf, 12))
            .ok());
  }
  for (size_t d = 0; d < 30; d += 4) {
    ASSERT_TRUE(fx.remote->Delete(StrFormat("u%04zu", d)).ok());
  }
  ASSERT_TRUE(fx.remote->MergeAll().ok());

  // Both replicas of each shard applied the same mutation sequence:
  // same epoch, same live set, bit-identical local rankings.
  for (size_t s = 0; s < 2; ++s) {
    auto snap0 = fx.live(s, 0).Pin();
    auto snap1 = fx.live(s, 1).Pin();
    EXPECT_EQ(snap0->epoch(), snap1->epoch());
    EXPECT_EQ(snap0->live_docs(), snap1->live_docs());
    EXPECT_EQ(snap0->collection_length(), snap1->collection_length());
    std::vector<ingest::LiveScoredDoc> top0 =
        snap0->Query({"term000", "term001"}, 8);
    std::vector<ingest::LiveScoredDoc> top1 =
        snap1->Query({"term000", "term001"}, 8);
    ASSERT_EQ(top0.size(), top1.size());
    for (size_t i = 0; i < top0.size(); ++i) {
      EXPECT_EQ(top0[i].url, top1[i].url);
      EXPECT_EQ(Bits(top0[i].score), Bits(top1[i].score));
    }
  }

  // A replica that cannot be reached leaves the mutation incomplete
  // and the caller is told, rather than the set silently diverging.
  fx.transports[1]->Kill();
  const size_t victim_shard = fx.remote->ShardForUrl("victim");
  Result<uint64_t> id = fx.remote->Insert("victim", "text");
  if (victim_shard == 0) {
    EXPECT_FALSE(id.ok());
  } else {
    EXPECT_TRUE(id.ok());
  }
}

// The delta path's exactness, replayable from the seed in the log:
// seeded inserts, deletes (of live and of unknown urls) and merges over
// 3 shards x 2 replicas, and after EVERY mutation the centre's
// statistics equal a fresh stats handshake's. ci/check.sh's faults
// stage runs it under several DLS_FAULT_SEEDs.
TEST(LiveClusterTest, StatsDeltasMatchAFreshHandshakeAfterEveryMutation) {
  const uint64_t seed = FaultSeed();
  std::printf("LiveClusterTest stats-delta schedule: DLS_FAULT_SEED=%llu\n",
              static_cast<unsigned long long>(seed));
  SCOPED_TRACE(StrFormat("DLS_FAULT_SEED=%llu",
                         static_cast<unsigned long long>(seed)));
  LiveLoopbackCluster fx(/*num_shards=*/3, /*num_replicas=*/2,
                         /*delta_seal_docs=*/4);
  ASSERT_TRUE(fx.remote->Connect().ok());
  const std::vector<std::string> vocabulary = VocabularyStems(60);

  Rng rng(seed * 2654435761u + 17);
  ZipfSampler zipf(60, 1.1);
  std::vector<std::pair<std::string, std::string>> docs;
  std::vector<bool> alive;
  std::vector<size_t> live_ids;
  std::vector<std::string> dead_urls;
  for (size_t step = 0; step < 160; ++step) {
    const double roll = rng.NextDouble();
    std::string where;
    if (roll < 0.55 || live_ids.empty()) {
      // Bodies from 0 words up, so empty documents take the path too.
      const std::string url = StrFormat("http://site/%04zu", docs.size());
      const std::string text = MakeBody(&rng, &zipf, rng.Uniform(16));
      ASSERT_TRUE(fx.remote->Insert(url, text).ok());
      live_ids.push_back(docs.size());
      docs.emplace_back(url, text);
      alive.push_back(true);
      where = "insert " + url;
    } else if (roll < 0.80) {
      const size_t pick = rng.Uniform(live_ids.size());
      const size_t victim = live_ids[pick];
      Result<bool> found = fx.remote->Delete(docs[victim].first);
      ASSERT_TRUE(found.ok());
      EXPECT_TRUE(found.value());
      alive[victim] = false;
      dead_urls.push_back(docs[victim].first);
      live_ids[pick] = live_ids.back();
      live_ids.pop_back();
      where = "delete " + docs[victim].first;
    } else if (roll < 0.88) {
      // A url nobody holds, or one already deleted: nothing moves.
      const std::string url = dead_urls.empty() || rng.Uniform(2) == 0
                                  ? std::string("http://site/none")
                                  : dead_urls[rng.Uniform(dead_urls.size())];
      Result<bool> found = fx.remote->Delete(url);
      ASSERT_TRUE(found.ok());
      EXPECT_FALSE(found.value());
      where = "delete-dead " + url;
    } else {
      ASSERT_TRUE(fx.remote->MergeAll().ok());
      where = "merge";
    }
    ExpectMatchesFreshHandshake(fx, vocabulary,
                                StrFormat("step %zu %s", step, where.c_str()));
    if (::testing::Test::HasFailure()) return;
  }

  // And the statistics the deltas built rank exactly like a rebuild.
  std::vector<std::pair<std::string, std::string>> survivors;
  for (size_t d = 0; d < docs.size(); ++d) {
    if (alive[d]) survivors.push_back(docs[d]);
  }
  for (const std::vector<std::string>& words :
       std::vector<std::vector<std::string>>{
           {"term000", "term003"}, {"term001"}, {"term010", "term040"}}) {
    std::vector<ir::ClusterScoredDoc> got =
        fx.remote->Query(words, 10, /*max_fragments=*/4);
    std::vector<ir::ClusterScoredDoc> want = RebuildReference(
        *fx.remote, survivors, words, 10, /*max_fragments=*/4,
        /*num_fragments=*/4);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].url, want[i].url) << "rank " << i;
      EXPECT_EQ(Bits(got[i].score), Bits(want[i].score)) << "rank " << i;
    }
  }
}

/// Forwards to an inner transport but adds a stem to the statistics
/// delta of every insert and delete acknowledgement: a replica whose
/// reported statistics diverge from its peers'.
class DeltaTamperingTransport final : public Transport {
 public:
  explicit DeltaTamperingTransport(Transport* inner) : inner_(inner) {}

  Result<std::vector<uint8_t>> Call(const std::vector<uint8_t>& frame,
                                    Deadline deadline) override {
    DLS_ASSIGN_OR_RETURN(std::vector<uint8_t> answer,
                         inner_->Call(frame, deadline));
    MessageType type;
    const uint8_t* body = nullptr;
    size_t len = 0;
    if (!DecodeFrame(answer, &type, &body, &len).ok()) return answer;
    if (type == MessageType::kInsertResponse) {
      DLS_ASSIGN_OR_RETURN(InsertResponse ack, DecodeInsertResponse(body, len));
      Tamper(&ack.delta);
      return EncodeInsertResponse(ack);
    }
    if (type == MessageType::kDeleteResponse) {
      DLS_ASSIGN_OR_RETURN(DeleteResponse ack, DecodeDeleteResponse(body, len));
      if (ack.found) Tamper(&ack.delta);
      return EncodeDeleteResponse(ack);
    }
    return answer;
  }

 private:
  static void Tamper(ingest::StatsDelta* delta) {
    delta->stems.push_back("zzz");  // sorts after every termNNN stem
    delta->length += 1;
  }

  Transport* inner_;
};

TEST(LiveClusterTest, ReplicasReportingDifferentDeltasAreInternal) {
  ingest::LiveIndex live0, live1;
  ShardServer server;
  server.AddLiveNode(&live0);
  server.AddLiveNode(&live1);
  LoopbackTransport transport(server.Handler());
  DeltaTamperingTransport tampering(&transport);
  RemoteClusterIndex::ReplicaSet set;
  set.replicas = {{&transport, 0}, {&tampering, 1}};
  RemoteClusterIndex remote({set}, LiveLoopbackCluster::Options());
  ASSERT_TRUE(remote.Connect().ok());

  Result<uint64_t> inserted = remote.Insert("u0", "term001 term002");
  ASSERT_FALSE(inserted.ok());
  EXPECT_EQ(inserted.status().code(), StatusCode::kInternal);
  Result<bool> deleted = remote.Delete("u0");
  ASSERT_FALSE(deleted.ok());
  EXPECT_EQ(deleted.status().code(), StatusCode::kInternal);
  // Neither diverged acknowledgement reached the global statistics.
  EXPECT_EQ(remote.document_count(), 0u);
  EXPECT_EQ(remote.global_collection_length(), 0);
  EXPECT_EQ(remote.global_df("term001"), 0);
}

TEST(LiveClusterTest, ReplicasMergedApartAreInternal) {
  LiveLoopbackCluster fx(/*num_shards=*/1, /*num_replicas=*/2);
  ASSERT_TRUE(fx.remote->Connect().ok());
  ASSERT_TRUE(fx.remote->Insert("u0", "term001 term002").ok());
  // A merge behind the centre's back moves one replica's epoch.
  fx.lives[1]->Merge();
  const uint64_t epoch = fx.remote->cluster_epoch();
  Status merged = fx.remote->MergeAll();
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.code(), StatusCode::kInternal);
  EXPECT_EQ(fx.remote->cluster_epoch(), epoch);
}

// A lost acknowledgement: the node applies the write and the centre
// receives half a frame. A write goes to each replica once, so the
// node sees it once and the call fails with the decoder's error rather
// than answering for a retry of a write the node already applied.

TEST(LiveClusterTest, LostAckInsertIsSentOnce) {
  LiveLoopbackCluster fx(/*num_shards=*/1, /*num_replicas=*/1);
  ASSERT_TRUE(fx.remote->Connect().ok());
  const int dispatched = fx.transports[0]->dispatched_calls();
  fx.transports[0]->TruncateCalls(1);
  Result<uint64_t> id = fx.remote->Insert("u0", "alpha beta");
  EXPECT_EQ(fx.transports[0]->dispatched_calls(), dispatched + 1);
  EXPECT_NE(id.status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(fx.live(0, 0).Pin()->live_docs(), 1u);
}

TEST(LiveClusterTest, LostAckDeleteIsSentOnce) {
  LiveLoopbackCluster fx(/*num_shards=*/1, /*num_replicas=*/1);
  ASSERT_TRUE(fx.remote->Connect().ok());
  ASSERT_TRUE(fx.remote->Insert("u0", "alpha beta").ok());
  const int dispatched = fx.transports[0]->dispatched_calls();
  fx.transports[0]->TruncateCalls(1);
  Result<bool> found = fx.remote->Delete("u0");
  EXPECT_EQ(fx.transports[0]->dispatched_calls(), dispatched + 1);
  EXPECT_FALSE(found.ok() && !found.value())
      << "the node deleted u0, but the centre reports no live document";
  EXPECT_EQ(fx.live(0, 0).Pin()->live_docs(), 0u);
}

TEST(LiveClusterTest, LostAckMergeIsSentOnce) {
  LiveLoopbackCluster fx(/*num_shards=*/1, /*num_replicas=*/1);
  ASSERT_TRUE(fx.remote->Connect().ok());
  ASSERT_TRUE(fx.remote->Insert("u0", "alpha beta").ok());
  const int dispatched = fx.transports[0]->dispatched_calls();
  const uint64_t merges = fx.live(0, 0).merges();
  fx.transports[0]->TruncateCalls(1);
  fx.remote->MergeAll();
  EXPECT_EQ(fx.transports[0]->dispatched_calls(), dispatched + 1);
  EXPECT_EQ(fx.live(0, 0).merges(), merges + 1);
}

}  // namespace
}  // namespace dls::net
