#include "net/wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <string>

#include "common/rng.h"

namespace dls::net {
namespace {

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Varint byte-length boundaries for 32- and 64-bit values.
constexpr uint32_t kVarint32Boundaries[] = {
    0,          1,          127,        128,         16383,
    16384,      2097151,    2097152,    268435455,   268435456,
    0x7fffffffu, 0xffffffffu};

constexpr uint64_t kVarint64Boundaries[] = {
    0, 127, 128, (1ull << 21) - 1, 1ull << 21, (1ull << 35) - 1,
    1ull << 35, (1ull << 63), std::numeric_limits<uint64_t>::max()};

// Doubles whose bit patterns are easy to get wrong: signed zero,
// denormals, non-terminating fractions, extremes.
const double kTrickyDoubles[] = {
    0.0, -0.0, 1.0 / 3.0, 5e-324, std::numeric_limits<double>::min(),
    std::numeric_limits<double>::max(), -1.75e300, 3.141592653589793};

ir::ShardQuery MakeQuery(size_t variant) {
  ir::ShardQuery q;
  q.n = kVarint64Boundaries[variant % 9];
  q.max_fragments = kVarint64Boundaries[(variant + 3) % 9];
  q.threshold = kTrickyDoubles[variant % 8];
  q.options.lambda = kTrickyDoubles[(variant + 1) % 8];
  q.options.kernel = static_cast<ir::ScoreKernel>(variant % 3);
  q.options.prune = variant % 2 == 0;
  q.options.strategy = static_cast<ir::RankStrategy>(variant % 3);
  q.collection_length = static_cast<int64_t>(1) << 40;
  for (size_t i = 0; i < 11; ++i) {
    q.stems.push_back("stem" + std::to_string(variant) + std::to_string(i));
    // df must be in [1, INT32_MAX]; clamp the boundary table into it.
    uint32_t df = kVarint32Boundaries[i];
    if (df == 0) df = 1;
    if (df > 0x7fffffffu) df = 0x7fffffffu;
    q.stem_global_df.push_back(static_cast<int32_t>(df));
  }
  return q;
}

void ExpectSameQuery(const ir::ShardQuery& a, const ir::ShardQuery& b) {
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.max_fragments, b.max_fragments);
  EXPECT_EQ(Bits(a.threshold), Bits(b.threshold));
  EXPECT_EQ(Bits(a.options.lambda), Bits(b.options.lambda));
  EXPECT_EQ(a.options.kernel, b.options.kernel);
  EXPECT_EQ(a.options.prune, b.options.prune);
  EXPECT_EQ(a.options.strategy, b.options.strategy);
  EXPECT_EQ(a.collection_length, b.collection_length);
  EXPECT_EQ(a.stems, b.stems);
  EXPECT_EQ(a.stem_global_df, b.stem_global_df);
}

TEST(WireTest, QueryRequestRoundTripsVarintBoundaries) {
  QueryRequest request;
  request.node_id = 0xffffffffu;
  for (size_t v = 0; v < 9; ++v) request.queries.push_back(MakeQuery(v));

  std::vector<uint8_t> frame = EncodeQueryRequest(request).value();
  MessageType type;
  const uint8_t* body = nullptr;
  size_t body_len = 0;
  ASSERT_TRUE(DecodeFrame(frame, &type, &body, &body_len).ok());
  ASSERT_EQ(type, MessageType::kQueryRequest);

  Result<QueryRequest> decoded = DecodeQueryRequest(body, body_len);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().node_id, request.node_id);
  ASSERT_EQ(decoded.value().queries.size(), request.queries.size());
  for (size_t i = 0; i < request.queries.size(); ++i) {
    ExpectSameQuery(request.queries[i], decoded.value().queries[i]);
  }
}

TEST(WireTest, QueryResponseRoundTripsScoresBitExactly) {
  QueryResponse response;
  response.node_id = 7;
  for (size_t v = 0; v < 5; ++v) {
    ir::ShardResult r;
    for (size_t d = 0; d < 8; ++d) {
      r.top.push_back(
          {v + d == 0 ? "" : "doc" + std::to_string(d), kTrickyDoubles[d]});
    }
    r.work.postings_touched = kVarint64Boundaries[v];
    r.work.blocks_skipped = kVarint64Boundaries[8 - v];
    r.work.blocks_decoded = kVarint64Boundaries[(v + 2) % 9];
    r.work.pivot_iterations = kVarint64Boundaries[(v + 4) % 9];
    r.work.cursor_advances = kVarint64Boundaries[(v + 6) % 9];
    r.elapsed_us = kTrickyDoubles[v];
    // Bitmap sizes straddling byte boundaries: 0, 1, 8, 9, 17 bits.
    const size_t mask_bits[] = {0, 1, 8, 9, 17};
    for (size_t i = 0; i < mask_bits[v]; ++i) {
      r.stem_evaluated.push_back((i + v) % 3 != 0);
    }
    response.results.push_back(std::move(r));
  }

  std::vector<uint8_t> frame = EncodeQueryResponse(response).value();
  MessageType type;
  const uint8_t* body = nullptr;
  size_t body_len = 0;
  ASSERT_TRUE(DecodeFrame(frame, &type, &body, &body_len).ok());
  ASSERT_EQ(type, MessageType::kQueryResponse);

  Result<QueryResponse> decoded = DecodeQueryResponse(body, body_len);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().results.size(), response.results.size());
  for (size_t v = 0; v < response.results.size(); ++v) {
    const ir::ShardResult& a = response.results[v];
    const ir::ShardResult& b = decoded.value().results[v];
    ASSERT_EQ(a.top.size(), b.top.size());
    for (size_t d = 0; d < a.top.size(); ++d) {
      EXPECT_EQ(a.top[d].url, b.top[d].url);
      EXPECT_EQ(Bits(a.top[d].score), Bits(b.top[d].score));
    }
    EXPECT_EQ(a.work, b.work);
    EXPECT_EQ(Bits(a.elapsed_us), Bits(b.elapsed_us));
    EXPECT_EQ(a.stem_evaluated, b.stem_evaluated);
  }
}

TEST(WireTest, StatsRoundTrip) {
  StatsRequest request;
  request.node_id = 3;
  std::vector<uint8_t> frame = EncodeStatsRequest(request);
  MessageType type;
  const uint8_t* body = nullptr;
  size_t body_len = 0;
  ASSERT_TRUE(DecodeFrame(frame, &type, &body, &body_len).ok());
  ASSERT_EQ(type, MessageType::kStatsRequest);
  Result<StatsRequest> req = DecodeStatsRequest(body, body_len);
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req.value().node_id, 3u);

  StatsResponse response;
  response.node_id = 3;
  response.stem = false;  // non-default: the flags must round-trip
  response.stop = true;
  response.collection_length = (static_cast<int64_t>(1) << 48) + 17;
  response.document_count = 1234567;
  response.work.postings_touched = kVarint64Boundaries[3];
  response.work.blocks_skipped = kVarint64Boundaries[5];
  response.work.blocks_decoded = kVarint64Boundaries[7];
  response.work.pivot_iterations = kVarint64Boundaries[2];
  response.work.cursor_advances = kVarint64Boundaries[6];
  for (uint32_t df : kVarint32Boundaries) {
    if (df == 0 || df > 0x7fffffffu) continue;
    response.term_dfs.emplace_back("t" + std::to_string(df),
                                   static_cast<int32_t>(df));
  }
  frame = EncodeStatsResponse(response).value();
  ASSERT_TRUE(DecodeFrame(frame, &type, &body, &body_len).ok());
  ASSERT_EQ(type, MessageType::kStatsResponse);
  Result<StatsResponse> res = DecodeStatsResponse(body, body_len);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().stem, response.stem);
  EXPECT_EQ(res.value().stop, response.stop);
  EXPECT_EQ(res.value().collection_length, response.collection_length);
  EXPECT_EQ(res.value().document_count, response.document_count);
  EXPECT_EQ(res.value().work, response.work);
  EXPECT_EQ(res.value().term_dfs, response.term_dfs);
}

std::string Hex(const std::vector<uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (uint8_t b : bytes) {
    hex += kDigits[b >> 4];
    hex += kDigits[b & 15];
  }
  return hex;
}

std::vector<uint8_t> FromHex(const std::string& hex) {
  std::vector<uint8_t> bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<uint8_t>(std::stoul(hex.substr(i, 2),
                                                    nullptr, 16)));
  }
  return bytes;
}

// Decodes one body and encodes what it read again, as a peer that
// relays the message would: the decoder's verdict and, when it
// accepts, the bytes it understood.
using Reencoder =
    std::function<Result<std::vector<uint8_t>>(const uint8_t*, size_t)>;

template <typename M, typename Encoded>
Reencoder Via(Result<M> (*decode)(const uint8_t*, size_t),
              Encoded (*encode)(const M&)) {
  return [decode, encode](const uint8_t* body,
                          size_t len) -> Result<std::vector<uint8_t>> {
    Result<M> decoded = decode(body, len);
    if (!decoded.ok()) return decoded.status();
    return encode(decoded.value());
  };
}

// One sample of each frame (and of each variant a frame's encoder
// branches on), its bytes as encoded before the layouts were written
// once, and how to read it back.
struct GoldenFrame {
  std::string name;
  std::vector<uint8_t> frame;  // encoded by this build
  std::string hex;             // captured from the earlier encoders
  Reencoder reencode;
  // Body length of the same message without its trailing extension:
  // the one strict prefix that decodes (an older peer's frame). npos
  // when the frame carries no extension.
  size_t old_peer_body = std::string::npos;
};

size_t BodyLength(const std::vector<uint8_t>& frame) {
  return frame.size() - kFrameHeaderBytes - 1;
}

serve::ServeStats GoldenServeStats() {
  serve::ServeStats s;
  s.submitted = 1;
  s.admitted = 2;
  s.completed = 3;
  s.cache_hits = 4;
  s.cache_misses = 5;
  s.cache_evictions = 6;
  s.shed_queue_full = 7;
  s.shed_deadline = 8;
  s.expired_in_queue = 9;
  s.degraded = 10;
  s.batches = 11;
  s.batched_queries = 300;
  s.queue_depth = 13;
  s.epoch = uint64_t{1} << 40;
  s.bytes_resident = 70000;
  s.bytes_mapped = uint64_t{1} << 35;
  s.latency.count = 14;
  s.latency.mean = 0.75;
  s.latency.p50 = 15;
  s.latency.p95 = 16;
  s.latency.p99 = 17;
  s.latency.max = 1u << 22;
  s.hedges_fired = 18;
  s.hedge_wins = 19;
  s.failovers = 20;
  s.epoch_changes = 21;
  s.cache_warmed = 22;
  s.stale_served = 23;
  return s;
}

std::vector<GoldenFrame> GoldenFrames() {
  std::vector<GoldenFrame> golden;

  QueryRequest query_request;
  query_request.node_id = 3;
  ir::ShardQuery q;
  q.n = 10;
  q.max_fragments = 2;
  q.threshold = 0.25;
  q.options.lambda = 0.5;
  q.options.kernel = ir::ScoreKernel::kBlock;
  q.options.prune = true;
  q.options.strategy = ir::RankStrategy::kWand;
  q.collection_length = int64_t{1} << 33;
  q.stems = {"alpha", "beta"};
  q.stem_global_df = {7, 300};
  query_request.queries.push_back(q);
  golden.push_back({"QueryRequest", EncodeQueryRequest(query_request).value(),
                    "2c0000000103010a02000000000000d03f000000000000e03f010102"
                    "80808080200205616c706861070462657461ac02",
                    Via(&DecodeQueryRequest, &EncodeQueryRequest)});

  // Five work counters of distinct values and varint lengths (1 to 5
  // bytes), so any reordering of them changes the bytes.
  QueryResponse query_response;
  query_response.node_id = 2;
  ir::ShardResult r;
  r.top.push_back({"u", 0.5});
  r.work.postings_touched = 1;
  r.work.blocks_skipped = 300;
  r.work.blocks_decoded = 70000;
  r.work.pivot_iterations = 1u << 22;
  r.work.cursor_advances = 1u << 29;
  r.elapsed_us = 2.0;
  r.stem_evaluated = {true, false, true};
  query_response.results.push_back(std::move(r));
  golden.push_back({"QueryResponse",
                    EncodeQueryResponse(query_response).value(),
                    "27000000020201010175000000000000e03f01ac02f0a20480808002"
                    "808080800200000000000000400305",
                    Via(&DecodeQueryResponse, &EncodeQueryResponse)});

  golden.push_back({"StatsRequest", EncodeStatsRequest(StatsRequest{9}),
                    "020000000309",
                    Via(&DecodeStatsRequest, &EncodeStatsRequest)});

  StatsResponse stats;
  stats.node_id = 5;
  stats.collection_length = 9;
  stats.document_count = 3;
  stats.mutation_epoch = 4;
  stats.work.postings_touched = 1u << 29;
  stats.work.blocks_skipped = 1u << 22;
  stats.work.blocks_decoded = 70000;
  stats.work.pivot_iterations = 300;
  stats.work.cursor_advances = 1;
  stats.term_dfs = {{"a", 2}};
  golden.push_back({"StatsResponse", EncodeStatsResponse(stats).value(),
                    "19000000040503090304808080800280808002f0a204ac0201010161"
                    "02",
                    Via(&DecodeStatsResponse, &EncodeStatsResponse)});

  // An Error body decodes to the status it carries. This one carries
  // kNotFound, so kCorruption is the decoder's own verdict.
  golden.push_back(
      {"Error", EncodeError(Status::NotFound("no node 9")),
       "0c0000000502096e6f206e6f64652039",
       [](const uint8_t* body, size_t len) -> Result<std::vector<uint8_t>> {
         const Status carried = DecodeError(body, len);
         if (carried.code() == StatusCode::kCorruption) return carried;
         return EncodeError(carried);
       }});

  SearchRequest search;
  search.words = {"digital", "library"};
  search.n = 10;
  search.max_fragments = 4;
  search.deadline_ms = 250;
  search.options.lambda = 0.7;
  search.options.kernel = ir::ScoreKernel::kPacked;
  search.options.prune = true;
  search.options.strategy = ir::RankStrategy::kTaat;
  const std::vector<uint8_t> plain_search = EncodeSearchRequest(search).value();
  golden.push_back({"SearchRequest", plain_search,
                    "210000000602076469676974616c076c6962726172790a04fa016666"
                    "66666666e63f020101",
                    Via(&DecodeSearchRequest, &EncodeSearchRequest)});
  search.structured = "text(\"net\") AND cobra(event=rally)";
  golden.push_back({"SearchRequest structured",
                    EncodeSearchRequest(search).value(),
                    "450000000602076469676974616c076c6962726172790a04fa016666"
                    "66666666e63f02010101227465787428226e6574222920414e442063"
                    "6f627261286576656e743d72616c6c7929",
                    Via(&DecodeSearchRequest, &EncodeSearchRequest),
                    BodyLength(plain_search)});

  SearchResponse answered;
  answered.cache_hit = true;
  answered.predicted_quality = 0.75;
  answered.results = {{"u1", 1.5}, {"u2", 0.25}};
  const std::vector<uint8_t> plain_answer =
      EncodeSearchResponse(answered).value();
  golden.push_back({"SearchResponse answered", plain_answer,
                    "240000000700000001000000000000e83f02027531000000000000f8"
                    "3f027532000000000000d03f",
                    Via(&DecodeSearchResponse, &EncodeSearchResponse)});
  SearchResponse shed;
  shed.status = Status::Unavailable("queue full");
  shed.retry_after_ms = 250;
  shed.degraded = true;
  golden.push_back({"SearchResponse shed", EncodeSearchResponse(shed).value(),
                    "1900000007090a71756575652066756c6cfa0102000000000000f03f"
                    "00",
                    Via(&DecodeSearchResponse, &EncodeSearchResponse)});
  answered.plan = "cobra(event=rally) -> rank text(\"net\")";
  golden.push_back({"SearchResponse with plan",
                    EncodeSearchResponse(answered).value(),
                    "4c0000000700000001000000000000e83f02027531000000000000f8"
                    "3f027532000000000000d03f0126636f627261286576656e743d7261"
                    "6c6c7929202d3e2072616e6b207465787428226e65742229",
                    Via(&DecodeSearchResponse, &EncodeSearchResponse),
                    BodyLength(plain_answer)});

  golden.push_back(
      {"ServeStatsRequest", EncodeServeStatsRequest(ServeStatsRequest{}),
       "0100000008",
       Via(&DecodeServeStatsRequest, &EncodeServeStatsRequest)});
  const std::vector<uint8_t> plain_stats =
      EncodeServeStatsResponse(GoldenServeStats());
  golden.push_back({"ServeStats", plain_stats,
                    "34000000090102030405060708090a0bac020d808080808020f0a204"
                    "8080808080010e000000000000e83f0f101180808002121314151617",
                    Via(&DecodeServeStatsResponse, &EncodeServeStatsResponse)});
  serve::ServeStats federated = GoldenServeStats();
  federated.federated_queries = 3;
  federated.federated_filter_docs = 4;
  federated.federated_text_us = 500;
  federated.federated_webspace_us = 6;
  federated.federated_cobra_us = 7;
  federated.last_federated_plan = "cobra(event=rally)[1 ids, 9us]";
  golden.push_back({"ServeStats federated", EncodeServeStatsResponse(federated),
                    "5a000000090102030405060708090a0bac020d808080808020f0a204"
                    "8080808080010e000000000000e83f0f101180808002121314151617"
                    "010304f40306071e636f627261286576656e743d72616c6c79295b31"
                    "206964732c203975735d",
                    Via(&DecodeServeStatsResponse, &EncodeServeStatsResponse),
                    BodyLength(plain_stats)});

  golden.push_back({"InsertRequest",
                    EncodeInsertRequest({1, "u/1", "net play"}).value(),
                    "0f0000000a0103752f31086e657420706c6179",
                    Via(&DecodeInsertRequest, &EncodeInsertRequest)});
  InsertResponse inserted;
  inserted.node_id = 1;
  inserted.doc_id = 300;
  inserted.epoch = 7;
  inserted.delta = {9, {"net", "play"}};
  golden.push_back({"InsertResponse", EncodeInsertResponse(inserted).value(),
                    "100000000b01ac02070902036e657404706c6179",
                    Via(&DecodeInsertResponse, &EncodeInsertResponse)});
  golden.push_back({"DeleteRequest", EncodeDeleteRequest({1, "u/1"}).value(),
                    "060000000c0103752f31",
                    Via(&DecodeDeleteRequest, &EncodeDeleteRequest)});
  DeleteResponse deleted;
  deleted.node_id = 1;
  deleted.found = true;
  deleted.epoch = 8;
  deleted.delta = {9, {"net", "play"}};
  golden.push_back({"DeleteResponse found",
                    EncodeDeleteResponse(deleted).value(),
                    "0f0000000d0101080902036e657404706c6179",
                    Via(&DecodeDeleteResponse, &EncodeDeleteResponse)});
  deleted.found = false;
  deleted.delta = {};
  golden.push_back({"DeleteResponse not found",
                    EncodeDeleteResponse(deleted).value(),
                    "060000000d0100080000",
                    Via(&DecodeDeleteResponse, &EncodeDeleteResponse)});
  golden.push_back({"MergeRequest", EncodeMergeRequest({2}),
                    "020000000e02",
                    Via(&DecodeMergeRequest, &EncodeMergeRequest)});
  golden.push_back({"MergeResponse", EncodeMergeResponse({2, 9, 3}),
                    "040000000f020903",
                    Via(&DecodeMergeResponse, &EncodeMergeResponse)});
  return golden;
}

// Pins every frame's bytes to the encoders' before the layouts were
// written once; a round trip cannot, since a writer and reader changed
// together still agree. Each literal must also decode and encode back
// to itself.
TEST(WireTest, GoldenFramesEncodeAsBefore) {
  for (const GoldenFrame& g : GoldenFrames()) {
    EXPECT_EQ(Hex(g.frame), g.hex) << g.name;
    const std::vector<uint8_t> literal = FromHex(g.hex);
    MessageType type;
    const uint8_t* body = nullptr;
    size_t body_len = 0;
    ASSERT_TRUE(DecodeFrame(literal, &type, &body, &body_len).ok()) << g.name;
    Result<std::vector<uint8_t>> again = g.reencode(body, body_len);
    ASSERT_TRUE(again.ok()) << g.name << ": " << again.status().ToString();
    EXPECT_EQ(Hex(again.value()), g.hex) << g.name;
  }
}

TEST(WireTest, StatsResponseCarriesMutationEpoch) {
  StatsResponse response;
  response.node_id = 1;
  response.mutation_epoch = (uint64_t{1} << 40) + 99;
  std::vector<uint8_t> frame = EncodeStatsResponse(response).value();
  MessageType type;
  const uint8_t* body = nullptr;
  size_t body_len = 0;
  ASSERT_TRUE(DecodeFrame(frame, &type, &body, &body_len).ok());
  Result<StatsResponse> decoded = DecodeStatsResponse(body, body_len);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().mutation_epoch, response.mutation_epoch);
}

TEST(WireTest, SearchRequestRoundTrips) {
  SearchRequest request;
  request.words = {"Flexible", "", "digital", "library", "search"};
  request.n = kVarint64Boundaries[4];
  request.max_fragments = 7;
  request.deadline_ms = 0xffffffffu;
  request.options.lambda = kTrickyDoubles[2];
  request.options.kernel = ir::ScoreKernel::kPacked;
  request.options.prune = true;
  request.options.strategy = ir::RankStrategy::kWand;
  // An execution policy, not a wire field: must NOT survive the trip.
  request.options.shared_threshold = true;

  std::vector<uint8_t> frame = EncodeSearchRequest(request).value();
  MessageType type;
  const uint8_t* body = nullptr;
  size_t body_len = 0;
  ASSERT_TRUE(DecodeFrame(frame, &type, &body, &body_len).ok());
  ASSERT_EQ(type, MessageType::kSearchRequest);
  Result<SearchRequest> decoded = DecodeSearchRequest(body, body_len);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().words, request.words);
  EXPECT_EQ(decoded.value().n, request.n);
  EXPECT_EQ(decoded.value().max_fragments, request.max_fragments);
  EXPECT_EQ(decoded.value().deadline_ms, request.deadline_ms);
  EXPECT_EQ(Bits(decoded.value().options.lambda),
            Bits(request.options.lambda));
  EXPECT_EQ(decoded.value().options.kernel, request.options.kernel);
  EXPECT_EQ(decoded.value().options.prune, request.options.prune);
  EXPECT_EQ(decoded.value().options.strategy, request.options.strategy);
  EXPECT_FALSE(decoded.value().options.shared_threshold);
}

// Offset of the kernel byte in a request body: RankOptions' bytes
// (kernel, prune, strategy) follow the 8-byte encoding of lambda, which
// the caller makes unique within the body.
size_t KernelByteOffset(const uint8_t* body, size_t len, double lambda) {
  uint8_t encoded[8];
  const uint64_t bits = Bits(lambda);
  for (int i = 0; i < 8; ++i) {
    encoded[i] = static_cast<uint8_t>(bits >> (8 * i));
  }
  const uint8_t* at = std::search(body, body + len, encoded, encoded + 8);
  EXPECT_NE(at, body + len) << "lambda not found in the body";
  return static_cast<size_t>(at - body) + 8;
}

// The kernel and strategy bytes are bounded by their enums in both
// request messages: byte 3 (one past the last kernel and the last
// strategy) is corruption, not a value to remap.
TEST(WireTest, OutOfRangeKernelAndStrategyBytesAreCorruption) {
  const double lambda = kTrickyDoubles[2];
  QueryRequest query;
  query.node_id = 1;
  query.queries.push_back(MakeQuery(0));  // threshold 0.0, not lambda
  query.queries[0].options.lambda = lambda;
  query.queries[0].options.kernel = ir::ScoreKernel::kPacked;
  query.queries[0].options.strategy = ir::RankStrategy::kWand;
  SearchRequest search;
  search.words = {"digital", "library"};
  search.options.lambda = lambda;
  search.options.kernel = ir::ScoreKernel::kPacked;
  search.options.strategy = ir::RankStrategy::kWand;

  const std::vector<uint8_t> frames[] = {EncodeQueryRequest(query).value(),
                                         EncodeSearchRequest(search).value()};
  for (const std::vector<uint8_t>& frame : frames) {
    MessageType type;
    const uint8_t* body = nullptr;
    size_t body_len = 0;
    ASSERT_TRUE(DecodeFrame(frame, &type, &body, &body_len).ok());
    auto decode = [type](const std::vector<uint8_t>& bytes) -> Status {
      if (type == MessageType::kQueryRequest) {
        return DecodeQueryRequest(bytes.data(), bytes.size()).status();
      }
      return DecodeSearchRequest(bytes.data(), bytes.size()).status();
    };
    const std::vector<uint8_t> valid(body, body + body_len);
    ASSERT_TRUE(decode(valid).ok()) << static_cast<int>(type);
    const size_t kernel_at = KernelByteOffset(body, body_len, lambda);
    ASSERT_LT(kernel_at + 2, body_len);
    ASSERT_EQ(valid[kernel_at], 2u);      // kPacked
    ASSERT_EQ(valid[kernel_at + 2], 2u);  // kWand
    for (size_t offset : {kernel_at, kernel_at + 2}) {
      std::vector<uint8_t> bad = valid;
      bad[offset] = 3;
      EXPECT_EQ(decode(bad).code(), StatusCode::kCorruption)
          << "message " << static_cast<int>(type) << " offset " << offset;
    }
  }
}

TEST(WireTest, SearchResponseRoundTripsAnswersAndSheds) {
  // An answered query: ranking + flags + quality, scores bit-exact.
  SearchResponse answered;
  answered.cache_hit = true;
  answered.degraded = true;
  answered.predicted_quality = kTrickyDoubles[2];
  for (size_t d = 0; d < 6; ++d) {
    answered.results.push_back(
        {d == 0 ? "" : "doc" + std::to_string(d), kTrickyDoubles[d]});
  }
  std::vector<uint8_t> frame = EncodeSearchResponse(answered).value();
  MessageType type;
  const uint8_t* body = nullptr;
  size_t body_len = 0;
  ASSERT_TRUE(DecodeFrame(frame, &type, &body, &body_len).ok());
  ASSERT_EQ(type, MessageType::kSearchResponse);
  Result<SearchResponse> decoded = DecodeSearchResponse(body, body_len);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded.value().status.ok());
  EXPECT_TRUE(decoded.value().cache_hit);
  EXPECT_TRUE(decoded.value().degraded);
  EXPECT_EQ(Bits(decoded.value().predicted_quality),
            Bits(answered.predicted_quality));
  ASSERT_EQ(decoded.value().results.size(), answered.results.size());
  for (size_t d = 0; d < answered.results.size(); ++d) {
    EXPECT_EQ(decoded.value().results[d].url, answered.results[d].url);
    EXPECT_EQ(Bits(decoded.value().results[d].score),
              Bits(answered.results[d].score));
  }

  // A shed query: the protocol-level answer, not a transport failure.
  SearchResponse shed;
  shed.status = Status::Unavailable("queue full");
  shed.retry_after_ms = 250;
  frame = EncodeSearchResponse(shed).value();
  ASSERT_TRUE(DecodeFrame(frame, &type, &body, &body_len).ok());
  decoded = DecodeSearchResponse(body, body_len);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(decoded.value().status.message(), "queue full");
  EXPECT_EQ(decoded.value().retry_after_ms, 250u);
  EXPECT_TRUE(decoded.value().results.empty());
}

TEST(WireTest, ServeStatsRoundTrip) {
  std::vector<uint8_t> frame = EncodeServeStatsRequest(ServeStatsRequest{});
  MessageType type;
  const uint8_t* body = nullptr;
  size_t body_len = 0;
  ASSERT_TRUE(DecodeFrame(frame, &type, &body, &body_len).ok());
  ASSERT_EQ(type, MessageType::kServeStatsRequest);
  EXPECT_TRUE(DecodeServeStatsRequest(body, body_len).ok());

  serve::ServeStats response;
  response.submitted = kVarint64Boundaries[7];
  response.admitted = 2;
  response.completed = 3;
  response.cache_hits = 4;
  response.cache_misses = 5;
  response.cache_evictions = 6;
  response.shed_queue_full = 7;
  response.shed_deadline = 8;
  response.expired_in_queue = 9;
  response.degraded = 10;
  response.batches = 11;
  response.batched_queries = 12;
  response.queue_depth = 13;
  response.epoch = kVarint64Boundaries[8];
  response.bytes_resident = kVarint64Boundaries[5];
  response.bytes_mapped = kVarint64Boundaries[4];
  response.latency.count = 14;
  response.latency.mean = kTrickyDoubles[3];
  response.latency.p50 = 15;
  response.latency.p95 = 16;
  response.latency.p99 = 17;
  response.latency.max = kVarint64Boundaries[6];
  response.hedges_fired = 18;
  response.hedge_wins = 19;
  response.failovers = kVarint64Boundaries[3];
  frame = EncodeServeStatsResponse(response);
  ASSERT_TRUE(DecodeFrame(frame, &type, &body, &body_len).ok());
  ASSERT_EQ(type, MessageType::kServeStatsResponse);
  Result<serve::ServeStats> decoded =
      DecodeServeStatsResponse(body, body_len);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().submitted, response.submitted);
  EXPECT_EQ(decoded.value().admitted, response.admitted);
  EXPECT_EQ(decoded.value().completed, response.completed);
  EXPECT_EQ(decoded.value().cache_hits, response.cache_hits);
  EXPECT_EQ(decoded.value().cache_misses, response.cache_misses);
  EXPECT_EQ(decoded.value().cache_evictions, response.cache_evictions);
  EXPECT_EQ(decoded.value().shed_queue_full, response.shed_queue_full);
  EXPECT_EQ(decoded.value().shed_deadline, response.shed_deadline);
  EXPECT_EQ(decoded.value().expired_in_queue, response.expired_in_queue);
  EXPECT_EQ(decoded.value().degraded, response.degraded);
  EXPECT_EQ(decoded.value().batches, response.batches);
  EXPECT_EQ(decoded.value().batched_queries, response.batched_queries);
  EXPECT_EQ(decoded.value().queue_depth, response.queue_depth);
  EXPECT_EQ(decoded.value().epoch, response.epoch);
  EXPECT_EQ(decoded.value().bytes_resident, response.bytes_resident);
  EXPECT_EQ(decoded.value().bytes_mapped, response.bytes_mapped);
  EXPECT_EQ(decoded.value().latency.count, response.latency.count);
  EXPECT_EQ(Bits(decoded.value().latency.mean),
            Bits(response.latency.mean));
  EXPECT_EQ(decoded.value().latency.p50, response.latency.p50);
  EXPECT_EQ(decoded.value().latency.p95, response.latency.p95);
  EXPECT_EQ(decoded.value().latency.p99, response.latency.p99);
  EXPECT_EQ(decoded.value().latency.max, response.latency.max);
  EXPECT_EQ(decoded.value().hedges_fired, response.hedges_fired);
  EXPECT_EQ(decoded.value().hedge_wins, response.hedge_wins);
  EXPECT_EQ(decoded.value().failovers, response.failovers);
}

TEST(WireTest, ErrorRoundTrip) {
  std::vector<uint8_t> frame =
      EncodeError(Status::NotFound("no node 9 on this server"));
  MessageType type;
  const uint8_t* body = nullptr;
  size_t body_len = 0;
  ASSERT_TRUE(DecodeFrame(frame, &type, &body, &body_len).ok());
  ASSERT_EQ(type, MessageType::kError);
  Status decoded = DecodeError(body, body_len);
  EXPECT_EQ(decoded.code(), StatusCode::kNotFound);
  EXPECT_EQ(decoded.message(), "no node 9 on this server");

  // A peer claiming "ok" inside an Error frame is lying; the decode
  // must still be an error.
  frame = EncodeError(Status::Ok());
  ASSERT_TRUE(DecodeFrame(frame, &type, &body, &body_len).ok());
  EXPECT_FALSE(DecodeError(body, body_len).ok());
}

// The Error frame's code values are a stable wire contract, not the
// C++ enum ordering: every current code must round-trip, and a value
// this build doesn't know must degrade to kInternal, not be misread.
TEST(WireTest, ErrorCodesAreStableWireValues) {
  const StatusCode codes[] = {
      StatusCode::kInvalidArgument, StatusCode::kNotFound,
      StatusCode::kAlreadyExists,   StatusCode::kCorruption,
      StatusCode::kParseError,      StatusCode::kDetectorFailure,
      StatusCode::kUnsupported,     StatusCode::kInternal,
      StatusCode::kUnavailable,     StatusCode::kDeadlineExceeded};
  for (StatusCode code : codes) {
    std::vector<uint8_t> frame = EncodeError(Status(code, "m"));
    MessageType type;
    const uint8_t* body = nullptr;
    size_t body_len = 0;
    ASSERT_TRUE(DecodeFrame(frame, &type, &body, &body_len).ok());
    EXPECT_EQ(DecodeError(body, body_len).code(), code);
  }

  // A hand-built body carrying wire code 200 ("from the future").
  std::vector<uint8_t> body = {0xc8, 0x01, 3, 'b', 'a', 'd'};
  Status decoded = DecodeError(body.data(), body.size());
  EXPECT_EQ(decoded.code(), StatusCode::kInternal);
  EXPECT_NE(decoded.message().find("bad"), std::string::npos);
}

// An encoder must refuse a frame the receiver would reject instead of
// shipping it: before this check a >64 MiB stats response (a huge
// vocabulary) surfaced on the peer as a misleading kCorruption.
TEST(WireTest, OversizePayloadRefusedAtEncodeTime) {
  StatsResponse stats;
  stats.term_dfs.emplace_back(std::string(kMaxFramePayloadBytes, 't'), 1);
  Result<std::vector<uint8_t>> frame = EncodeStatsResponse(stats);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kUnsupported);

  QueryResponse response;
  ir::ShardResult r;
  r.top.push_back({std::string(kMaxFramePayloadBytes, 'u'), 1.0});
  response.results.push_back(std::move(r));
  frame = EncodeQueryResponse(response);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kUnsupported);

  // The error itself crosses the wire fine (message truncated to fit).
  std::vector<uint8_t> error =
      EncodeError(Status::Internal(std::string(1 << 20, 'x')));
  MessageType type;
  const uint8_t* body = nullptr;
  size_t body_len = 0;
  ASSERT_TRUE(DecodeFrame(error, &type, &body, &body_len).ok());
  EXPECT_EQ(DecodeError(body, body_len).code(), StatusCode::kInternal);
}

// Every strict prefix of a valid frame must decode to a clean error:
// the length prefix no longer matches, and a truncated body trips the
// bounds checks — never UB (ASan/UBSan runs this in CI). The one
// exception is an extended frame cut just before its extension, which
// is what an older peer sends.
TEST(WireTest, TruncationAtEveryLengthFailsCleanly) {
  for (const GoldenFrame& g : GoldenFrames()) {
    for (size_t len = 0; len < g.frame.size(); ++len) {
      std::vector<uint8_t> cut(g.frame.begin(), g.frame.begin() + len);
      MessageType type;
      const uint8_t* body = nullptr;
      size_t body_len = 0;
      EXPECT_FALSE(DecodeFrame(cut, &type, &body, &body_len).ok())
          << g.name << ": prefix of " << len << " bytes decoded as a frame";
    }

    // Body-level truncation, past the (valid) frame header.
    MessageType type;
    const uint8_t* body = nullptr;
    size_t body_len = 0;
    ASSERT_TRUE(DecodeFrame(g.frame, &type, &body, &body_len).ok());
    for (size_t len = 0; len < body_len; ++len) {
      EXPECT_EQ(g.reencode(body, len).ok(), len == g.old_peer_body)
          << g.name << ": truncated body of " << len << " bytes";
    }
  }
}

TEST(WireTest, FrameLengthPrefixValidated) {
  MessageType type;
  const uint8_t* body = nullptr;
  size_t body_len = 0;

  // Prefix over the cap.
  std::vector<uint8_t> frame(kFrameHeaderBytes + 1, 0);
  const uint32_t huge = kMaxFramePayloadBytes + 1;
  for (int i = 0; i < 4; ++i) {
    frame[i] = static_cast<uint8_t>(huge >> (8 * i));
  }
  EXPECT_FALSE(DecodeFrame(frame, &type, &body, &body_len).ok());

  // Prefix disagreeing with the actual size.
  frame = EncodeStatsRequest(StatsRequest{});
  frame[0] = static_cast<uint8_t>(frame[0] + 1);
  EXPECT_FALSE(DecodeFrame(frame, &type, &body, &body_len).ok());

  // Unknown message type byte.
  frame = EncodeStatsRequest(StatsRequest{});
  frame[kFrameHeaderBytes] = 99;
  EXPECT_FALSE(DecodeFrame(frame, &type, &body, &body_len).ok());
}

TEST(WireTest, OverlongVarintRejected) {
  // node_id as a 6-byte varint: exceeds the 5-byte cap for u32.
  const uint8_t overlong[] = {0x80, 0x80, 0x80, 0x80, 0x80, 0x01};
  EXPECT_FALSE(DecodeStatsRequest(overlong, sizeof(overlong)).ok());

  // 5 bytes encoding 2^34: fits the byte cap but overflows u32.
  const uint8_t too_big[] = {0x80, 0x80, 0x80, 0x80, 0x40};
  EXPECT_FALSE(DecodeStatsRequest(too_big, sizeof(too_big)).ok());
}

// A fuzzer-supplied element count must never drive an allocation the
// frame cannot back: a tiny body claiming 2^28 results fails fast.
TEST(WireTest, ImplausibleCountsRejectedBeforeAllocation) {
  std::vector<uint8_t> body;
  body.push_back(0);  // node_id = 0
  const uint32_t count = 1u << 28;
  uint32_t v = count;
  while (v >= 0x80u) {
    body.push_back(static_cast<uint8_t>(v | 0x80u));
    v >>= 7;
  }
  body.push_back(static_cast<uint8_t>(v));
  EXPECT_FALSE(DecodeQueryResponse(body.data(), body.size()).ok());
  EXPECT_FALSE(DecodeQueryRequest(body.data(), body.size()).ok());
}

// Random bytes and random mutations of valid frames: every decoder
// must return, with any status, without crashing. The sanitizer CI
// stages turn latent UB here into failures.
TEST(WireTest, RandomBodiesNeverCrashDecoders) {
  Rng rng(20260805);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<uint8_t> body(rng.Uniform(96));
    for (uint8_t& b : body) b = static_cast<uint8_t>(rng.Next());
    (void)DecodeQueryRequest(body.data(), body.size());
    (void)DecodeQueryResponse(body.data(), body.size());
    (void)DecodeStatsRequest(body.data(), body.size());
    (void)DecodeStatsResponse(body.data(), body.size());
    (void)DecodeSearchRequest(body.data(), body.size());
    (void)DecodeSearchResponse(body.data(), body.size());
    (void)DecodeServeStatsRequest(body.data(), body.size());
    (void)DecodeServeStatsResponse(body.data(), body.size());
    (void)DecodeError(body.data(), body.size());
    (void)DecodeInsertRequest(body.data(), body.size());
    (void)DecodeInsertResponse(body.data(), body.size());
    (void)DecodeDeleteRequest(body.data(), body.size());
    (void)DecodeDeleteResponse(body.data(), body.size());
    (void)DecodeMergeRequest(body.data(), body.size());
    (void)DecodeMergeResponse(body.data(), body.size());
  }
}

// Truncation sweep over the serve messages too: every strict prefix of
// a valid body must fail cleanly (the ASan/UBSan stages run this).
TEST(WireTest, SearchBodiesTruncateCleanly) {
  SearchRequest request;
  request.words = {"two", "words"};
  request.options.prune = true;
  std::vector<uint8_t> frame = EncodeSearchRequest(request).value();
  MessageType type;
  const uint8_t* body = nullptr;
  size_t body_len = 0;
  ASSERT_TRUE(DecodeFrame(frame, &type, &body, &body_len).ok());
  for (size_t len = 0; len < body_len; ++len) {
    EXPECT_FALSE(DecodeSearchRequest(body, len).ok());
  }

  SearchResponse response;
  response.results.push_back({"doc", 1.5});
  frame = EncodeSearchResponse(response).value();
  ASSERT_TRUE(DecodeFrame(frame, &type, &body, &body_len).ok());
  for (size_t len = 0; len < body_len; ++len) {
    EXPECT_FALSE(DecodeSearchResponse(body, len).ok());
  }

  // ServeStatsResponse carries a versioned trailing federated block:
  // with federated traffic present, exactly one strict prefix — the
  // pre-federated boundary an old peer would send — decodes fine (with
  // zeros); every cut inside the extension fails.
  serve::ServeStats with_federated;
  with_federated.federated_queries = 3;
  with_federated.last_federated_plan = "cobra(event=rally)[1 ids, 9us]";
  frame = EncodeServeStatsResponse(with_federated);
  ASSERT_TRUE(DecodeFrame(frame, &type, &body, &body_len).ok());
  std::vector<size_t> ok_lengths;
  for (size_t len = 0; len < body_len; ++len) {
    if (DecodeServeStatsResponse(body, len).ok()) ok_lengths.push_back(len);
  }
  ASSERT_EQ(ok_lengths.size(), 1u);
  Result<serve::ServeStats> old_peer =
      DecodeServeStatsResponse(body, ok_lengths[0]);
  ASSERT_TRUE(old_peer.ok());
  EXPECT_EQ(old_peer.value().federated_queries, 0u);
  EXPECT_EQ(old_peer.value().federated_filter_docs, 0u);
  EXPECT_TRUE(old_peer.value().last_federated_plan.empty());

  // No federated traffic => no extension bytes: an idle upgraded
  // server's frame is byte-identical to a pre-federation one, so old
  // clients keep decoding it.
  frame = EncodeServeStatsResponse(serve::ServeStats{});
  size_t zero_len = 0;
  ASSERT_TRUE(DecodeFrame(frame, &type, &body, &zero_len).ok());
  EXPECT_EQ(zero_len, ok_lengths[0]);
  EXPECT_TRUE(DecodeServeStatsResponse(body, zero_len).ok());
  for (size_t len = 0; len < zero_len; ++len) {
    EXPECT_FALSE(DecodeServeStatsResponse(body, len).ok()) << len;
  }
}

// The versioned trailing extension carrying the federated query: a
// request without one encodes byte-compatibly with old peers, one with
// it round-trips, and a claimed version from the future is rejected
// with kFeatureUnsupported — distinguishable from corruption.
TEST(WireTest, SearchRequestStructuredExtensionRoundTrips) {
  SearchRequest request;
  request.words = {};
  request.n = 10;
  request.max_fragments = 4;
  request.structured =
      "text(\"net play\") AND webspace(class=Article, author.name~\"Smith\") "
      "AND cobra(event=rally, min_len=5s)";
  std::vector<uint8_t> frame = EncodeSearchRequest(request).value();
  MessageType type;
  const uint8_t* body = nullptr;
  size_t body_len = 0;
  ASSERT_TRUE(DecodeFrame(frame, &type, &body, &body_len).ok());
  Result<SearchRequest> decoded = DecodeSearchRequest(body, body_len);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().structured, request.structured);

  // No structured query => no extension bytes: the frame is identical
  // to what a build predating the extension would emit.
  SearchRequest plain = request;
  plain.structured.clear();
  plain.words = {"net", "play"};
  SearchRequest with_empty = plain;
  std::vector<uint8_t> a = EncodeSearchRequest(plain).value();
  std::vector<uint8_t> b = EncodeSearchRequest(with_empty).value();
  EXPECT_EQ(a, b);
  ASSERT_TRUE(DecodeFrame(a, &type, &body, &body_len).ok());
  decoded = DecodeSearchRequest(body, body_len);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().structured.empty());
}

TEST(WireTest, SearchRequestFromTheFutureRejectedAsUnsupported) {
  SearchRequest request;
  request.structured = "text(\"a\")";
  std::vector<uint8_t> frame = EncodeSearchRequest(request).value();
  MessageType type;
  const uint8_t* body = nullptr;
  size_t body_len = 0;
  ASSERT_TRUE(DecodeFrame(frame, &type, &body, &body_len).ok());

  // The extension tail is [u8 version][varint len][payload]; patch the
  // version byte to 2 — a frame from a newer peer.
  std::vector<uint8_t> future(body, body + body_len);
  const size_t version_at = future.size() - request.structured.size() - 2;
  ASSERT_EQ(future[version_at], 1);
  future[version_at] = 2;
  Result<SearchRequest> decoded =
      DecodeSearchRequest(future.data(), future.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kFeatureUnsupported);
  EXPECT_NE(decoded.status().message().find("newer peer"), std::string::npos);

  // Version 0 is never emitted: that's corruption, not the future.
  std::vector<uint8_t> zero(body, body + body_len);
  zero[version_at] = 0;
  decoded = DecodeSearchRequest(zero.data(), zero.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);

  // Truncation inside the extension fails cleanly at every byte.
  // (Cutting at version_at exactly is the extension-free old-peer
  // frame, which decodes fine by design.)
  EXPECT_TRUE(DecodeSearchRequest(body, version_at).ok());
  for (size_t len = version_at + 1; len < future.size(); ++len) {
    EXPECT_FALSE(DecodeSearchRequest(body, len).ok()) << len;
  }
}

TEST(WireTest, SearchResponsePlanExtensionRoundTrips) {
  SearchResponse response;
  response.results.push_back({"p1#bio", 1.25});
  response.plan = "cobra(event=rally)[sel=0.03] -> rank text(\"net\")";
  std::vector<uint8_t> frame = EncodeSearchResponse(response).value();
  MessageType type;
  const uint8_t* body = nullptr;
  size_t body_len = 0;
  ASSERT_TRUE(DecodeFrame(frame, &type, &body, &body_len).ok());
  Result<SearchResponse> decoded = DecodeSearchResponse(body, body_len);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().plan, response.plan);

  response.plan.clear();
  frame = EncodeSearchResponse(response).value();
  ASSERT_TRUE(DecodeFrame(frame, &type, &body, &body_len).ok());
  decoded = DecodeSearchResponse(body, body_len);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().plan.empty());
}

TEST(WireTest, ServeStatsFederatedBlockRoundTrips) {
  serve::ServeStats response;
  response.federated_queries = kVarint64Boundaries[4];
  response.federated_filter_docs = 123;
  response.federated_text_us = kVarint64Boundaries[5];
  response.federated_webspace_us = 77;
  response.federated_cobra_us = 88;
  response.last_federated_plan =
      "webspace(class=Player)[sel=0.7, 4 ids, 12us] -> collect docs[9]";
  std::vector<uint8_t> frame = EncodeServeStatsResponse(response);
  MessageType type;
  const uint8_t* body = nullptr;
  size_t body_len = 0;
  ASSERT_TRUE(DecodeFrame(frame, &type, &body, &body_len).ok());
  Result<serve::ServeStats> decoded =
      DecodeServeStatsResponse(body, body_len);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().federated_queries, response.federated_queries);
  EXPECT_EQ(decoded.value().federated_filter_docs,
            response.federated_filter_docs);
  EXPECT_EQ(decoded.value().federated_text_us, response.federated_text_us);
  EXPECT_EQ(decoded.value().federated_webspace_us,
            response.federated_webspace_us);
  EXPECT_EQ(decoded.value().federated_cobra_us, response.federated_cobra_us);
  EXPECT_EQ(decoded.value().last_federated_plan, response.last_federated_plan);
}

TEST(WireTest, ServeStatsFromTheFutureRejectedAsUnsupported) {
  serve::ServeStats response;
  response.federated_queries = 7;
  std::vector<uint8_t> frame = EncodeServeStatsResponse(response);
  MessageType type;
  const uint8_t* body = nullptr;
  size_t body_len = 0;
  ASSERT_TRUE(DecodeFrame(frame, &type, &body, &body_len).ok());

  // Locate the extension's version byte: the pre-federated boundary is
  // the unique strict prefix that decodes.
  size_t version_at = body_len;
  for (size_t len = 0; len < body_len; ++len) {
    if (DecodeServeStatsResponse(body, len).ok()) {
      version_at = len;
      break;
    }
  }
  ASSERT_LT(version_at, body_len);
  std::vector<uint8_t> patched(body, body + body_len);
  ASSERT_EQ(patched[version_at], 1);

  patched[version_at] = 2;  // a frame from a newer peer
  Result<serve::ServeStats> decoded =
      DecodeServeStatsResponse(patched.data(), patched.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kFeatureUnsupported);
  EXPECT_NE(decoded.status().message().find("newer peer"), std::string::npos);

  // Version 0 is never emitted: that's corruption, not the future.
  patched[version_at] = 0;
  decoded = DecodeServeStatsResponse(patched.data(), patched.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(WireTest, FeatureUnsupportedErrorFrameRoundTrips) {
  std::vector<uint8_t> frame = EncodeError(
      Status::FeatureUnsupported("query from the future"));
  MessageType type;
  const uint8_t* body = nullptr;
  size_t body_len = 0;
  ASSERT_TRUE(DecodeFrame(frame, &type, &body, &body_len).ok());
  Status decoded = DecodeError(body, body_len);
  EXPECT_EQ(decoded.code(), StatusCode::kFeatureUnsupported);
  EXPECT_EQ(decoded.message(), "query from the future");
}

TEST(WireTest, MutatedValidFramesNeverCrash) {
  QueryRequest request;
  request.node_id = 2;
  request.queries.push_back(MakeQuery(1));
  request.queries.push_back(MakeQuery(4));
  const std::vector<uint8_t> frame = EncodeQueryRequest(request).value();

  Rng rng(7);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<uint8_t> mutated = frame;
    mutated[rng.Uniform(mutated.size())] ^=
        static_cast<uint8_t>(1u << rng.Uniform(8));
    MessageType type;
    const uint8_t* body = nullptr;
    size_t body_len = 0;
    if (!DecodeFrame(mutated, &type, &body, &body_len).ok()) continue;
    (void)DecodeQueryRequest(body, body_len);
  }
}

}  // namespace
}  // namespace dls::net
