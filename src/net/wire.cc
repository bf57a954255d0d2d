#include "net/wire.h"

#include <cstring>

#include "common/strings.h"
#include "ir/codec.h"

namespace dls::net {
namespace {

/// Error-frame messages are truncated to this, which keeps EncodeError
/// infallible: an Error frame always fits the payload cap.
constexpr size_t kMaxErrorMessageBytes = 1024;

/// Stable wire values for status codes. The C++ StatusCode enum may be
/// reordered or extended; these values may not — they are what mixed-
/// version peers agree on. A wire value this build doesn't know
/// degrades to kInternal on decode (see DecodeError) instead of being
/// misread as a neighbouring code.
uint32_t StatusCodeToWire(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return 0;
    case StatusCode::kInvalidArgument: return 1;
    case StatusCode::kNotFound: return 2;
    case StatusCode::kAlreadyExists: return 3;
    case StatusCode::kCorruption: return 4;
    case StatusCode::kParseError: return 5;
    case StatusCode::kDetectorFailure: return 6;
    case StatusCode::kUnsupported: return 7;
    case StatusCode::kInternal: return 8;
    case StatusCode::kUnavailable: return 9;
    case StatusCode::kDeadlineExceeded: return 10;
    case StatusCode::kFeatureUnsupported: return 11;
  }
  return 8;  // unreachable with a valid enum; ship kInternal
}

bool StatusCodeFromWire(uint32_t wire, StatusCode* code) {
  switch (wire) {
    case 1: *code = StatusCode::kInvalidArgument; return true;
    case 2: *code = StatusCode::kNotFound; return true;
    case 3: *code = StatusCode::kAlreadyExists; return true;
    case 4: *code = StatusCode::kCorruption; return true;
    case 5: *code = StatusCode::kParseError; return true;
    case 6: *code = StatusCode::kDetectorFailure; return true;
    case 7: *code = StatusCode::kUnsupported; return true;
    case 8: *code = StatusCode::kInternal; return true;
    case 9: *code = StatusCode::kUnavailable; return true;
    case 10: *code = StatusCode::kDeadlineExceeded; return true;
    case 11: *code = StatusCode::kFeatureUnsupported; return true;
    default: return false;  // incl. 0: an Error frame is never "ok"
  }
}

// ---- Encoding ------------------------------------------------------

/// Builds one frame: reserves the length prefix, accumulates the
/// payload, and Finish() patches the prefix. Varint32 is the posting
/// codec's LEB128 writer (ir/codec.h) verbatim; Varint64 extends the
/// same scheme to 10 bytes.
class FrameWriter {
 public:
  explicit FrameWriter(MessageType type) {
    bytes_.resize(kFrameHeaderBytes);
    U8(static_cast<uint8_t>(type));
  }

  void U8(uint8_t v) { bytes_.push_back(v); }

  void Varint32(uint32_t v) { ir::AppendVarint(v, &bytes_); }

  void Varint64(uint64_t v) {
    while (v >= 0x80u) {
      bytes_.push_back(static_cast<uint8_t>(v | 0x80u));
      v >>= 7;
    }
    bytes_.push_back(static_cast<uint8_t>(v));
  }

  /// IEEE-754 bit pattern as 8 explicit little-endian bytes —
  /// endianness-independent and bit-exact.
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      bytes_.push_back(static_cast<uint8_t>(bits >> (8 * i)));
    }
  }

  void String(const std::string& s) {
    Varint32(static_cast<uint32_t>(s.size()));
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }

  /// Varint count + packed bitmap, LSB-first within each byte.
  void BitVector(const std::vector<bool>& bits) {
    Varint32(static_cast<uint32_t>(bits.size()));
    uint8_t byte = 0;
    for (size_t i = 0; i < bits.size(); ++i) {
      if (bits[i]) byte |= static_cast<uint8_t>(1u << (i % 8));
      if (i % 8 == 7) {
        bytes_.push_back(byte);
        byte = 0;
      }
    }
    if (bits.size() % 8 != 0) bytes_.push_back(byte);
  }

  /// Patches the length prefix. Refuses a frame the receiver would
  /// reject: without this check a >64 MiB message (a huge vocabulary
  /// in EncodeStatsResponse) would be shipped, truncated to u32, and
  /// surface on the peer as a misleading "malformed frame length".
  Result<std::vector<uint8_t>> Finish() {
    const size_t size = bytes_.size() - kFrameHeaderBytes;
    if (size > kMaxFramePayloadBytes) {
      return Status::Unsupported(
          StrFormat("wire: encoded payload of %zu bytes exceeds the %u-byte "
                    "frame cap",
                    size, kMaxFramePayloadBytes));
    }
    const uint32_t payload = static_cast<uint32_t>(size);
    for (int i = 0; i < 4; ++i) {
      bytes_[i] = static_cast<uint8_t>(payload >> (8 * i));
    }
    return std::move(bytes_);
  }

 private:
  std::vector<uint8_t> bytes_;
};

/// The wire part of RankOptions, shared by ShardQuery and
/// SearchRequest: lambda, then one byte each for kernel, prune and
/// strategy. shared_threshold and doc_filter are in-process execution
/// policy, not part of the wire query contract — deliberately not
/// encoded.
void WriteRankOptions(const ir::RankOptions& o, FrameWriter* w) {
  w->F64(o.lambda);
  w->U8(static_cast<uint8_t>(o.kernel));
  w->U8(o.prune ? 1 : 0);
  w->U8(static_cast<uint8_t>(o.strategy));
}

void WriteShardQuery(const ir::ShardQuery& q, FrameWriter* w) {
  w->Varint64(q.n);
  w->Varint64(q.max_fragments);
  w->F64(q.threshold);
  WriteRankOptions(q.options, w);
  w->Varint64(static_cast<uint64_t>(q.collection_length));
  w->Varint32(static_cast<uint32_t>(q.stems.size()));
  for (size_t i = 0; i < q.stems.size(); ++i) {
    w->String(q.stems[i]);
    w->Varint32(static_cast<uint32_t>(q.stem_global_df[i]));
  }
}

/// An evaluation's work, as QueryResponse and StatsResponse carry it:
/// five varints in this order.
void WriteRankStats(const ir::RankStats& s, FrameWriter* w) {
  w->Varint64(s.postings_touched);
  w->Varint64(s.blocks_skipped);
  w->Varint64(s.blocks_decoded);
  w->Varint64(s.pivot_iterations);
  w->Varint64(s.cursor_advances);
}

void WriteShardResult(const ir::ShardResult& r, FrameWriter* w) {
  w->Varint32(static_cast<uint32_t>(r.top.size()));
  for (const ir::ClusterScoredDoc& d : r.top) {
    w->String(d.url);
    w->F64(d.score);
  }
  WriteRankStats(r.work, w);
  w->F64(r.elapsed_us);
  w->BitVector(r.stem_evaluated);
}

/// A mutation's statistics delta: length, then the strictly ascending
/// distinct stems.
void WriteStatsDelta(const ingest::StatsDelta& delta, FrameWriter* w) {
  w->Varint64(static_cast<uint64_t>(delta.length));
  w->Varint32(static_cast<uint32_t>(delta.stems.size()));
  for (const std::string& stem : delta.stems) w->String(stem);
}

// ---- Decoding ------------------------------------------------------

/// Bounds-checked cursor over a body span. Every accessor checks the
/// remaining bytes first and latches `failed()` on violation; after a
/// failure all further reads return zero values, so decoders can read
/// straight through and test failed() once at the end.
class BodyReader {
 public:
  BodyReader(const uint8_t* p, size_t len) : p_(p), end_(p + len) {}

  bool failed() const { return failed_; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  uint8_t U8() {
    if (remaining() < 1) return Fail<uint8_t>();
    return *p_++;
  }

  uint32_t Varint32() {
    uint64_t v = Varint(5);
    if (v > 0xffffffffull) return Fail<uint32_t>();
    return static_cast<uint32_t>(v);
  }

  uint64_t Varint64() { return Varint(10); }

  double F64() {
    if (remaining() < 8) return Fail<double>();
    uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<uint64_t>(p_[i]) << (8 * i);
    }
    p_ += 8;
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string String() {
    uint32_t len = Varint32();
    if (failed_ || remaining() < len) return (Fail<int>(), std::string());
    std::string s(reinterpret_cast<const char*>(p_), len);
    p_ += len;
    return s;
  }

  std::vector<bool> BitVector() {
    uint32_t count = Varint32();
    const size_t bytes = (static_cast<size_t>(count) + 7) / 8;
    if (failed_ || remaining() < bytes) {
      return (Fail<int>(), std::vector<bool>());
    }
    std::vector<bool> bits(count);
    for (uint32_t i = 0; i < count; ++i) {
      bits[i] = (p_[i / 8] >> (i % 8)) & 1u;
    }
    p_ += bytes;
    return bits;
  }

  /// Reads an element count and rejects it unless the remaining bytes
  /// could hold `min_bytes_each` per element — a fuzzer-supplied count
  /// must never drive an allocation the frame cannot back.
  uint32_t Count(size_t min_bytes_each) {
    uint32_t count = Varint32();
    if (failed_ || static_cast<uint64_t>(count) * min_bytes_each >
                       remaining()) {
      return Fail<uint32_t>();
    }
    return count;
  }

 private:
  template <typename T>
  T Fail() {
    failed_ = true;
    p_ = end_;
    return T();
  }

  /// LEB128 with an explicit byte cap: a varint that keeps its
  /// continuation bit set past `max_bytes` is malformed, not a longer
  /// loop (the unchecked ir/codec.h decoder trusts its own encoder;
  /// the wire cannot).
  uint64_t Varint(int max_bytes) {
    uint64_t v = 0;
    for (int i = 0; i < max_bytes; ++i) {
      if (remaining() < 1) return Fail<uint64_t>();
      const uint8_t byte = *p_++;
      v |= static_cast<uint64_t>(byte & 0x7fu) << (7 * i);
      if ((byte & 0x80u) == 0) return v;
    }
    return Fail<uint64_t>();
  }

  const uint8_t* p_;
  const uint8_t* end_;
  bool failed_ = false;
};

Status Truncated(const char* what) {
  return Status::Corruption(std::string("wire: malformed ") + what);
}

/// Reads what WriteRankOptions wrote. A kernel or strategy byte past
/// the last enumerator, or a prune byte other than 0/1, is corruption:
/// no peer of this wire version writes one.
bool ReadRankOptions(BodyReader* r, ir::RankOptions* o) {
  constexpr uint8_t kLastKernel =
      static_cast<uint8_t>(ir::ScoreKernel::kPacked);
  constexpr uint8_t kLastStrategy =
      static_cast<uint8_t>(ir::RankStrategy::kWand);
  o->lambda = r->F64();
  const uint8_t kernel = r->U8();
  const uint8_t prune = r->U8();
  const uint8_t strategy = r->U8();
  if (r->failed() || kernel > kLastKernel || prune > 1 ||
      strategy > kLastStrategy) {
    return false;
  }
  o->kernel = static_cast<ir::ScoreKernel>(kernel);
  o->prune = prune != 0;
  o->strategy = static_cast<ir::RankStrategy>(strategy);
  return true;
}

bool ReadShardQuery(BodyReader* r, ir::ShardQuery* q) {
  q->n = r->Varint64();
  q->max_fragments = r->Varint64();
  q->threshold = r->F64();
  if (!ReadRankOptions(r, &q->options)) return false;
  q->collection_length = static_cast<int64_t>(r->Varint64());
  const uint32_t stems = r->Count(/*min_bytes_each=*/2);
  if (r->failed()) return false;
  q->stems.reserve(stems);
  q->stem_global_df.reserve(stems);
  for (uint32_t i = 0; i < stems; ++i) {
    q->stems.push_back(r->String());
    const uint32_t df = r->Varint32();
    // df == 0 would divide by zero in TermWeight; the centre only ever
    // pushes stems present in the global vocabulary.
    if (r->failed() || df == 0 || df > 0x7fffffffu) return false;
    q->stem_global_df.push_back(static_cast<int32_t>(df));
  }
  return !r->failed();
}

/// Rejects what no LiveIndex can report: stems out of strictly
/// ascending order (a duplicate included), a length beyond int64 or
/// below the stem count (every distinct stem occurs at least once).
bool ReadStatsDelta(BodyReader* r, ingest::StatsDelta* delta) {
  const uint64_t length = r->Varint64();
  const uint32_t stems = r->Count(/*min_bytes_each=*/1);
  if (r->failed() || length > static_cast<uint64_t>(INT64_MAX) ||
      length < stems) {
    return false;
  }
  delta->length = static_cast<int64_t>(length);
  delta->stems.reserve(stems);
  for (uint32_t i = 0; i < stems; ++i) {
    std::string stem = r->String();
    if (r->failed() || (i > 0 && !(delta->stems.back() < stem))) return false;
    delta->stems.push_back(std::move(stem));
  }
  return true;
}

void ReadRankStats(BodyReader* r, ir::RankStats* s) {
  s->postings_touched = r->Varint64();
  s->blocks_skipped = r->Varint64();
  s->blocks_decoded = r->Varint64();
  s->pivot_iterations = r->Varint64();
  s->cursor_advances = r->Varint64();
}

bool ReadShardResult(BodyReader* r, ir::ShardResult* out) {
  const uint32_t docs = r->Count(/*min_bytes_each=*/9);
  if (r->failed()) return false;
  out->top.reserve(docs);
  for (uint32_t i = 0; i < docs; ++i) {
    ir::ClusterScoredDoc d;
    d.url = r->String();
    d.score = r->F64();
    if (r->failed()) return false;
    out->top.push_back(std::move(d));
  }
  ReadRankStats(r, &out->work);
  out->elapsed_us = r->F64();
  out->stem_evaluated = r->BitVector();
  return !r->failed();
}

}  // namespace

Result<std::vector<uint8_t>> EncodeQueryRequest(const QueryRequest& request) {
  FrameWriter w(MessageType::kQueryRequest);
  w.Varint32(request.node_id);
  w.Varint32(static_cast<uint32_t>(request.queries.size()));
  for (const ir::ShardQuery& q : request.queries) WriteShardQuery(q, &w);
  return w.Finish();
}

Result<std::vector<uint8_t>> EncodeQueryResponse(
    const QueryResponse& response) {
  FrameWriter w(MessageType::kQueryResponse);
  w.Varint32(response.node_id);
  w.Varint32(static_cast<uint32_t>(response.results.size()));
  for (const ir::ShardResult& r : response.results) WriteShardResult(r, &w);
  return w.Finish();
}

std::vector<uint8_t> EncodeStatsRequest(const StatsRequest& request) {
  FrameWriter w(MessageType::kStatsRequest);
  w.Varint32(request.node_id);
  return std::move(w.Finish()).value();  // bounded: always fits
}

Result<std::vector<uint8_t>> EncodeStatsResponse(
    const StatsResponse& response) {
  FrameWriter w(MessageType::kStatsResponse);
  w.Varint32(response.node_id);
  w.U8(static_cast<uint8_t>((response.stem ? 1u : 0u) |
                            (response.stop ? 2u : 0u)));
  w.Varint64(static_cast<uint64_t>(response.collection_length));
  w.Varint64(response.document_count);
  w.Varint64(response.mutation_epoch);
  WriteRankStats(response.work, &w);
  w.Varint32(static_cast<uint32_t>(response.term_dfs.size()));
  for (const auto& [term, df] : response.term_dfs) {
    w.String(term);
    w.Varint32(static_cast<uint32_t>(df));
  }
  return w.Finish();
}

std::vector<uint8_t> EncodeError(const Status& status) {
  FrameWriter w(MessageType::kError);
  w.Varint32(StatusCodeToWire(status.code()));
  w.String(status.message().substr(0, kMaxErrorMessageBytes));
  return std::move(w.Finish()).value();  // bounded by the truncation
}

Result<std::vector<uint8_t>> EncodeSearchRequest(
    const SearchRequest& request) {
  FrameWriter w(MessageType::kSearchRequest);
  w.Varint32(static_cast<uint32_t>(request.words.size()));
  for (const std::string& word : request.words) w.String(word);
  w.Varint64(request.n);
  w.Varint64(request.max_fragments);
  w.Varint32(request.deadline_ms);
  WriteRankOptions(request.options, &w);
  if (!request.structured.empty()) {
    // Versioned trailing extension (see the struct comment): absent
    // entirely for plain word queries, so pre-extension peers still
    // interoperate on those.
    w.U8(1);  // ext_version
    w.String(request.structured);
  }
  return w.Finish();
}

Result<std::vector<uint8_t>> EncodeSearchResponse(
    const SearchResponse& response) {
  FrameWriter w(MessageType::kSearchResponse);
  w.Varint32(StatusCodeToWire(response.status.code()));
  w.String(response.status.message().substr(0, kMaxErrorMessageBytes));
  w.Varint32(response.retry_after_ms);
  w.U8(static_cast<uint8_t>((response.cache_hit ? 1u : 0u) |
                            (response.degraded ? 2u : 0u)));
  w.F64(response.predicted_quality);
  w.Varint32(static_cast<uint32_t>(response.results.size()));
  for (const ir::ClusterScoredDoc& d : response.results) {
    w.String(d.url);
    w.F64(d.score);
  }
  if (!response.plan.empty()) {
    w.U8(1);  // ext_version (same scheme as SearchRequest)
    w.String(response.plan);
  }
  return w.Finish();
}

std::vector<uint8_t> EncodeServeStatsRequest(const ServeStatsRequest&) {
  FrameWriter w(MessageType::kServeStatsRequest);
  return std::move(w.Finish()).value();  // empty body: always fits
}

std::vector<uint8_t> EncodeServeStatsResponse(
    const ServeStatsResponse& response) {
  FrameWriter w(MessageType::kServeStatsResponse);
  w.Varint64(response.submitted);
  w.Varint64(response.admitted);
  w.Varint64(response.completed);
  w.Varint64(response.cache_hits);
  w.Varint64(response.cache_misses);
  w.Varint64(response.cache_evictions);
  w.Varint64(response.shed_queue_full);
  w.Varint64(response.shed_deadline);
  w.Varint64(response.expired_in_queue);
  w.Varint64(response.degraded);
  w.Varint64(response.batches);
  w.Varint64(response.batched_queries);
  w.Varint64(response.queue_depth);
  w.Varint64(response.epoch);
  w.Varint64(response.bytes_resident);
  w.Varint64(response.bytes_mapped);
  w.Varint64(response.latency_count);
  w.F64(response.latency_mean_us);
  w.Varint64(response.latency_p50_us);
  w.Varint64(response.latency_p95_us);
  w.Varint64(response.latency_p99_us);
  w.Varint64(response.latency_max_us);
  w.Varint64(response.hedges_fired);
  w.Varint64(response.hedge_wins);
  w.Varint64(response.failovers);
  w.Varint64(response.epoch_changes);
  w.Varint64(response.cache_warmed);
  w.Varint64(response.stale_served);
  // Federated-mediation block: a versioned trailing extension (same
  // scheme as SearchRequest), emitted only once the server has
  // actually served federated traffic. An all-zero block encodes
  // byte-identically to a pre-federation frame, so an old client
  // keeps decoding an upgraded server's stats until the first
  // federated query lands — after that it sees trailing bytes and
  // fails closed (it cannot be taught kFeatureUnsupported
  // retroactively; that residual skew is the documented limit of
  // old-reader compatibility here).
  const bool federated_block =
      response.federated_queries != 0 || response.federated_filter_docs != 0 ||
      response.federated_text_us != 0 ||
      response.federated_webspace_us != 0 ||
      response.federated_cobra_us != 0 ||
      !response.last_federated_plan.empty();
  if (federated_block) {
    w.U8(1);  // ext_version
    w.Varint64(response.federated_queries);
    w.Varint64(response.federated_filter_docs);
    w.Varint64(response.federated_text_us);
    w.Varint64(response.federated_webspace_us);
    w.Varint64(response.federated_cobra_us);
    w.String(response.last_federated_plan.substr(0, kMaxErrorMessageBytes));
  }
  return std::move(w.Finish()).value();  // scalars + bounded plan: fits
}

Result<std::vector<uint8_t>> EncodeInsertRequest(const InsertRequest& request) {
  FrameWriter w(MessageType::kInsertRequest);
  w.Varint32(request.node_id);
  w.String(request.url);
  w.String(request.text);
  return w.Finish();
}

Result<std::vector<uint8_t>> EncodeInsertResponse(
    const InsertResponse& response) {
  FrameWriter w(MessageType::kInsertResponse);
  w.Varint32(response.node_id);
  w.Varint64(response.doc_id);
  w.Varint64(response.epoch);
  WriteStatsDelta(response.delta, &w);
  return w.Finish();
}

Result<std::vector<uint8_t>> EncodeDeleteRequest(const DeleteRequest& request) {
  FrameWriter w(MessageType::kDeleteRequest);
  w.Varint32(request.node_id);
  w.String(request.url);
  return w.Finish();
}

Result<std::vector<uint8_t>> EncodeDeleteResponse(
    const DeleteResponse& response) {
  FrameWriter w(MessageType::kDeleteResponse);
  w.Varint32(response.node_id);
  w.U8(response.found ? 1 : 0);
  w.Varint64(response.epoch);
  WriteStatsDelta(response.delta, &w);
  return w.Finish();
}

std::vector<uint8_t> EncodeMergeRequest(const MergeRequest& request) {
  FrameWriter w(MessageType::kMergeRequest);
  w.Varint32(request.node_id);
  return std::move(w.Finish()).value();  // flat scalars: always fits
}

std::vector<uint8_t> EncodeMergeResponse(const MergeResponse& response) {
  FrameWriter w(MessageType::kMergeResponse);
  w.Varint32(response.node_id);
  w.Varint64(response.epoch);
  w.Varint64(response.merges);
  return std::move(w.Finish()).value();  // flat scalars: always fits
}

Status DecodeFrame(const std::vector<uint8_t>& frame, MessageType* type,
                   const uint8_t** body, size_t* body_len) {
  if (frame.size() < kFrameHeaderBytes + 1) return Truncated("frame header");
  uint32_t payload = 0;
  for (int i = 0; i < 4; ++i) {
    payload |= static_cast<uint32_t>(frame[i]) << (8 * i);
  }
  if (payload > kMaxFramePayloadBytes) return Truncated("frame length");
  if (static_cast<size_t>(payload) != frame.size() - kFrameHeaderBytes) {
    return Truncated("frame length");
  }
  const uint8_t raw = frame[kFrameHeaderBytes];
  if (raw < 1 || raw > 15) return Truncated("message type");
  *type = static_cast<MessageType>(raw);
  *body = frame.data() + kFrameHeaderBytes + 1;
  *body_len = payload - 1;
  return Status::Ok();
}

Result<QueryRequest> DecodeQueryRequest(const uint8_t* body, size_t len) {
  BodyReader r(body, len);
  QueryRequest request;
  request.node_id = r.Varint32();
  const uint32_t queries = r.Count(/*min_bytes_each=*/20);
  if (r.failed()) return Truncated("QueryRequest");
  request.queries.resize(queries);
  for (uint32_t i = 0; i < queries; ++i) {
    if (!ReadShardQuery(&r, &request.queries[i])) {
      return Truncated("QueryRequest");
    }
  }
  if (r.failed() || r.remaining() != 0) return Truncated("QueryRequest");
  return request;
}

Result<QueryResponse> DecodeQueryResponse(const uint8_t* body, size_t len) {
  BodyReader r(body, len);
  QueryResponse response;
  response.node_id = r.Varint32();
  const uint32_t results = r.Count(/*min_bytes_each=*/12);
  if (r.failed()) return Truncated("QueryResponse");
  response.results.resize(results);
  for (uint32_t i = 0; i < results; ++i) {
    if (!ReadShardResult(&r, &response.results[i])) {
      return Truncated("QueryResponse");
    }
  }
  if (r.failed() || r.remaining() != 0) return Truncated("QueryResponse");
  return response;
}

Result<StatsRequest> DecodeStatsRequest(const uint8_t* body, size_t len) {
  BodyReader r(body, len);
  StatsRequest request;
  request.node_id = r.Varint32();
  if (r.failed() || r.remaining() != 0) return Truncated("StatsRequest");
  return request;
}

Result<StatsResponse> DecodeStatsResponse(const uint8_t* body, size_t len) {
  BodyReader r(body, len);
  StatsResponse response;
  response.node_id = r.Varint32();
  const uint8_t norm_flags = r.U8();
  if (r.failed() || norm_flags > 3) return Truncated("StatsResponse");
  response.stem = (norm_flags & 1u) != 0;
  response.stop = (norm_flags & 2u) != 0;
  response.collection_length = static_cast<int64_t>(r.Varint64());
  response.document_count = r.Varint64();
  response.mutation_epoch = r.Varint64();
  ReadRankStats(&r, &response.work);
  const uint32_t terms = r.Count(/*min_bytes_each=*/2);
  if (r.failed()) return Truncated("StatsResponse");
  response.term_dfs.reserve(terms);
  for (uint32_t i = 0; i < terms; ++i) {
    std::string term = r.String();
    const uint32_t df = r.Varint32();
    if (r.failed() || df > 0x7fffffffu) return Truncated("StatsResponse");
    response.term_dfs.emplace_back(std::move(term),
                                   static_cast<int32_t>(df));
  }
  if (r.failed() || r.remaining() != 0) return Truncated("StatsResponse");
  return response;
}

Result<SearchRequest> DecodeSearchRequest(const uint8_t* body, size_t len) {
  BodyReader r(body, len);
  SearchRequest request;
  const uint32_t words = r.Count(/*min_bytes_each=*/1);
  if (r.failed()) return Truncated("SearchRequest");
  request.words.reserve(words);
  for (uint32_t i = 0; i < words; ++i) {
    request.words.push_back(r.String());
    if (r.failed()) return Truncated("SearchRequest");
  }
  request.n = r.Varint64();
  request.max_fragments = r.Varint64();
  request.deadline_ms = r.Varint32();
  if (!ReadRankOptions(&r, &request.options)) {
    return Truncated("SearchRequest");
  }
  if (r.remaining() != 0) {
    // Versioned trailing extension. Version 1 carries the structured
    // federated query; anything newer is a well-formed frame from a
    // future peer — kFeatureUnsupported, not corruption.
    const uint8_t ext_version = r.U8();
    if (r.failed() || ext_version == 0) return Truncated("SearchRequest");
    if (ext_version > 1) {
      return Status::FeatureUnsupported(StrFormat(
          "SearchRequest extension version %u from a newer peer (this "
          "build speaks up to 1)",
          ext_version));
    }
    request.structured = r.String();
    if (r.failed() || request.structured.empty() || r.remaining() != 0) {
      return Truncated("SearchRequest");
    }
  }
  return request;
}

Result<SearchResponse> DecodeSearchResponse(const uint8_t* body, size_t len) {
  BodyReader r(body, len);
  SearchResponse response;
  const uint32_t wire_code = r.Varint32();
  std::string message = r.String();
  if (r.failed()) return Truncated("SearchResponse");
  if (wire_code == 0) {
    response.status = Status::Ok();
  } else {
    StatusCode code;
    // An unknown code (a newer peer's) degrades to kInternal: still an
    // unanswered query, never misread as a neighbouring code.
    response.status = StatusCodeFromWire(wire_code, &code)
                          ? Status(code, std::move(message))
                          : Status::Internal("peer error: " + message);
  }
  response.retry_after_ms = r.Varint32();
  const uint8_t flags = r.U8();
  if (r.failed() || flags > 3) return Truncated("SearchResponse");
  response.cache_hit = (flags & 1u) != 0;
  response.degraded = (flags & 2u) != 0;
  response.predicted_quality = r.F64();
  const uint32_t docs = r.Count(/*min_bytes_each=*/9);
  if (r.failed()) return Truncated("SearchResponse");
  response.results.reserve(docs);
  for (uint32_t i = 0; i < docs; ++i) {
    ir::ClusterScoredDoc d;
    d.url = r.String();
    d.score = r.F64();
    if (r.failed()) return Truncated("SearchResponse");
    response.results.push_back(std::move(d));
  }
  if (r.failed()) return Truncated("SearchResponse");
  if (r.remaining() != 0) {
    const uint8_t ext_version = r.U8();
    if (r.failed() || ext_version == 0) return Truncated("SearchResponse");
    if (ext_version > 1) {
      return Status::FeatureUnsupported(StrFormat(
          "SearchResponse extension version %u from a newer peer (this "
          "build speaks up to 1)",
          ext_version));
    }
    response.plan = r.String();
    if (r.failed() || response.plan.empty() || r.remaining() != 0) {
      return Truncated("SearchResponse");
    }
  }
  return response;
}

Result<ServeStatsRequest> DecodeServeStatsRequest(const uint8_t* body,
                                                  size_t len) {
  BodyReader r(body, len);
  if (r.failed() || r.remaining() != 0) return Truncated("ServeStatsRequest");
  return ServeStatsRequest{};
}

Result<ServeStatsResponse> DecodeServeStatsResponse(const uint8_t* body,
                                                    size_t len) {
  BodyReader r(body, len);
  ServeStatsResponse response;
  response.submitted = r.Varint64();
  response.admitted = r.Varint64();
  response.completed = r.Varint64();
  response.cache_hits = r.Varint64();
  response.cache_misses = r.Varint64();
  response.cache_evictions = r.Varint64();
  response.shed_queue_full = r.Varint64();
  response.shed_deadline = r.Varint64();
  response.expired_in_queue = r.Varint64();
  response.degraded = r.Varint64();
  response.batches = r.Varint64();
  response.batched_queries = r.Varint64();
  response.queue_depth = r.Varint64();
  response.epoch = r.Varint64();
  response.bytes_resident = r.Varint64();
  response.bytes_mapped = r.Varint64();
  response.latency_count = r.Varint64();
  response.latency_mean_us = r.F64();
  response.latency_p50_us = r.Varint64();
  response.latency_p95_us = r.Varint64();
  response.latency_p99_us = r.Varint64();
  response.latency_max_us = r.Varint64();
  response.hedges_fired = r.Varint64();
  response.hedge_wins = r.Varint64();
  response.failovers = r.Varint64();
  response.epoch_changes = r.Varint64();
  response.cache_warmed = r.Varint64();
  response.stale_served = r.Varint64();
  if (r.failed()) return Truncated("ServeStatsResponse");
  if (r.remaining() != 0) {
    // Versioned trailing federated-mediation block — absent in frames
    // from pre-federation servers (and from upgraded servers that have
    // served no federated traffic yet), which simply report zeros.
    // Version 1 is this build's; anything newer is a well-formed frame
    // from a future peer — kFeatureUnsupported, not corruption.
    const uint8_t ext_version = r.U8();
    if (r.failed() || ext_version == 0) return Truncated("ServeStatsResponse");
    if (ext_version > 1) {
      return Status::FeatureUnsupported(StrFormat(
          "ServeStatsResponse extension version %u from a newer peer (this "
          "build speaks up to 1)",
          ext_version));
    }
    response.federated_queries = r.Varint64();
    response.federated_filter_docs = r.Varint64();
    response.federated_text_us = r.Varint64();
    response.federated_webspace_us = r.Varint64();
    response.federated_cobra_us = r.Varint64();
    response.last_federated_plan = r.String();
    if (r.failed() || r.remaining() != 0) {
      return Truncated("ServeStatsResponse");
    }
  }
  return response;
}

Result<InsertRequest> DecodeInsertRequest(const uint8_t* body, size_t len) {
  BodyReader r(body, len);
  InsertRequest request;
  request.node_id = r.Varint32();
  request.url = r.String();
  request.text = r.String();
  if (r.failed() || r.remaining() != 0) return Truncated("InsertRequest");
  return request;
}

Result<InsertResponse> DecodeInsertResponse(const uint8_t* body, size_t len) {
  BodyReader r(body, len);
  InsertResponse response;
  response.node_id = r.Varint32();
  response.doc_id = r.Varint64();
  response.epoch = r.Varint64();
  if (!ReadStatsDelta(&r, &response.delta) || r.remaining() != 0) {
    return Truncated("InsertResponse");
  }
  return response;
}

Result<DeleteRequest> DecodeDeleteRequest(const uint8_t* body, size_t len) {
  BodyReader r(body, len);
  DeleteRequest request;
  request.node_id = r.Varint32();
  request.url = r.String();
  if (r.failed() || r.remaining() != 0) return Truncated("DeleteRequest");
  return request;
}

Result<DeleteResponse> DecodeDeleteResponse(const uint8_t* body, size_t len) {
  BodyReader r(body, len);
  DeleteResponse response;
  response.node_id = r.Varint32();
  const uint8_t found = r.U8();
  response.epoch = r.Varint64();
  // A delete that found nothing changed no statistics.
  if (!ReadStatsDelta(&r, &response.delta) || found > 1 ||
      r.remaining() != 0 ||
      (found == 0 && response.delta != ingest::StatsDelta{})) {
    return Truncated("DeleteResponse");
  }
  response.found = found != 0;
  return response;
}

Result<MergeRequest> DecodeMergeRequest(const uint8_t* body, size_t len) {
  BodyReader r(body, len);
  MergeRequest request;
  request.node_id = r.Varint32();
  if (r.failed() || r.remaining() != 0) return Truncated("MergeRequest");
  return request;
}

Result<MergeResponse> DecodeMergeResponse(const uint8_t* body, size_t len) {
  BodyReader r(body, len);
  MergeResponse response;
  response.node_id = r.Varint32();
  response.epoch = r.Varint64();
  response.merges = r.Varint64();
  if (r.failed() || r.remaining() != 0) return Truncated("MergeResponse");
  return response;
}

Status DecodeError(const uint8_t* body, size_t len) {
  BodyReader r(body, len);
  const uint32_t wire_code = r.Varint32();
  std::string message = r.String();
  if (r.failed() || r.remaining() != 0) return Truncated("Error frame");
  // A wire value this build doesn't know — a newer peer's code, or a
  // nonsensical "ok" error — degrades to kInternal rather than lying.
  StatusCode code;
  if (!StatusCodeFromWire(wire_code, &code)) {
    return Status::Internal("peer error: " + message);
  }
  return Status(code, std::move(message));
}

}  // namespace dls::net
