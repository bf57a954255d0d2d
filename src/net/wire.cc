#include "net/wire.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <type_traits>

#include "common/strings.h"

namespace dls::net {
namespace {

/// Error-frame messages are truncated to this, which keeps EncodeError
/// infallible: an Error frame always fits the payload cap.
constexpr size_t kMaxErrorMessageBytes = 1024;

/// Stable wire values for status codes. The C++ StatusCode enum may be
/// reordered or extended; these values may not — they are what mixed-
/// version peers agree on. A wire value this build doesn't know
/// degrades to kInternal on decode (see BodyReader::StatusField)
/// instead of being misread as a neighbouring code.
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

Status Truncated(const char* what) {
  return Status::Corruption(std::string("wire: malformed ") + what);
}

/// Each body's field order, stated once. Layout<M>::Walk(io, m) visits
/// m's fields in wire order through one of two walkers that share one
/// vocabulary: FrameWriter writes each field of a const M, and
/// BodyReader reads each one back into a default M and applies the
/// walk's Check()s, so bytes no peer of this wire version writes are
/// corruption. A message's Layout also names its frame type, and the
/// message for decode errors.
template <typename M>
struct Layout;

// ---- Encoding ------------------------------------------------------

/// Builds one frame: reserves the length prefix, appends each field
/// the walk visits, and Finish() patches the prefix.
class FrameWriter {
 public:
  explicit FrameWriter(MessageType type) {
    bytes_.resize(kFrameHeaderBytes);
    U8(static_cast<uint8_t>(type));
  }

  /// LEB128, the posting codec's scheme (ir/codec.h); a signed field
  /// travels as its two's-complement bits.
  template <typename T>
  void Varint(T value) {
    static_assert(sizeof(T) == 4 || sizeof(T) == 8);
    uint64_t v = static_cast<std::make_unsigned_t<T>>(value);
    while (v >= 0x80u) {
      U8(static_cast<uint8_t>(v | 0x80u));
      v >>= 7;
    }
    U8(static_cast<uint8_t>(v));
  }

  /// IEEE-754 bit pattern as 8 explicit little-endian bytes —
  /// endianness-independent and bit-exact.
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) U8(static_cast<uint8_t>(bits >> (8 * i)));
  }

  /// Varint length + raw bytes, cut to `max_bytes` where a frame must
  /// stay bounded.
  void String(const std::string& s,
              size_t max_bytes = std::numeric_limits<size_t>::max()) {
    const size_t n = std::min(s.size(), max_bytes);
    Varint(static_cast<uint32_t>(n));
    bytes_.insert(bytes_.end(), s.begin(), s.begin() + n);
  }

  /// One byte; `last` bounds what the reader accepts.
  template <typename E>
  void Enum(E v, E /*last*/) {
    U8(static_cast<uint8_t>(v));
  }
  void Bool(bool v) { Enum(v, true); }
  /// Two flags in one byte: bit 0, then bit 1.
  void Flags(bool bit0, bool bit1) { U8((bit0 ? 1 : 0) | (bit1 ? 2 : 0)); }

  /// Varint count + packed bitmap, LSB-first within each byte.
  void Bits(const std::vector<bool>& bits) {
    Varint(static_cast<uint32_t>(bits.size()));
    uint8_t byte = 0;
    for (size_t i = 0; i < bits.size(); ++i) {
      if (bits[i]) byte |= static_cast<uint8_t>(1u << (i % 8));
      if (i % 8 == 7) {
        U8(byte);
        byte = 0;
      }
    }
    if (bits.size() % 8 != 0) U8(byte);
  }

  /// The element count of `first`; the reader sizes every vector to it.
  template <typename T, typename... Parallel>
  size_t Count(size_t /*min_bytes_each*/, const std::vector<T>& first,
               const Parallel&...) {
    Varint(static_cast<uint32_t>(first.size()));
    return first.size();
  }

  /// A count, then each element: a string, or a body with a Layout.
  template <typename T>
  void Each(const std::vector<T>& items, size_t min_bytes_each) {
    Count(min_bytes_each, items);
    for (const T& item : items) Item(item);
  }

  template <typename T>
  void Walk(const T& body) {
    Layout<T>::Walk(*this, body);
  }

  /// A status: its stable wire code, then its capped message.
  void StatusField(const Status& s, bool /*zero_is_ok*/) {
    Varint(StatusCodeToWire(s.code()));
    String(s.message(), kMaxErrorMessageBytes);
  }

  /// A versioned trailing extension, [u8 ext_version=1] then the
  /// walk's next fields, written only when `present`: without it a
  /// frame is byte-identical to one from a peer that predates it.
  bool Extension(bool present) {
    if (present) U8(1);
    return present;
  }

  /// Checks are the reader's; a writer writes what it is given.
  template <typename Predicate>
  void Check(Predicate&&) {}

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
  void U8(uint8_t v) { bytes_.push_back(v); }
  void Item(const std::string& s) { String(s); }
  template <typename T>
  void Item(const T& body) {
    Walk(body);
  }

  std::vector<uint8_t> bytes_;
};

// ---- Decoding ------------------------------------------------------

/// Bounds-checked cursor over a body span. Every field checks the
/// remaining bytes first and latches a failure on violation; after a
/// failure every further read fails at once, so a walk reads straight
/// through and Finish() reports once.
class BodyReader {
 public:
  BodyReader(const uint8_t* p, size_t len, const char* what)
      : p_(p), end_(p + len), what_(what) {}

  /// A varint capped at 5 bytes for a 32-bit field and 10 for a 64-bit
  /// one. A 32-bit field must fit its type (a signed one as a
  /// non-negative value); a signed 64-bit one takes all 64 bits.
  template <typename T>
  void Varint(T& v) {
    static_assert(sizeof(T) == 4 || sizeof(T) == 8);
    const uint64_t wide = ReadVarint(sizeof(T) == 4 ? 5 : 10);
    if constexpr (sizeof(T) == 4) {
      if (wide > static_cast<uint64_t>(std::numeric_limits<T>::max())) {
        return Fail();
      }
    }
    v = static_cast<T>(wide);
  }

  void F64(double& v) {
    if (remaining() < 8) return Fail();
    uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<uint64_t>(p_[i]) << (8 * i);
    }
    p_ += 8;
    std::memcpy(&v, &bits, sizeof(v));
  }

  void String(std::string& s,
              size_t /*max_bytes*/ = std::numeric_limits<size_t>::max()) {
    uint32_t len = 0;
    Varint(len);
    if (failed_ || remaining() < len) return Fail();
    s.assign(reinterpret_cast<const char*>(p_), len);
    p_ += len;
  }

  /// A byte past `last` is corruption, not a value to remap.
  template <typename E>
  void Enum(E& v, E last) {
    const uint8_t byte = U8();
    if (byte > static_cast<uint8_t>(last)) return Fail();
    v = static_cast<E>(byte);
  }
  void Bool(bool& v) { Enum(v, true); }
  void Flags(bool& bit0, bool& bit1) {
    const uint8_t byte = U8();
    if (byte > 3) return Fail();
    bit0 = (byte & 1u) != 0;
    bit1 = (byte & 2u) != 0;
  }

  void Bits(std::vector<bool>& bits) {
    uint32_t count = 0;
    Varint(count);
    const size_t bytes = (static_cast<size_t>(count) + 7) / 8;
    if (failed_ || remaining() < bytes) return Fail();
    bits.resize(count);
    for (uint32_t i = 0; i < count; ++i) {
      bits[i] = (p_[i / 8] >> (i % 8)) & 1u;
    }
    p_ += bytes;
  }

  /// Reads an element count and rejects it unless the remaining bytes
  /// could hold `min_bytes_each` per element — a fuzzer-supplied count
  /// must never drive an allocation the frame cannot back — then sizes
  /// each vector to it.
  template <typename... Vectors>
  size_t Count(size_t min_bytes_each, Vectors&... vectors) {
    uint32_t count = 0;
    Varint(count);
    if (failed_ || uint64_t{count} * min_bytes_each > remaining()) {
      Fail();
      return 0;
    }
    (vectors.resize(count), ...);
    return count;
  }

  template <typename T>
  void Each(std::vector<T>& items, size_t min_bytes_each) {
    const size_t count = Count(min_bytes_each, items);
    for (size_t i = 0; i < count && !failed_; ++i) Item(items[i]);
  }

  template <typename T>
  void Walk(T& body) {
    Layout<T>::Walk(*this, body);
  }

  /// Wire code 0 is ok only where `zero_is_ok` (a SearchResponse's
  /// answer). In an Error frame it is a lie, and like a code this build
  /// doesn't know (a newer peer's) it degrades to kInternal.
  void StatusField(Status& s, bool zero_is_ok) {
    uint32_t wire = 0;
    Varint(wire);
    std::string message;
    String(message);
    StatusCode code;
    if (wire == 0 && zero_is_ok) {
      s = Status::Ok();
    } else if (StatusCodeFromWire(wire, &code)) {
      s = Status(code, std::move(message));
    } else {
      s = Status::Internal("peer error: " + message);
    }
  }

  /// Whether a versioned trailing extension follows the base fields.
  /// Version 1 is this build's; 0 is never written (corruption), and
  /// anything newer is a well-formed frame from a future peer —
  /// kFeatureUnsupported, not corruption.
  bool Extension(bool /*present*/) {
    if (failed_ || remaining() == 0) return false;
    const uint8_t version = U8();
    if (version > 1) {
      unsupported_ = Status::FeatureUnsupported(
          StrFormat("%s extension version %u from a newer peer (this build "
                    "speaks up to 1)",
                    what_, version));
    }
    if (version != 1) Fail();
    return version == 1;
  }

  template <typename Predicate>
  void Check(Predicate&& holds) {
    if (!failed_ && !holds()) Fail();
  }

  /// Every field read, every check held, and no byte left over.
  Status Finish() const {
    if (!unsupported_.ok()) return unsupported_;
    if (failed_ || remaining() != 0) return Truncated(what_);
    return Status::Ok();
  }

 private:
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  void Fail() {
    failed_ = true;
    p_ = end_;
  }

  uint8_t U8() {
    if (remaining() < 1) {
      Fail();
      return 0;
    }
    return *p_++;
  }

  /// LEB128 with an explicit byte cap: a varint that keeps its
  /// continuation bit set past `max_bytes` is malformed, not a longer
  /// loop (the unchecked ir/codec.h decoder trusts its own encoder;
  /// the wire cannot).
  uint64_t ReadVarint(int max_bytes) {
    uint64_t v = 0;
    for (int i = 0; i < max_bytes && remaining() > 0; ++i) {
      const uint8_t byte = *p_++;
      v |= static_cast<uint64_t>(byte & 0x7fu) << (7 * i);
      if ((byte & 0x80u) == 0) return v;
    }
    Fail();
    return 0;
  }

  void Item(std::string& s) { String(s); }
  template <typename T>
  void Item(T& body) {
    Walk(body);
  }

  const uint8_t* p_;
  const uint8_t* end_;
  const char* what_;
  bool failed_ = false;
  Status unsupported_;
};

// ---- Layouts: nested bodies ----------------------------------------

/// The wire part of RankOptions, shared by ShardQuery and
/// SearchRequest. shared_threshold and doc_filter are in-process
/// execution policy, not part of the wire query contract —
/// deliberately not encoded.
template <>
struct Layout<ir::RankOptions> {
  static void Walk(auto& io, auto& o) {
    io.F64(o.lambda);
    io.Enum(o.kernel, ir::ScoreKernel::kPacked);
    io.Bool(o.prune);
    io.Enum(o.strategy, ir::RankStrategy::kWand);
  }
};

template <>
struct Layout<ir::ShardQuery> {
  static void Walk(auto& io, auto& q) {
    io.Varint(q.n);
    io.Varint(q.max_fragments);
    io.F64(q.threshold);
    io.Walk(q.options);
    io.Varint(q.collection_length);
    const size_t stems =
        io.Count(/*min_bytes_each=*/2, q.stems, q.stem_global_df);
    for (size_t i = 0; i < stems; ++i) {
      io.String(q.stems[i]);
      io.Varint(q.stem_global_df[i]);
      // df == 0 would divide by zero in TermWeight; the centre only
      // ever pushes stems present in the global vocabulary.
      io.Check([&] { return q.stem_global_df[i] >= 1; });
    }
  }
};

/// An evaluation's work, as QueryResponse and StatsResponse carry it.
template <>
struct Layout<ir::RankStats> {
  static void Walk(auto& io, auto& s) {
    io.Varint(s.postings_touched);
    io.Varint(s.blocks_skipped);
    io.Varint(s.blocks_decoded);
    io.Varint(s.pivot_iterations);
    io.Varint(s.cursor_advances);
  }
};

/// One RES(url, score) tuple.
template <>
struct Layout<ir::ClusterScoredDoc> {
  static void Walk(auto& io, auto& d) {
    io.String(d.url);
    io.F64(d.score);
  }
};

template <>
struct Layout<ir::ShardResult> {
  static void Walk(auto& io, auto& r) {
    io.Each(r.top, /*min_bytes_each=*/9);
    io.Walk(r.work);
    io.F64(r.elapsed_us);
    io.Bits(r.stem_evaluated);
  }
};

/// A mutation's statistics delta. Rejects what no LiveIndex can
/// report: a length beyond int64 or below the stem count (every
/// distinct stem occurs at least once), stems out of strictly
/// ascending order (a duplicate included).
template <>
struct Layout<ingest::StatsDelta> {
  static void Walk(auto& io, auto& d) {
    io.Varint(d.length);
    io.Each(d.stems, /*min_bytes_each=*/1);
    io.Check([&] {
      return d.length >= 0 &&
             static_cast<uint64_t>(d.length) >= d.stems.size() &&
             std::adjacent_find(d.stems.begin(), d.stems.end(),
                                std::greater_equal<>()) == d.stems.end();
    });
  }
};

/// One (term, df) row of the stats handshake.
template <>
struct Layout<std::pair<std::string, int32_t>> {
  static void Walk(auto& io, auto& row) {
    io.String(row.first);
    io.Varint(row.second);
  }
};

// ---- Layouts: messages, in frame-type order -------------------------

template <>
struct Layout<QueryRequest> {
  static constexpr MessageType kType = MessageType::kQueryRequest;
  static constexpr const char* kName = "QueryRequest";
  static void Walk(auto& io, auto& m) {
    io.Varint(m.node_id);
    io.Each(m.queries, /*min_bytes_each=*/20);
  }
};

template <>
struct Layout<QueryResponse> {
  static constexpr MessageType kType = MessageType::kQueryResponse;
  static constexpr const char* kName = "QueryResponse";
  static void Walk(auto& io, auto& m) {
    io.Varint(m.node_id);
    io.Each(m.results, /*min_bytes_each=*/12);
  }
};

template <>
struct Layout<StatsRequest> {
  static constexpr MessageType kType = MessageType::kStatsRequest;
  static constexpr const char* kName = "StatsRequest";
  static void Walk(auto& io, auto& m) { io.Varint(m.node_id); }
};

template <>
struct Layout<StatsResponse> {
  static constexpr MessageType kType = MessageType::kStatsResponse;
  static constexpr const char* kName = "StatsResponse";
  static void Walk(auto& io, auto& m) {
    io.Varint(m.node_id);
    io.Flags(m.stem, m.stop);
    io.Varint(m.collection_length);
    io.Varint(m.document_count);
    io.Varint(m.mutation_epoch);
    io.Walk(m.work);
    io.Each(m.term_dfs, /*min_bytes_each=*/2);
  }
};

/// An Error frame carries the Status itself.
template <>
struct Layout<Status> {
  static constexpr MessageType kType = MessageType::kError;
  static constexpr const char* kName = "Error frame";
  static void Walk(auto& io, auto& status) {
    io.StatusField(status, /*zero_is_ok=*/false);
  }
};

template <>
struct Layout<SearchRequest> {
  static constexpr MessageType kType = MessageType::kSearchRequest;
  static constexpr const char* kName = "SearchRequest";
  static void Walk(auto& io, auto& m) {
    io.Each(m.words, /*min_bytes_each=*/1);
    io.Varint(m.n);
    io.Varint(m.max_fragments);
    io.Varint(m.deadline_ms);
    io.Walk(m.options);
    if (io.Extension(!m.structured.empty())) {
      io.String(m.structured);
      io.Check([&] { return !m.structured.empty(); });
    }
  }
};

template <>
struct Layout<SearchResponse> {
  static constexpr MessageType kType = MessageType::kSearchResponse;
  static constexpr const char* kName = "SearchResponse";
  static void Walk(auto& io, auto& m) {
    io.StatusField(m.status, /*zero_is_ok=*/true);
    io.Varint(m.retry_after_ms);
    io.Flags(m.cache_hit, m.degraded);
    io.F64(m.predicted_quality);
    io.Each(m.results, /*min_bytes_each=*/9);
    if (io.Extension(!m.plan.empty())) {
      io.String(m.plan);
      io.Check([&] { return !m.plan.empty(); });
    }
  }
};

template <>
struct Layout<ServeStatsRequest> {
  static constexpr MessageType kType = MessageType::kServeStatsRequest;
  static constexpr const char* kName = "ServeStatsRequest";
  static void Walk(auto&, auto&) {}
};

template <>
struct Layout<serve::ServeStats> {
  static constexpr MessageType kType = MessageType::kServeStatsResponse;
  static constexpr const char* kName = "ServeStatsResponse";
  static void Walk(auto& io, auto& s) {
    io.Varint(s.submitted);
    io.Varint(s.admitted);
    io.Varint(s.completed);
    io.Varint(s.cache_hits);
    io.Varint(s.cache_misses);
    io.Varint(s.cache_evictions);
    io.Varint(s.shed_queue_full);
    io.Varint(s.shed_deadline);
    io.Varint(s.expired_in_queue);
    io.Varint(s.degraded);
    io.Varint(s.batches);
    io.Varint(s.batched_queries);
    io.Varint(s.queue_depth);
    io.Varint(s.epoch);
    io.Varint(s.bytes_resident);
    io.Varint(s.bytes_mapped);
    io.Varint(s.latency.count);  // the snapshot's sum stays home
    io.F64(s.latency.mean);
    io.Varint(s.latency.p50);
    io.Varint(s.latency.p95);
    io.Varint(s.latency.p99);
    io.Varint(s.latency.max);
    io.Varint(s.hedges_fired);
    io.Varint(s.hedge_wins);
    io.Varint(s.failovers);
    io.Varint(s.epoch_changes);
    io.Varint(s.cache_warmed);
    io.Varint(s.stale_served);
    // The federated block is written only once the frontend has served
    // federated traffic, so an idle upgraded server still encodes
    // byte-identically to a pre-federation build, and a frame without
    // it decodes with the block zeroed. A pre-extension client fails
    // closed on the block: it predates the version scheme.
    if (io.Extension(s.federated_queries != 0 ||
                     s.federated_filter_docs != 0 ||
                     s.federated_text_us != 0 ||
                     s.federated_webspace_us != 0 ||
                     s.federated_cobra_us != 0 ||
                     !s.last_federated_plan.empty())) {
      io.Varint(s.federated_queries);
      io.Varint(s.federated_filter_docs);
      io.Varint(s.federated_text_us);
      io.Varint(s.federated_webspace_us);
      io.Varint(s.federated_cobra_us);
      io.String(s.last_federated_plan, kMaxErrorMessageBytes);
    }
  }
};

template <>
struct Layout<InsertRequest> {
  static constexpr MessageType kType = MessageType::kInsertRequest;
  static constexpr const char* kName = "InsertRequest";
  static void Walk(auto& io, auto& m) {
    io.Varint(m.node_id);
    io.String(m.url);
    io.String(m.text);
  }
};

template <>
struct Layout<InsertResponse> {
  static constexpr MessageType kType = MessageType::kInsertResponse;
  static constexpr const char* kName = "InsertResponse";
  static void Walk(auto& io, auto& m) {
    io.Varint(m.node_id);
    io.Varint(m.doc_id);
    io.Varint(m.epoch);
    io.Walk(m.delta);
  }
};

template <>
struct Layout<DeleteRequest> {
  static constexpr MessageType kType = MessageType::kDeleteRequest;
  static constexpr const char* kName = "DeleteRequest";
  static void Walk(auto& io, auto& m) {
    io.Varint(m.node_id);
    io.String(m.url);
  }
};

template <>
struct Layout<DeleteResponse> {
  static constexpr MessageType kType = MessageType::kDeleteResponse;
  static constexpr const char* kName = "DeleteResponse";
  static void Walk(auto& io, auto& m) {
    io.Varint(m.node_id);
    io.Bool(m.found);
    io.Varint(m.epoch);
    io.Walk(m.delta);
    // A delete that found nothing changed no statistics.
    io.Check([&] { return m.found || m.delta == ingest::StatsDelta{}; });
  }
};

template <>
struct Layout<MergeRequest> {
  static constexpr MessageType kType = MessageType::kMergeRequest;
  static constexpr const char* kName = "MergeRequest";
  static void Walk(auto& io, auto& m) { io.Varint(m.node_id); }
};

template <>
struct Layout<MergeResponse> {
  static constexpr MessageType kType = MessageType::kMergeResponse;
  static constexpr const char* kName = "MergeResponse";
  static void Walk(auto& io, auto& m) {
    io.Varint(m.node_id);
    io.Varint(m.epoch);
    io.Varint(m.merges);
  }
};

template <typename M>
Result<std::vector<uint8_t>> Encode(const M& message) {
  FrameWriter w(Layout<M>::kType);
  w.Walk(message);
  return w.Finish();
}

template <typename M>
Status DecodeInto(const uint8_t* body, size_t len, M* message) {
  BodyReader r(body, len, Layout<M>::kName);
  r.Walk(*message);
  return r.Finish();
}

template <typename M>
Result<M> Decode(const uint8_t* body, size_t len) {
  M message;
  DLS_RETURN_IF_ERROR(DecodeInto(body, len, &message));
  return message;
}

}  // namespace

// The infallible encoders' messages are bounded: flat scalars, capped
// strings or no body always fit the frame cap.

Result<std::vector<uint8_t>> EncodeQueryRequest(const QueryRequest& request) {
  return Encode(request);
}

Result<std::vector<uint8_t>> EncodeQueryResponse(
    const QueryResponse& response) {
  return Encode(response);
}

std::vector<uint8_t> EncodeStatsRequest(const StatsRequest& request) {
  return Encode(request).value();
}

Result<std::vector<uint8_t>> EncodeStatsResponse(
    const StatsResponse& response) {
  return Encode(response);
}

std::vector<uint8_t> EncodeError(const Status& status) {
  return Encode(status).value();
}

Result<std::vector<uint8_t>> EncodeSearchRequest(
    const SearchRequest& request) {
  return Encode(request);
}

Result<std::vector<uint8_t>> EncodeSearchResponse(
    const SearchResponse& response) {
  return Encode(response);
}

std::vector<uint8_t> EncodeServeStatsRequest(const ServeStatsRequest& request) {
  return Encode(request).value();
}

std::vector<uint8_t> EncodeServeStatsResponse(const serve::ServeStats& stats) {
  return Encode(stats).value();
}

Result<std::vector<uint8_t>> EncodeInsertRequest(const InsertRequest& request) {
  return Encode(request);
}

Result<std::vector<uint8_t>> EncodeInsertResponse(
    const InsertResponse& response) {
  return Encode(response);
}

Result<std::vector<uint8_t>> EncodeDeleteRequest(const DeleteRequest& request) {
  return Encode(request);
}

Result<std::vector<uint8_t>> EncodeDeleteResponse(
    const DeleteResponse& response) {
  return Encode(response);
}

std::vector<uint8_t> EncodeMergeRequest(const MergeRequest& request) {
  return Encode(request).value();
}

std::vector<uint8_t> EncodeMergeResponse(const MergeResponse& response) {
  return Encode(response).value();
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
  if (raw < static_cast<uint8_t>(MessageType::kQueryRequest) ||
      raw > static_cast<uint8_t>(MessageType::kMergeResponse)) {
    return Truncated("message type");
  }
  *type = static_cast<MessageType>(raw);
  *body = frame.data() + kFrameHeaderBytes + 1;
  *body_len = payload - 1;
  return Status::Ok();
}

Result<QueryRequest> DecodeQueryRequest(const uint8_t* body, size_t len) {
  return Decode<QueryRequest>(body, len);
}

Result<QueryResponse> DecodeQueryResponse(const uint8_t* body, size_t len) {
  return Decode<QueryResponse>(body, len);
}

Result<StatsRequest> DecodeStatsRequest(const uint8_t* body, size_t len) {
  return Decode<StatsRequest>(body, len);
}

Result<StatsResponse> DecodeStatsResponse(const uint8_t* body, size_t len) {
  return Decode<StatsResponse>(body, len);
}

Result<SearchRequest> DecodeSearchRequest(const uint8_t* body, size_t len) {
  return Decode<SearchRequest>(body, len);
}

Result<SearchResponse> DecodeSearchResponse(const uint8_t* body, size_t len) {
  return Decode<SearchResponse>(body, len);
}

Result<ServeStatsRequest> DecodeServeStatsRequest(const uint8_t* body,
                                                  size_t len) {
  return Decode<ServeStatsRequest>(body, len);
}

Result<serve::ServeStats> DecodeServeStatsResponse(const uint8_t* body,
                                                   size_t len) {
  return Decode<serve::ServeStats>(body, len);
}

Result<InsertRequest> DecodeInsertRequest(const uint8_t* body, size_t len) {
  return Decode<InsertRequest>(body, len);
}

Result<InsertResponse> DecodeInsertResponse(const uint8_t* body, size_t len) {
  return Decode<InsertResponse>(body, len);
}

Result<DeleteRequest> DecodeDeleteRequest(const uint8_t* body, size_t len) {
  return Decode<DeleteRequest>(body, len);
}

Result<DeleteResponse> DecodeDeleteResponse(const uint8_t* body, size_t len) {
  return Decode<DeleteResponse>(body, len);
}

Result<MergeRequest> DecodeMergeRequest(const uint8_t* body, size_t len) {
  return Decode<MergeRequest>(body, len);
}

Result<MergeResponse> DecodeMergeResponse(const uint8_t* body, size_t len) {
  return Decode<MergeResponse>(body, len);
}

Status DecodeError(const uint8_t* body, size_t len) {
  Status carried;  // never ok: the walk reads wire code 0 as kInternal
  DLS_RETURN_IF_ERROR(DecodeInto(body, len, &carried));
  return carried;
}

}  // namespace dls::net
