#ifndef DLS_NET_WIRE_H_
#define DLS_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "ingest/live_index.h"
#include "ir/cluster.h"
#include "serve/serve_stats.h"

namespace dls::net {

/// Framed binary wire format of the shard RPC protocol.
///
/// A frame is
///
///   [u32 LE payload length][payload]
///   payload = [u8 MessageType][body]
///
/// and the body is a flat LEB128-varint encoding (the same 7-bits-per-
/// byte scheme as the posting codec, src/ir/codec.h) of one of the
/// message structs below:
///
///   type              body
///   1 QueryRequest    node_id, then a batch of ShardQuery: per query
///                     n, max_fragments, threshold(f64), lambda(f64),
///                     kernel(u8), prune(u8), strategy(u8),
///                     collection_length, and the resolved stems each
///                     with its global df
///   2 QueryResponse   node_id, then one ShardResult per request
///                     query: RES(url, score(f64)) tuples, work
///                     accounting (ir::RankStats, five varints),
///                     elapsed_us and the stem_evaluated bitmap
///   3 StatsRequest    node_id — asks a node for its local statistics
///   4 StatsResponse   node_id, the node's normalisation flags
///                     (stem/stop), collection_length, document count,
///                     mutation epoch, the node's running work total
///                     (row 2's five varints) and the full (term, df)
///                     table, which is what the client aggregates into
///                     the global df relation
///   5 Error           status code + message (the server's reply to a
///                     frame it cannot parse or serve). Codes travel
///                     as stable wire values (see wire.cc) that are
///                     independent of the C++ StatusCode enum order;
///                     a value this build doesn't know degrades to
///                     kInternal instead of being misread.
///   6 SearchRequest   a client query for the serving frontend
///                     (src/serve): raw unnormalised words, n,
///                     max_fragments, a deadline budget in ms and the
///                     RankOptions — the frontend normalises, caches,
///                     batches and schedules; the client never speaks
///                     to shards directly.
///   7 SearchResponse  the frontend's answer: an admission status
///                     (kUnavailable = shed, with a retry-after hint),
///                     cache-hit/degraded flags, predicted quality and
///                     the ranked RES(url, score) tuples.
///   8 ServeStatsRequest   asks a FrontendServer for its ServeStats.
///   9 ServeStatsResponse  serve::ServeStats whole: admission, cache,
///                     shed, batching, routing and warm-path counters,
///                     queue depth, epoch, index footprint and the
///                     latency snapshot (without its sum), then the
///                     federated block as a versioned trailing
///                     extension, written only once the frontend has
///                     served federated traffic.
///   10 InsertRequest  live ingestion (src/ingest): adds a document
///                     (url, text) to the LiveIndex behind a *live*
///                     node. Frozen nodes answer kUnsupported.
///   11 InsertResponse the assigned global document id, the epoch the
///                     mutation published, and its statistics delta
///                     (ingest::StatsDelta): the document length, then
///                     a count and the document's distinct stems in
///                     strictly ascending order, each of whose df rose
///                     by one. The centre applies it to its global
///                     statistics, so no stats handshake follows.
///   12 DeleteRequest  tombstones the live document named `url`.
///   13 DeleteResponse whether a live document was found, the new epoch
///                     (unchanged when not found), and the statistics
///                     delta in row 11's encoding, each of whose stems
///                     lost one df (empty when not found).
///   14 MergeRequest   asks a live node to pack its delta tier into a
///                     frozen run (synchronous; queries keep serving
///                     off pinned snapshots throughout).
///   15 MergeResponse  the post-merge epoch and the node's cumulative
///                     merge count.
///
/// Integers are varints (u32 capped at 5 bytes, u64 at 10); doubles
/// are their IEEE-754 bit pattern as 8 explicit little-endian bytes,
/// so scores survive the wire bit-exactly — the remote/in-process
/// bit-identity contract depends on it. Strings are varint length +
/// raw bytes.
///
/// Each body's field order is written once, as one Layout<M>::Walk in
/// wire.cc: the encoder writes each field the walk visits, and the
/// decoder reads each one back and applies the walk's checks. A field
/// added to a frame is one line there.
///
/// Decoding never trusts the peer: every read is bounds-checked,
/// varints reject overlong encodings, counts are validated against the
/// bytes that could possibly back them, and any violation surfaces as
/// a clean Status (kCorruption) — a truncated or corrupt frame must
/// never become UB (tests/net/wire_test.cc fuzzes this).

/// Upper bound BOTH sides enforce on the payload length: a receiver
/// rejects a larger prefix before allocating (a garbage length must
/// not OOM the process), and the fallible encoders refuse to build a
/// larger frame (kUnsupported) instead of shipping one the peer would
/// misdiagnose as corruption. In practice only EncodeStatsResponse
/// can get here — it carries the full (term, df) table, so a node's
/// vocabulary is capped at roughly kMaxFramePayloadBytes / (stem
/// length + 3) terms, a few million for English-like vocabularies.
inline constexpr uint32_t kMaxFramePayloadBytes = 64u << 20;

/// Bytes of the frame length prefix.
inline constexpr size_t kFrameHeaderBytes = 4;

enum class MessageType : uint8_t {
  kQueryRequest = 1,
  kQueryResponse = 2,
  kStatsRequest = 3,
  kStatsResponse = 4,
  kError = 5,
  kSearchRequest = 6,
  kSearchResponse = 7,
  kServeStatsRequest = 8,
  kServeStatsResponse = 9,
  kInsertRequest = 10,
  kInsertResponse = 11,
  kDeleteRequest = 12,
  kDeleteResponse = 13,
  kMergeRequest = 14,
  kMergeResponse = 15,
};

/// A batch of resolved queries pushed to one node. `node_id` addresses
/// the node on a server hosting several (a ShardServer is a process;
/// nodes are its shards).
struct QueryRequest {
  uint32_t node_id = 0;
  std::vector<ir::ShardQuery> queries;
};

/// One ShardResult per query of the request batch, in request order.
struct QueryResponse {
  uint32_t node_id = 0;
  std::vector<ir::ShardResult> results;
};

struct StatsRequest {
  uint32_t node_id = 0;
};

/// A node's local term statistics — the client-side aggregate over all
/// nodes reproduces ClusterIndex::Finalize()'s global df relation —
/// plus the normalisation configuration its index was built with, so
/// the client resolves query words through the identical pipeline
/// (and can refuse a cluster whose shards disagree).
struct StatsResponse {
  uint32_t node_id = 0;
  bool stem = true;  ///< Porter stemming applied at indexing time
  bool stop = true;  ///< stopwords dropped at indexing time
  int64_t collection_length = 0;
  uint64_t document_count = 0;
  /// The node index's mutation_epoch() at handshake time. The client
  /// sums these into a cluster epoch — the invalidation key the
  /// serving layer's result cache uses (stale after any reindex).
  uint64_t mutation_epoch = 0;
  /// The node's running work total over every query this server has
  /// evaluated against it since it started, copied whole under the
  /// node's lock, so its counters all cover the same served batches —
  /// the remote counterpart of summing ClusterQueryStats across
  /// queries, without shipping a frame per probe. Encoded as a
  /// ShardResult's work is.
  ir::RankStats work;
  std::vector<std::pair<std::string, int32_t>> term_dfs;
};

/// A client query for the serving frontend. Words are raw — the
/// frontend normalises them with the pipeline its backend advertises,
/// exactly as the central server does — and `deadline_ms` is the
/// client's whole-request budget (0 = the frontend's default); the
/// frontend rejects at admission (kUnavailable in the response status)
/// any request it provably cannot answer in time.
/// RankOptions::shared_threshold is an in-process execution policy and
/// deliberately not part of the wire contract.
struct SearchRequest {
  std::vector<std::string> words;
  uint64_t n = 10;
  uint64_t max_fragments = 1;
  uint32_t deadline_ms = 0;
  ir::RankOptions options;
  /// Federated query (src/federate query language), empty for a plain
  /// word query. Carried in a *versioned trailing extension*: encoders
  /// append [u8 ext_version=1][string] only when non-empty, so old
  /// frames (no extension bytes) still decode, and an old decoder
  /// rejects extended frames cleanly rather than misparsing them. A
  /// decoder seeing ext_version > 1 answers kFeatureUnsupported — the
  /// peer is from the future, the bytes are not corrupt.
  std::string structured;
};

/// The frontend's answer. `status` is kOk for an answered query and an
/// error for a shed one (kUnavailable with `retry_after_ms` when the
/// queue or deadline budget rejects at admission, kDeadlineExceeded
/// when the request expired while queued). Shedding is a protocol-
/// level answer, not a transport failure — the connection stays up.
struct SearchResponse {
  Status status;
  uint32_t retry_after_ms = 0;
  bool cache_hit = false;
  bool degraded = false;
  double predicted_quality = 1.0;
  std::vector<ir::ClusterScoredDoc> results;
  /// Executed federation plan (empty for plain word queries). Same
  /// versioned-trailing-extension scheme as SearchRequest::structured.
  std::string plan;
};

/// Live-ingestion mutations (src/ingest). A mutation frame addresses
/// one node like a query does; the node must have been registered live
/// (ShardServer::AddLiveNode) — frozen nodes refuse with kUnsupported.
struct InsertRequest {
  uint32_t node_id = 0;
  std::string url;
  std::string text;
};

struct InsertResponse {
  uint32_t node_id = 0;
  uint64_t doc_id = 0;  ///< assigned global id (insertion order)
  uint64_t epoch = 0;   ///< the epoch this insert published
  ingest::StatsDelta delta;  ///< df +1 per stem, length added
};

struct DeleteRequest {
  uint32_t node_id = 0;
  std::string url;
};

struct DeleteResponse {
  uint32_t node_id = 0;
  bool found = false;  ///< a live document had the url and was hidden
  uint64_t epoch = 0;  ///< current epoch (bumped iff found)
  ingest::StatsDelta delta;  ///< df -1 per stem, length removed
};

struct MergeRequest {
  uint32_t node_id = 0;
};

struct MergeResponse {
  uint32_t node_id = 0;
  uint64_t epoch = 0;   ///< the epoch the merge swap published
  uint64_t merges = 0;  ///< cumulative merges on the node
};

struct ServeStatsRequest {};

/// Encoders return a complete frame: length prefix, type byte, body.
/// The unbounded messages are fallible: a frame whose payload would
/// exceed kMaxFramePayloadBytes is refused with kUnsupported (naming
/// the cap) rather than emitted for the peer to reject as corruption.
/// StatsRequest and Error frames are bounded by construction (Error
/// messages are truncated to fit) and stay infallible.
Result<std::vector<uint8_t>> EncodeQueryRequest(const QueryRequest& request);
Result<std::vector<uint8_t>> EncodeQueryResponse(
    const QueryResponse& response);
std::vector<uint8_t> EncodeStatsRequest(const StatsRequest& request);
Result<std::vector<uint8_t>> EncodeStatsResponse(
    const StatsResponse& response);
std::vector<uint8_t> EncodeError(const Status& status);
Result<std::vector<uint8_t>> EncodeSearchRequest(const SearchRequest& request);
Result<std::vector<uint8_t>> EncodeSearchResponse(
    const SearchResponse& response);
std::vector<uint8_t> EncodeServeStatsRequest(const ServeStatsRequest& request);
std::vector<uint8_t> EncodeServeStatsResponse(
    const serve::ServeStats& stats);  ///< bounded: always fits
/// Mutation frames: the requests carry caller-sized strings and the
/// insert/delete responses a document's stems, so all four are
/// fallible like the query frames; the merge frames are flat scalars.
Result<std::vector<uint8_t>> EncodeInsertRequest(const InsertRequest& request);
Result<std::vector<uint8_t>> EncodeInsertResponse(
    const InsertResponse& response);
Result<std::vector<uint8_t>> EncodeDeleteRequest(const DeleteRequest& request);
Result<std::vector<uint8_t>> EncodeDeleteResponse(
    const DeleteResponse& response);
std::vector<uint8_t> EncodeMergeRequest(const MergeRequest& request);
std::vector<uint8_t> EncodeMergeResponse(const MergeResponse& response);

/// Splits a complete frame into (type, body) after validating the
/// length prefix against the actual size and the payload cap.
/// `body`/`body_len` alias into `frame`.
Status DecodeFrame(const std::vector<uint8_t>& frame, MessageType* type,
                   const uint8_t** body, size_t* body_len);

/// Body decoders (input: the body span DecodeFrame produced).
Result<QueryRequest> DecodeQueryRequest(const uint8_t* body, size_t len);
Result<QueryResponse> DecodeQueryResponse(const uint8_t* body, size_t len);
Result<StatsRequest> DecodeStatsRequest(const uint8_t* body, size_t len);
Result<StatsResponse> DecodeStatsResponse(const uint8_t* body, size_t len);
Result<SearchRequest> DecodeSearchRequest(const uint8_t* body, size_t len);
Result<SearchResponse> DecodeSearchResponse(const uint8_t* body, size_t len);
Result<ServeStatsRequest> DecodeServeStatsRequest(const uint8_t* body,
                                                  size_t len);
Result<serve::ServeStats> DecodeServeStatsResponse(const uint8_t* body,
                                                   size_t len);
Result<InsertRequest> DecodeInsertRequest(const uint8_t* body, size_t len);
Result<InsertResponse> DecodeInsertResponse(const uint8_t* body, size_t len);
Result<DeleteRequest> DecodeDeleteRequest(const uint8_t* body, size_t len);
Result<DeleteResponse> DecodeDeleteResponse(const uint8_t* body, size_t len);
Result<MergeRequest> DecodeMergeRequest(const uint8_t* body, size_t len);
Result<MergeResponse> DecodeMergeResponse(const uint8_t* body, size_t len);
/// Decodes an Error body into the Status it carries (an error status
/// even if the peer encoded kOk — an Error frame is never a success).
Status DecodeError(const uint8_t* body, size_t len);

}  // namespace dls::net

#endif  // DLS_NET_WIRE_H_
