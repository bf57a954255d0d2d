#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Tracing from outside the program: decorators on the public virtual
// seams (serve::Backend, net::Transport, ShardServer::HandleFrame)
// record spans while the tracer is enabled, and Analyze() links them
// into per-request layer breakdowns. The program carries no request
// ids, so spans are linked by content:
//   - a request frame's bytes link a client exchange to the server's
//     HandleFrame (same shard, same frame hash, nested in time);
//   - the stems decoded from a QueryRequest frame link the exchange to
//     the backend batch that carried the query;
//   - the query words link a batch to the client Search it answered.
// Disabled decorators forward without recording, so untraced runs pay
// one virtual call per seam crossing.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness.h"
#include "net/shard_server.h"
#include "net/transport.h"
#include "serve/backend.h"

namespace perfbench {

enum class SpanKind : uint8_t {
  kSearch,    ///< client: one Frontend::Search
  kWrite,     ///< client: one RemoteClusterIndex Insert/Delete/MergeAll
  kBatch,     ///< serve: one Backend::QueryBatch
  kExchange,  ///< net: one Transport::Call
  kHandle,    ///< shard: one ShardServer::HandleFrame
  kEpoch,     ///< serve: one Backend::Epoch call (an instant)
};

struct Span {
  SpanKind kind = SpanKind::kSearch;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t thread = 0;
  int32_t shard = -1;       ///< exchange/handle: shard index
  uint8_t frame_type = 0;   ///< exchange/handle: request frame type
  uint64_t frame_hash = 0;  ///< exchange/handle: hash of the request bytes
  uint64_t bytes = 0;       ///< exchange: request + response frame bytes
  int64_t op = -1;          ///< client spans: index in the op sequence
  /// Search: the query words. Batch: one entry per query, its words
  /// joined by '\x1f'.
  std::vector<std::string> words;
  /// Exchange carrying a QueryRequest: the request frame, decoded at
  /// analysis time rather than on the request path.
  std::vector<uint8_t> frame;
};

/// The in-memory span store. Spans are appended under a mutex (the
/// spans are milliseconds apart; the lock is never contended for long)
/// and taken out once the run ends.
class SpanLog {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  void Add(Span span);
  std::vector<Span> Take();

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// The process-wide tracer the decorators record into.
SpanLog& Tracer();

/// Small stable id of the calling thread.
uint32_t ThreadTag();

/// Transport decorator: one kExchange span per Call().
class TracedTransport final : public dls::net::Transport {
 public:
  TracedTransport(std::unique_ptr<dls::net::Transport> inner, int shard)
      : inner_(std::move(inner)), shard_(shard) {}

  dls::Result<std::vector<uint8_t>> Call(
      const std::vector<uint8_t>& request_frame,
      dls::Deadline deadline) override;

 private:
  std::unique_ptr<dls::net::Transport> inner_;
  int shard_;
};

/// ShardServer with a timed HandleFrame: one kHandle span per frame.
class TracedShardServer final : public dls::net::ShardServer {
 public:
  explicit TracedShardServer(int shard) : shard_(shard) {}
  ~TracedShardServer() override { Stop(); }

  dls::Result<std::vector<uint8_t>> HandleFrame(
      const std::vector<uint8_t>& frame) const override;

 private:
  int shard_;
};

/// Work counters of one query, read back from ClusterQueryStats.
struct QueryWork {
  uint64_t postings = 0;
  uint64_t blocks_decoded = 0;
  uint64_t blocks_skipped = 0;
};

/// Backend decorator: one kBatch span per QueryBatch, the per-query
/// work accounting of traced batches keyed by the query's words, and a
/// kEpoch instant per Epoch() call — a frontend worker reads the epoch
/// as it starts a batch, the only batch-start mark a federated query
/// (evaluated by the mediator, not through QueryBatch) leaves here.
class TracedBackend final : public dls::serve::Backend {
 public:
  explicit TracedBackend(const dls::serve::Backend* inner) : inner_(inner) {}

  uint64_t Epoch() const override;
  bool NormStem() const override { return inner_->NormStem(); }
  bool NormStop() const override { return inner_->NormStop(); }
  uint64_t BytesResident() const override { return inner_->BytesResident(); }
  uint64_t BytesMapped() const override { return inner_->BytesMapped(); }

  std::vector<std::vector<dls::ir::ClusterScoredDoc>> QueryBatch(
      const std::vector<std::vector<std::string>>& queries, size_t n,
      size_t max_fragments, dls::ir::ClusterQueryStats* stats,
      std::vector<dls::ir::ClusterQueryStats>* per_query_stats,
      const dls::ir::RankOptions& options) const override;

  /// Work of the most recent traced evaluation of `words`, if any.
  bool WorkOf(const std::vector<std::string>& words, QueryWork* work) const;

 private:
  const dls::serve::Backend* inner_;
  mutable std::mutex work_mu_;
  mutable std::map<std::string, QueryWork> work_;
};

/// Joins words with '\x1f' (the key of a query in spans and work maps).
std::string JoinWords(const std::vector<std::string>& words);

/// Records a client span (kSearch with its words, or kWrite) when the
/// tracer is enabled.
void RecordClientSpan(SpanKind kind, int64_t op, int64_t start_ns,
                      int64_t end_ns, const std::vector<std::string>& words);

/// ir.postings_per_query, ir.blocks_decoded_per_query and
/// ir.blocks_skipped_per_query: the mean work of the given queries'
/// traced evaluations (queries the backend never evaluated are skipped).
void FillWorkLayer(const TracedBackend& backend,
                   const std::vector<const std::vector<std::string>*>& queries,
                   Metrics* m);

/// Per-request layer breakdown of the traced client searches, as means
/// in milliseconds over every traced search (cache hits included, with
/// their whole latency in serve). For every request
///   latency = serve_self + stats_refresh + coord + wire + shard,
/// where wire and shard sum over the critical path of the batch's
/// query exchanges.
struct Breakdown {
  size_t searches = 0;
  size_t linked = 0;  ///< searches answered by a linked backend batch
  double latency_ms = 0;
  double serve_self_ms = 0;
  double queue_wait_ms = 0;
  double stats_refresh_ms = 0;
  double coord_ms = 0;
  double wire_ms = 0;
  double shard_ms = 0;

  /// Stats handshakes inside batches: count and mean duration.
  size_t refreshes = 0;
  double refresh_each_ms = 0;

  /// Every traced exchange: frames (request + response) and bytes.
  uint64_t frames = 0;
  uint64_t bytes = 0;

  /// Server HandleFrame time by request frame type: Σ ms and count.
  std::map<uint8_t, std::pair<double, size_t>> handle_by_type;

  /// Exchanges whose server span or batch could not be linked.
  size_t unlinked_exchanges = 0;

  /// Per span: the index of the span that caused it (handle -> exchange
  /// -> batch -> search), or -1 when it is a root or was not linked.
  std::vector<int64_t> parent;
};

Breakdown Analyze(const std::vector<Span>& spans, bool norm_stem,
                  bool norm_stop);

/// The breakdown's per-layer metrics over a phase of `ops` operations:
/// serve.queue_wait_ms, serve.self_ms, net.*_ms, net.*_per_op and
/// ir.shard_eval_ms.
void FillTraceLayers(const Breakdown& bd, double ops, Metrics* m);

/// Writes spans as JSON lines (id, parent, name, start, end, thread,
/// shard, frame type, op) to `path`; returns false on I/O failure.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                const std::vector<int64_t>& parent);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
