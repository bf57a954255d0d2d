#ifndef DLS_NET_REMOTE_CLUSTER_H_
#define DLS_NET_REMOTE_CLUSTER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <numeric>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "ingest/live_index.h"
#include "ir/cluster.h"
#include "ir/index.h"
#include "net/transport.h"

namespace dls {
class ThreadPool;
}  // namespace dls

namespace dls::net {

/// The central server of the distributed index over the shard RPC
/// protocol: ir::CoordinateBatch with a shard call (CallShard) that
/// ships the batch to a replica set — the coordinator ir::ClusterIndex
/// runs with in-process node calls.
///
/// Each shard is a *replica set*: one or more (Transport, node_id)
/// addresses serving byte-identical copies of the same node — one
/// TcpTransport per remote process, or LoopbackTransports onto an
/// in-process ShardServer for deterministic tests. Connect() runs the
/// stats handshake against every replica (all must be reachable and
/// agree — a cluster that *starts* degraded or inconsistent is a
/// deployment error) and aggregates every shard's (term, df) table
/// into the global vocabulary, after which QueryBatch() resolves and
/// coordinates exactly like the in-process path — both sides share
/// ir::ResolveShardQuery, ir::CoordinateBatch and (on the node)
/// ir::EvaluateShardQuery, and the wire round-trips scores bit-exactly,
/// so a healthy cluster returns bit-identical rankings and work
/// counters remote and in-process (tests/net/remote_cluster_test.cc
/// holds it to that). Live mutations routed through the centre keep
/// those global statistics exact without another handshake: each
/// acknowledgement carries the exact statistics delta of its mutation,
/// which the centre applies before the call returns (see "live
/// ingestion routing" below).
///
/// Replica routing: every shard call walks the shard's replicas in
/// health order — ascending EWMA latency, penalised by EWMA error rate
/// — and the whole walk repeats Options::retries extra times, so a
/// single-replica shard degenerates to the old timeout+retry loop. A
/// failed attempt (transport error, undecodable frame, or an Error
/// frame from the peer) *fails over* to the next replica in the walk.
/// Because rankings are bit-identical across replicas, failover and
/// hedging cannot change an answer — only whether one arrives, and how
/// fast.
///
/// Hedging: once a shard's latency window is primed, an attempt that
/// outlives the rolling p95 budget fires the next replica in the walk
/// without cancelling the first; the first well-formed answer wins and
/// the loser is ignored (its late completion only updates replica
/// health). At most two attempts are in flight per call. The
/// destructor waits for stray losers, so no call outlives the index.
///
/// Failure semantics: every attempt gets Options::timeout_ms (a fresh
/// attempt reconnects a poisoned TcpTransport connection), and a shard
/// whose walk is exhausted is dropped from the query: the merge
/// proceeds over the surviving nodes and
/// ClusterQueryStats.predicted_quality is scaled by the surviving
/// document share — graceful degradation instead of a failed query.
/// Shard document counts come from the Connect() handshake and then
/// from the mutation acknowledgements.
///
/// ClusterQueryStats.messages / bytes_shipped report the *actual
/// encoded frames*: one message and its byte size per request frame
/// handed to a transport (retries and hedges included) and per
/// response frame received — identical accounting on loopback and TCP.
/// A hedge loser's response that lands after the winner was taken is
/// not counted (nobody read it).
///
/// Thread-safety: after Connect(), concurrent Query()/QueryBatch()
/// calls are safe, also beside Insert()/Delete()/MergeAll()
/// (transports serialise internally; result slots are per-shard and
/// per-call; health state is internally locked; a query resolves and
/// aggregates under one shared lock on the global statistics, which a
/// mutation updates under the unique lock).
class RemoteClusterIndex {
 public:
  /// One remote replica: which transport to dial and which node id it
  /// is on its server (a ShardServer can host several). Transports are
  /// non-owning.
  struct Shard {
    Transport* transport = nullptr;
    uint32_t node_id = 0;
  };

  /// One shard's replica set. Every replica must serve the same frozen
  /// node content (same documents, same index options) — that is what
  /// makes failover and hedging exactness-safe; Connect() cross-checks
  /// the replicas' advertised statistics against each other.
  struct ReplicaSet {
    std::vector<Shard> replicas;
  };

  struct Options {
    int timeout_ms = 1000;  ///< per-attempt deadline
    /// Extra passes over the health-ordered replica walk after the
    /// first all fails; with one replica this is exactly the old
    /// per-shard retry count.
    int retries = 1;

    // ---- hedging ---------------------------------------------------
    /// Master switch for tail-latency hedging (failover is always on).
    bool hedge = true;
    /// Fixed budget override in µs (0 = rolling p95). Tests use this
    /// to make hedges fire deterministically without priming.
    int64_t hedge_budget_us = 0;
  };

  /// Cumulative routing counters since construction (relaxed reads —
  /// monitoring, not synchronisation).
  struct ReplicaCounters {
    uint64_t hedges_fired = 0;   ///< attempts launched past the budget
    uint64_t hedge_wins = 0;     ///< hedged attempts that answered first
    uint64_t failovers = 0;      ///< failures moved to another replica
    uint64_t replica_errors = 0; ///< failed attempts, all causes
  };

  /// Single-replica convenience: each Shard becomes a one-replica set.
  explicit RemoteClusterIndex(std::vector<Shard> shards);
  RemoteClusterIndex(std::vector<Shard> shards, Options options);
  RemoteClusterIndex(std::vector<ReplicaSet> shards, Options options);
  /// Waits for in-flight hedge losers before tearing down.
  ~RemoteClusterIndex();

  /// Stats handshake: fetches every replica's local statistics,
  /// aggregates the global df table, collection length and per-shard
  /// document counts, and holds each shard's replicas to identical
  /// document counts / collection lengths / epochs. Also adopts the
  /// shards' advertised normalisation configuration (stem/stop) for
  /// query resolution, and fails with kInvalidArgument if the shards
  /// disagree among themselves — a mixed-pipeline cluster would
  /// silently resolve different stems than its nodes indexed. Fails if
  /// any replica is unreachable — a cluster that starts degraded is a
  /// deployment error, unlike one that degrades under load. A shard
  /// advertising a negative collection length, or statistics whose
  /// sums overflow, fails it with kCorruption naming the shard. A
  /// failed handshake leaves the previous statistics in place.
  Status Connect();

  /// Uses `pool` (non-owning, may be nullptr for sequential) to fan
  /// out per-shard calls.
  void SetExecutor(ThreadPool* pool);

  /// Creates and owns an internal pool of `num_threads` workers and
  /// uses it as the executor.
  void EnableParallelism(size_t num_threads);

  size_t num_shards() const { return shards_.size(); }
  size_t num_replicas(size_t shard) const {
    return shards_[shard].replicas.size();
  }
  uint64_t document_count() const {
    std::shared_lock<std::shared_mutex> lock(stats_mu_);
    return total_docs_;
  }
  int64_t global_collection_length() const {
    std::shared_lock<std::shared_mutex> lock(stats_mu_);
    return collection_length_;
  }
  /// Cluster-wide mutation epoch: the sum of every shard's mutation
  /// epoch — the remote mirror of ClusterIndex::mutation_epoch(), and
  /// the serving layer's cache invalidation key. Each shard's epoch
  /// comes from the handshake and then from every mutation routed
  /// through this index, which advances it before returning; a shard
  /// reindexed behind the centre's back is observed by re-running
  /// Connect().
  uint64_t cluster_epoch() const {
    std::shared_lock<std::shared_mutex> lock(stats_mu_);
    return std::accumulate(shard_epochs_.begin(), shard_epochs_.end(),
                           uint64_t{0});
  }
  /// Normalisation pipeline adopted from the handshake; the serving
  /// layer normalises cache keys through the identical pipeline.
  bool norm_stem() const {
    std::shared_lock<std::shared_mutex> lock(stats_mu_);
    return norm_stem_;
  }
  bool norm_stop() const {
    std::shared_lock<std::shared_mutex> lock(stats_mu_);
    return norm_stop_;
  }
  /// Collection-wide df of a stem (0 when absent). Valid after
  /// Connect().
  int32_t global_df(std::string_view stem) const;
  /// Stems in the global vocabulary (every one with df > 0).
  size_t vocabulary_size() const {
    std::shared_lock<std::shared_mutex> lock(stats_mu_);
    return global_df_.size();
  }

  ReplicaCounters replica_counters() const;

  // ---- live ingestion routing ---------------------------------------
  // When the shards host live nodes (ShardServer::AddLiveNode), the
  // centre routes mutations to the shard that owns the url — a stable
  // FNV-1a hash of the url modulo the shard count, so a document's
  // insert and delete always land on the same node — and applies each
  // mutation on EVERY replica of that shard, holding their returned
  // epochs, assigned ids and statistics deltas to agreement (a mismatch
  // is kInternal): replicas stay bit-identical copies, which is what
  // keeps failover and hedging exactness-safe. Mutations are never
  // hedged, failed over or retried: they are not idempotent, so each
  // replica gets each mutation once. A replica that cannot be reached,
  // or whose acknowledgement is lost, fails the call and may leave the
  // set diverged; the centre's statistics stay as they were. Once
  // every replica has acknowledged, the centre applies the mutation's
  // exact statistics delta (ingest::StatsDelta) to the global df
  // table, collection length, document counts and the shard's epoch —
  // all before the call returns, so the very next Query()/QueryBatch()
  // resolves against statistics bit-identical to a fresh Connect()
  // handshake, and a quiesced query to a from-scratch rebuild.

  /// The shard owning `url` under the mutation routing hash.
  size_t ShardForUrl(std::string_view url) const;

  /// Inserts (url, text) on every replica of the owning shard, then
  /// adds the document's statistics delta to the global statistics.
  /// Returns the assigned global document id (identical across
  /// replicas).
  Result<uint64_t> Insert(std::string_view url, std::string_view text);

  /// Tombstones the live document named `url` on every replica of the
  /// owning shard, then subtracts its statistics delta from the global
  /// statistics. Returns whether a live document was found.
  Result<bool> Delete(std::string_view url);

  /// Asks every replica of every shard to pack its delta tier into a
  /// frozen run. Queries keep serving off pinned snapshots throughout.
  /// A merge leaves effective statistics unchanged, so only the
  /// shards' epochs advance.
  Status MergeAll();

  /// Distributed top-N with per-node fragment cut-off: a one-query
  /// QueryBatch, with ClusterIndex::Query's arguments and semantics.
  std::vector<ir::ClusterScoredDoc> Query(
      const std::vector<std::string>& query_words, size_t n,
      size_t max_fragments, ir::ClusterQueryStats* stats = nullptr,
      const ir::RankOptions& options = {}) const;

  /// Batched execution through ir::CoordinateBatch: ships the whole
  /// batch in ONE request frame per shard and gets one response frame
  /// back, amortising a round-trip per node per query down to one per
  /// node. Without an executor the shards are called in turn and every
  /// pruned query gets threshold feedback, exactly as when it travels
  /// alone. Results are per query, in input order, each identical to
  /// what Query() on that query returns; `stats`, when given,
  /// aggregates over the batch, and `per_query_stats`, when given, is
  /// filled with one entry per query attributing that rider's own
  /// work, latency and quality (wire traffic and routing events are
  /// exchange-level and stay in the aggregate).
  std::vector<std::vector<ir::ClusterScoredDoc>> QueryBatch(
      const std::vector<std::vector<std::string>>& queries, size_t n,
      size_t max_fragments, ir::ClusterQueryStats* stats = nullptr,
      const ir::RankOptions& options = {},
      std::vector<ir::ClusterQueryStats>* per_query_stats = nullptr) const;

 private:
  /// Per-replica health, EWMA-smoothed; guarded by ShardState::mu.
  struct ReplicaHealth {
    double ewma_latency_us = 0;  ///< successful-call latency (0 = none yet)
    double ewma_error = 0;       ///< failure indicator in [0, 1]
    uint64_t samples = 0;
  };

  /// Mutable routing state of one shard.
  struct ShardState {
    mutable std::mutex mu;
    std::vector<ReplicaHealth> health;
    /// Rolling window of end-to-end successful exchange latencies (the
    /// winner's time, so hedges keep the budget honest instead of a
    /// slow replica inflating it); source of the hedge budget.
    std::array<uint32_t, 64> window_us{};
    size_t window_count = 0;
    size_t window_next = 0;
  };

  /// Completion channel between a caller and its attempts.
  struct HedgedCall;

  /// The stats handshake's and the mutations' exchange, which must hit
  /// every replica of `shard`, not any one of them: sends `request`
  /// (its node id filled in per replica) to each replica in order, up
  /// to `attempts` times each — never hedged, never failed over —
  /// decodes each answer as `Exchange` expects, and holds every other
  /// replica's answer to replica 0's (a disagreement returns
  /// Exchange::kDisagreement). Returns replica 0's answer.
  template <typename Exchange>
  Result<typename Exchange::Response> EveryReplicaExchange(
      size_t shard, typename Exchange::Request request, int attempts) const;

  /// Applies an acknowledged insert (`sign` +1) or delete (-1) on
  /// `shard`: each stem's global df moves by `sign` (a stem reaching 0
  /// leaves the table, as the handshake would omit it), and so do the
  /// collection length by the delta's length and the document counts
  /// by one. The shard's epoch advances to `epoch`. An ack whose
  /// statistics the centre's cannot hold is kCorruption naming the
  /// shard, and nothing is applied.
  Status ApplyStatsDelta(size_t shard, int sign,
                         const ingest::StatsDelta& delta, uint64_t epoch);

  /// Replica indices of `shard`, healthiest first.
  std::vector<size_t> HealthOrder(size_t shard) const;
  /// Hedge budget in µs, or -1 when hedging is not armed for the
  /// shard (disabled, single replica, or window not primed).
  int64_t HedgeBudgetUs(size_t shard) const;
  void RecordCallOutcome(size_t shard, size_t replica, bool ok,
                         double elapsed_us) const;
  void RecordExchangeLatency(size_t shard, double elapsed_us) const;

  /// One shard exchange over the replica walk: failover on failed
  /// attempts, hedging past the budget (armed, attempts run on their
  /// own threads; unarmed, on the caller's). `frames` holds one request
  /// frame per replica (replicas may address different node ids).
  /// Returns the winning well-formed non-Error frame, and adds the
  /// exchange's wire and routing counters to `exchange`.
  Result<std::vector<uint8_t>> HedgedExchange(
      size_t shard,
      const std::vector<std::shared_ptr<const std::vector<uint8_t>>>& frames,
      ir::ClusterQueryStats* exchange) const;

  /// Runs one attempt on the calling thread: calls the replica,
  /// records its health and lands the outcome in `state`.
  void RunAttempt(size_t shard, size_t replica,
                  const std::vector<uint8_t>& frame, bool is_hedge,
                  HedgedCall* state) const;
  /// Runs RunAttempt on a detached (but inflight-counted) thread.
  void StartAsyncAttempt(size_t shard, size_t replica,
                         std::shared_ptr<const std::vector<uint8_t>> frame,
                         bool is_hedge, std::shared_ptr<HedgedCall> state) const;

  /// The coordinator's ir::ShardCall: one exchange of the whole batch
  /// with `shard` over the replica walk. Counts the frames actually
  /// exchanged into `exchange`; false when the shard is lost.
  bool CallShard(size_t shard, const std::vector<ir::ShardQuery>& queries,
                 std::vector<ir::ShardResult>* results,
                 ir::ClusterQueryStats* exchange) const;

  std::vector<ReplicaSet> shards_;
  Options options_;
  /// Guards the global statistics below: queries read them under a
  /// shared lock; Connect() and every acknowledged mutation rewrite
  /// them under a unique one.
  mutable std::shared_mutex stats_mu_;
  std::unordered_map<std::string, int32_t, ir::TransparentStringHash,
                     std::equal_to<>>
      global_df_;
  int64_t collection_length_ = 0;
  std::vector<uint64_t> shard_docs_;
  uint64_t total_docs_ = 0;
  /// Per-shard mutation epochs; cluster_epoch() is their sum.
  std::vector<uint64_t> shard_epochs_;
  /// Normalisation pipeline the shards advertised in the handshake;
  /// query resolution must match it or recall silently breaks.
  bool norm_stem_ = true;
  bool norm_stop_ = true;
  bool connected_ = false;
  ThreadPool* executor_ = nullptr;
  std::unique_ptr<ThreadPool> owned_pool_;

  /// Routing state, one per shard (pointer-stable: ShardState holds a
  /// mutex).
  std::vector<std::unique_ptr<ShardState>> shard_state_;

  mutable std::atomic<uint64_t> hedges_fired_{0};
  mutable std::atomic<uint64_t> hedge_wins_{0};
  mutable std::atomic<uint64_t> failovers_{0};
  mutable std::atomic<uint64_t> replica_errors_{0};

  /// Async attempts still running (hedge losers included); the
  /// destructor blocks until it drains so no attempt outlives `this`.
  mutable std::mutex inflight_mu_;
  mutable std::condition_variable inflight_cv_;
  mutable size_t inflight_ = 0;
};

}  // namespace dls::net

#endif  // DLS_NET_REMOTE_CLUSTER_H_
