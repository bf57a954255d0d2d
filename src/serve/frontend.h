#ifndef DLS_SERVE_FRONTEND_H_
#define DLS_SERVE_FRONTEND_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/deadline.h"
#include "common/histogram.h"
#include "common/status.h"
#include "ir/cluster.h"
#include "serve/backend.h"
#include "serve/cache.h"
#include "serve/serve_stats.h"

namespace dls::federate {
class Mediator;
}  // namespace dls::federate

namespace dls::serve {

/// Tuning knobs of one Frontend. The defaults serve a small cluster
/// sensibly; the benchmark and the overload tests pick adversarial
/// values on purpose.
struct FrontendOptions {
  /// Admission bound: a Search() arriving while this many requests are
  /// queued is shed with kUnavailable (never blocks unboundedly).
  size_t max_queue = 256;

  /// Batch-evaluation workers. Each pops coalesced batches off the
  /// queue and drives one backend QueryBatch call at a time.
  size_t num_workers = 2;

  /// Dynamic batcher policy: a worker takes the oldest queued query
  /// and up to `max_batch` - 1 compatible ones already queued behind
  /// it, without waiting for more. Compatible = identical
  /// (n, effective max_fragments, RankOptions) — the batch ships under
  /// one policy.
  size_t max_batch = 8;

  /// Whole-request budget for queries that don't bring their own
  /// (SearchQuery::deadline_ms == 0).
  int64_t default_deadline_ms = 1000;

  /// Result cache: total entries and lock shards.
  size_t cache_entries = 1024;
  size_t cache_shards = 8;

  /// Graceful degradation: at or above this queue depth the frontend
  /// halves the requested fragment cut-off (floor 1) before admitting,
  /// so predicted_quality degrades *before* shedding starts. 0
  /// disables degradation.
  size_t degrade_watermark = 16;

  /// Cache warming after an epoch bump (live-ingestion merges): a
  /// background warmer polls the backend epoch and, on a change,
  /// re-evaluates the `warm_top_k` hottest cache keys under the new
  /// epoch. While it runs, requests for entries still pinned to the
  /// warming-from epoch are served stale (flagged) instead of
  /// stampeding the backend cold. 0 disables the warmer — the cache
  /// then falls back to strict evict-on-mismatch.
  size_t warm_top_k = 8;
  /// Epoch poll cadence of the warmer thread.
  int64_t warm_poll_ms = 5;
  /// Serve flagged-stale answers from the warming-from epoch while the
  /// warmer is re-evaluating. Off, an epoch bump makes every cached
  /// query a miss until re-evaluated (the pre-warming behaviour).
  bool serve_stale_while_warming = true;
};

/// One client query, in raw words — the frontend normalises them with
/// the pipeline its backend advertises. `deadline_ms` 0 adopts
/// FrontendOptions::default_deadline_ms.
struct SearchQuery {
  std::vector<std::string> words;
  size_t n = 10;
  size_t max_fragments = 1;
  uint32_t deadline_ms = 0;
  ir::RankOptions options;
  /// Federated query string (src/federate query language). When
  /// non-empty, `words` is ignored and the query runs through the
  /// attached Mediator — still behind the same admission gate, queue,
  /// degradation and result cache as a plain word query.
  std::string structured;
};

/// The frontend's answer. An answered query has status kOk and a
/// ranking bit-identical to a direct cluster Query at the effective
/// (possibly degraded) cut-off; a shed one has kUnavailable (with a
/// retry-after hint) or kDeadlineExceeded and no ranking.
struct SearchResult {
  Status status = Status::Ok();
  uint32_t retry_after_ms = 0;
  bool cache_hit = false;
  bool degraded = false;
  /// Served from the warming-from epoch while the warmer re-evaluates
  /// (stale-while-warming); the ranking is exact for the *previous*
  /// epoch, not the current one.
  bool stale = false;
  double predicted_quality = 1.0;
  std::vector<ir::ClusterScoredDoc> results;
  /// Executed federation plan (federated queries only): which filters
  /// ran in which order, surviving candidate counts, and whether the
  /// ranked leg used pushdown. Cached answers reproduce the plan of
  /// the evaluation that filled the entry.
  std::string plan;
};

/// The query serving frontend: what stands between clients and a
/// cluster in the paper's deployment picture. Pipeline per Search():
///
///   degrade?  -> cache lookup -> admission gate -> queue ->
///   batcher   -> backend QueryBatch -> cache fill -> reply
///
/// - **Admission** is where load is shed: a full queue or a deadline
///   the EWMA service-time model says cannot be met rejects *now* with
///   kUnavailable + retry-after, instead of letting the request rot in
///   the queue past its budget. Requests that expire while queued are
///   answered kDeadlineExceeded without touching the backend.
/// - **Degradation** kicks in first: past the queue-depth watermark
///   the fragment cut-off halves, so answers get cheaper (lower
///   predicted_quality, honest `degraded` flag) while staying exact
///   for their cut-off — quality degrades before availability does.
/// - **Batching** coalesces compatible queued queries into one backend
///   QueryBatch (one frame per shard on the remote path). Duplicate
///   resolved queries inside a batch evaluate once.
/// - **Caching** keys on the *resolved* query (normalised, de-duped
///   stems — two spellings share an entry) plus the ranking policy,
///   and on the backend's mutation epoch: any reindex invalidates, and
///   a hit is provably bit-identical to re-evaluating.
/// - **Warming** (live backends): a background thread watches the
///   backend epoch; when a live merge or mutation bumps it, the top-K
///   hottest keys are re-evaluated under the new epoch before demand
///   arrives, and meanwhile entries from the immediately preceding
///   epoch are served flagged-stale — an epoch bump costs K warm
///   evaluations instead of a cold stampede of every cached query.
///
/// Thread-safety: Search() and Stats() are safe from any number of
/// threads; the blocking happens on the caller's thread (a server
/// wraps Search in its own connection workers, see FrontendServer).
class Frontend {
 public:
  /// `backend` is non-owning and must outlive the frontend.
  explicit Frontend(const Backend* backend, FrontendOptions options = {});
  ~Frontend();

  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /// Attaches the federated query mediator (non-owning, must outlive
  /// the frontend). Call during setup, before serving traffic; without
  /// one, federated queries are refused with kUnsupported.
  void AttachMediator(const federate::Mediator* mediator) {
    mediator_ = mediator;
  }

  /// Answers or sheds one query; blocks the calling thread until the
  /// answer is ready (bounded by the deadline plus one batch).
  SearchResult Search(const SearchQuery& query);

  /// Point-in-time operational stats.
  ServeStats Stats() const;

  /// Drains the queue, joins the workers. Search() calls arriving
  /// after Stop() are shed with kUnavailable. Idempotent; the
  /// destructor runs it.
  void Stop();

 private:
  struct Pending {
    std::vector<std::string> words;  ///< raw words for the backend
    /// Canonical federated query (ToString of the parsed AST); empty
    /// for plain word queries. Canonicalisation happens at admission,
    /// so two spellings of one federated query share a cache entry and
    /// can ride one batch slot.
    std::string structured;
    std::string cache_key;
    size_t n = 10;
    size_t max_fragments = 1;  ///< effective (possibly degraded)
    ir::RankOptions options;
    bool degraded = false;
    Deadline deadline;
    std::chrono::steady_clock::time_point admitted_at;
    std::promise<SearchResult> promise;
  };

  /// Same batch policy? Only then can two requests ship in one
  /// backend QueryBatch call.
  static bool Compatible(const Pending& a, const Pending& b);

  /// Cache key of the resolved query + ranking policy. Kernel and
  /// prune are deliberately excluded: all kernels and both pruning
  /// modes are bit-identical by contract, so they may share entries.
  std::string CacheKey(const std::vector<std::string>& stems, size_t n,
                       size_t max_fragments,
                       const ir::RankOptions& options) const;

  /// Expected queue wait at the given depth from the EWMA batch
  /// service time (0 until the first batch completes). Called with
  /// mu_ held.
  uint32_t EstimateWaitMsLocked(size_t depth) const;

  void WorkerLoop();
  void ExecuteBatch(std::vector<std::unique_ptr<Pending>> batch);
  /// Federated leg of ExecuteBatch: one mediator evaluation answering
  /// every rider (Compatible() only coalesces identical federated
  /// queries, so the batch is one logical query).
  void ExecuteFederatedBatch(std::vector<std::unique_ptr<Pending>>& live);
  void RecordCompletion(const Pending& pending);

  /// One remembered hot cache key: everything needed to re-evaluate it
  /// through the backend after an epoch bump, plus its demand count.
  struct HotKey {
    std::string key;
    std::vector<std::string> words;  ///< raw words, re-resolved on warm
    size_t n = 10;
    size_t max_fragments = 1;
    ir::RankOptions options;
    bool degraded = false;
    uint64_t count = 0;
  };

  /// Bumps the demand counter of `key` (recorded on every Search that
  /// reaches the cache, hit or miss — the hottest keys are exactly the
  /// ones hitting). The tracker is bounded: past ~8x warm_top_k
  /// entries, counts decay by half and cold keys fall out.
  void RecordHotKey(const std::string& key, const SearchQuery& query,
                    size_t effective_fragments, bool degraded);

  /// The warmer thread: polls the backend epoch; on a bump past
  /// `last_epoch`, re-runs the hottest keys through the backend and
  /// refreshes their cache entries under the new epoch, serving stale
  /// meanwhile.
  void WarmerLoop(uint64_t last_epoch);

  const Backend* backend_;
  const FrontendOptions options_;
  /// Federated query mediator; null until AttachMediator().
  const federate::Mediator* mediator_ = nullptr;
  mutable ResultCache cache_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::unique_ptr<Pending>> queue_;
  bool stopping_ = false;
  /// EWMA of one backend QueryBatch wall-clock (µs); guarded by mu_.
  double ewma_batch_us_ = 0;
  std::vector<std::thread> workers_;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> shed_queue_full_{0};
  std::atomic<uint64_t> shed_deadline_{0};
  std::atomic<uint64_t> expired_in_queue_{0};
  std::atomic<uint64_t> degraded_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> batched_queries_{0};
  /// Replica routing events reported by the backend's batch stats
  /// (0 on local backends).
  std::atomic<uint64_t> hedges_fired_{0};
  std::atomic<uint64_t> hedge_wins_{0};
  std::atomic<uint64_t> failovers_{0};
  /// ---- federated mediation ----------------------------------------
  std::atomic<uint64_t> federated_queries_{0};
  std::atomic<uint64_t> federated_filter_docs_{0};
  std::atomic<uint64_t> federated_text_us_{0};
  std::atomic<uint64_t> federated_webspace_us_{0};
  std::atomic<uint64_t> federated_cobra_us_{0};
  mutable std::mutex plan_mu_;
  std::string last_federated_plan_;  ///< guarded by plan_mu_
  LatencyHistogram latency_;

  /// ---- warm path (see FrontendOptions::warm_top_k) ----------------
  mutable std::mutex hot_mu_;
  std::unordered_map<std::string, HotKey> hot_;  ///< guarded by hot_mu_
  std::mutex warm_mu_;
  std::condition_variable warm_cv_;
  bool warm_stop_ = false;  ///< guarded by warm_mu_
  std::thread warmer_;
  /// True while the warmer re-evaluates hot keys; lookups may then
  /// serve entries pinned to warming_from_ flagged stale.
  std::atomic<bool> warming_{false};
  std::atomic<uint64_t> warming_from_{0};
  std::atomic<uint64_t> epoch_changes_{0};
  std::atomic<uint64_t> cache_warmed_{0};
  std::atomic<uint64_t> stale_served_{0};
};

}  // namespace dls::serve

#endif  // DLS_SERVE_FRONTEND_H_
