#ifndef DLS_SERVE_SERVE_STATS_H_
#define DLS_SERVE_SERVE_STATS_H_

#include <cstdint>
#include <string>

#include "common/histogram.h"

namespace dls::serve {

/// Operational counters of one Frontend, sampled by Frontend::Stats().
/// Monotone counters since construction plus the instantaneous queue
/// depth and a latency snapshot. The ServeStatsResponse frame (net/wire
/// type 9) carries this struct whole, all but the latency sum, so a
/// remote operator reads the same block an in-process caller does.
struct ServeStats {
  // ---- admission ----------------------------------------------------
  uint64_t submitted = 0;  ///< Search() calls, before any gate
  uint64_t admitted = 0;   ///< entered the queue (not shed, not cached)
  uint64_t completed = 0;  ///< answered with a ranking (cache or backend)

  // ---- cache --------------------------------------------------------
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;  ///< capacity + stale-epoch evictions

  // ---- shedding -----------------------------------------------------
  uint64_t shed_queue_full = 0;    ///< kUnavailable: queue at max_queue
  uint64_t shed_deadline = 0;      ///< kUnavailable/kDeadlineExceeded at
                                   ///< admission (budget provably blown)
  uint64_t expired_in_queue = 0;   ///< admitted but expired before eval

  // ---- degradation / batching --------------------------------------
  uint64_t degraded = 0;         ///< answered with a lowered cut-off
  uint64_t batches = 0;          ///< backend QueryBatch calls
  uint64_t batched_queries = 0;  ///< queries carried by those calls

  // ---- replica routing (remote backends; 0 in-process) -------------
  uint64_t hedges_fired = 0;  ///< shard calls hedged past the budget
  uint64_t hedge_wins = 0;    ///< hedged calls whose answer won
  uint64_t failovers = 0;     ///< failed attempts moved to another replica

  // ---- live warm path (epoch-bump handling; 0 with the warmer off) --
  uint64_t epoch_changes = 0;  ///< backend epoch bumps the warmer saw
  uint64_t cache_warmed = 0;   ///< hot keys re-evaluated under a new epoch
  uint64_t stale_served = 0;   ///< answers served from the warming-from
                               ///< epoch while the warmer ran

  // ---- federated mediation (0 / empty without a mediator) -----------
  uint64_t federated_queries = 0;     ///< answered through the mediator
  uint64_t federated_filter_docs = 0; ///< bitmap bits pushed into ranking
  uint64_t federated_text_us = 0;     ///< ranked-text wall time
  uint64_t federated_webspace_us = 0; ///< webspace filter wall time
  uint64_t federated_cobra_us = 0;    ///< cobra filter wall time
  std::string last_federated_plan;    ///< most recent executed plan

  // ---- instantaneous ------------------------------------------------
  uint64_t queue_depth = 0;  ///< queued requests at sample time
  uint64_t epoch = 0;        ///< backend mutation epoch at sample time

  // ---- index footprint (Backend::BytesResident/BytesMapped) --------
  uint64_t bytes_resident = 0;  ///< heap bytes of the backing index
  uint64_t bytes_mapped = 0;    ///< mmap'd segment bytes (0 = heap-built)

  /// Admission-to-completion latency of completed requests
  /// (microseconds; shed requests are not recorded — shedding is the
  /// mechanism that keeps this distribution bounded).
  LatencyHistogram::Snapshot latency;
};

}  // namespace dls::serve

#endif  // DLS_SERVE_SERVE_STATS_H_
