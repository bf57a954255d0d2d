#include "workloads.h"

namespace perfbench {

void FillServeLayer(const dls::serve::ServeStats& before,
                    const dls::serve::ServeStats& after, double ops,
                    Metrics* m) {
  using dls::serve::ServeStats;
  auto grew = [&](uint64_t ServeStats::*counter) {
    return Grew(before, after, counter);
  };
  const double hits = grew(&ServeStats::cache_hits);
  const double warmed = grew(&ServeStats::cache_warmed);
  const double shed = grew(&ServeStats::shed_queue_full) +
                      grew(&ServeStats::shed_deadline) +
                      grew(&ServeStats::expired_in_queue);
  (*m)["serve.batch_size"] =
      Share(grew(&ServeStats::batched_queries), grew(&ServeStats::batches));
  (*m)["serve.cache_hit_share"] =
      Share(hits, hits + grew(&ServeStats::cache_misses));
  (*m)["serve.warm_evals_per_op"] = Share(warmed, ops);
  (*m)["serve.warm_useful_share"] =
      Share(grew(&ServeStats::stale_served), warmed);
  (*m)["serve.shed_share"] = Share(shed, grew(&ServeStats::submitted));
}

}  // namespace perfbench
