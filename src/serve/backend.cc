#include "serve/backend.h"

#include <memory>
#include <string>
#include <utility>

namespace dls::serve {

std::vector<std::vector<ir::ClusterScoredDoc>> LiveBackend::QueryBatch(
    const std::vector<std::vector<std::string>>& queries, size_t n,
    size_t max_fragments, ir::ClusterQueryStats* stats,
    std::vector<ir::ClusterQueryStats>* per_query_stats,
    const ir::RankOptions& options) const {
  // One pinned snapshot for the whole batch: every rider answers from
  // the identical epoch, regardless of concurrent inserts, deletes or
  // a background merge swapping parts mid-batch.
  const std::shared_ptr<const ingest::LiveIndex::Snapshot> snapshot =
      live_->Pin();
  std::vector<ir::ShardQuery> batch;
  const std::vector<double> idf_masses = ir::ResolveShardBatch(
      queries, live_->options().node.stem, live_->options().node.stop,
      snapshot->collection_length(), n, max_fragments, options,
      [&snapshot](std::string_view stem) {
        return snapshot->EffectiveDf(stem);
      },
      &batch);
  return ir::CoordinateBatch(
      std::move(batch), idf_masses, {snapshot->live_docs()},
      /*executor=*/nullptr,
      [&snapshot](size_t, const std::vector<ir::ShardQuery>& b,
                  std::atomic<double>*, std::vector<ir::ShardResult>* results,
                  ir::ClusterQueryStats*) {
        results->resize(b.size());
        for (size_t q = 0; q < b.size(); ++q) {
          (*results)[q] = ingest::EvaluateLiveShardQuery(*snapshot, b[q]);
        }
        return true;
      },
      stats, per_query_stats);
}

}  // namespace dls::serve
