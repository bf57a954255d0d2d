#ifndef DLS_SERVE_BACKEND_H_
#define DLS_SERVE_BACKEND_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ingest/live_index.h"
#include "ir/cluster.h"
#include "net/remote_cluster.h"

namespace dls::serve {

/// What the serving frontend needs from an index cluster, and nothing
/// more: batched evaluation, the mutation epoch its result cache keys
/// on, and the normalisation pipeline it must mirror when building
/// cache keys. Both concrete clusters — in-process ir::ClusterIndex
/// and out-of-process net::RemoteClusterIndex — satisfy it through the
/// adapters below, which is what lets tests/serve hold the frontend to
/// bit-identity against either backend.
///
/// Implementations must tolerate concurrent QueryBatch() calls (both
/// clusters do once frozen/connected).
class Backend {
 public:
  virtual ~Backend() = default;

  /// Cluster-wide mutation epoch — the cache invalidation key. Any
  /// reindex anywhere in the cluster must change it.
  virtual uint64_t Epoch() const = 0;

  /// Normalisation pipeline the backend resolves queries with; the
  /// frontend builds cache keys through the identical pipeline so two
  /// spellings of one resolved query share a cache entry.
  virtual bool NormStem() const = 0;
  virtual bool NormStop() const = 0;

  /// Evaluates a batch of queries under one (n, max_fragments,
  /// options) policy; results are per query, in input order, each
  /// identical to a direct single-query evaluation. `stats`, when
  /// given, aggregates over the batch; `per_query_stats`, when given,
  /// is filled with one entry per query attributing that rider's own
  /// work, latency and quality (wire traffic and replica routing
  /// events are batch-level and stay in the aggregate). All three
  /// adapters fold both through ir::CoordinateBatch: every batch
  /// counter is the sum over its riders, and the batch
  /// predicted_quality is the pooled idf-mass estimate, not the
  /// minimum over riders (served answers read per-rider quality).
  virtual std::vector<std::vector<ir::ClusterScoredDoc>> QueryBatch(
      const std::vector<std::vector<std::string>>& queries, size_t n,
      size_t max_fragments, ir::ClusterQueryStats* stats,
      std::vector<ir::ClusterQueryStats>* per_query_stats,
      const ir::RankOptions& options) const = 0;

  /// Index footprint split (ir::ClusterIndex::bytes_resident/_mapped):
  /// heap bytes vs mmap'd segment bytes. Defaults to 0/0 for backends
  /// that cannot see their index memory (a remote cluster's footprint
  /// lives in the shard processes).
  virtual uint64_t BytesResident() const { return 0; }
  virtual uint64_t BytesMapped() const { return 0; }
};

/// Adapter over the in-process cluster: QueryBatch forwards to
/// ClusterIndex::QueryBatch.
class LocalBackend final : public Backend {
 public:
  /// Non-owning; `cluster` must outlive the backend and be finalized.
  explicit LocalBackend(const ir::ClusterIndex* cluster)
      : cluster_(cluster) {}

  uint64_t Epoch() const override { return cluster_->mutation_epoch(); }
  bool NormStem() const override {
    return cluster_->node_index(0).options().stem;
  }
  bool NormStop() const override {
    return cluster_->node_index(0).options().stop;
  }

  std::vector<std::vector<ir::ClusterScoredDoc>> QueryBatch(
      const std::vector<std::vector<std::string>>& queries, size_t n,
      size_t max_fragments, ir::ClusterQueryStats* stats,
      std::vector<ir::ClusterQueryStats>* per_query_stats,
      const ir::RankOptions& options) const override {
    return cluster_->QueryBatch(queries, n, max_fragments, stats, options,
                                per_query_stats);
  }

  uint64_t BytesResident() const override {
    return cluster_->bytes_resident();
  }
  uint64_t BytesMapped() const override { return cluster_->bytes_mapped(); }

 private:
  const ir::ClusterIndex* cluster_;
};

/// Adapter over the remote cluster: QueryBatch forwards to
/// RemoteClusterIndex::QueryBatch, which ships the whole batch in one
/// frame per shard — exactly the amortisation the frontend's dynamic
/// batcher exists to exploit. The epoch is the one aggregated at
/// Connect() time and advanced by every mutation routed through the
/// centre; observing a shard reindexed behind its back takes a
/// re-Connect.
class RemoteBackend final : public Backend {
 public:
  /// Non-owning; `cluster` must outlive the backend and be connected.
  explicit RemoteBackend(const net::RemoteClusterIndex* cluster)
      : cluster_(cluster) {}

  uint64_t Epoch() const override { return cluster_->cluster_epoch(); }
  bool NormStem() const override { return cluster_->norm_stem(); }
  bool NormStop() const override { return cluster_->norm_stop(); }

  std::vector<std::vector<ir::ClusterScoredDoc>> QueryBatch(
      const std::vector<std::vector<std::string>>& queries, size_t n,
      size_t max_fragments, ir::ClusterQueryStats* stats,
      std::vector<ir::ClusterQueryStats>* per_query_stats,
      const ir::RankOptions& options) const override {
    return cluster_->QueryBatch(queries, n, max_fragments, stats, options,
                                per_query_stats);
  }

 private:
  const net::RemoteClusterIndex* cluster_;
};

/// Adapter over a live-ingestion index (ingest::LiveIndex): the
/// backend whose epoch actually moves while serving. One snapshot is
/// pinned per QueryBatch — every query in the batch answers from the
/// identical epoch, and a concurrent insert/delete/merge never tears a
/// batch. The batch resolves against the snapshot's effective
/// statistics and runs through ir::CoordinateBatch as a one-node
/// cluster whose node call is ingest::EvaluateLiveShardQuery. Epoch()
/// is the live epoch, which bumps on every mutation; that is exactly
/// the signal the frontend's warmer watches to re-run hot keys after a
/// merge.
class LiveBackend final : public Backend {
 public:
  /// Non-owning; `live` must outlive the backend.
  explicit LiveBackend(const ingest::LiveIndex* live) : live_(live) {}

  uint64_t Epoch() const override { return live_->epoch(); }
  bool NormStem() const override { return live_->options().node.stem; }
  bool NormStop() const override { return live_->options().node.stop; }

  std::vector<std::vector<ir::ClusterScoredDoc>> QueryBatch(
      const std::vector<std::vector<std::string>>& queries, size_t n,
      size_t max_fragments, ir::ClusterQueryStats* stats,
      std::vector<ir::ClusterQueryStats>* per_query_stats,
      const ir::RankOptions& options) const override;

  uint64_t BytesResident() const override {
    return live_->Stats().bytes_resident;
  }
  uint64_t BytesMapped() const override { return live_->Stats().bytes_mapped; }

 private:
  const ingest::LiveIndex* live_;
};

}  // namespace dls::serve

#endif  // DLS_SERVE_BACKEND_H_
