#ifndef DLS_NET_SHARD_SERVER_H_
#define DLS_NET_SHARD_SERVER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "ingest/live_index.h"
#include "ir/cluster.h"
#include "net/frame_server.h"

namespace dls::net {

/// Hosts one or more index nodes behind the shard RPC protocol.
///
/// A ShardServer is the process side of the paper's shared-nothing
/// fan-out. Each hosted node, addressed by its position in Add*Node()
/// order (which must match the node_id the client's shard list uses),
/// answers from an ingest::LiveIndex::Snapshot: a frozen node
/// (AddNode, AddNodeFromSegment) from the one-part snapshot built when
/// it was added, a live node (AddLiveNode) from its LiveIndex's current
/// one — and only a live node accepts the mutation frames
/// (Insert/Delete/Merge). A query runs ingest::EvaluateLiveShardQuery;
/// the stats handshake reads one snapshot, so document count,
/// collection length, the df table and the epoch are consistent.
///
/// The transport mechanics (listen/accept/worker pool, frame framing,
/// Error-frame failure semantics) live in the shared FrameServer base;
/// this class supplies only the protocol: QueryRequest evaluation over
/// the hosted nodes and the StatsRequest handshake. HandleFrame() is
/// thread-safe — snapshots are immutable, and a LiveIndex is
/// internally synchronised (lock-free pinned reads, serialised
/// mutations).
class ShardServer : public FrameServer {
 public:
  /// `num_workers` bounds concurrently served TCP connections; the
  /// pool is only spun up by Start().
  explicit ShardServer(size_t num_workers = 8);
  ~ShardServer() override;

  /// Registers the next node (non-owning; must stay alive and frozen
  /// while the server runs). Returns its node id.
  uint32_t AddNode(const ir::TextIndex* index,
                   const ir::FragmentedIndex* fragments);

  /// Cold-start path: loads a segment file (ir/segment.h) straight
  /// into the next node id — mmap-served, no rebuild, so a shard
  /// process restart is bounded by segment validation, not indexing.
  /// The server owns the loaded index and its fragmentation. Returns
  /// the node id, or the loader's kCorruption/kUnsupported error.
  Result<uint32_t> AddNodeFromSegment(
      const std::string& path, size_t num_fragments,
      const ir::SegmentLoadOptions& load_options = {});

  /// Registers a live (mutable) node backed by `live` (non-owning;
  /// must outlive the server). The node serves query and stats frames
  /// from epoch-pinned snapshots and accepts the mutation frames.
  uint32_t AddLiveNode(ingest::LiveIndex* live);

  size_t num_nodes() const { return nodes_.size(); }

  Result<std::vector<uint8_t>> HandleFrame(
      const std::vector<uint8_t>& frame) const override;

 private:
  struct Node {
    /// A frozen node's snapshot, built once; null for live nodes.
    std::shared_ptr<const ingest::LiveIndex::Snapshot> frozen;
    /// Non-null for live nodes. The pointer is to a mutable LiveIndex
    /// even though HandleFrame is const — the LiveIndex is internally
    /// synchronised and mutation frames are part of its protocol, not
    /// the server's state.
    ingest::LiveIndex* live = nullptr;
    /// Cumulative evaluation work of every query served from this
    /// node, reported in StatsResponse so remote work accounting stays
    /// comparable with the in-process ClusterQueryStats. It grows once
    /// per served batch and the handshake copies it whole, both under
    /// `mu`, so one handshake's counters all cover the same batches.
    struct Work {
      std::mutex mu;
      ir::RankStats total;  // guarded by mu
    };
    /// unique_ptr so Node stays movable (vector growth).
    std::unique_ptr<Work> work = std::make_unique<Work>();

    /// A live node's current snapshot, or a frozen node's own.
    std::shared_ptr<const ingest::LiveIndex::Snapshot> Pin() const {
      return live != nullptr ? live->Pin() : frozen;
    }
  };

  /// The node `id` names (kNotFound if none); a mutation also needs it
  /// to be live (kUnsupported).
  Result<const Node*> NodeFor(uint32_t id, bool mutation) const;

  std::vector<Node> nodes_;
};

}  // namespace dls::net

#endif  // DLS_NET_SHARD_SERVER_H_
