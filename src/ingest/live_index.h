#ifndef DLS_INGEST_LIVE_INDEX_H_
#define DLS_INGEST_LIVE_INDEX_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "ir/cluster.h"
#include "ir/fragments.h"
#include "ir/index.h"

namespace dls::ingest {

/// The live-ingestion subsystem: an LSM-style two-tier index that keeps
/// serving exact rankings while the corpus churns.
///
/// Layout. Documents live in immutable *parts*. Young parts ("delta")
/// are small heap indexes absorbing inserts; the active delta part is
/// rebuilt per insert and sealed at `delta_seal_docs` documents, so the
/// mutable tier stays bounded. Merge() packs every delta part's live
/// documents, together with the newest frozen runs small enough to
/// fold, into one frozen *run* — written through the versioned segment
/// format (TextIndex::FlushToDisk) and served back off mmap when
/// `segment_dir` is set — and re-fragments it on descending idf
/// (FragmentedIndex). Every kept run holds more than twice the
/// documents of the next newer one, so a node holds O(log N) runs.
/// Deletes never touch postings: each part carries one immutable
/// deletion record — its live set (a DocFilter), the df its deleted
/// documents still add to its stored statistics (by the part's own
/// term id) and their total length — and a delete replaces only its
/// own part's record with an updated copy. A frozen shard is a
/// one-part snapshot with no record and no writer (Snapshot::Frozen).
///
/// Epoch pinning. Every mutation (Insert, Delete, a Merge swap)
/// installs a brand-new immutable Snapshot under the next epoch;
/// readers Pin() the current snapshot with one shared_ptr copy under a
/// dedicated snapshot mutex (held for nanoseconds — a refcount bump)
/// and never take the writer lock. A reader pinned to an old epoch
/// keeps every part it can see alive for as long as it holds the
/// handle — a background merge swaps the parts list, it never frees
/// anything a pinned reader is scanning.
///
/// Exactness. A snapshot's ranking is bit-identical to a from-scratch
/// TextIndex rebuilt over exactly the documents live at that epoch:
///   - term weights use *effective* statistics — per part, the stored
///     df and collection length minus the dead df and dead length its
///     record holds, summed over the parts — which are exact integers,
///     so TermWeight matches the rebuild bit for bit;
///   - tf, doc_length and 1/doc_length of a surviving document are
///     whatever its own part computed — identical inputs to the
///     rebuild's;
///   - each part is evaluated with EvaluateTopN under the canonical
///     term order (effective df desc, query position asc — the stable
///     sort preserves the rebuild's tie order on any subset), and a
///     document lives wholly inside one part, so its contributions sum
///     in exactly the rebuild's order;
///   - each part ranks under its live set as the doc_filter, which
///     every kernel and strategy evaluates bit-identically to
///     exhaustive-then-filter (DocFilter): it returns exactly its live
///     top n;
///   - parts merge on (score desc, global id asc), and global ids are
///     insertion order — the rebuild's doc-id order.
struct LiveIndexOptions {
  /// Normalisation configuration of every part (stem/stop); the
  /// flush_batch member is ignored — parts flush exactly once.
  ir::TextIndex::Options node;
  /// The active delta part seals (becomes immutable until the next
  /// merge claims it) at this many documents — the bound on per-insert
  /// rebuild work and on the mutable tier's memory.
  size_t delta_seal_docs = 64;
  /// Fragmentation (descending idf) of merged runs.
  size_t num_fragments = 4;
  /// When non-empty, Merge() writes each packed run as
  /// "<segment_dir>/run-<epoch>.seg" and serves it back off the mmap
  /// (TextIndex::LoadFromSegment); empty keeps runs on the heap.
  std::string segment_dir;
  /// When > 0, a background thread merges whenever the delta tier
  /// holds at least this many documents (live or tombstoned).
  size_t auto_merge_docs = 0;
  /// Poll cadence of the background merge thread.
  int64_t merge_poll_ms = 10;
};

/// One ranked document of a live query: the immutable global id (the
/// insertion-order identity rankings tie-break on), its URL, and the
/// exact score.
struct LiveScoredDoc {
  uint64_t id;
  std::string url;
  double score;
};

/// The exact change one Insert or Delete made to the index's effective
/// statistics: the effective df of each of `stems` (the document's
/// distinct normalised stems, strictly ascending) moved by one, the
/// effective collection length by `length` (the document's normalised
/// token count), and the live document count by one — all up for an
/// insert, all down for a delete. A merge changes none of them. A
/// cluster centre applies these to its global statistics instead of
/// re-reading every node's df table.
struct StatsDelta {
  int64_t length = 0;
  std::vector<std::string> stems;

  bool operator==(const StatsDelta&) const = default;
};

/// Point-in-time counters of a LiveIndex (Stats()).
struct LiveIndexStats {
  uint64_t epoch = 0;
  size_t live_docs = 0;
  size_t total_docs = 0;  ///< including tombstoned, pre-merge
  size_t tombstones = 0;
  size_t parts = 0;
  size_t delta_parts = 0;
  size_t delta_docs = 0;  ///< documents in the mutable (unmerged) tier
  int64_t collection_length = 0;  ///< effective (live) Σ doc_length
  uint64_t merges = 0;
  size_t bytes_resident = 0;
  size_t bytes_mapped = 0;
};

class LiveIndex {
 public:
  /// One immutable document tier: a frozen TextIndex (heap or
  /// mmap-backed), its fragmentation (merged runs only), and the
  /// global id of each local document (ascending — local order is
  /// global order; empty on a frozen shard, whose ids are local).
  struct Part {
    std::shared_ptr<const ir::TextIndex> index;
    std::shared_ptr<const ir::FragmentedIndex> fragments;  // runs only
    std::vector<uint64_t> global_ids;
    uint64_t global_id(ir::DocId local) const {
      return global_ids.empty() ? local : global_ids[local];
    }
    bool frozen = false;  ///< merged run (vs delta part)
    /// The run's segment file when it is served off mmap; Merge()
    /// unlinks it once a later merge folds the run away.
    std::string segment_path;
  };

  /// One part's deletion record, immutable once published: the part's
  /// live set, the df its deleted documents still add to the part's
  /// stored statistics (indexed by the part's term id), and their
  /// total length. A part with no deleted document has none.
  struct PartDeletes {
    ir::DocFilter live;
    std::vector<int32_t> dead_df;
    int64_t dead_length = 0;
  };

  /// An immutable epoch-pinned view. Obtained from Pin(); holding the
  /// shared_ptr keeps every referenced part alive across merges.
  class Snapshot {
   public:
    /// A frozen shard: one part, the flushed `index` with its
    /// `fragments`, and the index's epoch and normalisation.
    static std::shared_ptr<const Snapshot> Frozen(
        std::shared_ptr<const ir::TextIndex> index,
        std::shared_ptr<const ir::FragmentedIndex> fragments);

    uint64_t epoch() const { return epoch_; }
    bool stem() const { return stem_; }
    bool stop() const { return stop_; }
    size_t live_docs() const { return total_docs_ - tombstones_; }
    /// Documents physically present in the parts (live + tombstoned);
    /// merges drop tombstoned documents, so this can shrink.
    size_t total_docs() const { return total_docs_; }
    size_t tombstone_count() const { return tombstones_; }
    /// Effective collection length: live documents only.
    int64_t collection_length() const;
    const std::vector<std::shared_ptr<const Part>>& parts() const {
      return parts_;
    }
    /// parts()[i]'s live set, or null while none of it is deleted.
    const ir::DocFilter* part_live(size_t i) const {
      return deletes_[i] == nullptr ? nullptr : &deletes_[i]->live;
    }
    /// Entry i: the tombstoned documents still physically present in
    /// parts()[i] — its documents missing from part_live(i).
    const std::vector<uint32_t>& part_tombstones() const {
      return part_tombstones_;
    }

    /// Effective df of a stem: Σ over parts of its df minus its dead df.
    int32_t EffectiveDf(std::string_view stem) const;
    /// The full effective (stem -> df) table — the vocabulary a stats
    /// handshake advertises. Stems whose live df dropped to 0 are
    /// omitted, exactly as a rebuild's vocabulary would omit them.
    std::unordered_map<std::string, int32_t> EffectiveDfTable() const;
    /// The same table in a deterministic order, as a stats handshake
    /// sends it: sorted, or a lone undeleted part's term-id order.
    std::vector<std::pair<std::string, int32_t>> EffectiveDfList() const;

    /// Exact top-`n` over the live documents of this epoch, ordered by
    /// (score desc, global id asc) — bit-identical to a from-scratch
    /// rebuild's RankTopN at this epoch (see the class comment).
    std::vector<LiveScoredDoc> Query(const std::vector<std::string>& words,
                                     size_t n,
                                     const ir::RankOptions& options = {},
                                     ir::RankStats* stats = nullptr) const;

    /// True when `id`'s part still holds it, outside its live set.
    bool IsDeleted(uint64_t id) const;

   private:
    friend class LiveIndex;
    std::vector<std::shared_ptr<const Part>> parts_;
    /// Beside parts_: each part's deletion record (null = all live).
    std::vector<std::shared_ptr<const PartDeletes>> deletes_;
    std::vector<uint32_t> part_tombstones_;
    size_t tombstones_ = 0;
    size_t total_docs_ = 0;
    uint64_t epoch_ = 0;
    bool stem_ = true;
    bool stop_ = true;
  };

  explicit LiveIndex(LiveIndexOptions options = {});
  ~LiveIndex();

  LiveIndex(const LiveIndex&) = delete;
  LiveIndex& operator=(const LiveIndex&) = delete;

  /// Inserts a document and publishes the next epoch. The url must not
  /// name a live document (kAlreadyExists); re-inserting a deleted url
  /// is allowed and gets a fresh global id. Returns the global id.
  /// `delta`, when given, receives the insert's StatsDelta.
  Result<uint64_t> Insert(std::string_view url, std::string_view text,
                          StatsDelta* delta = nullptr);

  /// Tombstones the live document named `url` and publishes the next
  /// epoch. Returns false when no live document has that url (and then
  /// leaves `delta` empty); otherwise `delta`, when given, receives the
  /// delete's StatsDelta.
  bool Delete(std::string_view url, StatsDelta* delta = nullptr);

  /// Packs every delta part's live documents into one frozen run and
  /// atomically swaps it in under the next epoch. The newest frozen
  /// runs fold into it too, newest first, while each holds at most
  /// twice the documents claimed so far: every kept run then holds
  /// more than twice the next newer one, so the run count stays
  /// logarithmic in the document count however small the merges are.
  /// A folded run's segment file is unlinked after the swap; readers
  /// pinned to an older epoch keep their mapping. Synchronous on the
  /// calling thread, but queries are never blocked: the writer lock is
  /// held only to claim the parts and to swap — the expensive rebuild
  /// runs unlocked, and inserts/deletes landing meanwhile go to fresh
  /// delta parts that simply survive the swap. Serialised against the
  /// background merge thread. Always publishes a new epoch, even when
  /// the delta tier is empty (the no-op merge is still an observable
  /// epoch for the serve layer's warm path). Effective statistics do
  /// not change.
  void Merge();

  /// Pins the current snapshot: a shared_ptr copy under the snapshot
  /// mutex — never the writer lock, so queries keep serving through
  /// Insert/Delete/Merge.
  std::shared_ptr<const Snapshot> Pin() const;

  /// Convenience: Pin()->Query(...).
  std::vector<LiveScoredDoc> Query(const std::vector<std::string>& words,
                                   size_t n,
                                   const ir::RankOptions& options = {},
                                   ir::RankStats* stats = nullptr) const;

  /// Current epoch (monotone; +1 per Insert/Delete/Merge).
  uint64_t epoch() const { return Pin()->epoch(); }

  uint64_t merges() const { return merges_.load(std::memory_order_relaxed); }

  LiveIndexStats Stats() const;

  const LiveIndexOptions& options() const { return options_; }

 private:
  struct StoredDoc {
    std::string url;
    std::string text;
    bool alive = true;
  };

  /// Builds a flushed TextIndex over `ids` (ascending global ids) from
  /// the document store. Caller holds mu_ or owns private copies.
  std::shared_ptr<ir::TextIndex> BuildPart(
      const std::vector<std::pair<std::string, std::string>>& docs) const;

  /// The deletion record of `part` from the document store (null if
  /// all its documents are alive); tokenises only the dead ones.
  /// Caller holds mu_.
  std::shared_ptr<const PartDeletes> DeletesLocked(const Part& part) const;

  /// Publishes the writer's state as a new snapshot under the next
  /// epoch. Caller holds mu_.
  void PublishLocked();

  void MergeLoop();

  LiveIndexOptions options_;

  /// Writer lock: serialises Insert/Delete and the claim/swap phases
  /// of Merge. Never taken by readers.
  mutable std::mutex mu_;
  /// Serialises whole merges (foreground Merge vs background thread).
  std::mutex merge_mu_;

  /// Append-only document store indexed by global id. Entry content
  /// (url, text) is immutable once appended; `alive` flips under mu_.
  std::deque<StoredDoc> docs_;
  std::unordered_map<std::string, uint64_t> url_to_id_;
  /// Global ids of the active (unsealed) delta part, in order.
  std::vector<uint64_t> active_ids_;
  /// The writer's canonical view of the published state (mu_): the
  /// parts in order and each part's deletion record, which the next
  /// snapshot will share. Mutations replace a record with an updated
  /// copy, never edit one in place.
  std::vector<std::shared_ptr<const Part>> parts_;
  std::vector<std::shared_ptr<const PartDeletes>> deletes_;
  uint64_t epoch_ = 0;  ///< the next snapshot's
  std::shared_ptr<const Part> active_part_;

  /// The published snapshot; readers load, mutators store under mu_.
  /// Publication point. A dedicated mutex (not mu_: writers hold mu_
  /// for the whole mutation, readers must not wait on that) guarding a
  /// plain shared_ptr; both sides hold it only for the pointer swap /
  /// refcount bump. std::atomic<shared_ptr> would express the same
  /// thing, but libstdc++-12's lock-bit implementation trips TSan.
  mutable std::mutex snap_mu_;
  std::shared_ptr<const Snapshot> snapshot_;

  std::atomic<uint64_t> merges_{0};
  uint64_t run_seq_ = 0;  ///< distinct on-disk run file names

  std::thread merge_thread_;
  std::condition_variable merge_cv_;
  bool stop_ = false;  // guarded by mu_
};

/// Evaluates a resolved cluster ShardQuery against an epoch-pinned
/// snapshot — the exact contract of ir::EvaluateShardQuery against a
/// from-scratch rebuild of the snapshot's live documents: each part
/// runs ir::EvaluateShardQuery under its live set, then one
/// MergeShardResults (work counters summed, stem_evaluated masks
/// ANDed). A one-part snapshot returns its part's result as it is.
/// Thread-safe; every ShardServer node runs this per query.
ir::ShardResult EvaluateLiveShardQuery(const LiveIndex::Snapshot& snapshot,
                                       const ir::ShardQuery& query);

}  // namespace dls::ingest

#endif  // DLS_INGEST_LIVE_INDEX_H_
