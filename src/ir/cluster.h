#ifndef DLS_IR_CLUSTER_H_
#define DLS_IR_CLUSTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ir/fragments.h"
#include "ir/index.h"

namespace dls {
class ThreadPool;
}  // namespace dls

namespace dls::ir {

/// A document in a cluster-wide ranking (cluster doc ids are global).
struct ClusterScoredDoc {
  std::string url;
  double score;
};

/// The resolved top-N request the central server pushes to one node:
/// stems already normalised and de-duplicated, term statistics already
/// global (collection-wide df and collection length), so a node scores
/// without any cross-node communication. This is exactly the payload
/// `net/wire` serialises — the in-process fan-out and the remote RPC
/// path evaluate the same struct through the same function.
struct ShardQuery {
  std::vector<std::string> stems;
  std::vector<int32_t> stem_global_df;  ///< collection-wide df per stem
  int64_t collection_length = 0;
  size_t n = 10;
  size_t max_fragments = 1;
  /// Running global n-th best score under the sequential
  /// threshold-feedback protocol (0 disables it): with options.prune
  /// the node skips documents strictly below it — they provably cannot
  /// enter the global merge.
  double threshold = 0.0;
  RankOptions options;
};

/// One node's answer to a pushed ShardQuery: its local top-N (sorted
/// by score desc, url asc — the same order as the central merge) plus
/// work accounting. RES(url, score) tuples in the paper's terms.
struct ShardResult {
  std::vector<ClusterScoredDoc> top;
  /// Per request stem: false iff the node knows the stem and its
  /// fragment lies behind the cut-off. Unknown stems stay true — they
  /// may live on other nodes, so they do not count against the
  /// a-priori quality estimate.
  std::vector<bool> stem_evaluated;
  RankStats work;
  double elapsed_us = 0;
};

/// Evaluates a resolved ShardQuery against one frozen index part — the
/// only per-part evaluator, run per node by ClusterIndex and per part
/// of a ShardServer node's snapshot (ingest::EvaluateLiveShardQuery),
/// so bit-identity of the paths reduces to identical inputs.
/// Thread-safe (touches only frozen state). `fragments` is null for a
/// live node's delta part, which has no cut-off.
///
/// `shared_theta` is the live threshold-feedback channel of
/// RankOptions::shared_threshold: when non-null and the query prunes,
/// the WAND evaluation reads the cluster-wide θ every iteration and
/// publishes its own running n-th best into it (monotone max).
///
/// `live`, when non-null, replaces the query's doc_filter: a node's
/// candidate bitmap (ClusterIndex) or a live part's live set. The part
/// then returns exactly its top n among those documents.
ShardResult EvaluateShardQuery(const TextIndex& index,
                               const FragmentedIndex* fragments,
                               const ShardQuery& query,
                               std::atomic<double>* shared_theta = nullptr,
                               const DocFilter* live = nullptr);

/// As above, for a frozen node's fragmentation held by reference.
inline ShardResult EvaluateShardQuery(const TextIndex& index,
                                      const FragmentedIndex& fragments,
                                      const ShardQuery& query) {
  return EvaluateShardQuery(index, &fragments, query);
}

/// Bounded k-way merge of per-node top lists (each sorted by score
/// desc, url asc) into the global top `n`, with the node's position in
/// `results` as the final tie-break so exact (score, url) duplicates
/// across nodes merge deterministically regardless of evaluation
/// order. Consumes the tuples (moves them out of `results`).
std::vector<ClusterScoredDoc> MergeShardResults(
    std::vector<ShardResult>* results, size_t n);

/// Per-node candidate bitmaps for ClusterIndex::Query pushdown: entry
/// i indexes node i's local doc-id space (doc ids are node-local, so
/// one global bitmap cannot exist). Built by the federated executor
/// from a candidate url set; in-process only — the remote shard
/// protocol never carries filters (see RankOptions::doc_filter).
struct ClusterDocFilter {
  std::vector<DocFilter> per_node;
};

/// Traffic/work accounting for one distributed query (experiment E4).
struct ClusterQueryStats {
  /// Wire frames actually sent + received, and their encoded byte
  /// size, measured on the serialised `net/wire` frames (retries
  /// included). The in-process ClusterIndex ships no frames and
  /// reports 0 for both; RemoteClusterIndex fills them on the
  /// loopback and TCP paths alike.
  size_t messages = 0;
  size_t bytes_shipped = 0;
  size_t postings_touched_total = 0;
  size_t postings_touched_max_node = 0;  ///< critical-path posting count
  /// Σ over nodes of posting blocks pruned by the WAND evaluator
  /// (options.prune); 0 on the exhaustive path.
  size_t blocks_skipped = 0;
  /// Σ over nodes of packed blocks decompressed by the pruning
  /// cursors.
  size_t blocks_decoded = 0;
  /// Σ over nodes of WAND pivot selections (RankStats).
  size_t pivot_iterations = 0;
  /// Σ over nodes of cursor repositionings (RankStats).
  size_t cursor_advances = 0;
  /// Replica routing events of the remote path (0 in-process and on
  /// single-replica shards that never fail): hedged shard calls fired
  /// past the latency budget, hedges whose answer arrived first, and
  /// attempts moved to a different replica after a failure.
  size_t hedges_fired = 0;
  size_t hedge_wins = 0;
  size_t failovers = 0;
  double predicted_quality = 1.0;
  /// Measured wall-clock of the slowest node's local evaluation — the
  /// query's critical path under perfect shared-nothing parallelism.
  double critical_path_us = 0;
  /// Σ of per-node evaluation wall-clock: the work a single machine
  /// would have to do. total_cpu_us / critical_path_us is the measured
  /// shared-nothing speedup bound (E4's headline number).
  double total_cpu_us = 0;
};

/// Resolves `words` against the global df relation (the T relation
/// lives centrally): appends to query->stems / stem_global_df the
/// NormalizeQuery stems whose `global_df` is > 0 and returns the
/// query's idf mass Σ 1/df, the denominator of its predicted quality.
/// The caller sets the rest of the ShardQuery.
double ResolveShardQuery(
    const std::vector<std::string>& words, bool stem, bool stop,
    const std::function<int32_t(std::string_view)>& global_df,
    ShardQuery* query);

/// The resolve step of every cluster flavour's QueryBatch: fills
/// `batch` with one ShardQuery per entry of `queries`, each under the
/// one (collection_length, n, max_fragments, options) policy and
/// resolved by ResolveShardQuery, and returns the queries' idf masses
/// in order — CoordinateBatch's two inputs.
std::vector<double> ResolveShardBatch(
    const std::vector<std::vector<std::string>>& queries, bool stem, bool stop,
    int64_t collection_length, size_t n, size_t max_fragments,
    const RankOptions& options,
    const std::function<int32_t(std::string_view)>& global_df,
    std::vector<ShardQuery>* batch);

/// The coordinator's seam to node `node`: evaluates `batch` there,
/// filling `results` with one ShardResult per query, and adds the
/// exchange's wire and routing counters (messages, bytes_shipped,
/// hedges_fired, hedge_wins, failovers) to `exchange`. `shared_thetas`
/// is null, or holds one θ per query (RankOptions::shared_threshold).
/// Returns false when the node is lost; the merge then proceeds
/// without it.
using ShardCall = std::function<bool(
    size_t node, const std::vector<ShardQuery>& batch,
    std::atomic<double>* shared_thetas, std::vector<ShardResult>* results,
    ClusterQueryStats* exchange)>;

/// The central server of every cluster flavour: pushes a resolved batch
/// to each of the node_docs.size() nodes through `call` and merges each
/// query's RES(url, score) tuples (MergeShardResults).
///
/// Without an executor, or with one node, the nodes are called in turn
/// and every pruning query gets threshold feedback: its running n-th
/// best score so far becomes its `threshold` at the next node, so later
/// nodes prune harder. Otherwise the nodes run concurrently over
/// `executor`, each query with one shared θ under
/// RankOptions::shared_threshold. Either way the rankings are exact;
/// only the work differs.
///
/// `stats` (batch totals) and `per_query` (one entry per query: its own
/// work, critical path and quality; wire and routing counters stay in
/// the batch totals) may be null. The batch critical path is the
/// slowest node's summed time. Predicted quality is the idf mass the
/// first answering node read (its stem_evaluated mask) over
/// `idf_masses`, times the share of node_docs on nodes that answered —
/// exactly 1.0 when every node answers.
std::vector<std::vector<ClusterScoredDoc>> CoordinateBatch(
    std::vector<ShardQuery> batch, const std::vector<double>& idf_masses,
    const std::vector<uint64_t>& node_docs, ThreadPool* executor,
    const ShardCall& call, ClusterQueryStats* stats,
    std::vector<ClusterQueryStats>* per_query);

/// Shared-nothing distributed full-text index.
///
/// Documents are assigned to nodes **per document** (round-robin), as
/// the paper prescribes; each node owns complete posting information
/// for its documents, so local rankings merge into the exact global
/// ranking with no cross-node joins — the property behind the paper's
/// "almost perfect shared nothing parallelism".
///
/// The central server holds the global vocabulary and document
/// frequencies (term statistics are collection-wide) and pushes the
/// top-N request with resolved term oids to every node; nodes return
/// RES(doc-oid, rank)-shaped tuples which the centre merges with a
/// bounded k-way merge, deterministically ordered by
/// (score desc, url asc) with node id as the final tie-break.
///
/// Execution model: queries run through CoordinateBatch. With an
/// executor attached (SetExecutor / EnableParallelism) the per-node
/// evaluations and the per-node rebuilds of Finalize() fan out over the
/// pool; without one they run sequentially in node order (with
/// threshold feedback for pruned queries). Both paths produce
/// bit-identical rankings; unpruned, also identical stats. After
/// Finalize() the cluster is frozen for reads: concurrent Query() /
/// QueryBatch() calls from any number of threads are safe.
class ClusterIndex {
 public:
  ClusterIndex(size_t num_nodes, size_t num_fragments);
  ClusterIndex(size_t num_nodes, size_t num_fragments,
               TextIndex::Options node_options);
  ~ClusterIndex();

  /// Adds a document; the target node is documents-added mod num_nodes.
  void AddDocument(std::string_view url, std::string_view text);

  /// Flushes all nodes and (re)builds per-node fragmentation and the
  /// global df table. Must be called before Query.
  void Finalize();

  /// Uses `pool` (non-owning, may be nullptr for sequential) to fan
  /// out per-node work in Query()/Finalize().
  void SetExecutor(ThreadPool* pool);

  /// Convenience: creates and owns an internal pool of `num_threads`
  /// workers and uses it as the executor.
  void EnableParallelism(size_t num_threads);

  size_t num_nodes() const { return nodes_.size(); }
  size_t document_count() const { return total_docs_; }
  size_t num_fragments() const { return num_fragments_; }

  /// Cluster-wide mutation epoch: the sum of every node's
  /// TextIndex::mutation_epoch(). Any AddDocument/Flush anywhere in
  /// the cluster changes it, so a cached result keyed by this value is
  /// provably derived from the current frozen state — the invalidation
  /// key of the serving layer's result cache (src/serve). Stable while
  /// the cluster is frozen for reads.
  uint64_t mutation_epoch() const {
    uint64_t sum = 0;
    for (const Node& node : nodes_) sum += node.index->mutation_epoch();
    return sum;
  }

  /// Read-only access to one node's local state (tests, benchmarks,
  /// E4 introspection). Valid after Finalize().
  const TextIndex& node_index(size_t i) const { return *nodes_[i].index; }
  const FragmentedIndex& node_fragments(size_t i) const {
    return *nodes_[i].fragments;
  }
  int64_t global_collection_length() const {
    return global_.collection_length;
  }
  /// Collection-wide df of a stem (0 when absent).
  int32_t global_df(std::string_view stem) const {
    auto it = global_.df.find(stem);
    return it == global_.df.end() ? 0 : it->second;
  }

  /// Distributed top-N with per-node fragment cut-off: a one-query
  /// QueryBatch. max_fragments == num_fragments gives the exact global
  /// ranking.
  ///
  /// With `filter`, candidate pushdown: node i evaluates under
  /// filter->per_node[i] (RankOptions::doc_filter semantics). The
  /// merged ranking is bit-identical to querying without the filter
  /// and keeping only filtered documents. `filter`, when non-null,
  /// must hold exactly num_nodes() bitmaps and outlive the call;
  /// options.doc_filter must be null (the per-node bitmaps replace
  /// it).
  std::vector<ClusterScoredDoc> Query(
      const std::vector<std::string>& query_words, size_t n,
      size_t max_fragments, ClusterQueryStats* stats = nullptr,
      const RankOptions& options = {},
      const ClusterDocFilter* filter = nullptr) const;

  /// Evaluates a batch of queries under one (n, max_fragments, options)
  /// policy through CoordinateBatch — every node gets the whole batch
  /// per call. Results are per query, in input order, with rankings
  /// identical to Query() on that query. `stats` and `per_query_stats`
  /// are CoordinateBatch's batch totals and per-rider attribution.
  std::vector<std::vector<ClusterScoredDoc>> QueryBatch(
      const std::vector<std::vector<std::string>>& queries, size_t n,
      size_t max_fragments, ClusterQueryStats* stats = nullptr,
      const RankOptions& options = {},
      std::vector<ClusterQueryStats>* per_query_stats = nullptr,
      const ClusterDocFilter* filter = nullptr) const;

  /// Writes every node's index as a segment file (ir/segment.h) named
  /// SegmentPath(path_prefix, i). Requires a finalized cluster.
  Status FlushToDisk(const std::string& path_prefix) const;

  /// Restores a cluster from per-node segment files: each path loads
  /// into one node (mmap-served, see TextIndex::LoadFromSegment),
  /// fragmentation is rebuilt and the global statistics re-aggregated,
  /// so Query() serves immediately — no document ever re-parsed. The
  /// loaded cluster is frozen: AddDocument is a programming error.
  static Result<std::unique_ptr<ClusterIndex>> LoadFromSegments(
      const std::vector<std::string>& paths, size_t num_fragments,
      const SegmentLoadOptions& load_options = {});

  /// "<prefix>.node<i>.seg" — the naming convention FlushToDisk and
  /// LoadFromSegments share.
  static std::string SegmentPath(const std::string& prefix, size_t node);

  /// Σ over nodes of TextIndex::bytes_resident() / bytes_mapped() —
  /// the heap-vs-mmap footprint split the serving stats surface.
  size_t bytes_resident() const;
  size_t bytes_mapped() const;

 private:
  struct Node {
    std::unique_ptr<TextIndex> index;
    std::unique_ptr<FragmentedIndex> fragments;
  };

  /// Global ranking needs collection-wide statistics; nodes score with
  /// these instead of their local ones.
  struct GlobalStats {
    // Aggregated per stem: collection-wide df.
    std::unordered_map<std::string, int32_t, TransparentStringHash,
                       std::equal_to<>>
        df;
    int64_t collection_length = 0;
    std::vector<uint64_t> node_docs;  ///< per node, for CoordinateBatch
  };

  /// Runs fn(i) for every node, over the executor when attached.
  void ForEachNode(const std::function<void(size_t)>& fn) const;

  size_t num_fragments_;
  std::vector<Node> nodes_;
  GlobalStats global_;
  size_t total_docs_ = 0;
  bool finalized_ = false;
  ThreadPool* executor_ = nullptr;
  std::unique_ptr<ThreadPool> owned_pool_;
};

}  // namespace dls::ir

#endif  // DLS_IR_CLUSTER_H_
