#ifndef DLS_FEDERATE_BACKEND_H_
#define DLS_FEDERATE_BACKEND_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "ir/cluster.h"
#include "ir/index.h"
#include "federate/query_lang.h"
#include "webspace/objects.h"

namespace dls::federate {

/// The unified candidate key of the mediator: the web-object id. Every
/// backend can express "which entities satisfy this predicate" as a
/// sorted, duplicate-free vector of ids, which is what makes the three
/// paper levels composable with plain set algebra. The text corpus
/// follows the core-engine convention of indexing one document per
/// object attribute under the url `<id>#<attr>` (or `<id>` for whole
/// objects), so text documents map onto the same key space.
using CandidateSet = std::vector<std::string>;

/// Sorted-set intersection/union over CandidateSets.
CandidateSet IntersectSets(const CandidateSet& a, const CandidateSet& b);
CandidateSet UnionSets(const CandidateSet& a, const CandidateSet& b);

/// Whitespace-splits a text() predicate's words (raw words — stem
/// normalisation happens inside the index, as for any text query).
std::vector<std::string> SplitQueryWords(const std::string& text);

/// A federated backend: one source the mediator can plan over. All
/// implementations are read-only after construction and safe to share
/// across concurrent Execute() calls.
class FederateBackend {
 public:
  virtual ~FederateBackend() = default;

  /// Roughly what an exhaustive EvalFilter costs per stored candidate,
  /// relative to the other backends. The planner sums it over a step's
  /// predicates to order equally-selective steps cheapest-first.
  virtual double cost_per_candidate() const = 0;

  /// Validates that this backend can evaluate `pred` (kind matches,
  /// constraint paths/operators make sense for this source). Called by
  /// the planner before any evaluation, so executor-time failures are
  /// limited to genuine runtime trouble.
  virtual Status Accepts(const Predicate& pred) const = 0;

  /// Estimated fraction of this backend's universe satisfying `pred`,
  /// in [0, 1]. Purely advisory — used to order conjuncts — so it may
  /// be cheap and rough, but must be deterministic.
  virtual double EstimateSelectivity(const Predicate& pred) const = 0;

  /// Exhaustively evaluates `pred` to the sorted id set of satisfying
  /// entities. This is the boolean-filter path; ranking happens in the
  /// mediator, over the text backend's cluster.
  virtual Result<CandidateSet> EvalFilter(const Predicate& pred) const = 0;
};

/// Conceptual-constraint backend over the materialized webspace
/// instance (level 1 of the paper). Evaluates the same predicate
/// algebra as webspace::query's conceptual queries — class anchor,
/// attribute comparisons, one association step — against the merged
/// WebspaceInstance view.
///
/// Semantics (documented here because tests pin them):
///   class=C       anchor; candidates are ObjectsOfClass(C).
///   attr=V        the object's own attribute text (or multimedia src)
///                 equals V exactly.
///   attr!=V       attribute missing or not equal — negation within
///                 the class.
///   attr~"w"      case-insensitive word containment: some whitespace-
///                 delimited token of the attribute text contains V.
///   attr>=N       attribute text parses as a number >= N.
///   assoc.attr OP V   some object linked via `assoc` satisfies
///                 `attr OP V` (for != : no linked object equals V).
class WebspaceBackend : public FederateBackend {
 public:
  explicit WebspaceBackend(const webspace::WebspaceInstance* instance)
      : instance_(instance) {}

  /// Association-following makes a webspace probe pricier than a flat
  /// table scan but far cheaper than posting-list work.
  double cost_per_candidate() const override { return 4.0; }
  Status Accepts(const Predicate& pred) const override;
  double EstimateSelectivity(const Predicate& pred) const override;
  Result<CandidateSet> EvalFilter(const Predicate& pred) const override;

 private:
  const webspace::WebspaceInstance* instance_;
};

/// One row of the precomputed COBRA detection table: object `id`
/// contains an occurrence of `event` lasting `length_s` seconds. The
/// offline video/audio analysis of the paper's level 3 lands in this
/// shape; the backend only filters it.
struct CobraEvent {
  std::string id;
  std::string event;
  double length_s = 0.0;
};

/// Event-table backend (level 3). Constraints:
///   event=E      anchor; rows whose event name equals E.
///   min_len=D / min_len>=D   rows with length_s >= D (durations in
///                seconds; `ms` suffix normalised by the parser).
class CobraBackend : public FederateBackend {
 public:
  /// Sorts (and de-duplicates) the table by (id, event, length) so all
  /// derived candidate sets are deterministic.
  explicit CobraBackend(std::vector<CobraEvent> table);

  /// A sorted in-memory detection table: the cheapest probe of the
  /// three levels.
  double cost_per_candidate() const override { return 1.0; }
  Status Accepts(const Predicate& pred) const override;
  double EstimateSelectivity(const Predicate& pred) const override;
  Result<CandidateSet> EvalFilter(const Predicate& pred) const override;

  const std::vector<CobraEvent>& table() const { return table_; }

 private:
  std::vector<CobraEvent> table_;
  size_t distinct_ids_ = 0;
};

/// Ranked full-text backend (level 2) over the partitioned cluster
/// index. Besides the common filter interface (a document matches a
/// text filter when it contains at least one normalised query stem),
/// it owns the entity <-> (node, doc) table the executor needs to push
/// surviving candidates down into ranking as per-node bitmaps.
///
/// The backend snapshots the cluster's entity table at construction
/// and is only valid while the cluster stays frozen: the mutation
/// epoch is captured and re-checked on every evaluation (CheckFrozen),
/// so a cluster mutated by live ingestion yields kUnavailable — in
/// release builds too — instead of evaluating against a stale
/// snapshot.
class TextBackend : public FederateBackend {
 public:
  explicit TextBackend(const ir::ClusterIndex* cluster);

  /// Posting-list work dominates everything else the mediator touches.
  double cost_per_candidate() const override { return 8.0; }

  /// kUnavailable when the cluster's mutation epoch moved past the
  /// snapshot this backend was built from (rebuild the backend to
  /// serve the new epoch); Ok while the snapshot is still exact.
  Status CheckFrozen() const;

  Status Accepts(const Predicate& pred) const override;
  double EstimateSelectivity(const Predicate& pred) const override;
  /// Entities with at least one document containing at least one
  /// normalised stem of the predicate's words (stopword-only queries
  /// yield the empty set).
  Result<CandidateSet> EvalFilter(const Predicate& pred) const override;

  /// Builds the per-node candidate bitmaps for a sorted entity set.
  /// Entities without any indexed document contribute no bits.
  ir::ClusterDocFilter BuildFilter(const CandidateSet& candidates) const;

  /// All documents (urls, ascending) belonging to the given entities —
  /// the result set of a federated query with no text predicate.
  std::vector<std::string> DocsOfEntities(const CandidateSet& candidates) const;

  const ir::ClusterIndex& cluster() const { return *cluster_; }

 private:
  struct DocRef {
    uint32_t node;
    ir::DocId doc;
  };

  const ir::ClusterIndex* cluster_;
  uint64_t frozen_epoch_;
  /// entity id -> documents of that entity, ascending (node, doc).
  /// Parallel sorted vectors (entity_ids_ ascending, unique).
  std::vector<std::string> entity_ids_;
  std::vector<std::vector<DocRef>> entity_docs_;

  /// Index into entity_ids_ or npos.
  size_t FindEntity(std::string_view id) const;
};

/// The three backends a mediator plans across, looked up by predicate
/// kind. Non-owning; any pointer may be nullptr, in which case queries
/// naming that level are rejected by the planner.
struct BackendSet {
  TextBackend* text = nullptr;
  WebspaceBackend* webspace = nullptr;
  CobraBackend* cobra = nullptr;

  const FederateBackend* ForKind(PredKind kind) const;
};

}  // namespace dls::federate

#endif  // DLS_FEDERATE_BACKEND_H_
