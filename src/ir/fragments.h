#ifndef DLS_IR_FRAGMENTS_H_
#define DLS_IR_FRAGMENTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ir/index.h"

namespace dls::ir {

/// Work/quality accounting for a fragment-limited query: the
/// evaluation's work (RankStats) plus the cut-off's accounting.
struct FragmentQueryStats : RankStats {
  size_t terms_evaluated = 0;    ///< query terms whose fragment was read
  size_t terms_skipped = 0;      ///< query terms behind the cut-off
  /// Model-predicted quality in [0,1]: the idf mass of the evaluated
  /// query terms over the idf mass of all matching query terms — the
  /// a-priori estimator the optimizer uses to decide how far to read
  /// (the [BHC+01] cost-quality trade-off).
  double predicted_quality = 1.0;
};

/// Horizontally fragmented view of a TextIndex.
///
/// Read-path thread-safety: once built (or Rebuilt) over a frozen
/// TextIndex, any number of threads may call RankTopN / PlanCutoff /
/// RankWithQualityTarget concurrently. The constructor and Rebuild()
/// record the base index's mutation_epoch(); every ranking call
/// debug-asserts the epoch is unchanged, enforcing the
/// frozen-after-Finalize contract.
///
/// Terms are ordered by DESCENDING idf (rarest first) and the posting
/// lists are split into `num_fragments` fragments balanced by posting
/// count. High-idf terms are both the most significant for ranking and
/// the cheapest (short posting lists); low-idf terms are the least
/// significant and the most expensive. Reading only the first f
/// fragments therefore buys most of the ranking quality for a small
/// fraction of the work — the trade-off experiment E3 measures.
class FragmentedIndex {
 public:
  /// `base` must outlive this view and be flushed; documents added to
  /// `base` afterwards are not visible until Rebuild().
  FragmentedIndex(const TextIndex* base, size_t num_fragments);

  /// Re-derives the fragmentation from the current base index.
  void Rebuild();

  size_t num_fragments() const { return num_fragments_; }

  /// Fragment holding a term's postings (by the idf ordering).
  size_t FragmentOf(TermId term) const { return fragment_of_[term]; }

  /// Ranks documents reading only fragments [0, max_fragments).
  /// max_fragments == num_fragments() gives the exact ranking.
  std::vector<ScoredDoc> RankTopN(const std::vector<std::string>& query_words,
                                  size_t n, size_t max_fragments,
                                  FragmentQueryStats* stats = nullptr,
                                  const RankOptions& options = {}) const;

  /// Postings stored in fragment `f` (for size accounting).
  size_t FragmentPostingCount(size_t f) const { return fragment_postings_[f]; }

  /// Cost-quality query optimisation ([BHC+01]): picks the smallest
  /// cut-off whose a-priori predicted quality (idf mass of the query
  /// terms inside the cut-off over the total) reaches `min_quality`,
  /// then evaluates only those fragments. The chosen cut-off is
  /// reported through `stats`. min_quality >= 1 degenerates to exact
  /// evaluation; an unmatchable query evaluates nothing.
  std::vector<ScoredDoc> RankWithQualityTarget(
      const std::vector<std::string>& query_words, size_t n,
      double min_quality, FragmentQueryStats* stats = nullptr,
      const RankOptions& options = {}) const;

  /// The cut-off RankWithQualityTarget would choose (planning only —
  /// touches term statistics, not posting lists).
  size_t PlanCutoff(const std::vector<std::string>& query_words,
                    double min_quality) const;

 private:
  const TextIndex* base_;
  size_t num_fragments_;
  std::vector<size_t> fragment_of_;        // term -> fragment
  std::vector<size_t> fragment_postings_;  // fragment -> #postings
  uint64_t built_epoch_ = 0;               // base epoch at Rebuild()
};

}  // namespace dls::ir

#endif  // DLS_IR_FRAGMENTS_H_
