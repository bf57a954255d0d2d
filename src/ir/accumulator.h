#ifndef DLS_IR_ACCUMULATOR_H_
#define DLS_IR_ACCUMULATOR_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "ir/index.h"

namespace dls::ir {

/// Dense per-query score accumulator: the allocation-free replacement
/// for the unordered_map<DocId, double> the scoring loops used to
/// build per query.
///
/// Scores live in a dense array indexed by DocId; a touched-doc list
/// plus a byte-map make Reset() sparse (O(docs scored), not O(corpus))
/// and keep iteration over scored documents in first-touch order. The
/// backing storage only ever grows, so a pooled instance reaches a
/// steady state where queries allocate nothing.
///
/// Top-N selection uses a bounded min-heap of size n instead of
/// sorting every scored document; the extracted ranking is identical
/// to a full sort by (score desc, tie-break asc) — the strict total
/// order makes the heap and the sort agree bit-for-bit.
///
/// Not thread-safe; use ThreadLocal() to get this thread's pooled
/// instance. One instance supports one query at a time (no nesting
/// between Reset() and ExtractTopN()).
///
/// Sizing: callers pass the number of documents *they* score — the
/// cluster path resets per node-local index (ClusterIndex::QueryNode),
/// so a pooled accumulator on a query worker holds one node's doc
/// count, not the whole collection's. Because the pool is thread-local
/// and long-lived, one oversized query would otherwise pin its backing
/// arrays forever; Reset() therefore shrinks the storage back down
/// once a sustained run of much smaller requests proves the high-water
/// mark stale (see kShrinkFactor/kShrinkPatience).
class ScoreAccumulator {
 public:
  /// Reset() releases the backing arrays when kShrinkPatience
  /// consecutive resets requested fewer than backing/kShrinkFactor
  /// docs: long enough to ignore alternating workloads, aggressive
  /// enough that a one-off huge query doesn't pin memory for the
  /// thread's lifetime.
  static constexpr size_t kShrinkFactor = 8;
  static constexpr size_t kShrinkPatience = 64;

  /// Prepares for a query over documents [0, num_docs): sparsely
  /// clears the previous query's scores, grows storage if needed, and
  /// shrinks it after a sustained run of far smaller requests.
  void Reset(size_t num_docs) {
    for (DocId doc : touched_) touched_flag_[doc] = 0;
    touched_.clear();
    if (scores_.size() < num_docs) {
      scores_.resize(num_docs, 0.0);
      touched_flag_.resize(num_docs, 0);
      small_resets_ = 0;
    } else if (num_docs < scores_.size() / kShrinkFactor) {
      if (++small_resets_ >= kShrinkPatience) {
        scores_.assign(num_docs, 0.0);
        scores_.shrink_to_fit();
        touched_flag_.assign(num_docs, 0);
        touched_flag_.shrink_to_fit();
        small_resets_ = 0;
      }
    } else {
      small_resets_ = 0;
    }
  }

  void Add(DocId doc, double delta) {
    assert(doc < scores_.size() && "Reset() with a large enough doc count");
    if (touched_flag_[doc] == 0) {
      touched_flag_[doc] = 1;
      touched_.push_back(doc);
      scores_[doc] = delta;
    } else {
      scores_[doc] += delta;
    }
  }

  double score(DocId doc) const { return scores_[doc]; }
  size_t touched_count() const { return touched_.size(); }
  /// Documents scored so far, in first-touch order. Valid until the
  /// next Reset(); WandTopN offers the suffix each scan-mode window
  /// appends to its heap.
  const std::vector<DocId>& touched() const { return touched_; }
  /// Current backing-array size in documents (tests / introspection).
  size_t backing_docs() const { return scores_.size(); }

  /// Top `n` scored docs ordered by (score desc, tie_less asc).
  /// `tie_less(a, b)` orders equal-score documents; it must be a
  /// strict weak ordering that never reports equivalence for distinct
  /// docs, so the result is a deterministic total order.
  template <typename TieLess>
  std::vector<ScoredDoc> ExtractTopN(size_t n, TieLess tie_less) const {
    return ExtractTopN(n, tie_less, /*filter=*/nullptr);
  }

  /// As above, restricted to documents in `filter` (null = all): the
  /// extraction half of the doc_filter pushdown contract. Skipping a
  /// document at extraction time is exactly post-filtering — scores of
  /// kept documents are untouched — so filtered extraction is
  /// trivially bit-identical to exhaustive-then-filter.
  template <typename TieLess>
  std::vector<ScoredDoc> ExtractTopN(size_t n, TieLess tie_less,
                                     const DocFilter* filter) const {
    std::vector<ScoredDoc> heap;
    if (n == 0) return heap;
    auto better = [&tie_less](const ScoredDoc& a, const ScoredDoc& b) {
      if (a.score != b.score) return a.score > b.score;
      return tie_less(a.doc, b.doc);
    };
    // With `better` as the heap comparator, heap.front() is the worst
    // element kept so far — the one any new candidate must beat.
    heap.reserve(std::min(n, touched_.size()));
    for (DocId doc : touched_) {
      if (filter != nullptr && !filter->Contains(doc)) continue;
      ScoredDoc candidate{doc, scores_[doc]};
      if (heap.size() < n) {
        heap.push_back(candidate);
        std::push_heap(heap.begin(), heap.end(), better);
      } else if (better(candidate, heap.front())) {
        std::pop_heap(heap.begin(), heap.end(), better);
        heap.back() = candidate;
        std::push_heap(heap.begin(), heap.end(), better);
      }
    }
    std::sort_heap(heap.begin(), heap.end(), better);  // best first
    return heap;
  }

  /// Default tie-break: ascending DocId (the TextIndex ranking
  /// contract).
  std::vector<ScoredDoc> ExtractTopN(size_t n) const {
    return ExtractTopN(n, [](DocId a, DocId b) { return a < b; });
  }

  /// This thread's pooled accumulator. Concurrent queries each run on
  /// their own thread (pool worker or caller), so pooling per thread
  /// makes steady-state queries allocation-free without locking.
  static ScoreAccumulator& ThreadLocal();

 private:
  std::vector<double> scores_;
  std::vector<uint8_t> touched_flag_;
  std::vector<DocId> touched_;
  size_t small_resets_ = 0;  // consecutive resets far below backing size
};

}  // namespace dls::ir

#endif  // DLS_IR_ACCUMULATOR_H_
