#ifndef DLS_IR_KERNEL_H_
#define DLS_IR_KERNEL_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "ir/accumulator.h"
#include "ir/index.h"
#include "ir/postings.h"

namespace dls::ir {

/// The posting-scan scoring kernel of the IR stack.
///
/// Every ranking path (TextIndex::RankTopN, FragmentedIndex,
/// ClusterIndex node evaluation) scores a matching posting as
///
///   score = log1p(w · tf · (1/doclen)),   w = λ·CL / ((1−λ)·df)
///
/// with the per-term constant `w` hoisted out of the loop and the
/// per-document reciprocal precomputed at Flush(), so the inner loop
/// is one multiply, one multiply, one log1p — straight-line code the
/// compiler vectorises over an SoA posting block. The log1p itself is
/// VecLog1p below: branch-light bit manipulation plus a polynomial,
/// identical in scalar and vectorised form, so the kScalar and kBlock
/// kernels return bit-identical scores (ci runs the tree with FP
/// contraction off; see src/ir/CMakeLists.txt).
///
/// On top of the kernel sit the evaluation strategies
/// (RankOptions::strategy): the exhaustive TAAT scan and the pruning
/// DAAT WAND loop, both dispatched through EvaluateTopN at the bottom
/// of this header. Both sum a document's term contributions in the
/// same canonical order (df desc, resolved position asc), which makes
/// them bit-identical — FP addition commutes but does not associate,
/// so the summation order is part of the exactness contract.

/// Hoisted per-term constant w = λ·CL / ((1−λ)·df). Requires df > 0.
inline double TermWeight(int32_t df, int64_t collection_length,
                         const RankOptions& options) {
  return (options.lambda * static_cast<double>(collection_length)) /
         ((1.0 - options.lambda) * static_cast<double>(df));
}

/// Vector-friendly log1p for x ≥ 0: no libm call, no data-dependent
/// branch (the one predicate compiles to a select), so the compiler
/// can evaluate it across SIMD lanes. Faithful to a few ulp:
/// u = 1+x is split as u·(1 + r/u) with r the rounding residue, u is
/// decomposed into m·2^k with m ∈ [√½, √2), and log(m) is the atanh
/// series 2s(1 + z/3 + z²/5 + …) with s = (m−1)/(m+1), z = s².
inline double VecLog1p(double x) {
  const double u = 1.0 + x;
  const double corr = (x - (u - 1.0)) / u;  // first-order residue term

  uint64_t bits;
  std::memcpy(&bits, &u, sizeof(bits));
  int64_t k = static_cast<int64_t>(bits >> 52) - 1023;
  uint64_t mantissa =
      (bits & 0x000fffffffffffffULL) | 0x3ff0000000000000ULL;  // m ∈ [1, 2)
  double m;
  std::memcpy(&m, &mantissa, sizeof(m));
  // Re-centre m into [√½, √2) so |s| ≤ √2−1 / √2+1 ≈ 0.1716.
  const bool fold = m > 1.4142135623730951;
  m = fold ? m * 0.5 : m;
  k = fold ? k + 1 : k;

  const double s = (m - 1.0) / (m + 1.0);
  const double z = s * s;
  // Σ z^i/(2i+3), i = 0..9 — truncation error ≪ 1 ulp for z ≤ 0.0295.
  double p = 1.0 / 21.0;
  p = p * z + 1.0 / 19.0;
  p = p * z + 1.0 / 17.0;
  p = p * z + 1.0 / 15.0;
  p = p * z + 1.0 / 13.0;
  p = p * z + 1.0 / 11.0;
  p = p * z + 1.0 / 9.0;
  p = p * z + 1.0 / 7.0;
  p = p * z + 1.0 / 5.0;
  p = p * z + 1.0 / 3.0;
  const double log_m = 2.0 * s + 2.0 * s * z * p;

  // ln2 split hi/lo (fdlibm): k·hi is exact for |k| < 2^20.
  const double kLn2Hi = 6.93147180369123816490e-01;
  const double kLn2Lo = 1.90821492927058770002e-10;
  const double dk = static_cast<double>(k);
  return dk * kLn2Hi + (log_m + corr + dk * kLn2Lo);
}

/// One posting's score contribution from hoisted inputs.
inline double KernelScore(double w, int32_t tf, double inv_doclen) {
  return VecLog1p((w * static_cast<double>(tf)) * inv_doclen);
}

/// True upper bound of KernelScore(w, tf, inv) over tf ≤ max_tf and
/// inv ≤ max_inv_doclen. The relative margin absorbs the few-ulp error
/// of VecLog1p (a polynomial kernel is not guaranteed monotone at ulp
/// granularity), so pruning against this bound is always sound.
inline double ScoreUpperBound(double w, int32_t max_tf,
                              double max_inv_doclen) {
  return KernelScore(w, max_tf, max_inv_doclen) * (1.0 + 1e-12);
}

/// Score upper bound from a precomputed block key (PostingBlockMeta::
/// score_key = round-up-to-float max over the block of tf·(1/doclen)).
/// For every posting in the block, tf·inv ≤ key, and IEEE
/// multiplication by w > 0 is monotone under round-to-nearest, so
/// fl(w·tf·inv) ≤ fl(w·key); the relative margin absorbs VecLog1p's
/// few-ulp non-monotonicity exactly as in ScoreUpperBound. Tighter
/// than the (max_tf, max_inv_doclen) product bound because the key
/// folds in the actual document lengths of the block — and one
/// multiply cheaper per skip test.
inline double ScoreUpperBoundFromKey(double w, float score_key) {
  return VecLog1p(w * static_cast<double>(score_key)) * (1.0 + 1e-12);
}

/// TAAT kernel entry point: scores every posting of `list` into `acc`
/// (acc->Add(doc, score) in posting order). All kernels produce
/// bit-identical accumulator contents; kBlock strip-mines over the SoA
/// blocks so the arithmetic vectorises, kPacked decodes one
/// delta/varint block (codec.h) into a stack buffer and then runs the
/// identical strip-mined loop. A list whose SoA payload was released
/// (PostingList::ReleaseUnpackedPayload) is scored through the packed
/// decoder whatever `kernel` says; a list that was never packed falls
/// back to the block path — both substitutions are bit-identical.
void ScorePostingList(const PostingList& list, double w,
                      const double* inv_doc_lengths, ScoreKernel kernel,
                      ScoreAccumulator* acc);

/// First index in [lo, hi) with docs[i] ≥ target — galloping search:
/// exponential probe from `lo`, then binary search inside the bracketed
/// window. O(log gap) where the linear scan it replaces was O(gap);
/// when the cursor barely moves (gap ≤ 1) it costs one compare, so
/// dense cursors lose nothing.
inline size_t GallopLowerBound(const DocId* docs, size_t lo, size_t hi,
                               DocId target) {
  if (lo >= hi || docs[lo] >= target) return lo;
  size_t step = 1;
  size_t prev = lo;  // invariant: docs[prev] < target
  while (prev + step < hi && docs[prev + step] < target) {
    prev += step;
    step <<= 1;
  }
  const size_t upper = prev + step < hi ? prev + step + 1 : hi;
  return static_cast<size_t>(
      std::lower_bound(docs + prev + 1, docs + upper, target) - docs);
}

/// Named tie-break comparators. The strategy evaluators below are
/// function templates over the tie order; kernel.cc explicitly
/// instantiates them for these two types with the scoring kernel's
/// hot-loop flags (-O3, vectorisation, fp-contract off), and the
/// extern-template declarations at the bottom of this header stop
/// every other TU from stamping its own copy at whatever optimisation
/// level it happens to build with. Callers pass DocIdTieLess for the
/// standard (score desc, doc asc) contract, or wrap a contextful
/// order (the cluster's URL tie-break) in ErasedTieLess — the
/// indirect call only runs on heap decisions, never in scoring loops.
struct DocIdTieLess {
  bool operator()(DocId a, DocId b) const { return a < b; }
};
struct ErasedTieLess {
  bool (*fn)(const void* ctx, DocId a, DocId b);
  const void* ctx;
  bool operator()(DocId a, DocId b) const { return fn(ctx, a, b); }
};

/// One query term for the evaluators (EvaluateTopN, WandTopN): posting
/// list, hoisted weight, and the df the canonical order and the cost
/// model use — node-local df for single-index rankings, collection-wide
/// df on the cluster path (the same statistics the weight was computed
/// with).
struct EvalTerm {
  const PostingList* list;
  double w;        ///< hoisted TermWeight of the term
  int32_t df = 0;  ///< document frequency (ordering + cost model input)
};

/// WAND-style exact top-`n` evaluation over block-structured posting
/// lists (document-at-a-time with score upper bounds). `terms` must
/// already be in canonical evaluation order (EvaluateTopN sorts them):
/// a term's position in the array is its place in every document's
/// summation.
///
/// Exactness argument: the bounded heap's threshold θ (the n-th best
/// score so far, or `initial_threshold` from an outer merge) is a
/// lower bound of the final n-th best score, every skip requires the
/// candidate's score bound to be *strictly* below θ, and a document
/// that is scored at all is scored completely, with its term
/// contributions summed in canonical evaluation order (array order of
/// `terms`) — exactly the order the TAAT accumulator adds them. The
/// returned ranking (documents and scores, ordered by score desc then
/// `tie_less`) is therefore bit-identical to exhaustive evaluation;
/// only the work differs.
///
/// Bounds come from the precomputed per-block score keys
/// (PostingBlockMeta::score_key) when the lists carry them — one
/// multiply and a VecLog1p per block, no metadata recomputation, no
/// decode — with the (max_tf, max_inv_doclen) product bound as the
/// fallback for hand-built lists that were never finalised.
///
/// Work shape: cursors form a small array in canonical order; lagging
/// cursors seek with block skips plus galloping within the target
/// block, and when a pivot survives its block-max bound check the loop
/// drops into *scan mode* for one block-bounded window: every live
/// cursor contributes its postings with doc ≤ the min of the live
/// cursors' current block max_docs, added straight into the pooled
/// accumulator with the same strip-mined loop shape as the TAAT
/// kernel (strips processed in canonical order, so each document's
/// summation order is the reference's), and the newly touched suffix
/// of the accumulator is offered to the heap. The un-prunable mass is
/// therefore scored at vectorised-scan rates instead of paying the
/// pivot machinery per document, while the skip paths still jump
/// whole blocks wherever θ bites. Extra window documents are scored
/// exactly and simply rejected by the heap.
///
/// `initial_threshold` implements the cluster's threshold feedback: a
/// node that starts with the running global n-th best score prunes
/// documents that provably cannot enter the global merge. Pass 0 for
/// a standalone evaluation.
///
/// `shared_theta`, when non-null, is the live variant of the same
/// feedback for *concurrent* node evaluations
/// (RankOptions::shared_threshold): every iteration prunes against
/// max(local θ, shared θ), and whenever the local heap fills or its
/// n-th best rises the new value is published monotonically
/// (compare-exchange max). Soundness is unchanged — any published
/// value is some node's running n-th best local score, and the n-th
/// best of a superset can only be larger, so the shared value is
/// always a lower bound of the final *global* n-th best; skips remain
/// strictly-below-θ. The returned ranking is exact; only
/// postings_touched / blocks_skipped become schedule-dependent.
///
/// With `kernel == kPacked` the cursors read doc ids and tfs through a
/// per-cursor one-block decode cache instead of the SoA arrays: a
/// block is only decompressed when a posting inside it is actually
/// examined, so block-level skips (via the uncompressed metadata)
/// never pay the decode — `stats->blocks_decoded` counts the
/// decompressions. Cursors over lists that were never packed keep
/// reading the SoA arrays; lists whose payload was released are read
/// packed under every kernel. Either way the values are identical, so
/// the ranking stays bit-identical across kernels.
///
/// `filter` (RankOptions::doc_filter; null = no filter) restricts the
/// ranking to the filtered documents, bit-identically to
/// exhaustive-then-filter: only filtered documents enter the heap, so
/// θ is the n-th best *filtered* score seen so far — a lower bound of
/// the final filtered n-th best — and every skip still requires a
/// bound strictly below θ. A pivot outside the filter is stepped over
/// without being scored (a pure work saving: its score influences
/// nothing); scan-mode windows score it exactly and the heap gate
/// simply never sees it.
template <typename TieLess>
std::vector<ScoredDoc> WandTopN(const std::vector<EvalTerm>& terms,
                                size_t num_docs,
                                const double* inv_doc_lengths,
                                double max_inv_doclen, size_t n,
                                double initial_threshold, TieLess tie_less,
                                ScoreKernel kernel, RankStats* stats,
                                std::atomic<double>* shared_theta = nullptr,
                                const DocFilter* filter = nullptr) {
  std::vector<ScoredDoc> heap;
  if (n == 0) {
    if (stats != nullptr) *stats = RankStats{};
    return heap;
  }
  // Scan-mode windows complete documents in the pooled accumulator;
  // the heap stays the result, the accumulator is scratch.
  ScoreAccumulator& acc = ScoreAccumulator::ThreadLocal();
  acc.Reset(num_docs);
  auto better = [&tie_less](const ScoredDoc& a, const ScoredDoc& b) {
    if (a.score != b.score) return a.score > b.score;
    return tie_less(a.doc, b.doc);
  };

  struct Cursor {
    const PostingList* list;
    double w;
    double bound;  // list-level score upper bound
    bool packed;  // read via the decode cache instead of the SoA arrays
    bool keyed;   // per-block score keys available (block-max bounds)
    size_t slot;  // index of this cursor's decode cache
    size_t pos = 0;
    // Cached doc at pos; kExhausted once the list runs out. The cursor
    // array is NEVER re-sorted — it stays in canonical (`terms`)
    // order for the whole evaluation, so equal-doc work always
    // visits cursors in canonical order by plain array order, and the
    // per-iteration sort/compact machinery of a doc-sorted design is
    // gone entirely.
    DocId cur = 0;
    // Lazily cached bound of the block containing pos.
    size_t bound_block = std::numeric_limits<size_t>::max();
    double block_bound = 0.0;
  };
  constexpr DocId kExhausted = std::numeric_limits<DocId>::max();
  std::vector<Cursor> cursors;
  cursors.reserve(terms.size());
  for (const EvalTerm& t : terms) {
    if (t.list == nullptr || t.list->empty()) continue;
    const bool packed = (kernel == ScoreKernel::kPacked ||
                         t.list->payload_released()) &&
                        t.list->is_packed();
    const bool keyed = t.list->has_block_bounds();
    const double bound =
        keyed ? ScoreUpperBoundFromKey(t.w, t.list->max_score_key())
              : ScoreUpperBound(t.w, t.list->max_tf(), max_inv_doclen);
    cursors.push_back(
        Cursor{t.list, t.w, bound, packed, keyed, cursors.size()});
  }

  RankStats local;
  // One-block decode scratch per cursor, indexed by Cursor::slot.
  // Sized only when needed.
  struct DecodedBlock {
    size_t block = std::numeric_limits<size_t>::max();
    DocId docs[kPostingBlockSize];
    int32_t tfs[kPostingBlockSize];
  };
  bool any_packed = false;
  for (const Cursor& c : cursors) any_packed |= c.packed;
  std::vector<DecodedBlock> decoded(any_packed ? cursors.size() : 0);
  auto ensure_decoded = [&](const Cursor& c, size_t block) -> DecodedBlock& {
    DecodedBlock& d = decoded[c.slot];
    if (d.block != block) {
      c.list->DecodePackedBlock(block, d.docs, d.tfs);
      d.block = block;
      ++local.blocks_decoded;
    }
    return d;
  };
  auto doc_at_pos = [&](const Cursor& c, size_t pos) -> DocId {
    if (c.packed) {
      return ensure_decoded(c, pos / kPostingBlockSize)
          .docs[pos % kPostingBlockSize];
    }
    return c.list->doc(pos);
  };
  auto doc_at = [&](const Cursor& c) { return doc_at_pos(c, c.pos); };
  auto block_bound = [&max_inv_doclen](Cursor& c) {
    size_t b = c.pos / kPostingBlockSize;
    if (b != c.bound_block) {
      c.bound_block = b;
      const PostingBlockMeta& m = c.list->block_meta(b);
      c.block_bound = c.keyed
                          ? ScoreUpperBoundFromKey(c.w, m.score_key)
                          : ScoreUpperBound(c.w, m.max_tf, max_inv_doclen);
    }
    return c.block_bound;
  };
  // Seeks `c` to its first posting with doc ≥ target: whole blocks are
  // jumped via max_doc metadata (never decoded), then the position
  // gallops within the final block.
  auto seek_cursor = [&](Cursor& c, DocId target) {
    ++local.cursor_advances;
    size_t block = c.pos / kPostingBlockSize;
    const size_t num_blocks = c.list->num_blocks();
    while (block < num_blocks && c.list->block_meta(block).max_doc < target) {
      ++block;
      ++local.blocks_skipped;
    }
    if (block >= num_blocks) {
      c.pos = c.list->size();  // exhausted
      c.cur = kExhausted;
      return;
    }
    const size_t begin = std::max(c.pos, PostingList::block_begin(block));
    const size_t end = c.list->block_end(block);
    if (c.packed) {
      const DecodedBlock& d = ensure_decoded(c, block);
      const size_t base = PostingList::block_begin(block);
      c.pos =
          base + GallopLowerBound(d.docs, begin - base, end - base, target);
    } else {
      c.pos = GallopLowerBound(c.list->doc_data(), begin, end, target);
    }
    c.cur = c.pos < c.list->size() ? doc_at(c) : kExhausted;
  };
  // Monotone-max publication of the local n-th best (the shared
  // threshold-feedback protocol). Relaxed ordering suffices: the value
  // is a standalone double used only as a pruning bound, and any
  // stale read just prunes a little less.
  auto publish_theta = [&]() {
    if (shared_theta == nullptr || heap.size() < n) return;
    const double mine = heap.front().score;
    double seen = shared_theta->load(std::memory_order_relaxed);
    while (mine > seen && !shared_theta->compare_exchange_weak(
                              seen, mine, std::memory_order_relaxed)) {
    }
  };
  auto push_candidate = [&](DocId doc, double score) {
    if (filter != nullptr && !filter->Contains(doc)) return;
    ScoredDoc candidate{doc, score};
    if (heap.size() < n) {
      heap.push_back(candidate);
      std::push_heap(heap.begin(), heap.end(), better);
      publish_theta();  // no-op until the heap fills
    } else if (better(candidate, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), better);
      heap.back() = candidate;
      std::push_heap(heap.begin(), heap.end(), better);
      publish_theta();
    }
  };
  for (Cursor& c : cursors) c.cur = doc_at(c);

  // Scan-mode scratch: one block of strip scores (two-pass like
  // ScoreBlock, so the multiplies and the VecLog1p polynomial
  // vectorise).
  double strip_scores[kPostingBlockSize];

  // Pivot-density tracker for the scoring-mode choice below: a streak
  // of near-adjacent pivots means θ is not skipping documents and the
  // amortised window scan is the cheaper way through this region;
  // isolated pivots are cheaper scored individually. Either mode sums
  // a document's contributions in canonical order, so the choice
  // affects only work, never the ranking.
  DocId scored_through = 0;   // exclusive: docs < this are settled
  unsigned dense_streak = 0;  // consecutive near-adjacent pivots
  constexpr DocId kDenseGap = 16;
  constexpr unsigned kDenseStreak = 4;

  while (true) {
    ++local.pivot_iterations;
    double theta =
        heap.size() == n ? std::max(initial_threshold, heap.front().score)
                         : initial_threshold;
    if (shared_theta != nullptr) {
      theta = std::max(theta,
                       shared_theta->load(std::memory_order_relaxed));
    }
    // Pivot: the smallest document whose doc-ascending cursor-bound
    // prefix sum could still reach θ (≥, not >, so score ties stay
    // eligible for the tie-break), found with layered min-scans over
    // the order-fixed array — equal-doc bounds accumulate in array
    // (canonical) order, exactly the (doc, order)-sorted traversal.
    // No pivot ⇒ nothing left can enter the heap.
    DocId layer = kExhausted;
    for (const Cursor& c : cursors) layer = std::min(layer, c.cur);
    if (layer == kExhausted) break;  // every cursor exhausted
    const DocId min_doc = layer;
    double bound_sum = 0.0;
    DocId pivot_doc = kExhausted;
    while (layer != kExhausted && pivot_doc == kExhausted) {
      DocId next = kExhausted;
      for (const Cursor& c : cursors) {
        if (c.cur == layer) {
          bound_sum += c.bound;
          if (bound_sum >= theta) {
            pivot_doc = layer;
            break;
          }
        } else if (c.cur > layer && c.cur < next) {
          next = c.cur;
        }
      }
      layer = next;
    }
    if (pivot_doc == kExhausted) break;

    if (min_doc != pivot_doc) {
      // Lagging cursors can never contribute below the pivot document:
      // seek them forward (block skips + gallop).
      for (Cursor& c : cursors) {
        if (c.cur < pivot_doc) seek_cursor(c, pivot_doc);
      }
      continue;
    }

    // Contributors: every cursor positioned on pivot_doc. `limit` is
    // the smallest non-contributor doc — the first point where the
    // contributor set changes.
    size_t m = 0;
    Cursor* sole = nullptr;
    DocId limit = kExhausted;
    for (Cursor& c : cursors) {
      if (c.cur == pivot_doc) {
        ++m;
        sole = &c;
      } else if (c.cur < limit) {
        limit = c.cur;
      }
    }

    if (m == 1 && block_bound(*sole) < theta) {
      // Lone contributor inside a low block: documents up to the next
      // cursor's position can only be scored by this cursor, so whole
      // blocks whose block-max score key stays below θ are skipped
      // outright. Skip decisions consult only the uncompressed block
      // metadata, so a packed cursor never decodes a block it skips.
      Cursor& c = *sole;
      // Loop invariant: doc_at(c) < limit (contributor selection
      // guarantees it on entry; every branch below re-establishes or
      // breaks).
      while (c.pos < c.list->size() && block_bound(c) < theta) {
        const size_t block = c.pos / kPostingBlockSize;
        const size_t end = c.list->block_end(block);
        if (c.list->block_meta(block).max_doc < limit) {
          c.pos = end;  // the whole rest of the block is prunable
          ++local.blocks_skipped;
        } else if (c.pos == PostingList::block_begin(block) &&
                   c.list->block_meta(block).min_doc >= limit) {
          break;  // block opens on a doc other cursors share
        } else {
          ++local.cursor_advances;
          if (c.packed) {
            const DecodedBlock& d = ensure_decoded(c, block);
            const size_t base = PostingList::block_begin(block);
            c.pos = base + GallopLowerBound(d.docs, c.pos - base, end - base,
                                            limit);
          } else {
            c.pos = GallopLowerBound(c.list->doc_data(), c.pos, end, limit);
          }
          if (c.pos < end) break;  // reached a doc other cursors share
        }
      }
      c.cur = c.pos < c.list->size() ? doc_at(c) : kExhausted;
      continue;
    }

    // Block-max refinement: the pivot document's score is at most the
    // sum of its contributors' current block bounds. When that sum
    // stays below θ the same bound rejects every document up to the
    // first point where it changes — the next non-contributor's doc
    // (different contributor set) or a contributor's block boundary
    // (different block bound) — so the contributors seek there in one
    // jump instead of stepping a document at a time.
    double block_sum = 0.0;
    for (Cursor& c : cursors) {
      if (c.cur == pivot_doc) block_sum += block_bound(c);
    }
    if (block_sum < theta) {
      DocId jump = limit;
      for (const Cursor& c : cursors) {
        if (c.cur == pivot_doc) {
          const size_t block = c.pos / kPostingBlockSize;
          jump = std::min(
              jump,
              static_cast<DocId>(c.list->block_meta(block).max_doc + 1));
        }
      }
      for (Cursor& c : cursors) {
        if (c.cur == pivot_doc) seek_cursor(c, jump);
      }
      continue;
    }

    // θ failed to prune the pivot document, so it must be scored.
    // Two modes, chosen by pivot density:
    //
    //  - per-document: sum exactly the pivot's contributions
    //    (contributors are already positioned on it) in array
    //    (canonical) order, offer, and step each contributor one
    //    posting. Cheapest when θ skips most documents — nothing
    //    beyond the pivot is touched.
    //  - scan-mode window (below): when pivots arrive back-to-back
    //    the per-document bookkeeping costs more than the scoring, so
    //    score one block-bounded window at vectorised-scan rates.
    const bool near = pivot_doc < scored_through + kDenseGap;
    dense_streak = near ? dense_streak + 1 : 0;
    if (dense_streak < kDenseStreak) {
      // A pivot outside the filter contributes to nothing: step its
      // contributors past it without reading tfs. Scoring it and
      // letting push_candidate reject it would be identical in result,
      // just wasted work.
      const bool scored = filter == nullptr || filter->Contains(pivot_doc);
      double score = 0.0;
      for (Cursor& c : cursors) {
        if (c.cur != pivot_doc) continue;
        if (scored) {
          int32_t tf;
          if (c.packed) {
            tf = ensure_decoded(c, c.pos / kPostingBlockSize)
                     .tfs[c.pos % kPostingBlockSize];
          } else {
            tf = c.list->tf(c.pos);
          }
          score += VecLog1p((c.w * static_cast<double>(tf)) *
                            inv_doc_lengths[pivot_doc]);
          ++local.postings_touched;
        }
        ++c.pos;
        ++local.cursor_advances;
        c.cur = c.pos < c.list->size() ? doc_at(c) : kExhausted;
      }
      if (scored) push_candidate(pivot_doc, score);
      scored_through = pivot_doc + 1;
      continue;
    }

    // Scan-mode window: θ failed to prune this pivot, so score one
    // block-bounded window at vectorised-scan rates instead of paying
    // the pivot machinery per document. run_last is the min of the
    // live cursors' current block max_docs, so every cursor's
    // window-strip lies inside its already-positioned block, and a
    // document ≤ run_last receives *all* of its remaining
    // contributions this window (later cursor positions hold strictly
    // larger docs; positions passed by earlier skips were proven
    // unable to reach θ and stay below every live cursor). Strips are
    // added into the pooled accumulator in array (canonical)
    // processing order — a document's summation sequence is exactly
    // the TAAT reference's — and the newly touched suffix is offered
    // to the heap, raising θ for the skip paths of later iterations.
    // Positions only ever advance, so no posting is scored twice;
    // window documents beyond the pivot are exact and the heap simply
    // rejects the ones that do not qualify.
    DocId run_last = kExhausted;
    for (const Cursor& c : cursors) {
      if (c.cur == kExhausted) continue;
      run_last = std::min(
          run_last, c.list->block_meta(c.pos / kPostingBlockSize).max_doc);
    }
    const size_t touched_before = acc.touched().size();
    for (Cursor& c : cursors) {
      if (c.cur > run_last) continue;  // exhausted or beyond the window
      const size_t block = c.pos / kPostingBlockSize;
      const size_t base = PostingList::block_begin(block);
      const size_t end = c.list->block_end(block);
      const DocId* docs;
      const int32_t* tfs;
      if (c.packed) {
        const DecodedBlock& d = ensure_decoded(c, block);
        docs = d.docs + (c.pos - base);
        tfs = d.tfs + (c.pos - base);
      } else {
        docs = c.list->doc_data() + c.pos;
        tfs = c.list->tf_data() + c.pos;
      }
      const size_t len =
          GallopLowerBound(docs, 0, end - c.pos, run_last + 1);
      const double w = c.w;
      for (size_t j = 0; j < len; ++j) {
        strip_scores[j] = VecLog1p((w * static_cast<double>(tfs[j])) *
                                   inv_doc_lengths[docs[j]]);
      }
      for (size_t j = 0; j < len; ++j) acc.Add(docs[j], strip_scores[j]);
      local.postings_touched += len;
      c.pos += len;
      ++local.cursor_advances;
      c.cur = c.pos < c.list->size() ? doc_at(c) : kExhausted;
    }
    const std::vector<DocId>& touched = acc.touched();
    for (size_t i = touched_before; i < touched.size(); ++i) {
      push_candidate(touched[i], acc.score(touched[i]));
    }
    scored_through = run_last + 1;
  }

  std::sort_heap(heap.begin(), heap.end(), better);  // best first
  if (stats != nullptr) *stats = local;
  return heap;
}

/// Terms with df ≤ document_count / kRareDfDivisor count as "rare" for
/// the cost model: their posting lists are short enough that the
/// branchy DAAT loop is cheap, and partially skipping them is where
/// pruning saves wall-clock. High-df terms are the opposite — cheap per
/// posting under the vectorised scan, expensive to skip.
inline constexpr size_t kRareDfDivisor = 32;

/// Number of dense (above the rare cut) terms in a (df desc)-sorted
/// term array. Because the terms are sorted, the dense terms are
/// exactly the prefix and the rare terms the rest.
inline size_t DenseTermCount(const EvalTerm* terms, size_t count,
                             size_t num_docs) {
  const size_t rare_cut = num_docs / kRareDfDivisor;
  size_t dense = 0;
  while (dense < count &&
         static_cast<size_t>(terms[dense].df) > rare_cut) {
    ++dense;
  }
  return dense;
}

/// WAND's per-candidate machinery (pivot selection, galloped seeks,
/// per-document scoring) costs roughly this many vectorised-scan
/// posting visits. The planner sends a query to kWand only when the
/// rare lists — whose postings bound the candidate count — are at
/// least this much shorter than the whole query, so the machinery is
/// provably cheaper than the scan it replaces. Measured on
/// bench_ir_kernel's per-strategy tables (~40-70 ns per pivot vs
/// ~6 ns per scanned posting).
inline constexpr size_t kWandCandidateFactor = 8;

/// Largest number of long (above the rare cut) cursors a query may
/// have and still be sent to kWand — see PlanStrategy.
inline constexpr size_t kWandMaxDenseCursors = 2;

/// The per-query cost model behind RankStrategy::kAuto with
/// RankOptions::prune: picks the evaluation strategy from the query's
/// posting-length profile and the requested depth. `terms` must be
/// sorted df desc (EvaluateTopN's canonical order).
///
///   - deep top-N (n within a factor of the corpus) ⇒ kTaat: θ stays
///     low, skip tests keep failing, the exhaustive scan wins.
///   - tiny query (total postings ≪ corpus) ⇒ kTaat: the whole scan
///     costs less than any evaluator's per-candidate bookkeeping.
///   - no rare tail ⇒ kTaat: every list is long; pruning saves little
///     and the DAAT loop costs per-document branching.
///   - all rare ⇒ kWand: short lists, θ rises fast, block skips pay.
///   - rare lists ≪ total (kWandCandidateFactor) with at most
///     kWandMaxDenseCursors long cursors ⇒ kWand: θ is set by the rare
///     contributors, so the long lists gallop between their documents
///     instead of being scanned — the pruning jackpot.
///   - otherwise ⇒ kTaat: whatever pruning could save is smaller than
///     the machinery it would buy it with.
inline RankStrategy PlanStrategy(const EvalTerm* terms, size_t count,
                                 size_t n, size_t num_docs) {
  if (count == 0) return RankStrategy::kTaat;
  // n·8 ≥ num_docs, written without the multiply: `n` arrives from the
  // wire unbounded, and n·8 wraps for n ≥ 2^61.
  if (n >= num_docs / 8 + (num_docs % 8 != 0)) return RankStrategy::kTaat;
  size_t total = 0;
  for (size_t i = 0; i < count; ++i) {
    total += terms[i].list == nullptr ? 0 : terms[i].list->size();
  }
  if (total * 4 <= num_docs) return RankStrategy::kTaat;
  const size_t dense = DenseTermCount(terms, count, num_docs);
  if (dense == count) return RankStrategy::kTaat;
  if (dense == 0) return RankStrategy::kWand;  // every list is short
  size_t rare = 0;
  for (size_t i = dense; i < count; ++i) {
    rare += terms[i].list == nullptr ? 0 : terms[i].list->size();
  }
  // Selective query: candidates are bounded by the short lists and the
  // few long cursors gallop between them — but only while the long
  // cursors' summed bounds stay below θ. Each additional long cursor
  // adds its full bound to every pivot's prefix sum, so past
  // kWandMaxDenseCursors the sum clears θ almost everywhere, the DAAT
  // loop degenerates into an interleaved scan, and the exhaustive
  // vectorised scan is simply faster.
  return rare * kWandCandidateFactor <= total && dense <= kWandMaxDenseCursors
             ? RankStrategy::kWand
             : RankStrategy::kTaat;
}

/// Strategy-dispatched exact top-`n` — the single entry point every
/// ranking path (TextIndex::RankTopN, FragmentedIndex::RankTopN,
/// EvaluateShardQuery) funnels through. Sorts the resolved terms into
/// the canonical evaluation order (df desc, resolved position asc —
/// std::stable_sort keeps resolved order on df ties), resolves
/// RankStrategy::kAuto through PlanStrategy (kTaat when
/// !options.prune, preserving the historical default), and runs the
/// chosen evaluator. Because both strategies sum each document's
/// contributions in the canonical order, the returned ranking is
/// bit-identical across strategies, kernels and storage modes; only
/// `stats` differs.
template <typename TieLess>
std::vector<ScoredDoc> EvaluateTopN(std::vector<EvalTerm> terms,
                                    size_t num_docs,
                                    const double* inv_doc_lengths,
                                    double max_inv_doclen, size_t n,
                                    double initial_threshold, TieLess tie_less,
                                    const RankOptions& options,
                                    RankStats* stats,
                                    std::atomic<double>* shared_theta =
                                        nullptr) {
  std::stable_sort(terms.begin(), terms.end(),
                   [](const EvalTerm& a, const EvalTerm& b) {
                     return a.df > b.df;
                   });
  RankStrategy strategy = options.strategy;
  if (strategy == RankStrategy::kAuto) {
    strategy = options.prune
                   ? PlanStrategy(terms.data(), terms.size(), n, num_docs)
                   : RankStrategy::kTaat;
  }
  if (strategy == RankStrategy::kWand) {
    return WandTopN(terms, num_docs, inv_doc_lengths, max_inv_doclen, n,
                    initial_threshold, tie_less, options.kernel, stats,
                    shared_theta, options.doc_filter);
  }
  // kTaat: the exhaustive scan scores everything; the doc_filter
  // applies at extraction, which *is* post-filtering — the reference
  // the pruning strategy is proved bit-identical against.
  RankStats local;
  ScoreAccumulator& acc = ScoreAccumulator::ThreadLocal();
  acc.Reset(num_docs);
  for (const EvalTerm& t : terms) {
    if (t.list == nullptr) continue;
    local.postings_touched += t.list->size();
    ScorePostingList(*t.list, t.w, inv_doc_lengths, options.kernel, &acc);
  }
  if (stats != nullptr) *stats = local;
  return acc.ExtractTopN(n, tie_less, options.doc_filter);
}

// Hot single instantiations (definitions in kernel.cc; rationale at
// DocIdTieLess above). A custom comparator type still works — it just
// instantiates locally.
#define DLS_IR_EVAL_INSTANTIATIONS(EXTERN, TIE)                             \
  EXTERN template std::vector<ScoredDoc> WandTopN<TIE>(                     \
      const std::vector<EvalTerm>&, size_t, const double*, double, size_t,  \
      double, TIE, ScoreKernel, RankStats*, std::atomic<double>*,           \
      const DocFilter*);                                                    \
  EXTERN template std::vector<ScoredDoc> EvaluateTopN<TIE>(                 \
      std::vector<EvalTerm>, size_t, const double*, double, size_t, double, \
      TIE, const RankOptions&, RankStats*, std::atomic<double>*)
DLS_IR_EVAL_INSTANTIATIONS(extern, DocIdTieLess);
DLS_IR_EVAL_INSTANTIATIONS(extern, ErasedTieLess);

}  // namespace dls::ir

#endif  // DLS_IR_KERNEL_H_
