#ifndef DLS_IR_POSTINGS_H_
#define DLS_IR_POSTINGS_H_

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "ir/codec.h"

namespace dls::ir {

using TermId = uint32_t;
using DocId = uint32_t;
inline constexpr TermId kInvalidTerm = 0xffffffffu;

/// One entry of a term's posting list: DT ⋈ TF projected to
/// (doc, tf) — the pair-oid of the paper's ternary DT relation is the
/// implicit position of the posting.
struct Posting {
  DocId doc;
  int32_t tf;
};

/// Entries per posting block. Blocks are the unit of the vectorised
/// scoring kernel (one strip-mined inner loop per block) and of
/// WAND-style skipping (one metadata record per block).
inline constexpr size_t kPostingBlockSize = 128;

/// Smallest float ≥ x for finite x ≥ 0: the cast rounds to nearest,
/// so nudge one ulp up when it rounded down. Used for the per-block
/// score keys — a bound stored in float must never under-state the
/// double it summarises, or pruning against it would drop documents.
/// Deterministic, so write → load → re-save keeps segment bytes exact.
inline float RoundUpToFloat(double x) {
  float f = static_cast<float>(x);
  if (static_cast<double>(f) < x) {
    f = std::nextafterf(f, std::numeric_limits<float>::infinity());
  }
  return f;
}

/// Per-block metadata: [min_doc, max_doc] lets a cursor seek past
/// whole blocks without reading a single posting, and score_key is the
/// precomputed block-max score bound — max over the block's postings
/// of tf·(1/doclen), rounded UP to float (RoundUpToFloat). The key
/// folds the per-document length in, so it is strictly tighter than
/// the max_tf × max_inv_doclen product bound, and it is independent of
/// the query-time parameters (λ, df): the pruning bound of a block
/// under term weight w is VecLog1p(w·score_key)·(1+ε), one multiply
/// and one float compare per skip test, no decode. Computed by
/// PostingList::FinalizeBlockBounds at Flush() time and carried
/// through the segment format (v2); max_tf stays for the segment
/// verifier and size accounting.
struct PostingBlockMeta {
  int32_t max_tf = 0;
  DocId min_doc = 0;
  DocId max_doc = 0;
  float score_key = 0.0f;
};

/// A term's posting list in block-structured SoA layout: doc ids and
/// term frequencies live in two separate contiguous arrays (so the
/// scoring kernel streams them with straight-line auto-vectorisable
/// code), logically chunked into kPostingBlockSize-entry blocks whose
/// metadata drives WAND-style pruning. Postings are appended in
/// ascending doc order (Flush() folds pending documents in insertion
/// order) — the block doc ranges and cursor seeks rely on that.
///
/// Iteration compatibility: begin()/end() yield `Posting` values, so
/// `for (const Posting& p : list)` keeps working for code that does
/// not care about the block layout.
///
/// Compressed sidecar: Pack() (re)builds a delta/varint encoding of
/// the current contents (see codec.h) that the packed scoring kernel
/// decodes block-at-a-time; block metadata stays uncompressed so WAND
/// skipping never touches the packed bytes. A deployment that commits
/// to the packed kernel can then ReleaseUnpackedPayload() — the SoA
/// arrays are freed and every ranking path transparently scores from
/// the packed blocks (doc()/tf()/iteration become invalid).
class PostingList {
 public:
  void Append(DocId doc, int32_t tf) {
    assert(!released_ && "Append after ReleaseUnpackedPayload()");
    if (docs_.size() % kPostingBlockSize == 0) {
      meta_.push_back(PostingBlockMeta{tf, doc, doc});
    } else {
      PostingBlockMeta& m = meta_.back();
      m.max_tf = std::max(m.max_tf, tf);
      m.min_doc = std::min(m.min_doc, doc);
      m.max_doc = std::max(m.max_doc, doc);
    }
    docs_.push_back(doc);
    tfs_.push_back(tf);
    max_tf_ = std::max(max_tf_, tf);
  }

  size_t size() const { return released_ ? packed_.size() : docs_.size(); }
  bool empty() const { return size() == 0; }

  DocId doc(size_t i) const { return docs_[i]; }
  int32_t tf(size_t i) const { return tfs_[i]; }
  const DocId* doc_data() const { return docs_.data(); }
  const int32_t* tf_data() const { return tfs_.data(); }

  /// Largest tf anywhere in the list (the term-level score bound).
  int32_t max_tf() const { return max_tf_; }

  /// (Re)computes the per-block score keys (PostingBlockMeta::
  /// score_key) from the per-document length table. Append-only lists
  /// only ever extend the last block, so blocks already covered by a
  /// previous call keep their keys; the call is a no-op when nothing
  /// was appended since. TextIndex::Flush() runs this next to Pack(),
  /// after the flush loop has set every appended document's length —
  /// the keys need 1/doclen of every posting's document.
  void FinalizeBlockBounds(const double* inv_doc_lengths) {
    assert(!released_ && "FinalizeBlockBounds after ReleaseUnpackedPayload()");
    if (keyed_postings_ == docs_.size()) return;
    for (size_t b = keyed_postings_ / kPostingBlockSize; b < meta_.size();
         ++b) {
      float key = 0.0f;
      const size_t end = block_end(b);
      for (size_t i = block_begin(b); i < end; ++i) {
        key = std::max(key, RoundUpToFloat(static_cast<double>(tfs_[i]) *
                                           inv_doc_lengths[docs_[i]]));
      }
      meta_[b].score_key = key;
    }
    keyed_postings_ = docs_.size();
    max_score_key_ = 0.0f;
    for (const PostingBlockMeta& m : meta_) {
      max_score_key_ = std::max(max_score_key_, m.score_key);
    }
  }

  /// True when every posting is covered by the block score keys —
  /// guaranteed after Flush() (heap indexes) and for loaded segments
  /// (the v2 format carries the keys). Rankers fall back to the
  /// (max_tf, max_inv_doclen) bound on lists that were never
  /// finalised, so hand-built lists stay correct, just less prunable.
  bool has_block_bounds() const { return keyed_postings_ == size(); }

  /// Largest score_key of any block (the list-level score bound).
  float max_score_key() const { return max_score_key_; }

  size_t num_blocks() const {
    return meta_view_ != nullptr ? packed_.num_blocks() : meta_.size();
  }
  const PostingBlockMeta& block_meta(size_t b) const {
    return meta_view_ != nullptr ? meta_view_[b] : meta_[b];
  }
  /// The contiguous block-metadata array (what the segment writer
  /// serialises); null when the list has no blocks.
  const PostingBlockMeta* block_meta_data() const {
    return meta_view_ != nullptr ? meta_view_ : meta_.data();
  }
  static constexpr size_t block_begin(size_t b) {
    return b * kPostingBlockSize;
  }
  /// One past the last posting of block `b` (the last block may be
  /// partially filled).
  size_t block_end(size_t b) const {
    return std::min(size(), (b + 1) * kPostingBlockSize);
  }

  /// Encodes the postings appended since the last Pack() onto the
  /// packed delta/varint encoding (the list is append-only, so the
  /// bytes equal a from-scratch encoding). TextIndex::Flush() packs
  /// every list it appended to, keeping frozen indexes packed.
  void Pack() {
    if (released_ || packed_.size() == docs_.size()) return;
    packed_.Extend(docs_.data(), tfs_.data(), docs_.size(),
                   kPostingBlockSize);
  }

  /// True when the packed encoding matches the current contents.
  bool is_packed() const { return released_ || packed_.size() == docs_.size(); }

  /// Decodes packed block `b` into caller buffers of capacity
  /// kPostingBlockSize; returns the entry count. Requires is_packed().
  size_t DecodePackedBlock(size_t b, DocId* docs, int32_t* tfs) const {
    return packed_.DecodeBlock(b, docs, tfs);
  }

  /// Frees the uncompressed SoA arrays, keeping the packed encoding
  /// and the block metadata. Requires is_packed(); afterwards the list
  /// is immutable and doc()/tf()/doc_data()/tf_data()/iteration are
  /// invalid — the scoring kernels and WAND cursors detect the release
  /// and read through DecodePackedBlock() instead (bit-identical).
  void ReleaseUnpackedPayload() {
    assert(is_packed() && "Pack() before ReleaseUnpackedPayload()");
    released_ = true;
    docs_ = std::vector<DocId>();
    tfs_ = std::vector<int32_t>();
  }

  /// True once ReleaseUnpackedPayload() dropped the SoA arrays.
  bool payload_released() const { return released_; }

  /// Points this list at a packed encoding and block metadata owned
  /// elsewhere — the borrowed-bytes mode of the segment loader
  /// (ir/segment.h): `meta` and the packed streams live inside an
  /// mmap'd file that the owning TextIndex keeps alive. The list
  /// behaves exactly like one that was packed and released on the heap
  /// (payload_released() is true, every ranking path reads through
  /// DecodePackedBlock()), so mmap serving is bit-identical by
  /// construction. The caller must have validated the encoding; the
  /// segment loader rejects the file with kCorruption before any view
  /// is handed out.
  void AdoptPackedView(const PostingBlockMeta* meta, size_t num_blocks,
                       const PackedPostingBlocks::BlockOffsets* offsets,
                       const uint8_t* doc_bytes, size_t doc_bytes_len,
                       const uint8_t* tf_bytes, size_t tf_bytes_len,
                       size_t count, int32_t max_tf) {
    assert(docs_.empty() && "AdoptPackedView on a non-empty list");
    packed_.BorrowEncoded(doc_bytes, doc_bytes_len, tf_bytes, tf_bytes_len,
                          offsets, num_blocks, count, kPostingBlockSize);
    meta_view_ = meta;
    max_tf_ = max_tf;
    released_ = true;
    // The borrowed metadata carries the per-block score keys (segment
    // format v2); only the list-level max is re-derived.
    max_score_key_ = 0.0f;
    for (size_t b = 0; b < num_blocks; ++b) {
      max_score_key_ = std::max(max_score_key_, meta[b].score_key);
    }
    keyed_postings_ = count;
  }

  /// Access to the packed sidecar (the segment writer serialises its
  /// raw streams). Requires is_packed().
  const PackedPostingBlocks& packed_blocks() const {
    assert(is_packed());
    return packed_;
  }

  /// Bytes of the uncompressed SoA payload for size accounting (the
  /// logical size — reported even after the payload was released).
  size_t unpacked_byte_size() const {
    return size() * (sizeof(DocId) + sizeof(int32_t));
  }
  /// Bytes of the packed encoding (0 until Pack()).
  size_t packed_byte_size() const { return packed_.byte_size(); }
  /// Heap bytes this list owns right now: the SoA arrays until
  /// released, owned packed streams and block metadata — borrowed
  /// views (mmap'd segments) count as 0 here and show up in the owning
  /// index's bytes_mapped() instead.
  size_t resident_byte_size() const {
    size_t bytes = packed_.resident_byte_size() +
                   meta_.capacity() * sizeof(PostingBlockMeta);
    if (!released_) {
      bytes += docs_.capacity() * sizeof(DocId) +
               tfs_.capacity() * sizeof(int32_t);
    }
    return bytes;
  }

  class ConstIterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Posting;
    using difference_type = ptrdiff_t;
    using pointer = const Posting*;
    using reference = Posting;

    ConstIterator(const PostingList* list, size_t i) : list_(list), i_(i) {}
    Posting operator*() const { return Posting{list_->doc(i_), list_->tf(i_)}; }
    ConstIterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const ConstIterator& o) const { return i_ == o.i_; }
    bool operator!=(const ConstIterator& o) const { return i_ != o.i_; }

   private:
    const PostingList* list_;
    size_t i_;
  };

  ConstIterator begin() const { return ConstIterator(this, 0); }
  ConstIterator end() const { return ConstIterator(this, docs_.size()); }

 private:
  std::vector<DocId> docs_;
  std::vector<int32_t> tfs_;
  std::vector<PostingBlockMeta> meta_;
  /// Borrowed block metadata (AdoptPackedView); null when meta_ owns it.
  const PostingBlockMeta* meta_view_ = nullptr;
  PackedPostingBlocks packed_;
  int32_t max_tf_ = 0;
  /// Postings covered by FinalizeBlockBounds (== size() when current).
  size_t keyed_postings_ = 0;
  float max_score_key_ = 0.0f;
  bool released_ = false;
};

}  // namespace dls::ir

#endif  // DLS_IR_POSTINGS_H_
