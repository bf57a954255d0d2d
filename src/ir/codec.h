#ifndef DLS_IR_CODEC_H_
#define DLS_IR_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dls::ir {

/// Compressed posting-block codec.
///
/// A term's posting block holds ascending doc ids and small term
/// frequencies — exactly the shape delta/varint coding compresses
/// well. The encoding, per kPostingBlockSize-entry block:
///
///   doc ids: the first doc id absolute, every following one as the
///            gap to its predecessor, each LEB128-varint coded
///            (7 payload bits per byte, high bit = continuation);
///   tfs:     one byte per posting for tf < 255; the escape byte 0xff
///            followed by a varint of (tf − 255) otherwise — lossless,
///            so packed scoring stays bit-identical to the SoA scan.
///
/// Blocks are independently decodable (per-block byte offsets, first
/// doc id absolute), which is what lets WAND-style pruning skip a
/// block on its {max_tf, min_doc, max_doc} metadata without ever
/// touching the compressed bytes. Typical Zipf-corpus cost is ~2
/// bytes/posting against 8 for the uncompressed SoA arrays
/// (bench_codec measures it).

/// Appends `value` to `out` as a LEB128 varint (1–5 bytes).
inline void AppendVarint(uint32_t value, std::vector<uint8_t>* out) {
  while (value >= 0x80u) {
    out->push_back(static_cast<uint8_t>(value | 0x80u));
    value >>= 7;
  }
  out->push_back(static_cast<uint8_t>(value));
}

/// Decodes one varint starting at `p`; returns one past its last byte.
inline const uint8_t* DecodeVarint(const uint8_t* p, uint32_t* value) {
  uint32_t v = 0;
  int shift = 0;
  uint8_t byte;
  do {
    byte = *p++;
    v |= static_cast<uint32_t>(byte & 0x7fu) << shift;
    shift += 7;
  } while ((byte & 0x80u) != 0);
  *value = v;
  return p;
}

/// DecodeVarint for untrusted bytes: cannot read past `end`, cannot
/// overflow uint32_t, and rejects encodings longer than 5 bytes.
/// Returns null on malformed input. The hot-path DecodeVarint stays
/// unchecked; this one runs once per load to certify the bytes the
/// unchecked decoder will later stream through.
inline const uint8_t* CheckedVarint32(const uint8_t* p, const uint8_t* end,
                                      uint32_t* out) {
  uint32_t v = 0;
  for (int shift = 0; shift <= 28; shift += 7) {
    if (p == end) return nullptr;
    const uint8_t byte = *p++;
    if (shift == 28 && (byte & 0xf0u) != 0) return nullptr;  // > 32 bits
    v |= static_cast<uint32_t>(byte & 0x7fu) << shift;
    if ((byte & 0x80u) == 0) {
      *out = v;
      return p;
    }
  }
  return nullptr;
}

/// The packed form of one posting list: two byte streams (delta/varint
/// doc ids, escape-coded tfs) plus per-block start offsets so any
/// block decodes independently of the ones before it.
///
/// Storage has two modes sharing one read path:
///   owned    — Encode() fills the internal vectors (the heap sidecar
///              TextIndex::Flush() builds);
///   borrowed — BorrowEncoded() points the same logical streams at
///              externally owned bytes, e.g. an mmap'd segment file
///              (ir/segment.h). Nothing is copied; the borrower must
///              keep the backing storage alive and must have validated
///              the bytes (offsets in range, streams well-formed) —
///              the segment loader does both before handing views out.
/// DecodeBlock() is identical either way, which is what makes mmap
/// serving bit-identical to heap serving.
class PackedPostingBlocks {
 public:
  struct BlockOffsets {
    uint32_t doc_begin;  ///< offset of the block's first byte in the doc stream
    uint32_t tf_begin;   ///< offset of the block's first byte in the tf stream
  };

  /// Discards any previous encoding (owned or borrowed).
  void Clear() {
    doc_bytes_.clear();
    tf_bytes_.clear();
    blocks_.clear();
    doc_view_ = nullptr;
    tf_view_ = nullptr;
    blocks_view_ = nullptr;
    doc_view_len_ = 0;
    tf_view_len_ = 0;
    num_blocks_view_ = 0;
    count_ = 0;
    block_size_ = 0;
  }

  /// Encodes `count` postings (doc ids ascending) chunked into
  /// `block_size`-entry blocks. Replaces the previous encoding.
  void Encode(const uint32_t* docs, const int32_t* tfs, size_t count,
              size_t block_size);

  /// Appends postings [size(), count) to this owned encoding of the
  /// first size(): the bytes Encode() of all `count` would write.
  void Extend(const uint32_t* docs, const int32_t* tfs, size_t count,
              size_t block_size);

  /// Points this object at an existing encoding owned elsewhere.
  /// Replaces the previous encoding without copying a byte. The caller
  /// guarantees the pointed-to storage outlives this object and that
  /// the encoding is structurally valid for (`count`, `block_size`).
  void BorrowEncoded(const uint8_t* doc_bytes, size_t doc_bytes_len,
                     const uint8_t* tf_bytes, size_t tf_bytes_len,
                     const BlockOffsets* blocks, size_t num_blocks,
                     size_t count, size_t block_size) {
    Clear();
    doc_view_ = doc_bytes;
    doc_view_len_ = doc_bytes_len;
    tf_view_ = tf_bytes;
    tf_view_len_ = tf_bytes_len;
    blocks_view_ = blocks;
    num_blocks_view_ = num_blocks;
    count_ = count;
    block_size_ = block_size;
  }

  /// Decodes block `block` into `docs`/`tfs` (capacity >= the block
  /// size passed to Encode); returns the number of postings decoded
  /// (the last block may be ragged).
  size_t DecodeBlock(size_t block, uint32_t* docs, int32_t* tfs) const;

  size_t size() const { return count_; }
  size_t num_blocks() const {
    return borrowed() ? num_blocks_view_ : blocks_.size();
  }
  size_t block_size() const { return block_size_; }

  /// True when the encoding lives in externally owned storage.
  bool borrowed() const { return blocks_view_ != nullptr; }

  // Raw views of the encoding, identical in both modes — what the
  // segment writer serialises and the bench suite sizes.
  const uint8_t* doc_stream() const {
    return borrowed() ? doc_view_ : doc_bytes_.data();
  }
  size_t doc_stream_size() const {
    return borrowed() ? doc_view_len_ : doc_bytes_.size();
  }
  const uint8_t* tf_stream() const {
    return borrowed() ? tf_view_ : tf_bytes_.data();
  }
  size_t tf_stream_size() const {
    return borrowed() ? tf_view_len_ : tf_bytes_.size();
  }
  const BlockOffsets* block_offsets() const {
    return borrowed() ? blocks_view_ : blocks_.data();
  }

  /// Total bytes of the packed representation (payload + offsets),
  /// wherever they live.
  size_t byte_size() const {
    return doc_stream_size() + tf_stream_size() +
           num_blocks() * sizeof(BlockOffsets);
  }

  /// Heap bytes owned by this object (0 in borrowed mode — the payload
  /// is someone else's mapping). The bytes_resident()/bytes_mapped()
  /// split reports through this.
  size_t resident_byte_size() const {
    return doc_bytes_.capacity() + tf_bytes_.capacity() +
           blocks_.capacity() * sizeof(BlockOffsets);
  }

 private:
  std::vector<uint8_t> doc_bytes_;
  std::vector<uint8_t> tf_bytes_;
  std::vector<BlockOffsets> blocks_;
  // Borrowed-mode views (null when owned). See BorrowEncoded().
  const uint8_t* doc_view_ = nullptr;
  const uint8_t* tf_view_ = nullptr;
  const BlockOffsets* blocks_view_ = nullptr;
  size_t doc_view_len_ = 0;
  size_t tf_view_len_ = 0;
  size_t num_blocks_view_ = 0;
  size_t count_ = 0;
  size_t block_size_ = 0;
};

}  // namespace dls::ir

#endif  // DLS_IR_CODEC_H_
