#include "ir/codec.h"

#include <cassert>

namespace dls::ir {

// tf escape threshold: values below fit one byte, 0xff prefixes a
// varint of the remainder. tf == 255 round-trips as {0xff, 0x00}.
namespace {
constexpr uint8_t kTfEscape = 0xff;
}  // namespace

void PackedPostingBlocks::Encode(const uint32_t* docs, const int32_t* tfs,
                                 size_t count, size_t block_size) {
  Clear();
  Extend(docs, tfs, count, block_size);
}

void PackedPostingBlocks::Extend(const uint32_t* docs, const int32_t* tfs,
                                 size_t count, size_t block_size) {
  assert(block_size > 0);
  assert(!borrowed() && "a borrowed encoding is read-only");
  assert((count_ == 0 || block_size_ == block_size) && count >= count_);
  // The last block ends both streams, so new postings only append.
  const size_t added = count - count_;
  doc_bytes_.reserve(doc_bytes_.size() + added + added / 4);  // ~1-byte gaps
  tf_bytes_.reserve(tf_bytes_.size() + added);
  blocks_.reserve((count + block_size - 1) / block_size);
  for (size_t i = count_; i < count; ++i) {
    if (i % block_size == 0) {
      // A block's first doc id is absolute.
      blocks_.push_back(BlockOffsets{static_cast<uint32_t>(doc_bytes_.size()),
                                     static_cast<uint32_t>(tf_bytes_.size())});
      AppendVarint(docs[i], &doc_bytes_);
    } else {
      assert(docs[i] >= docs[i - 1] && "doc ids must be ascending");
      AppendVarint(docs[i] - docs[i - 1], &doc_bytes_);
    }
    const uint32_t tf = static_cast<uint32_t>(tfs[i]);
    if (tf < kTfEscape) {
      tf_bytes_.push_back(static_cast<uint8_t>(tf));
    } else {
      tf_bytes_.push_back(kTfEscape);
      AppendVarint(tf - kTfEscape, &tf_bytes_);
    }
  }
  count_ = count;
  block_size_ = block_size;
}

size_t PackedPostingBlocks::DecodeBlock(size_t block, uint32_t* docs,
                                        int32_t* tfs) const {
  assert(block < num_blocks());
  const size_t begin = block * block_size_;
  const size_t n = begin + block_size_ < count_ ? block_size_ : count_ - begin;

  const BlockOffsets* offsets = block_offsets();
  const uint8_t* p = doc_stream() + offsets[block].doc_begin;
  uint32_t doc = 0;
  p = DecodeVarint(p, &doc);
  docs[0] = doc;
  for (size_t i = 1; i < n; ++i) {
    uint32_t gap;
    p = DecodeVarint(p, &gap);
    doc += gap;
    docs[i] = doc;
  }

  const uint8_t* q = tf_stream() + offsets[block].tf_begin;
  for (size_t i = 0; i < n; ++i) {
    const uint8_t byte = *q++;
    if (byte < kTfEscape) {
      tfs[i] = byte;
    } else {
      uint32_t rest;
      q = DecodeVarint(q, &rest);
      tfs[i] = static_cast<int32_t>(kTfEscape + rest);
    }
  }
  return n;
}

}  // namespace dls::ir
