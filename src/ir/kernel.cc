#include "ir/kernel.h"

namespace dls::ir {
namespace {

void ScoreScalar(const PostingList& list, double w,
                 const double* inv_doc_lengths, ScoreAccumulator* acc) {
  const DocId* docs = list.doc_data();
  const int32_t* tfs = list.tf_data();
  const size_t count = list.size();
  for (size_t i = 0; i < count; ++i) {
    acc->Add(docs[i], KernelScore(w, tfs[i], inv_doc_lengths[docs[i]]));
  }
}

void ScoreBlock(const PostingList& list, double w,
                const double* inv_doc_lengths, ScoreAccumulator* acc) {
  const DocId* docs = list.doc_data();
  const int32_t* tfs = list.tf_data();
  const size_t num_blocks = list.num_blocks();
  // Strip-mined straight-line loops over one SoA block at a time: the
  // gather, the multiplies, and the VecLog1p polynomial each vectorise;
  // per-element operations are identical to ScoreScalar (and FP
  // contraction is pinned off), so the scores are bit-identical.
  double scores[kPostingBlockSize];
  for (size_t b = 0; b < num_blocks; ++b) {
    const size_t begin = PostingList::block_begin(b);
    const size_t count = list.block_end(b) - begin;
    const DocId* bdocs = docs + begin;
    const int32_t* btfs = tfs + begin;
    for (size_t i = 0; i < count; ++i) {
      scores[i] =
          VecLog1p((w * static_cast<double>(btfs[i])) * inv_doc_lengths[bdocs[i]]);
    }
    for (size_t i = 0; i < count; ++i) {
      acc->Add(bdocs[i], scores[i]);
    }
  }
}

void ScorePacked(const PostingList& list, double w,
                 const double* inv_doc_lengths, ScoreAccumulator* acc) {
  // Decode one delta/varint block into stack buffers, then run the
  // ScoreBlock loops verbatim over them: the decoded values equal the
  // SoA arrays (the codec is lossless), the arithmetic is unchanged,
  // so the accumulator contents are bit-identical to the other
  // kernels. The scratch stays L1-resident across the decode and the
  // two scoring loops — that locality is what the packed kernel trades
  // against the decode cost (bench_codec measures both sides).
  DocId docs[kPostingBlockSize];
  int32_t tfs[kPostingBlockSize];
  double scores[kPostingBlockSize];
  const size_t num_blocks = list.num_blocks();
  for (size_t b = 0; b < num_blocks; ++b) {
    const size_t count = list.DecodePackedBlock(b, docs, tfs);
    for (size_t i = 0; i < count; ++i) {
      scores[i] =
          VecLog1p((w * static_cast<double>(tfs[i])) * inv_doc_lengths[docs[i]]);
    }
    for (size_t i = 0; i < count; ++i) {
      acc->Add(docs[i], scores[i]);
    }
  }
}

}  // namespace

void ScorePostingList(const PostingList& list, double w,
                      const double* inv_doc_lengths, ScoreKernel kernel,
                      ScoreAccumulator* acc) {
  // A released list can only be read packed; a never-packed list can't
  // be read packed. Both substitutions preserve bit-identity.
  if (list.payload_released() ||
      (kernel == ScoreKernel::kPacked && list.is_packed())) {
    ScorePacked(list, w, inv_doc_lengths, acc);
  } else if (kernel == ScoreKernel::kScalar) {
    ScoreScalar(list, w, inv_doc_lengths, acc);
  } else {
    ScoreBlock(list, w, inv_doc_lengths, acc);
  }
}

// The strategy evaluators (WAND, TAAT dispatch) compile here,
// in the one TU built with the hot-loop flags — see the
// extern-template block in kernel.h.
DLS_IR_EVAL_INSTANTIATIONS(, DocIdTieLess);
DLS_IR_EVAL_INSTANTIATIONS(, ErasedTieLess);

}  // namespace dls::ir
