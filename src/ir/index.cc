#include "ir/index.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <string_view>

#include "common/mmap.h"
#include "ir/accumulator.h"
#include "ir/kernel.h"
#include "ir/stemmer.h"
#include "ir/stopwords.h"
#include "ir/tokenizer.h"

namespace dls::ir {

ScoreKernel DefaultScoreKernel() {
  static const ScoreKernel kernel = [] {
    const char* env = std::getenv("DLS_KERNEL");
    if (env != nullptr) {
      std::string_view v(env);
      if (v == "scalar") return ScoreKernel::kScalar;
      if (v == "block") return ScoreKernel::kBlock;
      if (v == "packed") return ScoreKernel::kPacked;
    }
    return kCompiledScoreKernel;
  }();
  return kernel;
}

TextIndex::TextIndex() : TextIndex(Options()) {}

TextIndex::TextIndex(Options options) : options_(options) {}

std::optional<std::string> TextIndex::NormalizeWord(
    std::string_view word) const {
  return NormalizeWordAs(word, options_.stem, options_.stop);
}

TermId TextIndex::InternTerm(std::string_view stem) {
  const size_t hash = std::hash<std::string_view>{}(stem);
  if (const std::optional<uint32_t> term = terms_.Find(stem, hash)) {
    return *term;
  }
  postings_.emplace_back();
  df_.push_back(0);
  return terms_.Insert(stem, hash);
}

DocId TextIndex::AddDocument(std::string_view url, std::string_view text) {
  assert(segment_ == nullptr &&
         "an index loaded from a segment is immutable");
  DocId doc = static_cast<DocId>(urls_.size());
  urls_.Append(url);
  doc_lengths_.push_back(0);
  inv_doc_lengths_.push_back(0.0);

  // Each distinct raw token of the batch is normalised once; repeats
  // read the memo. A miss runs NormalizeWord + InternTerm in token
  // order, so term ids keep their first-occurrence order.
  const size_t begin = pending_counts_.size();
  ForEachToken(text, [&](std::string_view token) {
    const size_t hash = std::hash<std::string_view>{}(token);
    TermId term;
    if (const std::optional<uint32_t> seen = memo_tokens_.Find(token, hash)) {
      term = memo_terms_[*seen];
    } else {
      std::optional<std::string> norm = NormalizeWord(token);
      term = norm ? InternTerm(*norm) : kInvalidTerm;
      // Past the memo's 4 GiB ceiling a batch stops memoising: a token
      // the memo lacks is normalised afresh, which is always correct.
      if (memo_tokens_.fits(token.size())) {
        memo_tokens_.Insert(token, hash);
        memo_terms_.push_back(term);
      }
    }
    if (term != kInvalidTerm) pending_counts_.emplace_back(term, 1);
  });
  // Sort the document's occurrences by term and fold repeats into tf.
  std::sort(pending_counts_.begin() + static_cast<ptrdiff_t>(begin),
            pending_counts_.end());
  size_t end = begin;
  for (size_t i = begin; i < pending_counts_.size(); ++i) {
    const TermId term = pending_counts_[i].first;
    if (end > begin && pending_counts_[end - 1].first == term) {
      ++pending_counts_[end - 1].second;
    } else {
      pending_counts_[end++] = pending_counts_[i];
    }
  }
  pending_counts_.resize(end);
  pending_.push_back(PendingDoc{doc, end});
  mutation_epoch_.fetch_add(1, std::memory_order_release);

  if (pending_.size() >= options_.flush_batch) Flush();
  return doc;
}

void TextIndex::Flush() {
  if (pending_.empty()) return;
  mutation_epoch_.fetch_add(1, std::memory_order_release);
  // Every list is packed between flushes, so a list still packed when
  // the batch reaches it is one this flush has not appended to yet.
  std::vector<TermId> appended;
  size_t begin = 0;
  for (const PendingDoc& doc : pending_) {
    int64_t len = 0;
    for (size_t i = begin; i < doc.counts_end; ++i) {
      const auto [term, tf] = pending_counts_[i];
      PostingList& list = postings_[term];
      if (list.is_packed()) appended.push_back(term);
      list.Append(doc.doc, tf);
      ++df_[term];
      len += tf;
    }
    begin = doc.counts_end;
    doc_lengths_[doc.doc] = len;
    if (len > 0) {
      double inv = 1.0 / static_cast<double>(len);
      inv_doc_lengths_[doc.doc] = inv;
      max_inv_doc_length_ = std::max(max_inv_doc_length_, inv);
    }
    collection_length_ += len;
    ++flushed_docs_;
  }
  // Free the batch buffers (clear() would keep their capacity), so a
  // flushed index holds nothing beyond its relations.
  std::vector<PendingDoc>().swap(pending_);
  std::vector<std::pair<TermId, int32_t>>().swap(pending_counts_);
  memo_tokens_.Release();
  std::vector<TermId>().swap(memo_terms_);
  // Pack the postings this flush appended (Pack() encodes only those,
  // FinalizeBlockBounds only keys blocks the flush grew), so a frozen
  // index is always packed and always carries the block-max score keys
  // the pruning evaluators skip with.
  for (TermId term : appended) {
    postings_[term].Pack();
    postings_[term].FinalizeBlockBounds(inv_doc_lengths_.data());
  }
}

void TextIndex::ReleaseUnpackedPostings() {
  assert(pending_.empty() && "Flush() before ReleaseUnpackedPostings()");
  for (PostingList& list : postings_) list.ReleaseUnpackedPayload();
}

size_t TextIndex::bytes_resident() const {
  size_t bytes = terms_.bytes_resident() + urls_.bytes_resident();
  for (const PostingList& list : postings_) {
    bytes += sizeof(PostingList) + list.resident_byte_size();
  }
  bytes += df_.capacity() * sizeof(int32_t);
  bytes += doc_lengths_.capacity() * sizeof(int64_t);
  bytes += inv_doc_lengths_.capacity() * sizeof(double);
  return bytes;
}

size_t TextIndex::bytes_mapped() const {
  return segment_ != nullptr ? segment_->size() : 0;
}

std::optional<TermId> TextIndex::LookupTerm(std::string_view stem) const {
  return terms_.Find(stem, std::hash<std::string_view>{}(stem));
}

double TermScore(int32_t tf, int32_t df, int64_t doclen,
                 int64_t collection_length, const RankOptions& options) {
  if (tf <= 0 || df <= 0 || doclen <= 0 || collection_length <= 0) return 0.0;
  double lambda = options.lambda;
  double x = lambda * static_cast<double>(tf) *
             static_cast<double>(collection_length) /
             ((1.0 - lambda) * static_cast<double>(df) *
              static_cast<double>(doclen));
  return std::log1p(x);
}

std::vector<TermId> TextIndex::ResolveQuery(
    const std::vector<std::string>& query_words) const {
  std::vector<TermId> terms;
  terms.reserve(query_words.size());
  for (const std::string& word : query_words) {
    std::optional<std::string> norm = NormalizeWord(word);
    if (!norm) continue;
    std::optional<TermId> term = LookupTerm(*norm);
    if (!term) continue;
    // Queries are a handful of words: a linear duplicate scan beats a
    // hash set.
    if (std::find(terms.begin(), terms.end(), *term) == terms.end()) {
      terms.push_back(*term);
    }
  }
  return terms;
}

std::vector<ScoredDoc> TextIndex::RankTopN(
    const std::vector<std::string>& query_words, size_t n,
    const RankOptions& options) const {
  return RankTopN(query_words, n, options, /*stats=*/nullptr);
}

std::vector<ScoredDoc> TextIndex::RankTopN(
    const std::vector<std::string>& query_words, size_t n,
    const RankOptions& options, RankStats* stats) const {
  const std::vector<TermId> terms = ResolveQuery(query_words);
  std::vector<EvalTerm> eval_terms;
  eval_terms.reserve(terms.size());
  for (TermId term : terms) {
    eval_terms.push_back(
        EvalTerm{&postings_[term],
                 TermWeight(df_[term], collection_length_, options),
                 df_[term]});
  }
  // (score desc, doc asc): the deterministic ranking contract.
  // DocIdTieLess picks the hot pre-instantiated evaluators.
  return EvaluateTopN(std::move(eval_terms), document_count(),
                      inv_doc_length_data(), max_inv_doc_length_, n,
                      /*initial_threshold=*/0.0, DocIdTieLess{}, options,
                      stats);
}

std::optional<std::string> NormalizeWordAs(std::string_view word, bool stem,
                                           bool stop) {
  std::string lower;
  lower.reserve(word.size());
  for (char c : word) {
    lower.push_back((c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a')
                                           : c);
  }
  if (stop && IsStopword(lower)) return std::nullopt;
  if (stem) return PorterStem(lower);
  return lower;
}

std::vector<std::string> NormalizeQuery(const std::vector<std::string>& words,
                                        bool stem, bool stop) {
  std::vector<std::string> stems;
  stems.reserve(words.size());
  for (const std::string& word : words) {
    std::optional<std::string> norm = NormalizeWordAs(word, stem, stop);
    // Queries are a handful of words: a linear duplicate scan beats a
    // hash set.
    if (norm && std::find(stems.begin(), stems.end(), *norm) == stems.end()) {
      stems.push_back(std::move(*norm));
    }
  }
  return stems;
}

std::optional<std::string> NormalizeWord(std::string_view word) {
  return NormalizeWordAs(word, /*stem=*/true, /*stop=*/true);
}

}  // namespace dls::ir
