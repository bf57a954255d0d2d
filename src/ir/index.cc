#include "ir/index.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <limits>
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

TermId TextIndex::InternTerm(const std::string& stem) {
  const auto [it, added] =
      term_ids_.try_emplace(stem, static_cast<TermId>(terms_.size()));
  if (added) {
    terms_.push_back(stem);
    postings_.emplace_back();
    df_.push_back(0);
  }
  return it->second;
}

DocId TextIndex::AddDocument(std::string_view url, std::string_view text) {
  assert(segment_ == nullptr &&
         "an index loaded from a segment is immutable");
  DocId doc = static_cast<DocId>(urls_.size());
  urls_.emplace_back(url);
  doc_lengths_.push_back(0);
  inv_doc_lengths_.push_back(0.0);

  // Each distinct raw token of the batch is normalised once; repeats
  // read the memo. A miss runs NormalizeWord + InternTerm in token
  // order, so term ids keep their first-occurrence order.
  const size_t begin = pending_counts_.size();
  ForEachToken(text, [&](std::string_view token) {
    const size_t hash = std::hash<std::string_view>{}(token);
    const TermId* memo = token_terms_.Find(token, hash);
    TermId term;
    if (memo != nullptr) {
      term = *memo;
    } else {
      std::optional<std::string> norm = NormalizeWord(token);
      term = norm ? InternTerm(*norm) : kInvalidTerm;
      token_terms_.Insert(token, hash, term);
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
  token_terms_.Release();
  // Pack the postings this flush appended (Pack() encodes only those,
  // FinalizeBlockBounds only keys blocks the flush grew), so a frozen
  // index is always packed and always carries the block-max score keys
  // the pruning evaluators skip with.
  for (TermId term : appended) {
    postings_[term].Pack();
    postings_[term].FinalizeBlockBounds(inv_doc_lengths_.data());
  }
}

const TermId* TextIndex::TokenMemo::Find(std::string_view token,
                                        size_t hash) const {
  if (slots_.empty()) return nullptr;
  const size_t mask = slots_.size() - 1;
  const uint32_t tag = static_cast<uint32_t>(hash);
  for (size_t i = tag & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.key == 0) return nullptr;
    if (slot.hash == tag && Key(slot.key) == token) return &slot.term;
  }
}

void TextIndex::TokenMemo::Insert(std::string_view token, size_t hash,
                                  TermId term) {
  // Past 2^32 - 1 distinct tokens a batch stops memoising: a token the
  // memo lacks is normalised afresh, which is always correct.
  if (key_ends_.size() >= std::numeric_limits<uint32_t>::max()) return;
  if (2 * (key_ends_.size() + 1) > slots_.size()) Grow();
  keys_.append(token);
  key_ends_.push_back(keys_.size());
  const size_t mask = slots_.size() - 1;
  const uint32_t tag = static_cast<uint32_t>(hash);
  size_t i = tag & mask;
  while (slots_[i].key != 0) i = (i + 1) & mask;
  slots_[i] = Slot{tag, static_cast<uint32_t>(key_ends_.size()), term};
}

std::string_view TextIndex::TokenMemo::Key(uint32_t key) const {
  const size_t begin = key == 1 ? 0 : key_ends_[key - 2];
  return std::string_view(keys_).substr(begin, key_ends_[key - 1] - begin);
}

void TextIndex::TokenMemo::Grow() {
  std::vector<Slot> grown(std::max<size_t>(64, 2 * slots_.size()));
  const size_t mask = grown.size() - 1;
  for (const Slot& slot : slots_) {
    if (slot.key == 0) continue;
    size_t i = slot.hash & mask;
    while (grown[i].key != 0) i = (i + 1) & mask;
    grown[i] = slot;
  }
  slots_.swap(grown);
}

void TextIndex::TokenMemo::Release() {
  std::vector<Slot>().swap(slots_);
  std::string().swap(keys_);
  std::vector<size_t>().swap(key_ends_);
}

void TextIndex::ReleaseUnpackedPostings() {
  assert(pending_.empty() && "Flush() before ReleaseUnpackedPostings()");
  for (PostingList& list : postings_) list.ReleaseUnpackedPayload();
}

size_t TextIndex::bytes_resident() const {
  // Approximate: vector capacities plus string heap allocations (SSO
  // strings counted at sizeof only) plus a flat per-entry estimate for
  // the unordered_map nodes. Good to a few percent, which is all the
  // heap-vs-mmap split needs.
  auto string_bytes = [](const std::string& s) {
    return sizeof(std::string) +
           (s.capacity() > sizeof(std::string) ? s.capacity() : 0);
  };
  size_t bytes = 0;
  for (const std::string& t : terms_) bytes += string_bytes(t);
  for (const std::string& u : urls_) bytes += string_bytes(u);
  bytes += term_ids_.size() * 64;  // node + bucket estimate
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
  // Heterogeneous lookup: no std::string temporary per probe.
  auto it = term_ids_.find(stem);
  if (it == term_ids_.end()) return std::nullopt;
  return it->second;
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
