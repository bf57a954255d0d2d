#include "ir/fragments.h"

#include <algorithm>
#include <cassert>

#include "ir/accumulator.h"
#include "ir/kernel.h"

namespace dls::ir {

FragmentedIndex::FragmentedIndex(const TextIndex* base, size_t num_fragments)
    : base_(base), num_fragments_(num_fragments == 0 ? 1 : num_fragments) {
  Rebuild();
}

void FragmentedIndex::Rebuild() {
  built_epoch_ = base_->mutation_epoch();
  size_t vocab = base_->vocabulary_size();
  fragment_of_.assign(vocab, 0);
  fragment_postings_.assign(num_fragments_, 0);
  if (vocab == 0) return;

  // Terms in descending idf == ascending df; ties by term id for
  // determinism.
  std::vector<TermId> order(vocab);
  for (TermId t = 0; t < vocab; ++t) order[t] = t;
  std::sort(order.begin(), order.end(), [this](TermId a, TermId b) {
    if (base_->df(a) != base_->df(b)) return base_->df(a) < base_->df(b);
    return a < b;
  });

  size_t total_postings = 0;
  for (TermId t = 0; t < vocab; ++t) total_postings += base_->postings(t).size();
  // Balance fragments by posting count so "fragment" is a unit of work,
  // not of vocabulary. The last fragments end up with few, huge terms.
  size_t target = (total_postings + num_fragments_ - 1) / num_fragments_;
  if (target == 0) target = 1;

  size_t fragment = 0;
  size_t in_current = 0;
  for (TermId t : order) {
    size_t len = base_->postings(t).size();
    if (in_current > 0 && in_current + len > target &&
        fragment + 1 < num_fragments_) {
      ++fragment;
      in_current = 0;
    }
    fragment_of_[t] = fragment;
    fragment_postings_[fragment] += len;
    in_current += len;
  }
}

size_t FragmentedIndex::PlanCutoff(
    const std::vector<std::string>& query_words, double min_quality) const {
  // Per-fragment idf mass of the query's matching (de-duplicated)
  // terms — the same term set RankTopN evaluates.
  std::vector<double> mass(num_fragments_, 0.0);
  double total = 0;
  for (TermId term : base_->ResolveQuery(query_words)) {
    mass[fragment_of_[term]] += base_->idf(term);
    total += base_->idf(term);
  }
  if (total <= 0) return 0;  // nothing to evaluate at all
  double acc = 0;
  for (size_t f = 0; f < num_fragments_; ++f) {
    acc += mass[f];
    if (acc / total >= min_quality) return f + 1;
  }
  return num_fragments_;
}

std::vector<ScoredDoc> FragmentedIndex::RankWithQualityTarget(
    const std::vector<std::string>& query_words, size_t n, double min_quality,
    FragmentQueryStats* stats, const RankOptions& options) const {
  size_t cutoff = PlanCutoff(query_words, min_quality);
  return RankTopN(query_words, n, cutoff, stats, options);
}

std::vector<ScoredDoc> FragmentedIndex::RankTopN(
    const std::vector<std::string>& query_words, size_t n,
    size_t max_fragments, FragmentQueryStats* stats,
    const RankOptions& options) const {
  assert(built_epoch_ == base_->mutation_epoch() &&
         "base TextIndex mutated after Rebuild(); the frozen-for-reads "
         "contract requires Rebuild() before querying again");
  FragmentQueryStats local_stats;
  double idf_mass_total = 0;
  double idf_mass_read = 0;

  // Resolve + de-duplicate once, then apply the fragment cut-off.
  std::vector<TermId> evaluated;
  for (TermId term : base_->ResolveQuery(query_words)) {
    idf_mass_total += base_->idf(term);
    if (fragment_of_[term] >= max_fragments) {
      ++local_stats.terms_skipped;
      continue;
    }
    ++local_stats.terms_evaluated;
    idf_mass_read += base_->idf(term);
    evaluated.push_back(term);
  }
  local_stats.predicted_quality =
      idf_mass_total > 0 ? idf_mass_read / idf_mass_total : 1.0;

  std::vector<EvalTerm> eval_terms;
  eval_terms.reserve(evaluated.size());
  for (TermId term : evaluated) {
    eval_terms.push_back(EvalTerm{
        &base_->postings(term),
        TermWeight(base_->df(term), base_->collection_length(), options),
        base_->df(term)});
  }
  std::vector<ScoredDoc> top = EvaluateTopN(
      std::move(eval_terms), base_->document_count(),
      base_->inv_doc_length_data(), base_->max_inv_doc_length(), n,
      /*initial_threshold=*/0.0, DocIdTieLess{}, options, &local_stats);
  if (stats != nullptr) *stats = local_stats;
  return top;
}

}  // namespace dls::ir
