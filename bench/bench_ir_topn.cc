// Experiment E3 — the cost/quality trade-off of idf-descending
// horizontal fragmentation: reading only the first f fragments buys
// most of the ranking quality for a small fraction of the postings.
// Prints one row per cut-off f: work, predicted quality (the [BHC+01]
// a-priori model) and measured quality (recall@10 vs. the exact
// ranking), plus a random-fragment-order ablation.
#include <algorithm>
#include <cstdio>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "common/timer.h"
#include "ir/fragments.h"

namespace dls {
namespace {

constexpr int kDocs = 4000;
constexpr int kWordsPerDoc = 80;
constexpr size_t kVocab = 3000;
constexpr size_t kFragments = 10;
constexpr int kQueries = 40;
constexpr size_t kTopN = 10;

void BuildCorpus(ir::TextIndex* index) {
  Rng rng(2001);
  ZipfSampler zipf(kVocab, 1.1);
  for (int d = 0; d < kDocs; ++d) {
    std::string body;
    for (int w = 0; w < kWordsPerDoc; ++w) {
      body += StrFormat("term%04zu ", zipf.Sample(&rng));
    }
    index->AddDocument(StrFormat("doc%05d", d), body);
  }
  index->Flush();
}

std::vector<std::vector<std::string>> MakeQueries() {
  // Query terms drawn from the same Zipf distribution as the corpus —
  // real queries mix frequent and rare terms.
  Rng rng(77);
  ZipfSampler zipf(kVocab, 1.1);
  std::vector<std::vector<std::string>> queries;
  for (int q = 0; q < kQueries; ++q) {
    std::vector<std::string> words;
    int len = 2 + static_cast<int>(rng.Uniform(5));
    for (int w = 0; w < len; ++w) {
      words.push_back(StrFormat("term%04zu", zipf.Sample(&rng)));
    }
    queries.push_back(std::move(words));
  }
  return queries;
}

double RecallAt10(const std::vector<ir::ScoredDoc>& got,
                  const std::vector<ir::ScoredDoc>& exact) {
  if (exact.empty()) return 1.0;
  std::set<ir::DocId> truth;
  for (const ir::ScoredDoc& d : exact) truth.insert(d.doc);
  size_t hit = 0;
  for (const ir::ScoredDoc& d : got) hit += truth.count(d.doc);
  return static_cast<double>(hit) / truth.size();
}

/// Ablation: fragmentation that ignores idf (terms assigned to
/// fragments round-robin) — shows the idf ordering, not fragmentation
/// itself, carries the trade-off.
class RandomFragmentIndex {
 public:
  RandomFragmentIndex(const ir::TextIndex* base, size_t fragments)
      : base_(base), fragment_of_(base->vocabulary_size()) {
    for (ir::TermId t = 0; t < base->vocabulary_size(); ++t) {
      fragment_of_[t] = t % fragments;
    }
  }

  std::vector<ir::ScoredDoc> RankTopN(const std::vector<std::string>& words,
                                      size_t n, size_t max_fragments,
                                      size_t* postings) const {
    std::unordered_map<ir::DocId, double> scores;
    for (const std::string& word : words) {
      std::optional<std::string> norm = base_->NormalizeWord(word);
      if (!norm) continue;
      std::optional<ir::TermId> term = base_->LookupTerm(*norm);
      if (!term || fragment_of_[*term] >= max_fragments) continue;
      for (const ir::Posting& p : base_->postings(*term)) {
        ++*postings;
        scores[p.doc] += ir::TermScore(p.tf, base_->df(*term),
                                       base_->doc_length(p.doc),
                                       base_->collection_length(), {});
      }
    }
    std::vector<ir::ScoredDoc> ranked(scores.begin() == scores.end()
                                          ? std::vector<ir::ScoredDoc>{}
                                          : std::vector<ir::ScoredDoc>{});
    for (const auto& [doc, score] : scores) ranked.push_back({doc, score});
    std::sort(ranked.begin(), ranked.end(),
              [](const ir::ScoredDoc& a, const ir::ScoredDoc& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.doc < b.doc;
              });
    if (ranked.size() > n) ranked.resize(n);
    return ranked;
  }

 private:
  const ir::TextIndex* base_;
  std::vector<size_t> fragment_of_;
};

}  // namespace
}  // namespace dls

int main() {
  using namespace dls;

  ir::TextIndex index;
  BuildCorpus(&index);
  ir::FragmentedIndex fragments(&index, kFragments);
  RandomFragmentIndex random_fragments(&index, kFragments);
  std::vector<std::vector<std::string>> queries = MakeQueries();

  // Exact rankings (all fragments).
  std::vector<std::vector<ir::ScoredDoc>> exact;
  size_t full_postings = 0;
  for (const auto& q : queries) {
    ir::FragmentQueryStats stats;
    exact.push_back(fragments.RankTopN(q, kTopN, kFragments, &stats));
    full_postings += stats.postings_touched;
  }

  std::printf(
      "E3: idf-fragmented top-%zu over %d docs, %zu fragments, %d queries\n",
      kTopN, kDocs, kFragments, kQueries);
  std::printf("%-10s %-14s %-12s %-14s %-12s %-16s %-14s\n", "fragments",
              "postings", "work_frac", "pred_quality", "recall@10",
              "recall(random)", "work(random)");
  for (size_t f = 1; f <= kFragments; ++f) {
    size_t postings = 0;
    double predicted = 0;
    double recall = 0;
    double random_recall = 0;
    size_t random_postings = 0;
    for (size_t q = 0; q < queries.size(); ++q) {
      ir::FragmentQueryStats stats;
      std::vector<ir::ScoredDoc> got =
          fragments.RankTopN(queries[q], kTopN, f, &stats);
      postings += stats.postings_touched;
      predicted += stats.predicted_quality;
      recall += RecallAt10(got, exact[q]);
      std::vector<ir::ScoredDoc> rnd =
          random_fragments.RankTopN(queries[q], kTopN, f, &random_postings);
      random_recall += RecallAt10(rnd, exact[q]);
    }
    std::printf("%-10zu %-14zu %-12.3f %-14.3f %-12.3f %-16.3f %-14.3f\n",
                f, postings,
                static_cast<double>(postings) / full_postings,
                predicted / queries.size(), recall / queries.size(),
                random_recall / queries.size(),
                static_cast<double>(random_postings) / full_postings);
  }
  return 0;
}
