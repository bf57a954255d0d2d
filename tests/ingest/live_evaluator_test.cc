// Deletes at the edges of a live node's evaluators: each part ranks
// under its live set, so both live evaluators — the cluster one
// (EvaluateLiveShardQuery) and the in-process one (Snapshot::Query) —
// must equal a from-scratch rebuild of the live documents however many
// of a part's documents, or of a query's best hits, are deleted, and
// for any requested depth n up to the largest the wire can carry.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "ingest/live_index.h"
#include "ir/cluster.h"
#include "ir/fragments.h"
#include "ir/index.h"

namespace dls::ingest {
namespace {

constexpr size_t kFragments = 4;
constexpr size_t kMaxN = std::numeric_limits<size_t>::max();

struct Doc {
  std::string url;
  std::string text;
  bool alive = true;
};

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Inserts `doc` into both the live index and the shadow list.
void Insert(LiveIndex* live, std::vector<Doc>* docs, std::string url,
            std::string text) {
  ASSERT_TRUE(live->Insert(url, text).ok()) << url;
  docs->push_back(Doc{std::move(url), std::move(text)});
}

void Delete(LiveIndex* live, std::vector<Doc>* docs, size_t i) {
  ASSERT_TRUE(live->Delete((*docs)[i].url)) << (*docs)[i].url;
  (*docs)[i].alive = false;
}

std::unique_ptr<ir::TextIndex> RebuildLive(const std::vector<Doc>& docs) {
  ir::TextIndex::Options options;
  options.flush_batch = docs.size() + 2;
  auto index = std::make_unique<ir::TextIndex>(options);
  for (const Doc& d : docs) {
    if (d.alive) index->AddDocument(d.url, d.text);
  }
  index->Flush();
  return index;
}

/// The query a centre holding exactly `rebuild`'s statistics pushes.
ir::ShardQuery Resolve(const ir::TextIndex& rebuild,
                       const std::vector<std::string>& words, size_t n,
                       const ir::RankOptions& options) {
  ir::ShardQuery query;
  query.n = n;
  query.max_fragments = kFragments;
  query.collection_length = rebuild.collection_length();
  query.options = options;
  ir::ResolveShardQuery(
      words, /*stem=*/true, /*stop=*/true,
      [&rebuild](std::string_view stem) {
        std::optional<ir::TermId> t = rebuild.LookupTerm(stem);
        return t ? rebuild.df(*t) : 0;
      },
      &query);
  return query;
}

std::vector<std::pair<std::string, ir::RankOptions>> Configs() {
  std::vector<std::pair<std::string, ir::RankOptions>> configs;
  const std::pair<const char*, ir::ScoreKernel> kernels[] = {
      {"scalar", ir::ScoreKernel::kScalar},
      {"block", ir::ScoreKernel::kBlock},
      {"packed", ir::ScoreKernel::kPacked},
  };
  const std::pair<const char*, ir::RankStrategy> strategies[] = {
      {"auto", ir::RankStrategy::kAuto},
      {"taat", ir::RankStrategy::kTaat},
      {"wand", ir::RankStrategy::kWand},
  };
  for (const auto& [kname, kernel] : kernels) {
    for (const auto& [sname, strategy] : strategies) {
      for (bool prune : {false, true}) {
        ir::RankOptions o;
        o.kernel = kernel;
        o.strategy = strategy;
        o.prune = prune;
        configs.emplace_back(
            StrFormat("%s+%s%s", kname, sname, prune ? "+prune" : ""), o);
      }
    }
  }
  return configs;
}

/// Both live evaluators against the rebuild, under every configuration.
void ExpectBothEvaluatorsMatchRebuild(const LiveIndex& live,
                                      const std::vector<Doc>& docs,
                                      const std::vector<std::string>& words,
                                      size_t n, const std::string& where) {
  std::shared_ptr<const LiveIndex::Snapshot> snap = live.Pin();
  std::unique_ptr<ir::TextIndex> rebuild = RebuildLive(docs);
  ir::FragmentedIndex fragments(rebuild.get(), kFragments);
  for (const auto& [name, options] : Configs()) {
    const std::string what = where + " " + name;
    const ir::ShardQuery query = Resolve(*rebuild, words, n, options);
    const ir::ShardResult want =
        ir::EvaluateShardQuery(*rebuild, fragments, query);
    const ir::ShardResult got = EvaluateLiveShardQuery(*snap, query);
    ASSERT_EQ(want.top.size(), got.top.size()) << what;
    for (size_t i = 0; i < want.top.size(); ++i) {
      EXPECT_EQ(want.top[i].url, got.top[i].url) << what << " rank " << i;
      EXPECT_EQ(Bits(want.top[i].score), Bits(got.top[i].score))
          << what << " rank " << i;
    }

    const std::vector<ir::ScoredDoc> ranked =
        rebuild->RankTopN(words, n, options);
    const std::vector<LiveScoredDoc> queried = snap->Query(words, n, options);
    ASSERT_EQ(ranked.size(), queried.size()) << what;
    for (size_t i = 0; i < ranked.size(); ++i) {
      EXPECT_EQ(rebuild->url(ranked[i].doc), queried[i].url)
          << what << " rank " << i;
      EXPECT_EQ(Bits(ranked[i].score), Bits(queried[i].score))
          << what << " rank " << i;
    }
  }
}

std::string Body(Rng* rng, ZipfSampler* zipf, size_t words) {
  std::string body;
  for (size_t i = 0; i < words; ++i) {
    if (!body.empty()) body += ' ';
    body += StrFormat("term%03zu", zipf->Sample(rng));
  }
  return body;
}

// The wire accepts any varint n, so the largest one must rank every
// live match. A part's depth must not be n plus anything: that sum
// wraps, and the part answers with a handful of documents or none.
TEST(LiveEvaluatorTest, LargestNWithTombstonesInTheOldestRun) {
  Rng rng(2026);
  ZipfSampler zipf(30, 1.0);
  LiveIndexOptions options;
  options.delta_seal_docs = 4;
  LiveIndex live(options);
  std::vector<Doc> docs;
  for (size_t i = 0; i < 40; ++i) {
    Insert(&live, &docs, StrFormat("run-%02zu", i), Body(&rng, &zipf, 12));
  }
  live.Merge();  // the oldest (and only) run
  for (size_t i : {0u, 7u, 19u}) Delete(&live, &docs, i);
  for (size_t i = 0; i < 10; ++i) {
    Insert(&live, &docs, StrFormat("delta-%02zu", i), Body(&rng, &zipf, 12));
  }
  ASSERT_EQ(3u, live.Pin()->part_tombstones()[0]);

  for (const auto& words : std::vector<std::vector<std::string>>{
           {"term000"}, {"term001", "term004"}, {"term002", "term010"}}) {
    ExpectBothEvaluatorsMatchRebuild(live, docs, words, kMaxN,
                                     "n=max " + words[0]);
  }
}

TEST(LiveEvaluatorTest, PartWhoseEveryDocumentIsDeleted) {
  Rng rng(11);
  ZipfSampler zipf(20, 1.0);
  LiveIndexOptions options;
  options.delta_seal_docs = 4;
  LiveIndex live(options);
  std::vector<Doc> docs;
  for (size_t i = 0; i < 12; ++i) {
    Insert(&live, &docs, StrFormat("old-%02zu", i), Body(&rng, &zipf, 10));
  }
  live.Merge();
  for (size_t i = 0; i < 12; ++i) Delete(&live, &docs, i);
  for (size_t i = 0; i < 6; ++i) {
    Insert(&live, &docs, StrFormat("new-%02zu", i), Body(&rng, &zipf, 10));
  }
  std::shared_ptr<const LiveIndex::Snapshot> snap = live.Pin();
  ASSERT_EQ(12u, snap->part_tombstones()[0]);
  EXPECT_EQ(6u, snap->live_docs());
  for (size_t n : {size_t{1}, size_t{5}, kMaxN}) {
    ExpectBothEvaluatorsMatchRebuild(live, docs, {"term000", "term003"}, n,
                                     StrFormat("n=%zu", n));
  }

  // The same after every document left is deleted too: a node whose
  // every part is dead answers nothing, whatever the centre's
  // statistics say.
  for (size_t i = 12; i < docs.size(); ++i) Delete(&live, &docs, i);
  snap = live.Pin();
  EXPECT_EQ(0u, snap->live_docs());
  ir::ShardQuery query;
  query.n = 10;
  query.max_fragments = kFragments;
  query.collection_length = 1000;
  query.stems = {"term000", "term003"};
  query.stem_global_df = {7, 3};
  for (const auto& [name, options] : Configs()) {
    query.options = options;
    EXPECT_TRUE(EvaluateLiveShardQuery(*snap, query).top.empty()) << name;
    EXPECT_TRUE(snap->Query({"term000", "term003"}, 10, options).empty())
        << name;
  }
}

// The n + k best matches of one part are deleted, k > n: the part must
// still answer with its best n live ones.
TEST(LiveEvaluatorTest, DeletedBestHitsOutnumberN) {
  constexpr size_t kN = 3;
  constexpr size_t kDeleted = kN + 8;
  Rng rng(5);
  ZipfSampler zipf(20, 1.0);
  LiveIndexOptions options;
  options.delta_seal_docs = 8;
  LiveIndex live(options);
  std::vector<Doc> docs;
  // Documents 0..29 hold "zeta" with falling frequency, so the query's
  // ranking starts with them in insertion order; the rest mention it
  // once among filler.
  for (size_t i = 0; i < 30; ++i) {
    std::string body;
    for (size_t r = 0; r < 40 - i; ++r) body += "zeta ";
    Insert(&live, &docs, StrFormat("hot-%02zu", i),
           body + Body(&rng, &zipf, 10));
  }
  for (size_t i = 0; i < 30; ++i) {
    Insert(&live, &docs, StrFormat("cold-%02zu", i),
           "zeta " + Body(&rng, &zipf, 20));
  }
  live.Merge();
  for (size_t i = 0; i < kDeleted; ++i) Delete(&live, &docs, i);
  // A second part with the same shape keeps the merge across parts in
  // play.
  for (size_t i = 0; i < 6; ++i) {
    Insert(&live, &docs, StrFormat("late-%02zu", i),
           "zeta zeta " + Body(&rng, &zipf, 10));
  }
  ASSERT_EQ(kDeleted, live.Pin()->part_tombstones()[0]);
  for (size_t n : {kN, size_t{1}, kDeleted + 2}) {
    ExpectBothEvaluatorsMatchRebuild(live, docs, {"zeta"}, n,
                                     StrFormat("n=%zu", n));
    ExpectBothEvaluatorsMatchRebuild(live, docs, {"zeta", "term001"}, n,
                                     StrFormat("n=%zu two words", n));
  }
}

// A node with several parts does the work of its parts, summed: the
// contract EvaluateLiveShardQuery states. Snapshot::Query sums its
// parts the same way, so an exhaustive scan touches exactly the
// postings of each part's query stems that are still live somewhere.
TEST(LiveEvaluatorTest, ManyPartWorkIsTheSumOfItsParts) {
  Rng rng(24);
  ZipfSampler zipf(30, 1.0);
  LiveIndexOptions options;
  options.delta_seal_docs = 8;
  LiveIndex live(options);
  std::vector<Doc> docs;
  // The run is long enough for pruning to skip whole blocks.
  constexpr size_t kRunDocs = 400;
  for (size_t i = 0; i < kRunDocs; ++i) {
    // Only document 3 holds "solo"; deleting it leaves the run holding
    // a stem whose effective df is 0.
    Insert(&live, &docs, StrFormat("run-%03zu", i),
           Body(&rng, &zipf, 12) + (i == 3 ? " solo" : ""));
  }
  live.Merge();
  for (size_t i = 0; i < 11; ++i) {
    Insert(&live, &docs, StrFormat("delta-%02zu", i), Body(&rng, &zipf, 12));
  }
  // A delete in the run, in the sealed delta part and in the active one.
  for (size_t i : {size_t{3}, kRunDocs + 2, kRunDocs + 9}) {
    Delete(&live, &docs, i);
  }
  std::shared_ptr<const LiveIndex::Snapshot> snap = live.Pin();
  ASSERT_EQ(3u, snap->parts().size());
  EXPECT_TRUE(snap->parts()[0]->frozen);
  EXPECT_EQ(8u, snap->parts()[1]->global_ids.size());
  EXPECT_EQ(3u, snap->parts()[2]->global_ids.size());
  EXPECT_EQ(std::vector<uint32_t>({1, 1, 1}), snap->part_tombstones());

  std::unique_ptr<ir::TextIndex> rebuild = RebuildLive(docs);
  const std::vector<std::vector<std::string>> queries = {
      {"term000", "term005"}, {"term001"}, {"solo", "term002", "term009"}};
  ir::RankStats all_work;
  for (const auto& words : queries) {
    for (const auto& [name, config] : Configs()) {
      const std::string what = words[0] + " " + name;
      const ir::ShardQuery query = Resolve(*rebuild, words, 10, config);
      ir::RankStats parts_work;
      for (size_t pi = 0; pi < snap->parts().size(); ++pi) {
        const LiveIndex::Part& part = *snap->parts()[pi];
        parts_work += ir::EvaluateShardQuery(
                              *part.index, part.fragments.get(), query,
                              /*shared_theta=*/nullptr, snap->part_live(pi))
                          .work;
      }
      EXPECT_EQ(EvaluateLiveShardQuery(*snap, query).work, parts_work)
          << what;
      all_work += parts_work;

      if (config.strategy != ir::RankStrategy::kTaat || config.prune) continue;
      size_t postings = 0;
      for (const auto& part : snap->parts()) {
        for (const std::string& stem : query.stems) {
          std::optional<ir::TermId> t = part->index->LookupTerm(stem);
          if (t) postings += part->index->postings(*t).size();
        }
      }
      ir::RankStats stats;
      snap->Query(words, 10, config, &stats);
      EXPECT_EQ(postings, stats.postings_touched) << what;
    }
  }
  // Every counter moved, so none of the sums above compared 0 with 0.
  EXPECT_GT(all_work.postings_touched, 0u);
  EXPECT_GT(all_work.blocks_skipped, 0u);
  EXPECT_GT(all_work.blocks_decoded, 0u);
  EXPECT_GT(all_work.pivot_iterations, 0u);
  EXPECT_GT(all_work.cursor_advances, 0u);
}

}  // namespace
}  // namespace dls::ingest
