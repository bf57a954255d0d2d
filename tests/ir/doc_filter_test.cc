#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "ir/cluster.h"
#include "ir/fragments.h"
#include "ir/index.h"

namespace dls::ir {
namespace {

/// Randomized bit-identity of RankOptions::doc_filter: a filtered
/// ranking must equal the exhaustive ranking with non-filtered
/// documents dropped — same documents, bit-identical scores — for
/// every kernel, every strategy, pruning on or off, packed payloads
/// or not, sequential or parallel. This is the contract the federated
/// mediator's candidate pushdown stands on.

std::string DocBody(Rng* rng, ZipfSampler* zipf) {
  std::string body;
  for (int w = 0; w < 40; ++w) {
    body += StrFormat("term%03zu ", zipf->Sample(rng));
  }
  return body;
}

std::vector<ScoredDoc> PostFilter(const std::vector<ScoredDoc>& exhaustive,
                                  const DocFilter& filter, size_t n) {
  std::vector<ScoredDoc> kept;
  for (const ScoredDoc& d : exhaustive) {
    if (filter.Contains(d.doc)) kept.push_back(d);
  }
  if (kept.size() > n) kept.resize(n);
  return kept;
}

void ExpectSameRanking(const std::vector<ScoredDoc>& got,
                       const std::vector<ScoredDoc>& want,
                       const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].doc, want[i].doc) << label << " rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << label << " rank " << i;
  }
}

std::vector<RankOptions> AllConfigs() {
  std::vector<RankOptions> configs;
  for (ScoreKernel kernel :
       {ScoreKernel::kScalar, ScoreKernel::kBlock, ScoreKernel::kPacked}) {
    for (RankStrategy strategy :
         {RankStrategy::kAuto, RankStrategy::kTaat, RankStrategy::kWand}) {
      for (bool prune : {false, true}) {
        RankOptions o;
        o.kernel = kernel;
        o.strategy = strategy;
        o.prune = prune;
        configs.push_back(o);
      }
    }
  }
  return configs;
}

const char* KernelName(ScoreKernel k) {
  switch (k) {
    case ScoreKernel::kScalar: return "scalar";
    case ScoreKernel::kBlock: return "block";
    case ScoreKernel::kPacked: return "packed";
  }
  return "?";
}

std::string ConfigLabel(const RankOptions& o) {
  return StrFormat("kernel=%s strategy=%d prune=%d", KernelName(o.kernel),
                   static_cast<int>(o.strategy), o.prune ? 1 : 0);
}

TEST(DocFilterTest, TextIndexAllKernelsAllStrategies) {
  TextIndex index;
  Rng rng(11);
  ZipfSampler zipf(200, 1.1);
  const int kDocs = 180;
  for (int d = 0; d < kDocs; ++d) {
    index.AddDocument(StrFormat("doc%03d", d), DocBody(&rng, &zipf));
  }
  index.Flush();

  const std::vector<std::vector<std::string>> queries = {
      {"term001"},
      {"term000", "term003", "term017"},
      {"term002", "term050", "term120", "term199"},
  };

  Rng filter_rng(12);
  for (int trial = 0; trial < 3; ++trial) {
    DocFilter filter(kDocs);
    const int density = 1 + static_cast<int>(filter_rng.Next() % 4);
    for (int d = 0; d < kDocs; ++d) {
      if (filter_rng.Next() % 4 < static_cast<uint64_t>(density)) {
        filter.Set(static_cast<DocId>(d));
      }
    }
    for (const auto& query : queries) {
      const std::vector<ScoredDoc> exhaustive = index.RankTopN(query, kDocs);
      const std::vector<ScoredDoc> want = PostFilter(exhaustive, filter, 10);
      for (const RankOptions& base : AllConfigs()) {
        RankOptions options = base;
        options.doc_filter = &filter;
        ExpectSameRanking(index.RankTopN(query, 10, options), want,
                          ConfigLabel(base));
      }
    }
  }
}

TEST(DocFilterTest, EmptyAndFullFilters) {
  TextIndex index;
  Rng rng(13);
  ZipfSampler zipf(100, 1.1);
  const int kDocs = 60;
  for (int d = 0; d < kDocs; ++d) {
    index.AddDocument(StrFormat("doc%03d", d), DocBody(&rng, &zipf));
  }
  index.Flush();
  const std::vector<std::string> query = {"term001", "term010"};

  DocFilter empty(kDocs);
  DocFilter full(kDocs);
  for (int d = 0; d < kDocs; ++d) full.Set(static_cast<DocId>(d));

  RankOptions filtered;
  filtered.doc_filter = &empty;
  EXPECT_TRUE(index.RankTopN(query, 10, filtered).empty());

  filtered.doc_filter = &full;
  ExpectSameRanking(index.RankTopN(query, 10, filtered),
                    index.RankTopN(query, 10), "full filter");
}

// Set() ignores ids outside the bitmap's universe instead of writing
// past words_ — a federated snapshot can hold DocRefs a live node's
// later ingestion pushed beyond the per-node document counts (run
// under ASan in CI, which would catch the old out-of-bounds write).
TEST(DocFilterTest, SetIgnoresOutOfRangeDocs) {
  DocFilter filter(65);
  filter.Set(64);                        // last valid id (second word)
  filter.Set(65);                        // one past the end
  filter.Set(1000);                      // far past the end
  filter.Set(static_cast<DocId>(-1));    // hostile extreme
  EXPECT_EQ(filter.count(), 1u);
  EXPECT_TRUE(filter.Contains(64));
  EXPECT_FALSE(filter.Contains(65));
  EXPECT_FALSE(filter.Contains(1000));

  DocFilter empty(0);
  empty.Set(0);
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_FALSE(empty.Contains(0));
}

TEST(DocFilterTest, PackedReleasedPayloadsMatch) {
  // Two identical corpora; one drops its unpacked SoA arrays so every
  // ranking path reads through DecodePackedBlock(). The filtered
  // rankings must stay bit-identical between the two.
  TextIndex plain, released;
  Rng rng(17);
  ZipfSampler zipf(150, 1.1);
  const int kDocs = 120;
  for (int d = 0; d < kDocs; ++d) {
    const std::string url = StrFormat("doc%03d", d);
    const std::string body = DocBody(&rng, &zipf);
    plain.AddDocument(url, body);
    released.AddDocument(url, body);
  }
  plain.Flush();
  released.Flush();
  released.ReleaseUnpackedPostings();

  DocFilter filter(kDocs);
  for (int d = 0; d < kDocs; d += 3) filter.Set(static_cast<DocId>(d));

  const std::vector<std::string> query = {"term000", "term004", "term033"};
  for (const RankOptions& base : AllConfigs()) {
    RankOptions options = base;
    options.doc_filter = &filter;
    ExpectSameRanking(released.RankTopN(query, 10, options),
                      plain.RankTopN(query, 10, options),
                      "released " + ConfigLabel(base));
  }
}

TEST(DocFilterTest, FragmentedIndexHonorsFilter) {
  TextIndex base;
  Rng rng(19);
  ZipfSampler zipf(150, 1.1);
  const int kDocs = 150;
  for (int d = 0; d < kDocs; ++d) {
    base.AddDocument(StrFormat("doc%03d", d), DocBody(&rng, &zipf));
  }
  base.Flush();
  FragmentedIndex fragmented(&base, 4);

  DocFilter filter(kDocs);
  for (int d = 0; d < kDocs; d += 2) filter.Set(static_cast<DocId>(d));

  const std::vector<std::string> query = {"term001", "term020", "term090"};
  for (size_t cut : {size_t{4}, size_t{2}}) {
    const std::vector<ScoredDoc> exhaustive =
        fragmented.RankTopN(query, kDocs, cut);
    const std::vector<ScoredDoc> want = PostFilter(exhaustive, filter, 10);
    RankOptions options;
    options.doc_filter = &filter;
    ExpectSameRanking(fragmented.RankTopN(query, 10, cut, nullptr, options),
                      want, StrFormat("fragments cut=%zu", cut));
  }
}

class ClusterDocFilterTest : public ::testing::TestWithParam<bool> {};

TEST_P(ClusterDocFilterTest, ClusterFilterMatchesPostFilter) {
  const bool parallel = GetParam();
  const size_t kNodes = 3;
  ClusterIndex cluster(kNodes, 2);
  Rng rng(23);
  ZipfSampler zipf(150, 1.1);
  const int kDocs = 200;
  std::vector<std::string> urls;
  for (int d = 0; d < kDocs; ++d) {
    urls.push_back(StrFormat("doc%03d", d));
    cluster.AddDocument(urls.back(), DocBody(&rng, &zipf));
  }
  cluster.Finalize();
  if (parallel) cluster.EnableParallelism(3);

  // AddDocument round-robins: insertion order d lands on node
  // d % kNodes as local doc d / kNodes.
  ClusterDocFilter filter;
  filter.per_node.assign(kNodes, DocFilter((kDocs + kNodes - 1) / kNodes));
  std::vector<bool> selected(kDocs, false);
  Rng pick(29);
  for (int d = 0; d < kDocs; ++d) {
    if (pick.Next() % 3 == 0) {
      selected[d] = true;
      filter.per_node[d % kNodes].Set(static_cast<DocId>(d / kNodes));
    }
  }

  const std::vector<std::string> query = {"term000", "term007", "term041"};
  for (bool prune : {false, true}) {
    for (bool shared : {false, true}) {
      RankOptions options;
      options.prune = prune;
      options.shared_threshold = shared;

      std::vector<ClusterScoredDoc> exhaustive =
          cluster.Query(query, kDocs, 2, nullptr, options);
      std::vector<ClusterScoredDoc> want;
      for (const ClusterScoredDoc& d : exhaustive) {
        const int insert_order = std::stoi(d.url.substr(3));
        if (selected[insert_order]) want.push_back(d);
      }
      if (want.size() > 10) want.resize(10);

      std::vector<ClusterScoredDoc> got =
          cluster.Query(query, 10, 2, nullptr, options, &filter);
      const std::string label = StrFormat("parallel=%d prune=%d shared=%d",
                                          parallel ? 1 : 0, prune ? 1 : 0,
                                          shared ? 1 : 0);
      ASSERT_EQ(got.size(), want.size()) << label;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].url, want[i].url) << label << " rank " << i;
        EXPECT_EQ(got[i].score, want[i].score) << label << " rank " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SequentialAndParallel, ClusterDocFilterTest,
                         ::testing::Bool());

TEST(DocFilterTest, MmapLoadedClusterHonorsFilter) {
  // Round-trip through segment files: the mmap-served cluster reads
  // packed payloads through borrowed views, and its filtered rankings
  // must match the in-memory cluster's bit for bit.
  const size_t kNodes = 2;
  ClusterIndex cluster(kNodes, 2);
  Rng rng(31);
  ZipfSampler zipf(120, 1.1);
  const int kDocs = 90;
  for (int d = 0; d < kDocs; ++d) {
    cluster.AddDocument(StrFormat("doc%03d", d), DocBody(&rng, &zipf));
  }
  cluster.Finalize();

  const std::string prefix =
      ::testing::TempDir() + "/doc_filter_mmap";
  ASSERT_TRUE(cluster.FlushToDisk(prefix).ok());
  std::vector<std::string> paths;
  for (size_t i = 0; i < kNodes; ++i) {
    paths.push_back(ClusterIndex::SegmentPath(prefix, i));
  }
  Result<std::unique_ptr<ClusterIndex>> loaded =
      ClusterIndex::LoadFromSegments(paths, 2);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  ClusterDocFilter filter;
  filter.per_node.assign(kNodes, DocFilter((kDocs + kNodes - 1) / kNodes));
  for (int d = 0; d < kDocs; d += 2) {
    filter.per_node[d % kNodes].Set(static_cast<DocId>(d / kNodes));
  }

  const std::vector<std::string> query = {"term002", "term015"};
  std::vector<ClusterScoredDoc> a =
      cluster.Query(query, 10, 2, nullptr, {}, &filter);
  std::vector<ClusterScoredDoc> b =
      loaded.value()->Query(query, 10, 2, nullptr, {}, &filter);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].url, b[i].url) << "rank " << i;
    EXPECT_EQ(a[i].score, b[i].score) << "rank " << i;
  }
  for (size_t i = 0; i < kNodes; ++i) std::remove(paths[i].c_str());
}

}  // namespace
}  // namespace dls::ir
