// Exactness tests of the live-ingestion subsystem: every snapshot's
// ranking must be bit-identical to a from-scratch TextIndex rebuilt
// over exactly the documents live at that epoch — across kernels
// (scalar/block/packed), pruned and exhaustive, forced strategies,
// sequentially and from parallel readers, through deletes and merges.

#include "ingest/live_index.h"

#include <dirent.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "ir/index.h"

namespace dls::ingest {
namespace {

struct ShadowDoc {
  std::string url;
  std::string text;
  bool alive = true;
};

std::string MakeBody(Rng* rng, ZipfSampler* zipf, size_t words) {
  std::string body;
  for (size_t i = 0; i < words; ++i) {
    if (!body.empty()) body += ' ';
    body += StrFormat("term%03zu", zipf->Sample(rng));
  }
  return body;
}

/// The reference: a plain TextIndex over the live documents in
/// insertion (global id) order — what a full reindex at this epoch
/// would have produced.
std::unique_ptr<ir::TextIndex> RebuildLive(
    const std::vector<ShadowDoc>& docs) {
  ir::TextIndex::Options opts;
  opts.flush_batch = docs.size() + 2;
  auto index = std::make_unique<ir::TextIndex>(opts);
  for (const ShadowDoc& d : docs) {
    if (d.alive) index->AddDocument(d.url, d.text);
  }
  index->Flush();
  return index;
}

void ExpectBitIdentical(const LiveIndex::Snapshot& snap,
                        const ir::TextIndex& rebuild,
                        const std::vector<std::string>& query, size_t n,
                        const ir::RankOptions& options, const char* what) {
  std::vector<ir::ScoredDoc> want = rebuild.RankTopN(query, n, options);
  std::vector<LiveScoredDoc> got = snap.Query(query, n, options);
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(rebuild.url(want[i].doc), got[i].url) << what << " rank " << i;
    // Bit-identical, not approximately equal: that is the contract.
    EXPECT_EQ(want[i].score, got[i].score) << what << " rank " << i;
  }
}

/// Every (kernel × pruning) configuration plus forced WAND —
/// the sweep each checkpoint of the randomized schedule runs.
std::vector<std::pair<std::string, ir::RankOptions>> ConfigSweep() {
  std::vector<std::pair<std::string, ir::RankOptions>> configs;
  const std::pair<std::string, ir::ScoreKernel> kernels[] = {
      {"scalar", ir::ScoreKernel::kScalar},
      {"block", ir::ScoreKernel::kBlock},
      {"packed", ir::ScoreKernel::kPacked},
  };
  for (const auto& [kname, kernel] : kernels) {
    for (bool prune : {false, true}) {
      ir::RankOptions o;
      o.kernel = kernel;
      o.prune = prune;
      configs.emplace_back(kname + (prune ? "+prune" : "+exhaustive"), o);
    }
  }
  ir::RankOptions forced_wand;
  forced_wand.prune = true;
  forced_wand.strategy = ir::RankStrategy::kWand;
  configs.emplace_back("forced-wand", forced_wand);
  return configs;
}

std::string TempDirPath(const std::string& name) {
  std::string dir = testing::TempDir() + "dls_live_test_" +
                    std::to_string(static_cast<long>(::getpid())) + "_" +
                    name;
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

TEST(LiveIndexTest, InsertIsVisibleImmediately) {
  LiveIndex live;
  Result<uint64_t> id = live.Insert("u0", "alpha beta gamma");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(0u, id.value());
  std::vector<LiveScoredDoc> top = live.Query({"alpha"}, 10);
  ASSERT_EQ(1u, top.size());
  EXPECT_EQ("u0", top[0].url);
  EXPECT_EQ(1u, live.epoch());
}

TEST(LiveIndexTest, DuplicateLiveUrlIsRejected) {
  LiveIndex live;
  ASSERT_TRUE(live.Insert("u0", "alpha").ok());
  Result<uint64_t> dup = live.Insert("u0", "beta");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(StatusCode::kAlreadyExists, dup.status().code());
}

TEST(LiveIndexTest, DeleteHidesDocumentAndStatistics) {
  LiveIndex live;
  ASSERT_TRUE(live.Insert("u0", "alpha beta").ok());
  ASSERT_TRUE(live.Insert("u1", "alpha gamma").ok());
  ASSERT_TRUE(live.Delete("u0"));
  EXPECT_FALSE(live.Delete("u0"));  // already dead
  EXPECT_FALSE(live.Delete("nope"));
  std::shared_ptr<const LiveIndex::Snapshot> snap = live.Pin();
  EXPECT_EQ(1u, snap->live_docs());
  EXPECT_EQ(1, snap->EffectiveDf("alpha"));
  EXPECT_EQ(0, snap->EffectiveDf("beta"));  // only holder tombstoned
  std::vector<LiveScoredDoc> top = snap->Query({"alpha"}, 10);
  ASSERT_EQ(1u, top.size());
  EXPECT_EQ("u1", top[0].url);
  // The effective vocabulary omits dead-only stems like a rebuild's.
  auto table = snap->EffectiveDfTable();
  EXPECT_EQ(0u, table.count(*ir::NormalizeWord("beta")));
}

TEST(LiveIndexTest, ReinsertAfterDeleteGetsFreshIdentity) {
  LiveIndex live;
  ASSERT_TRUE(live.Insert("u0", "alpha").ok());
  ASSERT_TRUE(live.Delete("u0"));
  Result<uint64_t> again = live.Insert("u0", "alpha beta");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(1u, again.value());
  std::vector<LiveScoredDoc> top = live.Query({"beta"}, 10);
  ASSERT_EQ(1u, top.size());
  EXPECT_EQ("u0", top[0].url);
  EXPECT_EQ(1u, top[0].id);
}

TEST(LiveIndexTest, EpochIsMonotonePerMutation) {
  LiveIndex live;
  EXPECT_EQ(0u, live.epoch());
  ASSERT_TRUE(live.Insert("u0", "alpha").ok());
  EXPECT_EQ(1u, live.epoch());
  ASSERT_TRUE(live.Delete("u0"));
  EXPECT_EQ(2u, live.epoch());
  live.Merge();  // even an effectively-empty merge is an epoch
  EXPECT_EQ(3u, live.epoch());
  live.Merge();
  EXPECT_EQ(4u, live.epoch());
}

/// Applies `delta` to an effective df table the way a cluster centre
/// does: each stem moves by `sign`, and a stem at df 0 leaves.
void ApplyDelta(const StatsDelta& delta, int sign,
                std::unordered_map<std::string, int32_t>* table) {
  for (const std::string& stem : delta.stems) {
    if (((*table)[stem] += sign) <= 0) table->erase(stem);
  }
}

// The delta each Insert/Delete reports is exactly the change in the
// effective statistics a stats handshake would read: the df table,
// the collection length and the live document count. Merges change
// none of them.
TEST(LiveIndexTest, InsertAndDeleteReportExactStatsDeltas) {
  Rng rng(31);
  ZipfSampler zipf(50, 1.1);
  LiveIndexOptions opts;
  opts.delta_seal_docs = 4;
  LiveIndex live(opts);
  std::unordered_map<std::string, int32_t> table;
  int64_t length = 0;
  size_t docs = 0;
  std::vector<std::string> live_urls;
  for (size_t step = 0; step < 200; ++step) {
    const double roll = rng.NextDouble();
    if (roll < 0.6 || live_urls.empty()) {
      const std::string url = StrFormat("u%04zu", step);
      StatsDelta delta;
      ASSERT_TRUE(
          live.Insert(url, MakeBody(&rng, &zipf, rng.Uniform(12)), &delta)
              .ok());
      EXPECT_TRUE(std::is_sorted(delta.stems.begin(), delta.stems.end()));
      EXPECT_EQ(std::adjacent_find(delta.stems.begin(), delta.stems.end()),
                delta.stems.end());
      ApplyDelta(delta, +1, &table);
      length += delta.length;
      ++docs;
      live_urls.push_back(url);
    } else if (roll < 0.85) {
      const size_t pick = rng.Uniform(live_urls.size());
      StatsDelta delta;
      ASSERT_TRUE(live.Delete(live_urls[pick], &delta));
      ApplyDelta(delta, -1, &table);
      length -= delta.length;
      --docs;
      live_urls[pick] = live_urls.back();
      live_urls.pop_back();
    } else if (roll < 0.92) {
      StatsDelta delta{7, {"stale"}};
      EXPECT_FALSE(live.Delete("nobody", &delta));
      EXPECT_EQ(delta, StatsDelta{});  // nothing found, nothing moved
    } else {
      live.Merge();
    }
    std::shared_ptr<const LiveIndex::Snapshot> snap = live.Pin();
    ASSERT_EQ(table, snap->EffectiveDfTable()) << "step " << step;
    ASSERT_EQ(length, snap->collection_length()) << "step " << step;
    ASSERT_EQ(docs, snap->live_docs()) << "step " << step;
  }
}

TEST(LiveBitIdentityTest, RandomizedScheduleSequential) {
  Rng rng(20260808);
  ZipfSampler zipf(200, 1.1);
  LiveIndexOptions opts;
  opts.delta_seal_docs = 16;
  LiveIndex live(opts);
  std::vector<ShadowDoc> docs;
  std::vector<size_t> live_ids;  // indexes into docs with alive = true

  const auto configs = ConfigSweep();
  size_t next_url = 0;
  for (size_t step = 0; step < 240; ++step) {
    const double roll = rng.NextDouble();
    if (roll < 0.62 || live_ids.empty()) {
      std::string url = StrFormat("doc-%04zu", next_url++);
      std::string body = MakeBody(&rng, &zipf, 8 + rng.Uniform(20));
      ASSERT_TRUE(live.Insert(url, body).ok());
      live_ids.push_back(docs.size());
      docs.push_back(ShadowDoc{std::move(url), std::move(body)});
    } else if (roll < 0.82) {
      const size_t pick = rng.Uniform(live_ids.size());
      const size_t victim = live_ids[pick];
      ASSERT_TRUE(live.Delete(docs[victim].url));
      docs[victim].alive = false;
      live_ids[pick] = live_ids.back();
      live_ids.pop_back();
    } else if (roll < 0.87) {
      live.Merge();
    }

    if (step % 30 != 29) continue;
    // Checkpoint: full configuration sweep against one rebuild.
    std::shared_ptr<const LiveIndex::Snapshot> snap = live.Pin();
    std::unique_ptr<ir::TextIndex> rebuild = RebuildLive(docs);
    std::vector<std::string> query;
    const size_t qlen = 1 + rng.Uniform(4);
    for (size_t i = 0; i < qlen; ++i) {
      query.push_back(StrFormat("term%03zu", zipf.Sample(&rng)));
    }
    const size_t n = 1 + rng.Uniform(20);
    for (const auto& [name, options] : configs) {
      ExpectBitIdentical(*snap, *rebuild, query, n, options,
                         StrFormat("step %zu %s", step, name.c_str())
                             .c_str());
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(LiveIndexTest, StoredPartTombstonesMatchRecountAfterEveryStep) {
  Rng rng(20261018);
  ZipfSampler zipf(80, 1.1);
  LiveIndexOptions opts;
  opts.delta_seal_docs = 6;
  LiveIndex live(opts);
  std::vector<ShadowDoc> docs;
  std::vector<size_t> live_ids;
  std::vector<size_t> dead_ids;
  for (size_t step = 0; step < 400; ++step) {
    const double roll = rng.NextDouble();
    if (roll < 0.5 || live_ids.empty()) {
      std::string url = StrFormat("doc-%04zu", docs.size());
      std::string body = MakeBody(&rng, &zipf, 1 + rng.Uniform(10));
      ASSERT_TRUE(live.Insert(url, body).ok());
      live_ids.push_back(docs.size());
      docs.push_back(ShadowDoc{std::move(url), std::move(body)});
    } else if (roll < 0.6 && !dead_ids.empty()) {
      // Re-insert a deleted url: a fresh id beside its tombstoned one.
      const size_t pick = rng.Uniform(dead_ids.size());
      const std::string url = docs[dead_ids[pick]].url;
      dead_ids[pick] = dead_ids.back();
      dead_ids.pop_back();
      std::string body = MakeBody(&rng, &zipf, 1 + rng.Uniform(10));
      ASSERT_TRUE(live.Insert(url, body).ok());
      live_ids.push_back(docs.size());
      docs.push_back(ShadowDoc{url, std::move(body)});
    } else if (roll < 0.9) {
      const size_t pick = rng.Uniform(live_ids.size());
      const size_t victim = live_ids[pick];
      ASSERT_TRUE(live.Delete(docs[victim].url));
      docs[victim].alive = false;
      dead_ids.push_back(victim);
      live_ids[pick] = live_ids.back();
      live_ids.pop_back();
    } else {
      live.Merge();
    }

    std::shared_ptr<const LiveIndex::Snapshot> snap = live.Pin();
    ASSERT_EQ(snap->part_tombstones().size(), snap->parts().size());
    for (size_t pi = 0; pi < snap->parts().size(); ++pi) {
      uint32_t recount = 0;
      for (uint64_t id : snap->parts()[pi]->global_ids) {
        if (snap->IsDeleted(id)) ++recount;
      }
      ASSERT_EQ(snap->part_tombstones()[pi], recount)
          << "step " << step << " part " << pi;
    }
  }
}

TEST(LiveBitIdentityTest, ParallelPinnedReadersSurviveMutationsAndMerge) {
  Rng rng(7);
  ZipfSampler zipf(120, 1.1);
  LiveIndexOptions opts;
  opts.delta_seal_docs = 8;
  LiveIndex live(opts);
  std::vector<ShadowDoc> docs;
  for (size_t i = 0; i < 60; ++i) {
    std::string url = StrFormat("doc-%04zu", i);
    std::string body = MakeBody(&rng, &zipf, 12);
    ASSERT_TRUE(live.Insert(url, body).ok());
    docs.push_back(ShadowDoc{std::move(url), std::move(body)});
  }
  for (size_t i = 0; i < 60; i += 7) {
    ASSERT_TRUE(live.Delete(docs[i].url));
    docs[i].alive = false;
  }

  // Pin the epoch, precompute the expected rankings from a rebuild,
  // then hammer the pinned snapshot from parallel readers while a
  // mutator inserts, deletes and merges underneath them. Readers
  // pinned to the old epoch must stay bit-identical throughout.
  std::shared_ptr<const LiveIndex::Snapshot> snap = live.Pin();
  std::unique_ptr<ir::TextIndex> rebuild = RebuildLive(docs);
  const std::vector<std::vector<std::string>> queries = {
      {"term000"}, {"term001", "term005"}, {"term002", "term010", "term040"},
      {"term003", "term000"}};
  const auto configs = ConfigSweep();

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng local(100 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto& query = queries[local.Uniform(queries.size())];
        const auto& config = configs[local.Uniform(configs.size())];
        std::vector<ir::ScoredDoc> want =
            rebuild->RankTopN(query, 10, config.second);
        std::vector<LiveScoredDoc> got =
            snap->Query(query, 10, config.second);
        if (want.size() != got.size()) {
          failures.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < want.size(); ++i) {
          if (rebuild->url(want[i].doc) != got[i].url ||
              want[i].score != got[i].score) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  // Mutator: new inserts, deletes of new documents, and merges — the
  // pinned snapshot must not notice any of it.
  for (size_t i = 0; i < 40; ++i) {
    std::string url = StrFormat("new-%04zu", i);
    ASSERT_TRUE(live.Insert(url, MakeBody(&rng, &zipf, 12)).ok());
    if (i % 5 == 4) {
      ASSERT_TRUE(live.Delete(url));
    }
    if (i % 16 == 15) live.Merge();
  }
  live.Merge();
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(0, failures.load());
}

TEST(LiveMergeTest, MergePacksDeltasAndPreservesRanking) {
  Rng rng(11);
  ZipfSampler zipf(80, 1.1);
  LiveIndexOptions opts;
  opts.delta_seal_docs = 8;
  LiveIndex live(opts);
  std::vector<ShadowDoc> docs;
  for (size_t i = 0; i < 50; ++i) {
    std::string url = StrFormat("doc-%04zu", i);
    std::string body = MakeBody(&rng, &zipf, 10);
    ASSERT_TRUE(live.Insert(url, body).ok());
    docs.push_back(ShadowDoc{std::move(url), std::move(body)});
  }
  for (size_t i = 1; i < 50; i += 9) {
    ASSERT_TRUE(live.Delete(docs[i].url));
    docs[i].alive = false;
  }
  const LiveIndexStats before = live.Stats();
  EXPECT_GT(before.delta_parts, 1u);
  EXPECT_GT(before.tombstones, 0u);

  std::shared_ptr<const LiveIndex::Snapshot> pinned = live.Pin();
  std::vector<LiveScoredDoc> pinned_before =
      pinned->Query({"term000", "term004"}, 10);

  live.Merge();

  // Merged: one frozen run, tombstoned documents physically gone.
  const LiveIndexStats after = live.Stats();
  EXPECT_EQ(1u, after.parts);
  EXPECT_EQ(0u, after.delta_parts);
  EXPECT_EQ(0u, after.tombstones);  // reversed with the dropped docs
  EXPECT_EQ(before.live_docs, after.live_docs);
  EXPECT_EQ(before.collection_length, after.collection_length);

  // The pinned pre-merge reader is unharmed...
  std::vector<LiveScoredDoc> pinned_after =
      pinned->Query({"term000", "term004"}, 10);
  ASSERT_EQ(pinned_before.size(), pinned_after.size());
  for (size_t i = 0; i < pinned_before.size(); ++i) {
    EXPECT_EQ(pinned_before[i].url, pinned_after[i].url);
    EXPECT_EQ(pinned_before[i].score, pinned_after[i].score);
  }
  // ...and the post-merge epoch still matches a rebuild bit for bit.
  std::unique_ptr<ir::TextIndex> rebuild = RebuildLive(docs);
  for (const auto& [name, options] : ConfigSweep()) {
    ExpectBitIdentical(*live.Pin(), *rebuild, {"term000", "term004"}, 10,
                       options, name.c_str());
  }
}

TEST(LiveMergeTest, OnDiskRunsServeOffMmap) {
  Rng rng(13);
  ZipfSampler zipf(60, 1.1);
  LiveIndexOptions opts;
  opts.delta_seal_docs = 8;
  opts.segment_dir = TempDirPath("runs");
  LiveIndex live(opts);
  std::vector<ShadowDoc> docs;
  for (size_t i = 0; i < 30; ++i) {
    std::string url = StrFormat("doc-%04zu", i);
    std::string body = MakeBody(&rng, &zipf, 10);
    ASSERT_TRUE(live.Insert(url, body).ok());
    docs.push_back(ShadowDoc{std::move(url), std::move(body)});
  }
  live.Merge();
  std::shared_ptr<const LiveIndex::Snapshot> snap = live.Pin();
  ASSERT_EQ(1u, snap->parts().size());
  EXPECT_TRUE(snap->parts()[0]->frozen);
  EXPECT_TRUE(snap->parts()[0]->index->loaded_from_segment());
  EXPECT_GT(live.Stats().bytes_mapped, 0u);
  std::unique_ptr<ir::TextIndex> rebuild = RebuildLive(docs);
  for (const auto& [name, options] : ConfigSweep()) {
    ExpectBitIdentical(*snap, *rebuild, {"term000", "term002"}, 10, options,
                       name.c_str());
  }
  // A second wave of 15 claims the 30-doc run too (30 <= 2 x 15): the
  // merge folds both into one run, and the old run's file is gone.
  for (size_t i = 30; i < 45; ++i) {
    std::string url = StrFormat("doc-%04zu", i);
    std::string body = MakeBody(&rng, &zipf, 10);
    ASSERT_TRUE(live.Insert(url, body).ok());
    docs.push_back(ShadowDoc{std::move(url), std::move(body)});
  }
  const std::string first_run = snap->parts()[0]->segment_path;
  ASSERT_FALSE(first_run.empty());
  live.Merge();
  std::shared_ptr<const LiveIndex::Snapshot> folded = live.Pin();
  ASSERT_EQ(1u, folded->parts().size());
  EXPECT_TRUE(folded->parts()[0]->index->loaded_from_segment());
  EXPECT_NE(0, ::access(first_run.c_str(), F_OK));
  rebuild = RebuildLive(docs);
  ExpectBitIdentical(*folded, *rebuild, {"term000", "term002"}, 10,
                     ir::RankOptions{}, "folded-run");
  // The reader pinned before the fold still scans the unlinked run.
  std::unique_ptr<ir::TextIndex> first_rebuild = RebuildLive(
      std::vector<ShadowDoc>(docs.begin(), docs.begin() + 30));
  ExpectBitIdentical(*snap, *first_rebuild, {"term000", "term002"}, 10,
                     ir::RankOptions{}, "pinned-unlinked-run");
}

TEST(LiveMergeTest, WaveUnderHalfTheRunKeepsTwoRuns) {
  Rng rng(13);
  ZipfSampler zipf(60, 1.1);
  LiveIndexOptions opts;
  opts.delta_seal_docs = 8;
  opts.segment_dir = TempDirPath("two_runs");
  LiveIndex live(opts);
  std::vector<ShadowDoc> docs;
  for (size_t i = 0; i < 44; ++i) {
    std::string url = StrFormat("doc-%04zu", i);
    std::string body = MakeBody(&rng, &zipf, 10);
    ASSERT_TRUE(live.Insert(url, body).ok());
    docs.push_back(ShadowDoc{std::move(url), std::move(body)});
    // 30 documents, then a wave of 14: 30 > 2 x 14 keeps both runs.
    if (i == 29 || i == 43) live.Merge();
  }
  std::shared_ptr<const LiveIndex::Snapshot> snap = live.Pin();
  ASSERT_EQ(2u, snap->parts().size());
  EXPECT_EQ(30u, snap->parts()[0]->global_ids.size());
  EXPECT_EQ(14u, snap->parts()[1]->global_ids.size());
  std::unique_ptr<ir::TextIndex> rebuild = RebuildLive(docs);
  for (const auto& [name, options] : ConfigSweep()) {
    ExpectBitIdentical(*snap, *rebuild, {"term000", "term002"}, 10, options,
                       name.c_str());
  }
}

/// Number of regular entries in `dir`.
size_t FilesIn(const std::string& dir) {
  size_t files = 0;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  while (const dirent* entry = ::readdir(d)) {
    if (entry->d_name[0] != '.') ++files;
  }
  ::closedir(d);
  return files;
}

// Merging after every few inserts would append a run per merge; the
// fold keeps the run count logarithmic, the segment directory in step
// with the frozen runs, and every epoch bit-identical to a rebuild.
TEST(LiveMergeTest, SmallMergesFoldIntoLogarithmicRuns) {
  Rng rng(29);
  ZipfSampler zipf(80, 1.1);
  LiveIndexOptions opts;
  opts.delta_seal_docs = 4;
  opts.segment_dir = TempDirPath("fold");
  LiveIndex live(opts);
  std::vector<ShadowDoc> docs;
  std::vector<size_t> live_ids;
  size_t max_runs = 0;
  const auto configs = ConfigSweep();
  for (size_t step = 0; step < 400; ++step) {
    const double roll = rng.NextDouble();
    if (roll < 0.70 || live_ids.empty()) {
      std::string url = StrFormat("doc-%04zu", docs.size());
      std::string body = MakeBody(&rng, &zipf, 4 + rng.Uniform(10));
      ASSERT_TRUE(live.Insert(url, body).ok());
      live_ids.push_back(docs.size());
      docs.push_back(ShadowDoc{std::move(url), std::move(body)});
    } else if (roll < 0.85) {
      const size_t pick = rng.Uniform(live_ids.size());
      ASSERT_TRUE(live.Delete(docs[live_ids[pick]].url));
      docs[live_ids[pick]].alive = false;
      live_ids[pick] = live_ids.back();
      live_ids.pop_back();
    } else {
      live.Merge();
    }

    std::shared_ptr<const LiveIndex::Snapshot> snap = live.Pin();
    size_t runs = 0;
    size_t run_docs = 0;
    size_t newer = 0;  // documents of the next newer run
    for (auto it = snap->parts().rbegin(); it != snap->parts().rend(); ++it) {
      if (!(*it)->frozen) continue;
      // Each run holds more than twice the next newer one...
      if (runs > 0) {
        EXPECT_GT((*it)->global_ids.size(), 2 * newer);
      }
      newer = (*it)->global_ids.size();
      run_docs += newer;
      ++runs;
    }
    // ...so the run count is logarithmic in the documents they hold.
    if (runs > 0) {
      EXPECT_LE(static_cast<double>(runs),
                1.0 + std::log2(static_cast<double>(run_docs)))
          << "step " << step;
    }
    max_runs = std::max(max_runs, runs);
    EXPECT_EQ(runs, FilesIn(opts.segment_dir)) << "step " << step;

    std::unique_ptr<ir::TextIndex> rebuild = RebuildLive(docs);
    std::vector<std::string> query;
    const size_t qlen = 1 + rng.Uniform(3);
    for (size_t i = 0; i < qlen; ++i) {
      query.push_back(StrFormat("term%03zu", zipf.Sample(&rng)));
    }
    const auto& [name, options] = configs[rng.Uniform(configs.size())];
    ExpectBitIdentical(*snap, *rebuild, query, 1 + rng.Uniform(12), options,
                       StrFormat("step %zu %s", step, name.c_str()).c_str());
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GE(live.merges(), 40u);  // many small merges ran...
  EXPECT_GE(max_runs, 3u);        // ...and the runs did stack up
}

TEST(LiveMergeTest, BackgroundThreadMergesUnderInsertLoad) {
  Rng rng(17);
  ZipfSampler zipf(60, 1.1);
  LiveIndexOptions opts;
  opts.delta_seal_docs = 8;
  opts.auto_merge_docs = 24;
  opts.merge_poll_ms = 1;
  LiveIndex live(opts);
  std::vector<ShadowDoc> docs;
  for (size_t i = 0; i < 90; ++i) {
    std::string url = StrFormat("doc-%04zu", i);
    std::string body = MakeBody(&rng, &zipf, 8);
    ASSERT_TRUE(live.Insert(url, body).ok());
    docs.push_back(ShadowDoc{std::move(url), std::move(body)});
    // Queries keep serving while the background thread merges.
    std::vector<LiveScoredDoc> top = live.Query({"term000"}, 5);
    (void)top;
  }
  // The background thread must have packed the early deltas.
  for (int spin = 0; spin < 500 && live.merges() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(live.merges(), 0u);
  std::unique_ptr<ir::TextIndex> rebuild = RebuildLive(docs);
  ExpectBitIdentical(*live.Pin(), *rebuild, {"term000", "term003"}, 10,
                     ir::RankOptions{}, "post-auto-merge");
}

}  // namespace
}  // namespace dls::ingest
