// Live-ingestion benchmark: query latency while the corpus churns.
//
// The claim under test is the tentpole of the ingest subsystem: a
// LiveIndex keeps serving *exact* rankings while documents are
// inserted, deleted and background-merged — and the merge costs
// latency, not correctness. Phases:
//
//   load       bulk-insert the corpus through the delta tier (reports
//              insert throughput)
//   quiesced   per-query latency with no writer activity — the p99
//              baseline
//   churn      the same query stream while a writer thread inserts,
//              deletes and repeatedly merges; a snapshot pinned before
//              the churn is re-queried throughout and must never
//              change (pinned readers are unharmed by the swap)
//   merge      one timed merge packing the accumulated delta tier
//              (reports merge throughput)
//   locality   200 more documents merged into a second, small run;
//              the mean delete in it is timed before and after 1,000
//              deletes in the large run — a delete must not pay for
//              another part's tombstones
//
// The exact.* booleans gate in ci/bench_gate.py:
//   delta_bit_identical     quiesced rankings (kernels x pruning, with
//                           live delta parts and tombstones) match a
//                           from-scratch TextIndex over the surviving
//                           documents bit for bit
//   served_during_merge     every query under churn answered, ordered
//                           and tombstone-free, and the pinned
//                           snapshot's rankings never moved
//   merge_preserves_ranking post-merge rankings still match the
//                           rebuild at the final epoch
//
// Two gated timing ratios (both sides measured in this run, so a miss
// is retryable like the other timing gates):
//   ingest.p50_merge_over_quiesced  the headline claim — the *median*
//       query must not feel the merge (pinned snapshots mean no reader
//       ever blocks; only CPU contention remains)
//   ingest.p99_merge_over_quiesced  the tail may pay for the merge's
//       CPU burst — on a single core a query can wait out whole merge
//       timeslices — but boundedly so
//   ingest.delete_after_over_before  a delete copies only its own
//       part's deletion record, so tombstones elsewhere leave its cost
//       flat
// The raw _us latencies are machine-dependent and stay ungated.
//
// Prints a human table and writes machine-readable JSON (default
// BENCH_ingest.json, or argv[1]).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "common/timer.h"
#include "ingest/live_index.h"
#include "ir/index.h"
#include "synth/corpus.h"

namespace dls {
namespace {

constexpr int kDocs = 2000;
constexpr int kChurnDocs = 1200;
constexpr int kWordsPerDoc = 40;
constexpr size_t kVocab = 1500;
constexpr double kZipfTheta = 1.1;
constexpr int kQueryPool = 12;
constexpr int kTermsPerQuery = 3;
constexpr size_t kTopN = 10;
constexpr int kDeleteEvery = 7;  ///< every 7th loaded doc is tombstoned
constexpr size_t kDeltaSeal = 64;
constexpr size_t kNumFragments = 4;
constexpr int kLatencyIters = 600;      ///< queries per latency phase
constexpr int kChurnBatch = 48;         ///< inserts between churn merges
constexpr int kPinnedCheckEvery = 25;   ///< pinned-snapshot re-check cadence
constexpr int kLocalityDocs = 200;      ///< the small run of the locality phase
constexpr int kTimedDeletes = 64;       ///< timed deletes per locality side
constexpr int kLargeRunDeletes = 1000;  ///< tombstones put in the large run

synth::CorpusSpec IngestSpec() {
  synth::CorpusSpec spec;
  spec.seed = 9;
  spec.documents = kDocs + kChurnDocs;
  spec.words_per_doc = kWordsPerDoc;
  spec.vocabulary = kVocab;
  spec.zipf_theta = kZipfTheta;
  return spec;
}

struct ShadowDoc {
  std::string url;
  std::string text;
  bool alive = true;
};

/// The reference: a plain TextIndex over the surviving documents in
/// insertion order — what a full reindex at this epoch would produce.
std::unique_ptr<ir::TextIndex> Rebuild(const std::vector<ShadowDoc>& docs) {
  ir::TextIndex::Options opts;
  opts.flush_batch = docs.size() + 2;
  auto index = std::make_unique<ir::TextIndex>(opts);
  for (const ShadowDoc& d : docs) {
    if (d.alive) index->AddDocument(d.url, d.text);
  }
  index->Flush();
  return index;
}

bool BitIdentical(const std::vector<ingest::LiveScoredDoc>& got,
                  const std::vector<ir::ScoredDoc>& want,
                  const ir::TextIndex& rebuild) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    uint64_t bits_got, bits_want;
    std::memcpy(&bits_got, &got[i].score, sizeof(bits_got));
    std::memcpy(&bits_want, &want[i].score, sizeof(bits_want));
    if (got[i].url != rebuild.url(want[i].doc) || bits_got != bits_want) {
      return false;
    }
  }
  return true;
}

/// Rankings at every kernel x pruning combination vs the rebuild —
/// the sweep behind exact.delta_bit_identical / merge_preserves_ranking.
bool SweepBitIdentical(const ingest::LiveIndex& live,
                       const std::vector<ShadowDoc>& docs,
                       const std::vector<std::vector<std::string>>& queries) {
  std::unique_ptr<ir::TextIndex> rebuild = Rebuild(docs);
  const std::shared_ptr<const ingest::LiveIndex::Snapshot> snap = live.Pin();
  const ir::ScoreKernel kernels[] = {ir::ScoreKernel::kScalar,
                                     ir::ScoreKernel::kBlock,
                                     ir::ScoreKernel::kPacked};
  for (const auto& query : queries) {
    for (ir::ScoreKernel kernel : kernels) {
      for (bool prune : {false, true}) {
        ir::RankOptions options;
        options.kernel = kernel;
        options.prune = prune;
        std::vector<ir::ScoredDoc> want =
            rebuild->RankTopN(query, kTopN, options);
        std::vector<ingest::LiveScoredDoc> got =
            snap->Query(query, kTopN, options);
        if (!BitIdentical(got, want, *rebuild)) return false;
      }
    }
  }
  return true;
}

struct LatencyStats {
  double p50_us = 0;
  double p99_us = 0;
  double mean_us = 0;
};

LatencyStats Summarize(std::vector<double> samples) {
  LatencyStats stats;
  if (samples.empty()) return stats;
  std::sort(samples.begin(), samples.end());
  stats.p50_us = samples[samples.size() / 2];
  stats.p99_us = samples[samples.size() * 99 / 100];
  double sum = 0;
  for (double s : samples) sum += s;
  stats.mean_us = sum / static_cast<double>(samples.size());
  return stats;
}

/// One latency phase: `iters` queries round-robin over the pool,
/// per-query wall time in microseconds. `well_formed` drops to false
/// on any answer that is unsorted, over-long or serves a tombstoned
/// document — the cheap self-consistency check that can run per query
/// while the index churns (full bit-identity needs a rebuild per
/// epoch; the ingest tests do that, the bench samples it at the
/// quiesced checkpoints).
std::vector<double> RunQueries(const ingest::LiveIndex& live,
                               const std::vector<std::vector<std::string>>&
                                   queries,
                               int iters, bool* well_formed) {
  ir::RankOptions options;
  options.prune = true;
  std::vector<double> samples;
  samples.reserve(iters);
  for (int i = 0; i < iters; ++i) {
    const auto& query = queries[static_cast<size_t>(i) % queries.size()];
    Timer timer;
    const std::shared_ptr<const ingest::LiveIndex::Snapshot> snap =
        live.Pin();
    std::vector<ingest::LiveScoredDoc> got =
        snap->Query(query, kTopN, options);
    samples.push_back(timer.ElapsedMillis() * 1000.0);
    if (got.size() > kTopN) *well_formed = false;
    for (size_t r = 0; r < got.size(); ++r) {
      if (r > 0 && got[r].score > got[r - 1].score) *well_formed = false;
      if (snap->IsDeleted(got[r].id)) *well_formed = false;
    }
  }
  return samples;
}

}  // namespace
}  // namespace dls

int main(int argc, char** argv) {
  using namespace dls;
  const char* json_path = argc > 1 ? argv[1] : "BENCH_ingest.json";

  const synth::SyntheticCorpus corpus(IngestSpec());
  std::vector<std::vector<std::string>> queries;
  for (int q = 0; q < kQueryPool; ++q) {
    queries.push_back(corpus.Query(static_cast<uint64_t>(q), kTermsPerQuery));
  }

  ingest::LiveIndexOptions live_options;
  live_options.delta_seal_docs = kDeltaSeal;
  live_options.num_fragments = kNumFragments;
  ingest::LiveIndex live(live_options);
  std::vector<ShadowDoc> shadow;
  shadow.reserve(kDocs + kChurnDocs);

  // ---- load: the whole corpus through the delta tier ----------------
  Timer load_timer;
  corpus.ForEach(0, kDocs,
                 [&](size_t, const std::string& url, const std::string& body) {
                   if (!live.Insert(url, body).ok()) std::abort();
                   shadow.push_back({url, body, true});
                 });
  for (int d = 0; d < kDocs; d += kDeleteEvery) {
    if (!live.Delete(shadow[d].url)) std::abort();
    shadow[d].alive = false;
  }
  const double load_s = load_timer.ElapsedMillis() / 1000.0;
  const double insert_docs_per_s = load_s > 0 ? kDocs / load_s : 0;

  // ---- quiesced: bit-identity sweep + latency baseline --------------
  const bool delta_bit_identical = SweepBitIdentical(live, shadow, queries);
  bool quiesced_ok = true;
  const LatencyStats quiesced =
      Summarize(RunQueries(live, queries, kLatencyIters, &quiesced_ok));

  // ---- churn: queries race inserts, deletes and merges --------------
  // The pre-churn pinned snapshot and its answers: whatever the writer
  // does, this epoch's rankings must never move under the reader.
  const std::shared_ptr<const ingest::LiveIndex::Snapshot> pinned =
      live.Pin();
  ir::RankOptions pinned_options;
  pinned_options.prune = true;
  std::vector<std::vector<ingest::LiveScoredDoc>> pinned_want;
  for (const auto& query : queries) {
    pinned_want.push_back(pinned->Query(query, kTopN, pinned_options));
  }

  std::vector<std::pair<std::string, std::string>> churn_docs;
  corpus.ForEach(kDocs, kDocs + kChurnDocs,
                 [&](size_t, const std::string& url, const std::string& body) {
                   churn_docs.push_back({url, body});
                 });
  std::atomic<bool> stop_churn{false};
  std::atomic<bool> churn_failed{false};
  // What the churn thread actually applied, in insertion order; read
  // only after join, so no lock — the post-merge rebuild appends it to
  // the main shadow verbatim.
  std::vector<ShadowDoc> churn_shadow;
  churn_shadow.reserve(churn_docs.size());
  std::thread churn([&] {
    size_t next = 0;
    while (!stop_churn.load(std::memory_order_acquire) &&
           next < churn_docs.size()) {
      for (int b = 0; b < kChurnBatch && next < churn_docs.size();
           ++b, ++next) {
        if (!live.Insert(churn_docs[next].first, churn_docs[next].second)
                 .ok()) {
          churn_failed.store(true, std::memory_order_release);
          return;
        }
        const bool deleted = next % kDeleteEvery == 0;
        if (deleted && !live.Delete(churn_docs[next].first)) {
          churn_failed.store(true, std::memory_order_release);
          return;
        }
        churn_shadow.push_back(
            {churn_docs[next].first, churn_docs[next].second, !deleted});
      }
      live.Merge();
    }
  });

  bool during_ok = true;
  bool pinned_stable = true;
  ir::RankOptions options;
  options.prune = true;
  std::vector<double> during_samples;
  during_samples.reserve(kLatencyIters);
  for (int i = 0; i < kLatencyIters; ++i) {
    const auto& query = queries[static_cast<size_t>(i) % queries.size()];
    Timer timer;
    const std::shared_ptr<const ingest::LiveIndex::Snapshot> snap =
        live.Pin();
    std::vector<ingest::LiveScoredDoc> got = snap->Query(query, kTopN, options);
    during_samples.push_back(timer.ElapsedMillis() * 1000.0);
    if (got.size() > kTopN) during_ok = false;
    for (size_t r = 0; r < got.size(); ++r) {
      if (r > 0 && got[r].score > got[r - 1].score) during_ok = false;
      if (snap->IsDeleted(got[r].id)) during_ok = false;
    }
    if (i % kPinnedCheckEvery == 0) {
      const size_t qi = static_cast<size_t>(i) % queries.size();
      std::vector<ingest::LiveScoredDoc> again =
          pinned->Query(queries[qi], kTopN, pinned_options);
      if (again.size() != pinned_want[qi].size()) pinned_stable = false;
      for (size_t r = 0; r < again.size() && pinned_stable; ++r) {
        if (again[r].id != pinned_want[qi][r].id ||
            again[r].score != pinned_want[qi][r].score) {
          pinned_stable = false;
        }
      }
    }
  }
  stop_churn.store(true, std::memory_order_release);
  churn.join();
  const uint64_t merges_during = live.merges();
  const LatencyStats during = Summarize(std::move(during_samples));
  const bool served_during_merge = during_ok && pinned_stable &&
                                   !churn_failed.load() && merges_during > 0;

  // The churn thread applied a prefix of churn_docs (one entry per
  // applied document); the rest becomes the timed merge's delta tier.
  const size_t churn_applied = churn_shadow.size();
  for (ShadowDoc& doc : churn_shadow) shadow.push_back(std::move(doc));
  for (size_t i = churn_applied; i < churn_docs.size(); ++i) {
    if (!live.Insert(churn_docs[i].first, churn_docs[i].second).ok()) {
      std::abort();
    }
    const bool deleted = i % kDeleteEvery == 0;
    if (deleted && !live.Delete(churn_docs[i].first)) std::abort();
    shadow.push_back({churn_docs[i].first, churn_docs[i].second, !deleted});
  }

  // ---- merge: pack the accumulated delta tier, timed ----------------
  const ingest::LiveIndexStats before = live.Stats();
  Timer merge_timer;
  live.Merge();
  const double merge_s = merge_timer.ElapsedMillis() / 1000.0;
  const double merge_docs_per_s =
      merge_s > 0 ? static_cast<double>(before.delta_docs) / merge_s : 0;

  // ---- post-merge bit-identity at the final epoch -------------------
  const bool merge_preserves_ranking =
      SweepBitIdentical(live, shadow, queries);

  const double p50_ratio =
      quiesced.p50_us > 0 ? during.p50_us / quiesced.p50_us : 0;
  const double p99_ratio =
      quiesced.p99_us > 0 ? during.p99_us / quiesced.p99_us : 0;
  const ingest::LiveIndexStats final_stats = live.Stats();

  // ---- locality: a delete's cost vs another part's tombstones -------
  // The final run holds more than twice kLocalityDocs, so the merge
  // keeps it and packs the new documents into a second run.
  std::vector<std::string> small_run;
  corpus.ForEach(0, kLocalityDocs,
                 [&](size_t, const std::string& url, const std::string& body) {
                   small_run.push_back("locality/" + url);
                   if (!live.Insert(small_run.back(), body).ok()) std::abort();
                 });
  live.Merge();
  if (live.Stats().parts != final_stats.parts + 1) std::abort();
  const auto mean_delete_us = [&](int begin) {
    Timer timer;
    for (int i = begin; i < begin + kTimedDeletes; ++i) {
      if (!live.Delete(small_run[i])) std::abort();
    }
    return timer.ElapsedMillis() * 1000.0 / kTimedDeletes;
  };
  const double delete_us_before = mean_delete_us(0);
  int large_run_deletes = 0;
  for (size_t d = 0; d < shadow.size() && large_run_deletes < kLargeRunDeletes;
       ++d) {
    if (!shadow[d].alive) continue;
    if (!live.Delete(shadow[d].url)) std::abort();
    ++large_run_deletes;
  }
  const double delete_us_after = mean_delete_us(kTimedDeletes);
  const double delete_ratio =
      delete_us_before > 0 ? delete_us_after / delete_us_before : 0;

  std::printf(
      "live ingestion: %d docs + %d churned, vocab %zu, %d queries, "
      "top %zu, seal %zu\n\n",
      kDocs, kChurnDocs, kVocab, kQueryPool, kTopN, kDeltaSeal);
  std::printf("load      %8.0f docs/s\n", insert_docs_per_s);
  std::printf("quiesced  p50 %7.0f us  p99 %7.0f us\n", quiesced.p50_us,
              quiesced.p99_us);
  std::printf("churn     p50 %7.0f us  p99 %7.0f us  (%llu merges)\n",
              during.p50_us, during.p99_us,
              static_cast<unsigned long long>(merges_during));
  std::printf("merge     %8.0f docs/s (%zu delta docs in %.3f s)\n",
              merge_docs_per_s, before.delta_docs, merge_s);
  std::printf("during merge / quiesced: p50 %.2fx  p99 %.2fx\n", p50_ratio,
              p99_ratio);
  std::printf("delete    %7.1f us before, %7.1f us after %d large-run "
              "deletes (%.2fx)\n",
              delete_us_before, delete_us_after, kLargeRunDeletes,
              delete_ratio);
  std::printf(
      "\nexact: delta_bit_identical=%s served_during_merge=%s "
      "merge_preserves_ranking=%s\n",
      delta_bit_identical ? "true" : "false",
      served_during_merge ? "true" : "false",
      merge_preserves_ranking ? "true" : "false");

  std::FILE* out = std::fopen(json_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(
      out,
      "{\n"
      "  \"bench\": \"ingest\",\n"
      "  \"corpus\": {\"docs\": %d, \"churn_docs\": %d, \"words_per_doc\": "
      "%d, \"vocab\": %zu, \"zipf_theta\": %.2f, \"query_pool\": %d, "
      "\"terms_per_query\": %d, \"top_n\": %zu},\n"
      "  \"config\": {\"delta_seal_docs\": %zu, \"num_fragments\": %zu, "
      "\"churn_batch\": %d},\n"
      "  \"latency\": {\n"
      "    \"p50_quiesced_us\": %.1f,\n"
      "    \"p99_quiesced_us\": %.1f,\n"
      "    \"p50_during_merge_us\": %.1f,\n"
      "    \"p99_during_merge_us\": %.1f\n"
      "  },\n"
      "  \"ingest\": {\n"
      "    \"insert_docs_per_s\": %.0f,\n"
      "    \"merge_docs_per_s\": %.0f,\n"
      "    \"merges_during_churn\": %llu,\n"
      "    \"final_parts\": %zu,\n"
      "    \"final_live_docs\": %zu,\n"
      "    \"p50_merge_over_quiesced\": %.3f,\n"
      "    \"p99_merge_over_quiesced\": %.3f,\n"
      "    \"delete_us_before\": %.1f,\n"
      "    \"delete_us_after\": %.1f,\n"
      "    \"delete_after_over_before\": %.3f\n"
      "  },\n"
      "  \"exact\": {\"delta_bit_identical\": %s, \"served_during_merge\": "
      "%s, \"merge_preserves_ranking\": %s}\n"
      "}\n",
      kDocs, kChurnDocs, kWordsPerDoc, kVocab, kZipfTheta, kQueryPool,
      kTermsPerQuery, kTopN, kDeltaSeal, kNumFragments, kChurnBatch,
      quiesced.p50_us, quiesced.p99_us, during.p50_us, during.p99_us,
      insert_docs_per_s, merge_docs_per_s,
      static_cast<unsigned long long>(merges_during), final_stats.parts,
      final_stats.live_docs, p50_ratio, p99_ratio, delete_us_before,
      delete_us_after, delete_ratio, delta_bit_identical ? "true" : "false",
      served_during_merge ? "true" : "false",
      merge_preserves_ranking ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s\n", json_path);
  return (delta_bit_identical && served_during_merge &&
          merge_preserves_ranking && quiesced_ok)
             ? 0
             : 1;
}
