#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The three workloads and the closed-loop client machinery they share.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "harness.h"
#include "ir/cluster.h"
#include "serve/serve_stats.h"

namespace perfbench {

/// 1M-doc search over TCP: 4 segment-backed ShardServers behind a
/// RemoteClusterIndex and a default Frontend, 1 client, fresh queries.
RunReport RunSearch(const RunOptions& options);

/// Writes beside reads: 4 live shards over TCP, one client running a
/// fixed search/insert/delete/merge sequence.
RunReport RunChurn(const RunOptions& options);

/// Federated mediation in process: Frontend + Mediator over a 4-node
/// ClusterIndex, a webspace instance and a COBRA event table.
RunReport RunFederated(const RunOptions& options);

/// One completed client operation of a measured phase.
struct OpRecord {
  int64_t op = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool ok = false;
  int kind = 0;  ///< workload-defined operation class
  std::vector<dls::ir::ClusterScoredDoc> results;
};

/// Closed loop: `clients` threads claim blocks of `block` consecutive
/// operations from [first_op, end_op) and run each through
/// `run(op, &record)`, each client waiting for its operation to finish
/// before starting the next. A client stops claiming once `seconds`
/// have passed and at least `min_ops` operations were claimed; every
/// claimed block runs to completion, so the completed operations are
/// always a prefix of the sequence. Returns the records in sequence
/// order.
template <typename RunOp>
std::vector<OpRecord> RunClosedLoop(size_t clients, int64_t first_op,
                                    int64_t end_op, double seconds,
                                    int64_t min_ops, int64_t block,
                                    RunOp run) {
  std::atomic<int64_t> next_block{0};
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::vector<OpRecord>> per_client(clients);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (true) {
        const int64_t b = next_block.fetch_add(1);
        const int64_t begin = first_op + b * block;
        if (begin >= end_op ||
            (NowNs() >= deadline && begin - first_op >= min_ops)) {
          return;
        }
        for (int64_t op = begin; op < std::min(begin + block, end_op); ++op) {
          OpRecord record;
          record.op = op;
          run(op, &record);
          per_client[c].push_back(std::move(record));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<OpRecord> records;
  for (std::vector<OpRecord>& v : per_client) {
    for (OpRecord& r : v) records.push_back(std::move(r));
  }
  std::sort(records.begin(), records.end(),
            [](const OpRecord& a, const OpRecord& b) { return a.op < b.op; });
  return records;
}

/// Sets a workload up `times` times and keeps the last set-up; each is
/// torn down before the next begins. `*median_s` is the median set-up
/// time in host-adjusted seconds, the first counted from process start
/// like any run's, the repeats on their own. Returns null when a set-up
/// fails.
template <typename State, typename SetUpFn>
std::unique_ptr<State> SetUpRepeatedly(size_t times, SetUpFn set_up,
                                       double* median_s) {
  std::unique_ptr<State> state;
  std::vector<double> seconds;
  for (size_t i = 0; i < times; ++i) {
    state.reset();
    const Mark start = i == 0 ? ProcessStart() : MarkNow();
    state = std::make_unique<State>();
    if (!set_up(state.get())) return nullptr;
    seconds.push_back(AdjustedSeconds(start, MarkNow()));
    std::fprintf(stderr, "set-up %zu: %.3f s\n", i + 1, seconds.back());
  }
  *median_s = Median(seconds);
  return state;
}

/// How much one ServeStats counter grew over a phase.
inline double Grew(const dls::serve::ServeStats& before,
                   const dls::serve::ServeStats& after,
                   uint64_t dls::serve::ServeStats::*counter) {
  return static_cast<double>(after.*counter - before.*counter);
}

/// serve.* per-layer metrics over a phase of `ops` client operations.
void FillServeLayer(const dls::serve::ServeStats& before,
                    const dls::serve::ServeStats& after, double ops,
                    Metrics* m);

/// A ratio that reads 0 when its base is empty.
inline double Share(double part, double whole) {
  return whole > 0 ? part / whole : 0.0;
}

/// Deterministic stream of distinct 3-term queries over a ranked
/// vocabulary (`word(rank)`): one word from each frequency stratum —
/// head ranks [0, 16), torso [16, 512), tail [512, vocabulary) — each
/// drawn Zipf-skewed within its stratum, in a seeded order. No word set
/// is ever returned twice, so every query of the stream misses the
/// result cache. Stratifying keeps the mix of long and short posting
/// lists the same in every query, so the cost of a run's queries does
/// not hinge on how many of them happen to hold several head words.
class QueryGenerator {
 public:
  QueryGenerator(std::function<std::string(size_t)> word, size_t vocabulary,
                 double zipf_theta, uint64_t seed)
      : word_(std::move(word)), zipf_(vocabulary, zipf_theta), rng_(seed) {}

  std::vector<std::string> Next() {
    static constexpr size_t kStrata[] = {0, 16, 512, SIZE_MAX};
    while (true) {
      std::vector<std::string> words;
      for (size_t s = 0; s + 1 < std::size(kStrata); ++s) {
        size_t rank;
        do {
          rank = zipf_.Sample(&rng_);
        } while (rank < kStrata[s] || rank >= kStrata[s + 1]);
        words.push_back(word_(rank));
      }
      std::string key = words[0] + ' ' + words[1] + ' ' + words[2];
      rng_.Shuffle(&words);
      if (seen_.insert(std::move(key)).second) return words;
    }
  }

 private:
  std::function<std::string(size_t)> word_;
  dls::ZipfSampler zipf_;
  dls::Rng rng_;
  std::unordered_set<std::string> seen_;
};

/// Seed of a named stream derived from the run seed, so each workload
/// component draws from its own reproducible sequence.
inline uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL + 1;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
