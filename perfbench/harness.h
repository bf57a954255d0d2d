#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Shared plumbing of the benchmark runner: run options, clocks, raw
// per-operation samples and their percentiles, process measurements
// read from /proc, and the metric sets a workload hands back.

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ir/cluster.h"

namespace perfbench {

/// One invocation: which workload, its operation seed, how long the
/// measured phase runs, whether the traced leg runs, the work
/// directory for segment files, and the directory that keeps the span
/// dump and the environment record of the run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string record_dir;

  /// "<record_dir>/<workload>-seed<seed>-<what>".
  std::string RecordPath(const std::string& what) const {
    return record_dir + "/" + workload + "-seed" + std::to_string(seed) + "-" +
           what;
  }
};

/// Steady-clock nanoseconds since an arbitrary epoch.
int64_t NowNs();

/// The q-quantile (0..1) of raw samples, linearly interpolated between
/// closest ranks (the definition numpy and Python's statistics module
/// call "inclusive"). Requires a non-empty input.
double Quantile(std::vector<double> samples, double q);

/// Process CPU time (user + system, all threads) in seconds.
double ProcessCpuSeconds();
/// VmRSS of this process in MB (1e6 bytes).
double RssMb();
/// Σ Rss of the mappings of files whose name ends in ".seg", in MB.
double MappedSegmentRssMb();

/// Aggregate jiffies from the "cpu" line of /proc/stat; the steal
/// share of an interval is Δsteal / Δtotal.
struct CpuJiffies {
  uint64_t total = 0;
  uint64_t steal = 0;
  uint64_t idle = 0;  ///< idle + iowait
};
CpuJiffies ReadCpuJiffies();
double StealShare(const CpuJiffies& before, const CpuJiffies& after);
/// Δsteal / Δ(total − idle): the share of the time the machine's
/// hardware threads wanted to run that the host gave to other guests.
/// Unlike StealShare it does not grow with how many threads are busy.
double BusyStealShare(const CpuJiffies& before, const CpuJiffies& after);

/// Host-adjusted time. The machine is a guest whose hardware threads
/// the host shares out: while it runs other guests on a thread that has
/// work, that work stands still, and the wall clock runs on. In a run
/// of `search` with 37% of its busy time stolen, throughput fell to 61%
/// and the median latency rose 1.6x against a run with 1%; scaled by
/// (1 − steal share) per half-second, both came within 6% of it. So
/// every time metric here is in host-adjusted seconds: wall time scaled
/// by (1 − BusyStealShare) over the interval it spans.
struct Mark {
  int64_t ns = 0;
  CpuJiffies jiffies;
};
Mark MarkNow();
/// Marks main()'s start, the reference point of setup_s.
void MarkProcessStart();
const Mark& ProcessStart();
/// Host-adjusted seconds from `from` to `to`.
double AdjustedSeconds(const Mark& from, const Mark& to);

/// Bit-exact ranking comparison: same urls, same score bit patterns.
bool SameRanking(const std::vector<dls::ir::ClusterScoredDoc>& a,
                 const std::vector<dls::ir::ClusterScoredDoc>& b);

/// Returns the process's free heap pages to the kernel, so VmRSS
/// reflects what the process holds rather than what its allocator kept.
void ReleaseFreeHeap();

/// Name → value of the metrics one run reports. Units live in
/// BENCHMARK.json, which run.py reads.
using Metrics = std::map<std::string, double>;

/// What a workload hands back to main(): the correctness verdict, the
/// operation counts of the measured phase, the untraced end-to-end
/// metrics, and (traced runs) the per-layer metrics.
struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics end_to_end;
  Metrics per_layer;
  /// Diagnostic environment record (not a gated metric).
  Metrics env;
};

/// Latency samples of one operation class, in milliseconds, with the
/// time each operation completed.
struct LatencySamples {
  std::vector<double> ms;
  std::vector<int64_t> end_ns;
  void Add(int64_t start_ns, int64_t end) {
    ms.push_back(static_cast<double>(end - start_ns) / 1e6);
    end_ns.push_back(end);
  }
};

/// Process-level counters over a measured phase: at Begin(), every
/// 100 ms in between, and at End().
class PhaseMeter {
 public:
  struct Sample {
    Mark at;
    double cpu_s = 0;  ///< process CPU time
  };

  PhaseMeter() = default;
  PhaseMeter(const PhaseMeter&) = delete;
  PhaseMeter& operator=(const PhaseMeter&) = delete;
  ~PhaseMeter() { StopSampler(); }

  void Begin();
  void End();
  const std::vector<Sample>& samples() const { return samples_; }
  double wall_seconds() const;
  double cpu_seconds() const;
  double steal_share() const;

 private:
  void StopSampler();

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;           ///< guarded by mu_
  std::vector<Sample> samples_;  ///< appended under mu_ while sampling
  std::thread sampler_;
};

/// Fills the end-to-end metrics every workload shares from one
/// measured phase: throughput, CPU per operation, search percentiles
/// and RSS. `done` holds every successful operation of the phase.
///
/// Throughput and latency are host-adjusted per half-second window of
/// the phase: throughput is the operations over the phase's adjusted
/// seconds, and each search latency is scaled by (1 − steal share) of
/// the window it completed in. The unadjusted figures go to the
/// environment record. CPU per operation is process CPU time. RSS is
/// read after the free heap is returned to the kernel.
void FillPhaseMetrics(const PhaseMeter& phase, const LatencySamples& done,
                      const LatencySamples& search, RunReport* report);

/// Writes the environment record (steal share, hardware threads,
/// scoring kernel) into report->env.
void FillEnvironment(const PhaseMeter& phase, RunReport* report);

/// Median of a few set-up repetitions.
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
