#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "ir/index.h"

namespace perfbench {
namespace {

Mark g_process_start;

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Mark MarkNow() {
  Mark m;
  m.jiffies = ReadCpuJiffies();
  m.ns = NowNs();
  return m;
}

void MarkProcessStart() { g_process_start = MarkNow(); }

const Mark& ProcessStart() { return g_process_start; }

double AdjustedSeconds(const Mark& from, const Mark& to) {
  return static_cast<double>(to.ns - from.ns) / 1e9 *
         (1.0 - BusyStealShare(from.jiffies, to.jiffies));
}

double Quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double ProcessCpuSeconds() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double RssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %llu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kb) * 1024.0 / 1e6;
}

double MappedSegmentRssMb() {
  std::FILE* f = std::fopen("/proc/self/smaps", "r");
  if (f == nullptr) return 0;
  char line[4096];
  bool in_segment = false;
  unsigned long long total_kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned long long kb = 0;
    if (std::sscanf(line, "Rss: %llu kB", &kb) == 1) {
      if (in_segment) total_kb += kb;
      continue;
    }
    // A mapping header: "start-end perms offset dev inode [path]".
    // Attribute lines ("Name:  value") never contain a '-' before the
    // first space, so the header test is the address range.
    const char* space = std::strchr(line, ' ');
    const char* dash = std::strchr(line, '-');
    if (dash != nullptr && space != nullptr && dash < space) {
      size_t len = std::strlen(line);
      while (len > 0 && (line[len - 1] == '\n' || line[len - 1] == ' ')) {
        line[--len] = '\0';
      }
      in_segment = len >= 4 && std::strcmp(line + len - 4, ".seg") == 0;
    }
  }
  std::fclose(f);
  return static_cast<double>(total_kb) * 1024.0 / 1e6;
}

CpuJiffies ReadCpuJiffies() {
  CpuJiffies j;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return j;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) j.total += x;
    j.steal = v[7];
    j.idle = v[3] + v[4];
  }
  std::fclose(f);
  return j;
}

double StealShare(const CpuJiffies& before, const CpuJiffies& after) {
  const uint64_t total = after.total - before.total;
  return total == 0 ? 0.0
                    : static_cast<double>(after.steal - before.steal) /
                          static_cast<double>(total);
}

double BusyStealShare(const CpuJiffies& before, const CpuJiffies& after) {
  const uint64_t busy =
      (after.total - before.total) - (after.idle - before.idle);
  return busy == 0 ? 0.0
                   : static_cast<double>(after.steal - before.steal) /
                         static_cast<double>(busy);
}

bool SameRanking(const std::vector<dls::ir::ClusterScoredDoc>& a,
                 const std::vector<dls::ir::ClusterScoredDoc>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].url != b[i].url ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

void ReleaseFreeHeap() { malloc_trim(0); }

namespace {

constexpr auto kSamplePeriod = std::chrono::milliseconds(100);
/// Sample periods per window of the steal adjustment: half a second
/// holds about 50 busy jiffies of one hardware thread, so a window's
/// steal share resolves to about 2%.
constexpr size_t kSamplesPerWindow = 5;

PhaseMeter::Sample TakeSample() {
  PhaseMeter::Sample s;
  s.at = MarkNow();
  s.cpu_s = ProcessCpuSeconds();
  return s;
}

}  // namespace

void PhaseMeter::Begin() {
  StopSampler();
  samples_.assign(1, TakeSample());
  stop_ = false;
  sampler_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, kSamplePeriod, [this] { return stop_; })) {
      samples_.push_back(TakeSample());
    }
  });
}

void PhaseMeter::End() {
  StopSampler();
  samples_.push_back(TakeSample());
}

void PhaseMeter::StopSampler() {
  if (!sampler_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  sampler_.join();
}

double PhaseMeter::wall_seconds() const {
  return static_cast<double>(samples_.back().at.ns - samples_.front().at.ns) /
         1e9;
}

double PhaseMeter::cpu_seconds() const {
  return samples_.back().cpu_s - samples_.front().cpu_s;
}

double PhaseMeter::steal_share() const {
  return StealShare(samples_.front().at.jiffies, samples_.back().at.jiffies);
}

void FillPhaseMetrics(const PhaseMeter& phase, const LatencySamples& done,
                      const LatencySamples& search, RunReport* report) {
  // Window boundaries (sample times) and each window's (1 − steal).
  const std::vector<PhaseMeter::Sample>& samples = phase.samples();
  std::vector<int64_t> ends;
  std::vector<double> kept;
  double adjusted_s = 0;
  for (size_t i = 0; i + 1 < samples.size(); i += kSamplesPerWindow) {
    const Mark& from = samples[i].at;
    const Mark& to =
        samples[std::min(i + kSamplesPerWindow, samples.size() - 1)].at;
    const double keep = 1.0 - BusyStealShare(from.jiffies, to.jiffies);
    ends.push_back(to.ns);
    kept.push_back(keep);
    adjusted_s += static_cast<double>(to.ns - from.ns) / 1e9 * keep;
  }
  auto kept_at = [&](int64_t end_ns) {
    const size_t w = static_cast<size_t>(
        std::lower_bound(ends.begin(), ends.end(), end_ns) - ends.begin());
    return kept[std::min(w, kept.size() - 1)];
  };

  Metrics& m = report->end_to_end;
  const double ops = static_cast<double>(done.ms.size());
  m["ops_per_s"] = ops / adjusted_s;
  m["cpu_ms_per_op"] = phase.cpu_seconds() * 1e3 / std::max(ops, 1.0);
  report->env["raw_ops_per_s"] = ops / phase.wall_seconds();
  if (!search.ms.empty()) {
    std::vector<double> adjusted;
    for (size_t i = 0; i < search.ms.size(); ++i) {
      adjusted.push_back(search.ms[i] * kept_at(search.end_ns[i]));
    }
    m["search_p50_ms"] = Quantile(adjusted, 0.50);
    m["search_p95_ms"] = Quantile(std::move(adjusted), 0.95);
    report->env["raw_search_p50_ms"] = Quantile(search.ms, 0.50);
    report->env["raw_search_p95_ms"] = Quantile(search.ms, 0.95);
  }
  // What serving holds, without the free heap the allocator kept.
  ReleaseFreeHeap();
  m["rss_mb"] = RssMb();
}

void FillEnvironment(const PhaseMeter& phase, RunReport* report) {
  report->env["steal_share"] = phase.steal_share();
  report->env["busy_steal_share"] =
      BusyStealShare(phase.samples().front().at.jiffies,
                     phase.samples().back().at.jiffies);
  report->env["hardware_threads"] = std::thread::hardware_concurrency();
  // 0 scalar, 1 block, 2 packed (RankOptions::kernel reads DLS_KERNEL).
  report->env["score_kernel"] =
      static_cast<double>(static_cast<int>(dls::ir::DefaultScoreKernel()));
}

}  // namespace perfbench
