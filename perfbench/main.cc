// Benchmark runner: runs one workload and prints its result as a single
// JSON line on stdout.
//
//   perfbench_runner --workload search|churn|federated --seed N
//                    --seconds S --trace 0|1 [--work-dir DIR]
//                    [--record-dir DIR]
//
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// turns the decorators on for the measured phase, reports the per-layer
// metrics, and runs the same loop untraced afterwards to report the
// tracing overhead. Metrics print as name → value; run.py attaches the
// units from BENCHMARK.json. Progress and the environment record go to
// stderr; the record and a traced run's spans are also written to
// --record-dir (default: the work directory) as
// <workload>-seed<N>-env-trace<T>.json and <workload>-seed<N>-trace.jsonl.

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Prints metrics as a JSON object of name → value. A value that is
/// not finite prints as 0.
void PrintMetrics(const Metrics& values) {
  std::printf("{");
  const char* sep = "";
  for (const auto& [name, value] : values) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(),
                std::isfinite(value) ? value : 0.0);
    sep = ", ";
  }
  std::printf("}");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload search|churn|federated "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
               "[--record-dir DIR]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  MarkProcessStart();
  RunOptions options;
  options.work_dir = ".bench_build/work";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--record-dir") {
      options.record_dir = value;
    } else {
      return Usage();
    }
  }
  if (options.seconds <= 0) return Usage();
  if (options.record_dir.empty()) options.record_dir = options.work_dir;
  mkdir(options.work_dir.c_str(), 0755);
  mkdir(options.record_dir.c_str(), 0755);

  RunReport report;
  if (options.workload == "search") {
    report = RunSearch(options);
  } else if (options.workload == "churn") {
    report = RunChurn(options);
  } else if (options.workload == "federated") {
    report = RunFederated(options);
  } else {
    return Usage();
  }
  if (report.attempted == 0) {
    std::fprintf(stderr, "%s: no operation completed\n",
                 options.workload.c_str());
    return 1;
  }

  std::string env = "{\"workload\": \"" + options.workload +
                    "\", \"seed\": " + std::to_string(options.seed) +
                    ", \"trace\": " + (options.trace ? "1" : "0");
  report.env["failed_share"] = static_cast<double>(report.failed) /
                               static_cast<double>(report.attempted);
  for (const auto& [name, value] : report.env) {
    char number[32];
    std::snprintf(number, sizeof(number), "%.6g", value);
    env += ", \"" + name + "\": " + number;
  }
  env += "}";
  std::fprintf(stderr, "env %s\n", env.c_str());
  if (std::FILE* f = std::fopen(options.RecordPath(std::string("env-trace") + (options.trace ? "1" : "0") + ".json").c_str(), "w")) {
    std::fprintf(f, "%s\n", env.c_str());
    std::fclose(f);
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": ",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  PrintMetrics(options.trace ? report.per_layer : report.end_to_end);
  std::printf("}\n");
  return 0;
}
