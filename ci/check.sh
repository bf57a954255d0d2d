#!/usr/bin/env bash
# Repo verification, staged so the CI matrix can run each configuration
# in its own job while `ci/check.sh` (no argument) stays the one-shot
# local gate:
#
#   ci/check.sh tier1   configure + build + ctest, then the IR, net,
#                       serve, ingest and federate suites again with
#                       DLS_KERNEL=packed so the compressed posting
#                       codec is the default kernel end to end (the net
#                       and serve suites re-prove remote/in-process and
#                       cached/uncached bit-identity under it; the
#                       ingest suite re-proves delta-vs-rebuild
#                       bit-identity under it). Last, it builds (does
#                       not run) the benchmark runner: perfbench/ is
#                       its own CMake project over src/, so a library
#                       change that breaks it fails here, not first in
#                       the benchmark pipeline.
#   ci/check.sh tsan    DLS_SANITIZE=thread build; the FULL IR, net,
#                       serve, ingest and federate suites (not a hand-picked
#                       filter — new suites must not silently skip
#                       sanitizer coverage) plus the thread-pool tests,
#                       then the concurrency-facing suites again under
#                       the packed kernel (shared-θ, the serving
#                       frontend and the live mutate-while-query path
#                       are the racy paths that earn this, plus the
#                       mediator's parallel OR fan-out and packed-
#                       payload candidate filters).
#   ci/check.sh asan    DLS_SANITIZE=address+undefined build; full
#                       common + IR + net + serve + ingest + federate
#                       suites, then all but common again under the
#                       packed kernel (the wire decoder's peer-
#                       controlled pointer arithmetic is exactly what
#                       ASan/UBSan should see).
#   ci/check.sh faults  fault-injection stage: the net replica/fault
#                       suites, the serve fault suite, the live
#                       mutate-while-query suite, the live stats-
#                       delta schedule (every mutation's delta checked
#                       against a fresh stats handshake), the live
#                       node schedule (insert/re-insert/delete/merge on
#                       2-3 live nodes behind one ShardServer, every
#                       node's answer checked against a rebuild of its
#                       live documents and its deletion state against a
#                       shadow model), the lost-ack writes (an insert,
#                       delete or merge whose ack is cut reaches its
#                       node once) and replicas merged apart (kInternal),
#                       under a deterministic randomized schedule, once
#                       per seed in DLS_FAULT_SEEDS (default "1 7 42"),
#                       then the same schedule under the packed kernel.
#                       Every seed must keep every answer bit-identical
#                       at full quality — failover and hedging are only
#                       allowed to hide faults, never to change results,
#                       and readers racing the writer must always see a
#                       consistent pinned epoch.
#   ci/check.sh bench   builds the benchmark binaries and runs
#                       ci/bench_gate.py against the committed
#                       BENCH_*.json baselines (>15% regression fails).
#   ci/check.sh all     tier1 + tsan + asan + faults; bench too when
#                       DLS_BENCH_GATE=1 (timing is machine-dependent,
#                       so the gate is opt-in locally and a separate
#                       non-required job in CI).
set -euo pipefail
cd "$(dirname "$0")/.."

stage="${1:-all}"

tier1() {
  echo "== tier-1: configure, build, ctest =="
  cmake -B build -S .
  cmake --build build -j "$(nproc)"
  (cd build && ctest --output-on-failure -j "$(nproc)")
  echo "== tier-1: IR + net + serve + ingest + federate suites with the packed (compressed) kernel =="
  DLS_KERNEL=packed ./build/tests/dls_ir_tests
  DLS_KERNEL=packed ./build/tests/dls_net_tests
  DLS_KERNEL=packed ./build/tests/dls_serve_tests
  DLS_KERNEL=packed ./build/tests/dls_ingest_tests
  DLS_KERNEL=packed ./build/tests/dls_federate_tests
  echo "== tier-1: build the benchmark runner (perfbench/, build only) =="
  cmake -S perfbench -B build-perfbench
  cmake --build build-perfbench -j "$(nproc)" --target perfbench_runner
}

tsan() {
  echo "== TSan: thread pool + histogram + full IR + net + serve + ingest suites =="
  cmake -B build-tsan -S . -DDLS_SANITIZE=thread
  cmake --build build-tsan -j "$(nproc)" \
    --target dls_common_tests dls_ir_tests dls_net_tests dls_serve_tests \
    dls_ingest_tests dls_federate_tests
  ./build-tsan/tests/dls_common_tests \
    --gtest_filter='ThreadPool*:LatencyHistogram*'
  ./build-tsan/tests/dls_ir_tests
  ./build-tsan/tests/dls_net_tests
  ./build-tsan/tests/dls_serve_tests
  ./build-tsan/tests/dls_ingest_tests
  ./build-tsan/tests/dls_federate_tests
  echo "== TSan: concurrency suites with the packed kernel =="
  DLS_KERNEL=packed ./build-tsan/tests/dls_ir_tests \
    --gtest_filter='ParallelQuery*:Codec*:Kernel*:Wand*:SharedThreshold*:Segment*:Strategy*'
  DLS_KERNEL=packed ./build-tsan/tests/dls_net_tests \
    --gtest_filter='TcpTest*:RemoteClusterTest*:ReplicaTest*:FaultScheduleTest*:LiveClusterTest*'
  DLS_KERNEL=packed ./build-tsan/tests/dls_serve_tests \
    --gtest_filter='ServeConcurrencyTest*:FrontendTest*:ServeFaultInjectionTest*:WarmCacheTest*'
  DLS_KERNEL=packed ./build-tsan/tests/dls_ingest_tests \
    --gtest_filter='LiveConcurrencyTest*'
  # Parallel OR fan-out + candidate pushdown over packed (released-
  # payload) posting lists: the mediator's racy path under the racy
  # codec.
  DLS_KERNEL=packed ./build-tsan/tests/dls_federate_tests \
    --gtest_filter='MediatorTest*'
  DLS_KERNEL=packed ./build-tsan/tests/dls_ir_tests \
    --gtest_filter='DocFilterTest*:*ClusterDocFilterTest*'
}

faults() {
  echo "== fault injection: replica failover + hedging + live churn under a seeded schedule =="
  cmake -B build -S .
  cmake --build build -j "$(nproc)" \
    --target dls_net_tests dls_serve_tests dls_ingest_tests
  local filter='ReplicaTest*:FaultScheduleTest*:ServeFaultInjectionTest*'
  local live_filter='LiveConcurrencyTest*'
  local delta_filter='LiveClusterTest.StatsDeltas*'
  local node_filter='LiveClusterTest.SeededSchedule*'
  local write_filter='LiveClusterTest.LostAck*:LiveClusterTest.ReplicasMergedApart*'
  for seed in ${DLS_FAULT_SEEDS:-1 7 42}; do
    echo "== fault schedule, seed $seed =="
    DLS_FAULT_SEED="$seed" ./build/tests/dls_net_tests \
      --gtest_filter="$filter:$delta_filter:$node_filter:$write_filter"
    DLS_FAULT_SEED="$seed" ./build/tests/dls_serve_tests \
      --gtest_filter="$filter"
    DLS_FAULT_SEED="$seed" ./build/tests/dls_ingest_tests \
      --gtest_filter="$live_filter"
  done
  echo "== fault schedule under the packed kernel, seed 1 =="
  DLS_KERNEL=packed ./build/tests/dls_net_tests \
    --gtest_filter="$filter:$delta_filter:$node_filter:$write_filter"
  DLS_KERNEL=packed ./build/tests/dls_serve_tests --gtest_filter="$filter"
  DLS_KERNEL=packed ./build/tests/dls_ingest_tests \
    --gtest_filter="$live_filter"
}

asan() {
  echo "== ASan+UBSan: full common + IR + net + serve + ingest + federate suites =="
  cmake -B build-asan -S . -DDLS_SANITIZE=address+undefined
  cmake --build build-asan -j "$(nproc)" \
    --target dls_common_tests dls_ir_tests dls_net_tests dls_serve_tests \
    dls_ingest_tests dls_federate_tests
  ./build-asan/tests/dls_common_tests
  ./build-asan/tests/dls_ir_tests
  ./build-asan/tests/dls_net_tests
  ./build-asan/tests/dls_serve_tests
  ./build-asan/tests/dls_ingest_tests
  ./build-asan/tests/dls_federate_tests
  echo "== ASan+UBSan: IR + net + serve + ingest + federate suites with the packed kernel =="
  DLS_KERNEL=packed ./build-asan/tests/dls_ir_tests
  DLS_KERNEL=packed ./build-asan/tests/dls_net_tests
  DLS_KERNEL=packed ./build-asan/tests/dls_serve_tests
  DLS_KERNEL=packed ./build-asan/tests/dls_ingest_tests
  DLS_KERNEL=packed ./build-asan/tests/dls_federate_tests
}

bench() {
  echo "== bench gate: throughput vs committed baselines =="
  cmake -B build -S .
  cmake --build build -j "$(nproc)" \
    --target bench_ir_kernel bench_codec bench_net_fanout bench_serve \
    bench_segment bench_ingest bench_federate
  # DLS_BENCH_OUT_DIR keeps the fresh JSONs (CI uploads them as the
  # bench job's artifact); unset, they die with the gate's temp dir.
  python3 ci/bench_gate.py --build-dir build \
    ${DLS_BENCH_OUT_DIR:+--out-dir "$DLS_BENCH_OUT_DIR"}
}

case "$stage" in
  tier1) tier1 ;;
  tsan) tsan ;;
  asan) asan ;;
  faults) faults ;;
  bench) bench ;;
  all)
    tier1
    tsan
    asan
    faults
    if [[ "${DLS_BENCH_GATE:-0}" == "1" ]]; then
      bench
    else
      echo "== bench gate skipped (set DLS_BENCH_GATE=1 to enable) =="
    fi
    ;;
  *)
    echo "usage: ci/check.sh [tier1|tsan|asan|faults|bench|all]" >&2
    exit 2
    ;;
esac

echo "== checks passed: $stage =="
