#!/usr/bin/env python3
"""Bench-regression gate: re-run the kernel, codec and net fan-out
benchmarks and compare against the committed BENCH_*.json baselines.

A metric fails the gate when it regresses by more than --threshold
(default 15%) in the unfavourable direction:

  *_batch_ms           higher is worse   (> baseline * (1 + t) fails)
  *_mpostings_per_s    lower is worse    (< baseline * (1 - t) fails)
  bytes_per_posting_packed  higher is worse
  bytes_per_query      higher is worse (wire traffic of a fan-out)
  compression_ratio    hard floor of 2.0 regardless of baseline
  overload.shed_rate   hard floor of 0.02 — the serving frontend must
                       actually shed at overload, not queue unboundedly
  bytes_per_posting_disk    higher is worse, plus a hard 3.0 ceiling —
                       the on-disk segment must stay a compressed
                       format, whatever the baseline says
  cold_start.speedup_load_vs_rebuild  hard floor of 10x — mmap-loading
                       a segment must beat rebuilding from source text
                       by an order of magnitude (the ratio is machine-
                       independent enough to gate; the raw seconds are
                       not, so they stay ungated)
  memory.load_heap_bytes_per_doc  hard ceiling of 16 — a loaded
                       segment serves its URLs, stems, postings and
                       document tables from the mapping, so the heap a
                       load allocates is a 4-byte URL offset per
                       document plus per-term objects. malloc's own
                       in-use count, not a timing, so no retry
  speedups.prune_vs_block  floor of 1.0 — the auto-planned pruned
                       evaluation must win wall-clock against the
                       exhaustive block scan, not just touch fewer
                       postings. A timing ratio, so a miss is
                       retryable like the other timing gates.
  speedups.filtered_vs_post_filter  floor of 1.0 — the federated
                       mediator's candidate pushdown must answer the
                       all-three-levels mix faster than ranking the
                       whole cluster and intersecting afterwards
                       (bench_federate; exactness rides separately on
                       exact.federated_matches_post_filter). Timing
                       ratio, retryable.
  *.hedge_rate         ceiling of 0.25 — hedges are supposed to be the
                       tail-latency exception; a router hedging a
                       quarter of its shard exchanges is burning
                       replica capacity, whatever the latency looks
                       like. Timing-sensitive, so retryable.
  replica.one_slow.p99_over_healthy_p99  ceiling of 2.0 — with one
                       replica per shard delayed 10x the healthy
                       median, hedging plus health rerouting must hold
                       p99 within twice the healthy p99 (the headline
                       claim of the replica layer). A timing ratio of
                       the same run, so a miss is retryable.
  ingest.p50_merge_over_quiesced  ceiling of 3.0 — the *median* query
                       must not feel a concurrent background merge:
                       readers answer off pinned snapshots and never
                       block on the writer. Timing ratio, retryable.
  ingest.p99_merge_over_quiesced  ceiling of 30.0 — the tail may pay
                       for the merge's CPU burst (on a single core a
                       query can wait out whole merge timeslices), but
                       boundedly. Timing ratio, retryable.
  ingest.delete_after_over_before  ceiling of 2.0 — a delete in a small
                       run must cost the same after 1,000 tombstones
                       land in another run: a delete copies only its
                       own part's deletion record. Timing ratio of one
                       run, retryable.
  exact.*              must be true — a bit-identity miss is never a
                       timing artefact (for bench_serve this covers
                       bit_identical, p99_within_deadline,
                       sheds_under_overload and zero_failures; for
                       bench_segment it covers loaded-index
                       bit-identity, byte-identical re-save and the
                       sampled truncation fuzz)

Serving latency under load is deliberately NOT ratio-gated: bench_serve
emits its timings as `*_us` leaves (not `*_batch_ms`) because queue
waits are load- and machine-dependent; its gated signals are the
exact.* booleans and the shed-rate floor.

Timings are machine-dependent, so the gate compares fresh runs against
baselines produced on the same class of machine; CI runs it as a
separate, non-required job (see .github/workflows/ci.yml) and locally
it sits behind DLS_BENCH_GATE=1 in ci/check.sh.

Interference noise is one-sided — a neighbour stealing the CPU only
ever makes a run slower — so a benchmark that fails purely on timing
ratios is re-run up to MAX_ATTEMPTS times and passes if any attempt is
clean. Exactness booleans and the hard floors/ceilings are
deterministic and fail the gate on the first miss, no retry.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (bench binary, committed baseline) pairs the gate covers.
BENCHES = [
    ("bench_ir_kernel", "BENCH_ir_kernel.json"),
    ("bench_codec", "BENCH_codec.json"),
    ("bench_net_fanout", "BENCH_net.json"),
    ("bench_serve", "BENCH_serve.json"),
    ("bench_segment", "BENCH_segment.json"),
    ("bench_ingest", "BENCH_ingest.json"),
    ("bench_federate", "BENCH_federate.json"),
]

COMPRESSION_FLOOR = 2.0
SHED_RATE_FLOOR = 0.02
# bench_segment hard limits, independent of the committed baseline: a
# segment must stay a compressed format (not a heap dump) and loading
# one must beat rebuilding the index from source text by an order of
# magnitude, or persistence is not paying its way.
DISK_BYTES_PER_POSTING_CEILING = 3.0
LOAD_SPEEDUP_FLOOR = 10.0
# ...and a loaded segment must not copy what the mapping holds: its heap
# per document stays a small constant, whatever the URLs' length.
LOAD_HEAP_BYTES_PER_DOC_CEILING = 16.0
# Pruning must pay for itself in wall-clock, not only in work counters.
# A timing ratio (both sides measured in the same run), so a miss is
# retryable, unlike the deterministic floors above.
PRUNE_VS_BLOCK_FLOOR = 1.0

# Federated candidate pushdown must beat the exhaustive
# rank-everything-then-intersect baseline in wall-clock on the
# all-three-levels mix. Same-run timing ratio, so retryable.
FILTERED_VS_POST_FILTER_FLOOR = 1.0

# Replica routing: hedges must stay the exception, and one slow replica
# must not be allowed to double tail latency. Both are timing-sensitive,
# so misses are retryable.
HEDGE_RATE_CEILING = 0.25
SLOW_REPLICA_P99_CEILING = 2.0

# Live ingestion: a background merge must not move the median query
# (readers never block on the writer — pinned snapshots) and may tax
# the tail only boundedly, even when merge and queries share one core.
# Timing ratios of one run, so misses are retryable.
INGEST_P50_MERGE_CEILING = 3.0
INGEST_P99_MERGE_CEILING = 30.0
# ...and a delete must not pay for tombstones in other parts.
INGEST_DELETE_LOCALITY_CEILING = 2.0

# Re-runs allowed when only timing ratios regressed (noise is one-sided:
# contention can't make a run faster, so one clean attempt is decisive).
MAX_ATTEMPTS = 3


def walk(tree, prefix=""):
    """Flattens a nested JSON object to {'a.b.c': leaf} pairs."""
    for key, value in tree.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            yield from walk(value, path)
        else:
            yield path, value


def classify(path):
    """Returns 'higher_bad', 'lower_bad', 'exact' or None (ungated)."""
    leaf = path.rsplit(".", 1)[-1]
    if path.startswith("exact."):
        return "exact"
    if leaf.endswith("_batch_ms"):
        return "higher_bad"
    if leaf.endswith("_mpostings_per_s"):
        return "lower_bad"
    if leaf in ("bytes_per_posting_packed", "bytes_per_posting_disk"):
        return "higher_bad"
    if leaf in ("bytes_per_query", "batched_bytes_per_query"):
        return "higher_bad"
    return None


def compare(name, baseline, fresh, threshold):
    """Compares one benchmark's fresh JSON to its baseline.

    Returns (timing_failures, hard_failures): timing failures are
    ratio regressions a re-run may clear; hard failures (exactness,
    floors/ceilings, structural mismatches) are deterministic.
    """
    timing = []
    hard = []
    base = dict(walk(baseline))
    new = dict(walk(fresh))
    for path, base_value in sorted(base.items()):
        kind = classify(path)
        if kind is None:
            continue
        if path not in new:
            hard.append(f"{name}: {path} missing from fresh run")
            continue
        new_value = new[path]
        if kind == "exact":
            status = "ok" if new_value is True else "FAIL"
            print(f"  {status:4} {path}: {new_value}")
            if new_value is not True:
                hard.append(f"{name}: {path} is {new_value}, must be true")
            continue
        if base_value <= 0:
            continue
        ratio = new_value / base_value
        if kind == "higher_bad":
            bad = ratio > 1.0 + threshold
            direction = "+"
        else:
            bad = ratio < 1.0 - threshold
            direction = "-"
        delta = (ratio - 1.0) * 100.0
        status = "FAIL" if bad else "ok"
        print(f"  {status:4} {path}: {base_value:.3f} -> {new_value:.3f} "
              f"({delta:+.1f}%)")
        if bad:
            timing.append(
                f"{name}: {path} regressed {delta:+.1f}% "
                f"(limit {direction}{threshold * 100:.0f}%)")
    fresh_flat = dict(walk(fresh))
    ratio = fresh_flat.get("space.compression_ratio")
    if ratio is not None and ratio < COMPRESSION_FLOOR:
        hard.append(
            f"{name}: compression_ratio {ratio:.2f} below the "
            f"{COMPRESSION_FLOOR:.1f}x floor")
    shed_rate = fresh_flat.get("overload.shed_rate")
    if shed_rate is not None and shed_rate < SHED_RATE_FLOOR:
        hard.append(
            f"{name}: overload.shed_rate {shed_rate:.3f} below the "
            f"{SHED_RATE_FLOOR:.2f} floor — shedding did not engage")
    per_posting = fresh_flat.get("disk.bytes_per_posting_disk")
    if per_posting is not None and per_posting > DISK_BYTES_PER_POSTING_CEILING:
        hard.append(
            f"{name}: disk.bytes_per_posting_disk {per_posting:.2f} above "
            f"the {DISK_BYTES_PER_POSTING_CEILING:.1f} ceiling")
    speedup = fresh_flat.get("cold_start.speedup_load_vs_rebuild")
    if speedup is not None and speedup < LOAD_SPEEDUP_FLOOR:
        hard.append(
            f"{name}: cold_start.speedup_load_vs_rebuild {speedup:.1f}x "
            f"below the {LOAD_SPEEDUP_FLOOR:.0f}x floor")
    load_heap = fresh_flat.get("memory.load_heap_bytes_per_doc")
    if load_heap is not None and load_heap > LOAD_HEAP_BYTES_PER_DOC_CEILING:
        hard.append(
            f"{name}: memory.load_heap_bytes_per_doc {load_heap:.1f} above "
            f"the {LOAD_HEAP_BYTES_PER_DOC_CEILING:.0f} ceiling — the "
            f"loader copies what the mapping holds")
    prune_speedup = fresh_flat.get("speedups.prune_vs_block")
    if prune_speedup is not None and prune_speedup < PRUNE_VS_BLOCK_FLOOR:
        timing.append(
            f"{name}: speedups.prune_vs_block {prune_speedup:.3f} below "
            f"the {PRUNE_VS_BLOCK_FLOOR:.1f} floor — pruning lost "
            f"wall-clock to the exhaustive scan")
    pushdown_speedup = fresh_flat.get("speedups.filtered_vs_post_filter")
    if pushdown_speedup is not None and \
            pushdown_speedup < FILTERED_VS_POST_FILTER_FLOOR:
        timing.append(
            f"{name}: speedups.filtered_vs_post_filter "
            f"{pushdown_speedup:.3f} below the "
            f"{FILTERED_VS_POST_FILTER_FLOOR:.1f} floor — candidate "
            f"pushdown lost wall-clock to rank-then-intersect")
    for path, value in sorted(fresh_flat.items()):
        if path.rsplit(".", 1)[-1] == "hedge_rate" and \
                value > HEDGE_RATE_CEILING:
            timing.append(
                f"{name}: {path} {value:.3f} above the "
                f"{HEDGE_RATE_CEILING:.2f} ceiling — hedging is no longer "
                f"the exception")
    slow_p99 = fresh_flat.get("replica.one_slow.p99_over_healthy_p99")
    if slow_p99 is not None and slow_p99 > SLOW_REPLICA_P99_CEILING:
        timing.append(
            f"{name}: replica.one_slow.p99_over_healthy_p99 {slow_p99:.2f} "
            f"above the {SLOW_REPLICA_P99_CEILING:.1f} ceiling — one slow "
            f"replica leaked into tail latency")
    merge_p50 = fresh_flat.get("ingest.p50_merge_over_quiesced")
    if merge_p50 is not None and merge_p50 > INGEST_P50_MERGE_CEILING:
        timing.append(
            f"{name}: ingest.p50_merge_over_quiesced {merge_p50:.2f} above "
            f"the {INGEST_P50_MERGE_CEILING:.1f} ceiling — the merge moved "
            f"the median query")
    merge_p99 = fresh_flat.get("ingest.p99_merge_over_quiesced")
    if merge_p99 is not None and merge_p99 > INGEST_P99_MERGE_CEILING:
        timing.append(
            f"{name}: ingest.p99_merge_over_quiesced {merge_p99:.2f} above "
            f"the {INGEST_P99_MERGE_CEILING:.1f} ceiling — merging is "
            f"drowning the query tail")
    delete_ratio = fresh_flat.get("ingest.delete_after_over_before")
    if delete_ratio is not None and \
            delete_ratio > INGEST_DELETE_LOCALITY_CEILING:
        timing.append(
            f"{name}: ingest.delete_after_over_before {delete_ratio:.2f} "
            f"above the {INGEST_DELETE_LOCALITY_CEILING:.1f} ceiling — a "
            f"delete pays for other parts' tombstones")
    return timing, hard


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build",
                        help="CMake build directory with the bench binaries")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="allowed fractional regression (default 0.15)")
    parser.add_argument("--out-dir", default=None,
                        help="keep the fresh BENCH_*.json files here "
                             "(default: a temp dir discarded on exit) — CI "
                             "uploads them as the bench job's artifact")
    args = parser.parse_args()

    failures = []
    with tempfile.TemporaryDirectory(prefix="bench_gate_") as tmp:
        out_dir = args.out_dir or tmp
        os.makedirs(out_dir, exist_ok=True)
        for binary, baseline_name in BENCHES:
            baseline_path = os.path.join(REPO, baseline_name)
            binary_path = os.path.join(REPO, args.build_dir, "bench", binary)
            if not os.path.exists(baseline_path):
                failures.append(f"{binary}: missing baseline {baseline_name}")
                continue
            if not os.path.exists(binary_path):
                failures.append(f"{binary}: binary not built at {binary_path}")
                continue
            fresh_path = os.path.join(out_dir, baseline_name)
            with open(baseline_path) as f:
                baseline = json.load(f)
            for attempt in range(1, MAX_ATTEMPTS + 1):
                retry = f" (attempt {attempt}/{MAX_ATTEMPTS})" \
                    if attempt > 1 else ""
                print(f"== {binary}{retry} ==")
                result = subprocess.run([binary_path, fresh_path],
                                        stdout=subprocess.DEVNULL)
                if result.returncode != 0:
                    failures.append(f"{binary}: exited {result.returncode}")
                    break
                with open(fresh_path) as f:
                    fresh = json.load(f)
                timing, hard = compare(binary, baseline, fresh,
                                       args.threshold)
                if hard:
                    # Deterministic miss — a re-run can't change it.
                    failures.extend(hard + timing)
                    break
                if not timing:
                    break
                if attempt == MAX_ATTEMPTS:
                    failures.extend(timing)
                else:
                    print(f"  .. timing-only failures, re-running "
                          f"{binary}")

    print()
    if failures:
        print("bench gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"bench gate passed (threshold {args.threshold * 100:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
