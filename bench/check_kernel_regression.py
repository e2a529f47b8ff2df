#!/usr/bin/env python3
"""CI gate for the batched timing kernels.

Fails when a gated batch kernel (NLDM lookup, Elmore moments, all-corner
STA propagation, whole-round move scoring) regresses more than its margin
against the recorded baseline (bench/baseline_kernels.json, a full
BENCH_bench_kernels.json snapshot).

Raw times are machine-dependent, so the gate compares machine-neutral
ratios instead: batched time per element (or lane) divided by the scalar
kernel's time from the same run. A slower machine inflates both numbers;
only a genuine regression of a batch kernel relative to its scalar path
moves the ratio. Records carry heterogeneous units (real_time_ns/us/ms),
so everything is normalized to nanoseconds first; constant per-unit
divisors the JSON doesn't expose (e.g. the move-table size behind
BM_MoveScoreBatch) cancel in the current-vs-baseline comparison.

A run with --benchmark_repetitions holds one record per repetition of a
case; the gate reads each case's median real time, so one descheduled
repetition on a shared host does not fail it. A file with one record a
case (the baseline) reads as that record.

Usage: check_kernel_regression.py [current.json] [baseline.json] [margin]
"""

import json
import statistics
import sys

# Batch element count baked into BM_NldmLookupBatch (bench_kernels.cpp kN).
BATCH_ELEMS = 1024
ELMORE_LANES = 4

UNIT_TO_NS = {
    "real_time_ns": 1.0,
    "real_time_us": 1e3,
    "real_time_ms": 1e6,
}


def load(path):
    """case -> median time in ns over the case's records, whatever unit
    each record was written in."""
    with open(path) as f:
        data = json.load(f)
    times = {}
    for r in data["records"]:
        scale = UNIT_TO_NS.get(r["metric"])
        if scale is not None:
            times.setdefault(r["case"], []).append(r["value"] * scale)
    return {case: statistics.median(ts) for case, ts in times.items()}


# Gated kernels: name -> (batch case, scalar case, per-unit divisor).
GATES = {
    "BM_NldmLookupBatch": ("BM_NldmLookupBatch", "BM_NldmLookup", BATCH_ELEMS),
    "BM_ElmoreMomentsBatch": (
        "BM_ElmoreMomentsBatch",
        "BM_ElmoreMoments",
        ELMORE_LANES,
    ),
    # Arg(1) is the batched all-corner propagation, Arg(0) the per-corner
    # loop over the same design — the ratio is batched/scalar directly.
    "BM_PropagateCornerBatch": (
        "BM_PropagateCornerBatch/1",
        "BM_PropagateCornerBatch/0",
        1,
    ),
    # Whole-move-table batch scoring vs a single scalar prediction. The
    # table size is a constant of the benchmark design, so it cancels
    # between current and baseline ratios.
    "BM_MoveScoreBatch": ("BM_MoveScoreBatch", "BM_MovePrediction", 1),
}

# Added on top of the base margin, per kernel. Elmore's walk order is
# topology-sensitive, so smoke-budget runs jitter more; the whole-design
# propagation and move-table kernels aggregate thousands of nodes/moves
# per iteration and see fewer iterations in a smoke budget.
EXTRA_MARGIN = {
    "BM_ElmoreMomentsBatch": 0.15,
    "BM_PropagateCornerBatch": 0.10,
    "BM_MoveScoreBatch": 0.15,
}


def ratio(recs, batch, scalar, per):
    return recs[batch] / per / recs[scalar]


def main(argv):
    cur_path = argv[1] if len(argv) > 1 else "BENCH_bench_kernels.json"
    base_path = argv[2] if len(argv) > 2 else "bench/baseline_kernels.json"
    margin = float(argv[3]) if len(argv) > 3 else 0.20

    cur = load(cur_path)
    base = load(base_path)

    regressed = []
    for name, (batch, scalar, per) in GATES.items():
        if batch not in base or scalar not in base:
            print(f"{name}: no baseline recorded, skipping")
            continue
        if batch not in cur or scalar not in cur:
            print(f"{name}: missing from current run, skipping")
            continue
        r_cur = ratio(cur, batch, scalar, per)
        r_base = ratio(base, batch, scalar, per)
        limit = r_base * (1.0 + margin + EXTRA_MARGIN.get(name, 0.0))
        print(
            f"{batch} per-unit / {scalar}: "
            f"current {r_cur:.3f}, baseline {r_base:.3f}, limit {limit:.3f}"
        )
        if r_cur > limit:
            regressed.append(name)

    if regressed:
        print(
            "FAIL: batched kernel(s) regressed beyond the margin: "
            + ", ".join(regressed)
        )
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
