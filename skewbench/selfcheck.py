#!/usr/bin/env python3
"""Self-check of the benchmark.

Usage (from the repository root):

    python3 skewbench/selfcheck.py [--seconds S] [workload ...]

For each workload (default: every workload of BENCHMARK.json) makes three
tiny runs and checks that:
  * the untraced run prints every end_to_end metric of BENCHMARK.json with
    its unit, nonzero, and reports correct results with no failures;
  * the traced run prints every per_layer metric with its unit and holds
    the staged-vs-untraced bit identity;
  * a run with one seeded wrong expected result (--inject-fault) is not
    correct, counts the failure, and its ok_rate (1 - error rate) drops
    below 1.
Exits 1 when any check fails, after reporting all of them.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seconds, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", str(seconds), "--trace",
           str(trace), *extra]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                         timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}: "
                           f"{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_metrics(result, wanted, label, nonzero):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        problems.append(f"{label}: metric set differs from BENCHMARK.json")
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None:
            problems.append(f"{label}: metric {m['name']} missing")
        elif entry.get("unit") != m["unit"]:
            problems.append(f"{label}: {m['name']} unit {entry.get('unit')!r}"
                            f" != {m['unit']!r}")
        elif not math.isfinite(entry["value"]):
            problems.append(f"{label}: {m['name']} is not finite")
        elif nonzero and entry["value"] == 0:
            problems.append(f"{label}: {m['name']} reads 0")
    return problems


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    problems = []
    for w in workloads:
        plain = run(w, args.seconds, 0)
        problems += check_metrics(plain, bench["end_to_end"], f"{w} trace=0",
                                  nonzero=True)
        if not plain["correct"] or plain["failed"]:
            problems.append(f"{w} trace=0: correct={plain['correct']} "
                            f"failed={plain['failed']}")
        traced = run(w, args.seconds, 1)
        problems += check_metrics(traced, bench["per_layer"], f"{w} trace=1",
                                  nonzero=False)
        if not traced["correct"]:
            problems.append(f"{w} trace=1: staged run is not bit-identical")
        faulty = run(w, args.seconds, 0, ["--inject-fault"])
        ok_rate = faulty["metrics"]["ok_rate"]["value"]
        if faulty["correct"] or faulty["failed"] == 0 or ok_rate >= 1.0:
            problems.append(f"{w}: a seeded wrong result was not counted "
                            f"(failed={faulty['failed']}, ok_rate={ok_rate})")
        print(f"{w}: {plain['attempted']} jobs checked; seeded wrong result "
              f"-> failed={faulty['failed']} ok_rate={ok_rate:.4f}",
              flush=True)
    for p in problems:
        print("selfcheck:", p)
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
