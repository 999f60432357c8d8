#!/usr/bin/env python3
"""Paired comparison of two checkouts on the benchmark suite (README.md).

  bench/suite/compare.py PARENT/ CHANGE/ [--pairs 10] [--workload NAME ...]
                         [--seconds S] [--seed N] [--trace 0|1] [--out FILE]

Runs `bench/suite/run.sh --workload W --seed N+i ...` in each checkout for
pairs i = 0..pairs-1, alternating which side runs first, and prints one
row per workload and metric: each side's median and quartiles, the pairs
the change won, and a verdict:

  improved    host metrics: the change wins at least 9/10 of the pairs
              (ties count for neither) and its median beats the parent's
              by more than the parent's IQR. Modeled metrics and counts:
              every pair moved in the better direction.
  worse       host metrics with a bound: the median is worse than the
              parent's by more than BENCHMARK.json's bound; without a
              bound, the mirror of the improved rule. Modeled metrics and
              counts: every pair moved in the worse direction.
  unchanged   host metrics: within the bound. Modeled metrics: equal to a
              relative 1e-9 in every pair. Counts: exactly equal.
  unresolved  anything else, including host metrics whose spread exceeds
              the bound (unless every change run beats every parent run).
"""
import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ["sod_bigpatch", "kh_smallpatch", "sod_2rank_async", "service_mixed"]
MODELED_RTOL = 1e-9


def run(checkout, workload, seed, seconds, trace, scratch):
    out = Path(scratch) / f"{checkout.name}-{workload}-{seed}.json"
    cmd = ["bash", "bench/suite/run.sh", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--json-out", str(out)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.DEVNULL)
    if proc.returncode != 0 or not out.exists():
        sys.exit(f"compare.py: {checkout}: {workload} seed {seed} failed")
    return json.loads(out.read_text())


def better(a, b, direction):
    """+1 when b is better than a, -1 when worse, 0 on a tie."""
    if a == b:
        return 0
    return 1 if (b > a) == (direction == "higher") else -1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(a_vals, b_vals, kind, direction, bound):
    pairs = len(a_vals)
    moves = [better(a, b, direction) for a, b in zip(a_vals, b_vals)]
    wins = sum(m > 0 for m in moves)
    losses = sum(m < 0 for m in moves)
    if kind in ("modeled", "count"):
        tol = MODELED_RTOL if kind == "modeled" else 0.0
        if all(abs(b - a) <= tol * max(abs(a), abs(b)) for a, b in zip(a_vals, b_vals)):
            return "unchanged", wins
        if wins == pairs:
            return "improved", wins
        if losses == pairs:
            return "worse", wins
        return "unresolved", wins
    q1a, meda, q3a = quartiles(a_vals)
    q1b, medb, q3b = quartiles(b_vals)
    gain = medb - meda if direction == "higher" else meda - medb
    if wins >= 0.9 * pairs and gain > q3a - q1a:
        return "improved", wins
    if bound is None:
        if losses >= 0.9 * pairs and -gain > q3a - q1a:
            return "worse", wins
        return "unresolved", wins
    scale = abs(meda) if meda else 1.0
    spread = max((q3a - q1a) / scale, (q3b - q1b) / scale)
    b_beats_all = all(better(a, b, direction) > 0 for a in a_vals for b in b_vals)
    if spread > bound and not b_beats_all:
        return "unresolved", wins
    if -gain / scale > bound:
        return "worse", wins
    return "unchanged", wins


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--seed", type=int, default=1000,
                   help="first seed; pair i uses seed + i")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, help="also write the report as JSON")
    args = p.parse_args()
    if args.pairs < 10:
        p.error("the comparison rule needs at least 10 pairs")
    sides = [args.parent.resolve(), args.change.resolve()]
    spec = json.loads((sides[0] / "BENCHMARK.json").read_text())
    metric_spec = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    for side in sides:  # build both before any timed run
        if subprocess.run(["python3", "bench/suite/run.py", "--build-only"],
                          cwd=side, stdout=subprocess.DEVNULL).returncode != 0:
            sys.exit(f"compare.py: {side}: build failed")

    report = []
    with tempfile.TemporaryDirectory() as scratch:
        for workload in args.workload or WORKLOADS:
            records = ([], [])
            for i in range(args.pairs):
                order = (0, 1) if i % 2 == 0 else (1, 0)
                for s in order:
                    records[s].append(run(sides[s], workload, args.seed + i,
                                          args.seconds, args.trace, scratch))
            print(f"== {workload} ({args.pairs} pairs)")
            print(f"  {'metric':38s} {'parent median [q1, q3]':>34s} "
                  f"{'change median [q1, q3]':>34s}  wins  verdict")
            for name, m in records[0][0]["metrics"].items():
                a_vals = [r["metrics"][name]["value"] for r in records[0]]
                b_vals = [r["metrics"][name]["value"] for r in records[1]]
                ms = metric_spec.get(name, {"better": "lower"})
                kind = records[0][0]["kinds"][name]
                v, wins = verdict(a_vals, b_vals, kind, ms["better"], ms.get("bound"))
                qa, qb = quartiles(a_vals), quartiles(b_vals)
                print(f"  {name:38s} {qa[1]:12.6g} [{qa[0]:9.4g}, {qa[2]:9.4g}] "
                      f"{qb[1]:12.6g} [{qb[0]:9.4g}, {qb[2]:9.4g}]  "
                      f"{wins:2d}/{args.pairs}  {v}")
                report.append({"workload": workload, "metric": name,
                               "unit": m["unit"], "kind": kind,
                               "parent": a_vals, "change": b_vals,
                               "wins": wins, "verdict": v})
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
