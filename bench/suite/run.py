#!/usr/bin/env python3
"""Builds bench_suite and runs the two-clock benchmark suite (README.md).

One workload, one kind of pass (the form BENCHMARK.json's command takes):

  bench/suite/run.sh --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name and unit, then one JSON line with the keys
correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics.

The whole suite (no --trace): every workload (or the one named), each
in its own process, untraced and traced:

  bench/suite/run.sh [--workload NAME] [--seed N] [--seconds S]
                     [--repeat R] [--smoke]

prints a table and, unless --smoke, writes bench/suite/BENCH_suite.json
with the median and quartiles of R seeds (N, N+1, ...).

The executable is built (Release) into build-bench/ at the repository
root; scratch checkpoints go to build-bench/scratch/.
"""
import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
BUILD = ROOT / "build-bench"
WORKLOADS = ["sod_bigpatch", "kh_smallpatch", "sod_2rank_async", "service_mixed"]
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds bench_suite; exits 1 on failure."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(SUITE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_suite",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("run.sh: build failed:", " ".join(cmd))
            sys.exit(1)


def catalogue():
    """BENCHMARK.json's metric names and units, by pass kind."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_workload(workload, seed, seconds, trace, smoke):
    """Runs one workload process; returns (record, exit code) or exits."""
    scratch = BUILD / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "bench_suite"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--scratch", str(scratch)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"run.sh: {workload} did not finish in {RUN_TIMEOUT_S} s")
        sys.exit(1)
    lines = out.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        log(f"run.sh: {workload} exited {proc.returncode} without a record")
        sys.exit(1)
    record = json.loads(lines[-1])
    expected = catalogue()[trace]
    got = {name: m["unit"] for name, m in record["metrics"].items()}
    if got != expected:
        log("run.sh: the metrics of bench_suite and BENCHMARK.json differ:",
            sorted(set(got.items()) ^ set(expected.items())))
        sys.exit(1)
    for error in record["errors"]:
        log(f"run.sh: {workload}: GATE FAILED: {error}")
    return record, proc.returncode


def print_metrics(record):
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")


def single_mode(args):
    record, code = run_workload(args.workload, args.seed, args.seconds,
                                args.trace == 1, args.smoke)
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(record, indent=1) + "\n")
    print_metrics(record)
    print(json.dumps({k: record[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return code


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(records):
    """Median and quartiles of each metric over records of one workload."""
    out = {}
    for name, m in records[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in records]
        q1, med, q3 = quartiles(values)
        out[name] = {"unit": m["unit"], "kind": records[0]["kinds"][name],
                     "median": med, "q1": q1, "q3": q3,
                     "rel_iqr": (q3 - q1) / abs(med) if med else 0.0,
                     "values": values}
    return out


def span_medians(records):
    """Median count, self ms and total ms of every span over the records."""
    names = sorted({n for r in records for n in r["spans"]})
    out = {}
    for n in names:
        rows = [r["spans"][n] for r in records if n in r["spans"]]
        out[n] = {"count": statistics.median(s["count"] for s in rows),
                  "self_ms": statistics.median(s["self_s"] for s in rows) * 1e3,
                  "total_ms": statistics.median(s["total_s"] for s in rows) * 1e3}
    return out


def machine_info(record):
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    info = {"nproc": os.cpu_count(), "cpu_model": cpu,
            "system": platform.platform()}
    info.update(record["machine"])
    return info


def dump_record(result):
    """Indented JSON with each list of numbers kept on one line."""
    text = json.dumps(result, indent=1)
    return re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text) + "\n"


def suite_mode(args):
    workloads = [args.workload] if args.workload else WORKLOADS
    seeds = [args.seed + r for r in range(args.repeat)]
    result = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for w in workloads:
        rows = {}
        for trace in (False, True):
            records = []
            for seed in seeds:
                record, code = run_workload(w, seed, args.seconds, trace, args.smoke)
                ok = ok and code == 0 and record["correct"]
                records.append(record)
            rows["per_layer" if trace else "end_to_end"] = summarize(records)
            if trace:
                rows["spans"] = span_medians(records)
            rows.setdefault("info", records[0]["info"])
        result["workloads"][w] = rows
        result.setdefault("machine", machine_info(records[0]))
        print(f"== {w}")
        for kind in ("end_to_end", "per_layer"):
            for name, s in rows[kind].items():
                print(f"  {name:38s} {s['median']:14.6g} {s['unit']:9s}"
                      f" rel IQR {s['rel_iqr']:.3f}")
    if not args.smoke:
        out = SUITE / "BENCH_suite.json"
        out.write_text(dump_record(result))
        log(f"run.sh: wrote {out.relative_to(ROOT)}")
    log("run.sh: all gates passed" if ok else "run.sh: GATES FAILED")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--smoke", action="store_true",
                   help="10 steps and 4 jobs per pass, every gate on")
    p.add_argument("--json-out", help="with --trace: also write the full record")
    p.add_argument("--build-only", action="store_true")
    args = p.parse_args()
    build()
    if args.build_only:
        return 0
    if args.trace is not None:
        if not args.workload:
            p.error("--trace needs --workload")
        return single_mode(args)
    return suite_mode(args)


if __name__ == "__main__":
    sys.exit(main())
