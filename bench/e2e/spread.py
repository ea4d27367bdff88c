#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs the benchmark --runs times per workload, each run with its own seed,
interleaving workloads so slow drift of the host reaches all of them alike.
For every metric it prints the median, the quartiles, and the spread
(q3 - q1) / median.  Gated metrics (the result line's) are compared with a
third of their bound in BENCHMARK.json.  The other metrics a run prints
(its human-readable lines) are listed too, as diagnostics.  Writes the
numbers as JSON with --out.

    python3 bench/e2e/spread.py --runs 10 --out spread.json
    python3 bench/e2e/spread.py --runs 5 --workloads vgg16_b1 --exe build-e2e/bench_e2e
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
# "  <name>  <value> <unit> <note>", as bench_e2e prints each metric.
METRIC_LINE = re.compile(r"^  (\S+)\s+(-?[0-9.eE+-]+|nan|inf) (\S+)")


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                  "--trace", str(trace)]
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"spread.py: {' '.join(args)} exited {proc.returncode}:\n{proc.stdout}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"spread.py: {workload} seed {seed} not clean: {lines[-1]}")
    printed = {m.group(1): float(m.group(2)) for m in map(METRIC_LINE.match, lines) if m}
    printed.update({k: v["value"] for k, v in result["metrics"].items()})
    return set(result["metrics"]), printed


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--exe", help="bench_e2e binary (default: build and run via run.py)")
    ap.add_argument("--out", help="write the per-metric numbers here as JSON")
    a = ap.parse_args()

    cmd = [a.exe] if a.exe else [sys.executable, str(HERE / "run.py")]
    workloads = a.workloads.split(",")
    values = {w: {} for w in workloads}
    gated = set()
    for i in range(a.runs):
        for w in workloads:
            in_result, printed = run_once(cmd, w, a.first_seed + i, a.seconds, a.trace)
            gated |= in_result
            for name, v in printed.items():
                values[w].setdefault(name, []).append(v)
        print(f"run {i + 1}/{a.runs} done", file=sys.stderr)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary, ok = {}, True
    print(f"{'workload':14} {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'limit':>8}")
    for w in workloads:
        summary[w] = {}
        for name, vs in sorted(values[w].items(), key=lambda kv: (kv[0] not in gated, kv[0])):
            q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            limit = bound / 3 if bound else None
            flag = "" if name in gated else "  (diagnostic)"
            if limit is not None and spread > limit:
                flag, ok = "  OVER", False
            summary[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                "runs": len(vs), "gated": name in gated}
            lim = f"{limit:8.3f}" if limit is not None else f"{'-':>8}"
            print(f"{w:14} {name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} {lim}{flag}")
    if a.out:
        Path(a.out).write_text(json.dumps(summary, indent=1) + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
