#!/usr/bin/env python3
"""Steadiness report: run workloads repeatedly and print each metric's spread.

    python3 perfbench/steady.py --workloads oneshot serve-mix --seeds 1-10

For every workload and every metric it prints the median, the first and
third quartiles (statistics.quantiles, n=4), the spread (Q3 - Q1) / median
and the metric's bound from BENCHMARK.json.  Each run's host steal ticks
and load average are listed beside it as diagnostics; no run is dropped or
repeated because of them.  --json writes every run's result as well.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"run failed: {workload} seed {seed}")
    lines = proc.stdout.rstrip("\n").split("\n")
    host = next((l for l in lines if l.startswith("host: ")), "host: ?")
    return json.loads(lines[-1]), host[len("host: "):]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", nargs="+",
                   default=["oneshot", "serve-mix", "guarded-query"])
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--json", help="also write every run's result here")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = {}
    for w in args.workloads:
        runs[w] = []
        for s in seeds(args.seeds):
            result, host = run_once(w, s, bench["run_seconds"])
            runs[w].append({"seed": s, "host": host, "result": result})
            print(f"{w} seed {s}: attempted {result['attempted']} "
                  f"failed {result['failed']}  [{host}]", flush=True)
    for w, rs in runs.items():
        print(f"\n== {w} ({len(rs)} runs)")
        print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name in rs[0]["result"]["metrics"]:
            vals = [r["result"]["metrics"][name]["value"] for r in rs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  above bound/3"
            print(f"{name:28} {med:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread:8.4f} {bound if bound is not None else '-':>6}{flag}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)


if __name__ == "__main__":
    main()
