#!/usr/bin/env python3
"""Run one workload of the xmorph benchmark and print its result line.

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The script builds the benchmark runner
and the xmorph CLI from source (into .bench_build/), runs the fixed,
seeded operation list of the workload, and prints as its last line one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics of a traced run
with --trace 1.  Lines before it describe the schedule and the host.
Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("oneshot", "serve-mix", "guarded-query")
RUN_TIMEOUT_S = 170
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
DUNE_BUILD = os.path.join(BUILD, "dune")
XBENCH = os.path.join(DUNE_BUILD, "default", "perfbench", "bin", "xbench.exe")
XMORPH = os.path.join(DUNE_BUILD, "default", "bin", "xmorph_cli.exe")


def local_env():
    """The environment with temporary and cache files kept in .bench_build/."""
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(BUILD, "tmp")
    env["XDG_CACHE_HOME"] = os.path.join(BUILD, "cache")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def build():
    env = local_env()
    env["DUNE_CACHE"] = "disabled"
    # The benchmark's dune stanzas are enabled only under this profile, so
    # the repository's own build and tests do not include them.
    cmd = ["dune", "build", "--root", ".",
           "--build-dir", DUNE_BUILD,
           "--profile", "perfbench",
           "--display", "quiet",
           "./perfbench/bin/xbench.exe", "./bin/xmorph_cli.exe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write(f"perfbench: build failed: {e}\n")
        return False
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.stderr.write("perfbench: build failed\n")
        return False
    return True


def host_counters():
    """Steal ticks (all CPUs) and the 1-minute load average: diagnostics
    recorded beside each run, never used to drop or repeat one."""
    steal, load = None, None
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
            if fields[0] == "cpu" and len(fields) > 8:
                steal = int(fields[8])
        with open("/proc/loadavg") as f:
            load = float(f.read().split()[0])
    except (OSError, ValueError, IndexError):
        pass
    return steal, load


def run(args):
    workdir = os.path.join(BUILD, "run", f"{args.workload}-{args.seed}-{os.getpid()}")
    spans = os.path.join(BUILD, "spans")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.makedirs(spans, exist_ok=True)
    cmd = [XBENCH, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", workdir, "--spans-dir", spans, "--xmorph", XMORPH]
    # The daemon and the library read XMORPH_* settings (jobs, cache,
    # slow-query capture); the workloads fix their own.
    env = {k: v for k, v in local_env().items() if not k.startswith("XMORPH_")}
    steal0, _ = host_counters()
    # One CPU for the runner and the daemon it spawns: on a shared 2-vCPU
    # host, keeping both vCPUs busy draws several times more steal and
    # swings served throughput by up to 2x between runs.  A session of its
    # own, so a timeout stops the runner and the daemon together.
    cpu = max(os.sched_getaffinity(0))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.stderr.write(f"perfbench: run exceeded {RUN_TIMEOUT_S} s\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    steal1, load = host_counters()
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out + err)
        sys.stderr.write(f"perfbench: runner exited with {proc.returncode}\n")
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out + err)
        sys.stderr.write("perfbench: runner printed no result\n")
        return 1
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.stderr.write("perfbench: malformed result\n")
        return 1
    for line in lines[:-1]:
        print(line)
    steal = None if steal0 is None or steal1 is None else steal1 - steal0
    print(f"host: steal_ticks={steal} loadavg1={load}")
    print(json.dumps(result))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not build():
        return 1
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
