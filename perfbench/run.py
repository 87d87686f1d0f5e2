#!/usr/bin/env python3
"""coachplan benchmark: one command, every workload, every metric.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the root of a checkout.  For each workload it writes the seeded
inputs under .perfbench-work/, runs the workload in a fresh interpreter
(perfbench/workload.py), then times three more fresh interpreters that only
set up, and prints one JSON object per workload as the last line(s) of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

A workload whose process crashes or times out gets the line CRASHED below,
the other workloads still run, and run.py exits with code 1.

With --trace 0 the metrics are the end-to-end ones (setup_s, op_ms,
peak_rss_mb); with --trace 1 they are the per-layer ones of a traced run.
setup_s and op_ms are scaled to a reference speed of the host (calib.py).
Everything runs on one CPU, one workload process at a time; while a child
runs, the benchmark process only samples the CPU's speed (calib.py).
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import calib
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cli-generate", "cli-evaluate", "match-static", "match-intercept",
             "library-write", "library-select", "library-cluster")
SPANS = os.path.join(ROOT, ".perfbench-work", "spans")
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170
# The result line of a workload whose process crashed: the run is the one
# operation attempted, and it failed.
CRASHED = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
REQUIRED = ("src/coachplan/__init__.py", "src/coachplan/data/golden/report.txt",
            "tests/corpus", "tests/strips_oracle.py")


def run_workload(name, args):
    """The workload's result line, or CRASHED if it could not be measured."""
    work = os.path.join(ROOT, ".perfbench-work", f"{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(SPANS, exist_ok=True)
    try:
        result = _measure(name, args, work)
    except Exception:
        print(f"{name}: could not be measured", file=sys.stderr)
        traceback.print_exc()
        result = None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result is None:
        return dict(CRASHED)
    for error in result.pop("errors"):
        print(f"{name}: {error}", file=sys.stderr)
    return result


def _measure(name, args, work):
    inputs.prepare(name, args.seed, args.size, work, ROOT)
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), name, "--root", ROOT,
           "--work", work, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--spans", os.path.join(SPANS, f"{name}-seed{args.seed}.json")]
    result = _child(cmd)
    if result is None or args.trace:
        return result
    probes = [_setup_s(cmd + ["--setup-only"]) for _ in range(SETUP_PROBES)]
    if None in probes:
        return None
    result["metrics"] = {"setup_s": {"value": statistics.median(probes), "unit": "s"},
                         **result["metrics"]}
    return result


def _env():
    return dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def _setup_s(cmd):
    """The wall time of a set-up probe from its start to its end, scaled to
    reference speed (calib.py), or None if it failed."""
    clock = calib.Clock()
    clock.begin()
    t = time.perf_counter()
    try:
        proc = clock.run(cmd, CHILD_TIMEOUT_S, env=_env(), cwd=ROOT)
    except TimeoutError:
        print(f"{cmd[2]}: no end within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    raw = time.perf_counter() - t
    clock.end()
    if proc.returncode != 0:
        print(f"{cmd[2]}: exited with {proc.returncode}: {proc.stderr[-300:]}", file=sys.stderr)
        return None
    return clock.scale(raw)


def _child(cmd):
    """The JSON object a child prints last, or None if it crashed or timed out."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{cmd[2]}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{cmd[2]}: exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def pin_to_one_cpu():
    """Keep this process and every process it starts on one CPU.  The host's
    CPUs change speed each on its own, so the speed samples of calib.py only
    match the timed work when both run on the same CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs small rounds, for the benchmark's own test")
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"not a coachplan checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(1, os.path.join(ROOT, "src"))
    pin_to_one_cpu()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    crashed = False
    for name in names:
        result = run_workload(name, args)
        crashed |= result == CRASHED
        if len(names) > 1:
            print(f"# {name}")
        print(json.dumps(result))
    return 1 if crashed else 0


if __name__ == "__main__":
    sys.exit(main())
