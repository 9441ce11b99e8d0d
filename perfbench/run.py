#!/usr/bin/env python3
"""Benchmark of basisbound: the search and certificate pipelines, end to end
through `basisbound.cli.main`, with per-layer timings in a traced run.

    python3 perfbench/run.py --workload search-deep --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository (basisbound is imported from its
`src`).  With `--trace 0` it prints the end-to-end metrics, with
`--trace 1` the per-layer ones.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

Each run starts fresh worker processes, one at a time: several that only
set up (import and build the inputs), timed from launch to READY for
`setup_s`, then one that measures.  Inputs are written under
`.bench_build/` in the checkout and removed afterwards.  All of them run
on one core.  Times are in reference seconds, scaled by a calibration
timed next to them (see calibrate.py).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
# A run must end within 180 s; the worker stops starting rounds after
# --seconds, so this only bounds a hung process.
CHILD_TIMEOUT_S = 170

class WorkerError(RuntimeError):
    pass


def child_env() -> dict:
    """The caller's environment without the package's own switches, so the
    program sees only argv and the generated files."""
    env = {k: v for k, v in os.environ.items() if k not in ("EXTREMAL_MAX_SPACE", "BASISBOUND_PURE")}
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, mode: str, workdir: Path, deadline: float):
    """Run one worker; returns (seconds from launch to READY, result or None)."""
    workdir.mkdir(parents=True)
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--workdir", str(workdir),
    ]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker timed out") from exc
    finally:
        if proc.poll() is None:
            proc.terminate()  # the worker stops its sampler on SIGTERM
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
        proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise WorkerError(f"{mode} worker failed (exit {proc.returncode})")
    return setup_s, (json.loads(out.strip().splitlines()[-1]) if mode != "setup" else None)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, signal.default_int_handler)

    if not (ROOT / "src" / "basisbound" / "__init__.py").is_file():
        print(f"error: no basisbound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One core for this process and every worker and sampler it starts, so
    # the calibration sampler measures the core the jobs run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    work = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    try:
        if args.trace:
            _, result = start_worker(args, "trace", work / "trace", deadline)
        else:
            samples = []
            for i in range(SETUP_REPEATS):
                before = calibrate.calibrate()
                seconds, _ = start_worker(args, "setup", work / f"setup{i}", deadline)
                samples.append(seconds * calibrate.scale(before, calibrate.calibrate()))
            _, result = start_worker(args, "measure", work / "measure", deadline)
            result["metrics"]["setup_s"] = statistics.median(samples)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{args.workload}: {result['rounds']} rounds, {result['attempted']} jobs", file=sys.stderr)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items() if name in result["metrics"]}
    absent = sorted(set(units) - set(metrics))
    if absent:
        print(f"absent metrics: {absent}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
