#!/usr/bin/env python3
"""One measuring process of the basisbound benchmark (started by run.py).

It imports basisbound from the checkout's `src`, builds the workload's
inputs, prints READY, and then runs the job list in rounds, one job at a
time through `basisbound.cli.main`, until `--seconds` are spent.  Modes:

  setup    stop after READY (run.py times several set-ups per run)
  measure  untraced rounds; end-to-end metrics
  trace    untraced and traced rounds alternately; per-layer metrics

Times are converted to reference seconds with the calibration sampler
(calibrate.py), which runs beside the rounds.  The last stdout line is a
JSON object with the results.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def import_package():
    sys.path.insert(0, str(SRC))
    import basisbound.cli

    if SRC.resolve() not in Path(basisbound.cli.__file__).resolve().parents:
        raise SystemExit(f"basisbound was imported from outside {SRC}")
    return basisbound.cli


def run_job(cli, job):
    """(start, end, exit code or the exception that escaped, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.monotonic()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(job.argv))
    except (Exception, SystemExit) as exc:
        code = exc
    return start, time.monotonic(), code, out.getvalue()


@contextlib.contextmanager
def sampler(path: Path):
    """The calibration sampler, running for the duration of the block."""
    proc = subprocess.Popen([sys.executable, str(HERE / "calibrate.py"), "--out", str(path)])
    try:
        yield
        time.sleep(calibrate.PERIOD_S * 1.5)  # a sample after the last job
    finally:
        proc.terminate()
        proc.wait()


class Rounds:
    """Job timings and oracle outcomes over all rounds."""

    def __init__(self, jobs, seed):
        self.jobs = jobs
        self.rng = random.Random(seed)
        self.rounds = []  # (traced, [(job, start, end)], stdout bytes)
        self.outcomes = Counter()
        self.reported = set()

    def judge(self, job, code, stdout) -> str:
        verdict, reason = workloads.check(job, code, stdout)
        if verdict != "ok" and job.name not in self.reported:
            self.reported.add(job.name)
            print(f"{job.name}: {verdict}: {reason}", file=sys.stderr)
        return verdict

    def run(self, cli, traced: bool):
        order = list(self.jobs)
        self.rng.shuffle(order)
        windows, nbytes = [], 0
        for job in order:
            start, end, code, stdout = run_job(cli, job)
            self.outcomes[self.judge(job, code, stdout)] += 1
            windows.append((job, start, end))
            nbytes += len(stdout)
        self.rounds.append((traced, windows, nbytes))
        gc.collect()


class Scaled:
    """The rounds in reference seconds."""

    def __init__(self, rounds: Rounds, speed: calibrate.Speed):
        self.walls = {False: [], True: []}
        self.raw_walls = []  # untraced rounds, in measured seconds
        self.factors = []  # per round, reference / measured
        self.latency = {job.name: [] for job in rounds.jobs}
        self.class_totals = {cls: [] for cls in workloads.CLASSES}
        self.report_bytes = []
        for traced, windows, nbytes in rounds.rounds:
            per_class = Counter()
            raw = wall = 0.0
            for job, start, end in windows:
                seconds = speed.reference_seconds(start, end)
                raw += end - start
                wall += seconds
                if not traced:
                    self.latency[job.name].append(seconds)
                    per_class[job.cls] += seconds
            self.walls[traced].append(wall)
            self.factors.append(wall / raw)
            if traced:
                self.report_bytes.append(nbytes)
            else:
                self.raw_walls.append(raw)
                for cls in workloads.CLASSES:
                    self.class_totals[cls].append(per_class[cls])


def end_to_end(scaled: Scaled) -> dict:
    # Percentiles over the jobs of the list, each job taken at its median
    # latency over the rounds, so every round weighs the same job mix.
    per_job = sorted(statistics.median(v) for v in scaled.latency.values())
    deciles = statistics.quantiles(per_job, n=10, method="inclusive")
    return {
        "wall_s": statistics.median(scaled.walls[False]),
        "job_p50_s": statistics.median(per_job),
        "job_p90_s": deciles[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(scaled: Scaled, traced_rounds: list, speed, build_s, outcomes, probe) -> tuple:
    metrics = {}
    for name in traced_rounds[0]:
        values = [r[name] for r in traced_rounds]
        metrics[name] = statistics.median(values)
        if name in tracing.EXACT_COUNTS and len(set(values)) != 1:
            print(f"{name} differs between traced rounds: {values}", file=sys.stderr)
            return metrics, False
    for cls in workloads.CLASSES:
        metrics[f"{cls}_s"] = statistics.median(scaled.class_totals[cls])
    metrics["cli.report_bytes"] = statistics.median(scaled.report_bytes)
    metrics["constructions.build_s"] = build_s
    metrics["trace.overhead_s"] = (
        statistics.median(scaled.walls[True]) - statistics.median(scaled.walls[False])
    )
    metrics["bench.calibration_s"] = speed.median()
    attempted = outcomes.total() + probe.total()
    metrics["failed_frac"] = (attempted - outcomes["ok"] - probe["ok"]) / attempted
    return metrics, True


def in_reference_seconds(layer_metrics: dict, factor: float) -> dict:
    """Per-layer metrics of one traced round, times scaled by `factor`."""
    for name in tracing.SELF_TIMES:
        if name in layer_metrics:
            layer_metrics[name] *= factor
    if "kernel.nodes_per_s" in layer_metrics:
        layer_metrics["kernel.nodes_per_s"] /= factor
    return layer_metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()
    # SIGTERM unwinds like Ctrl-C, so the sampler is stopped; a job cannot
    # swallow it, since run_job catches only Exception and SystemExit.
    signal.signal(signal.SIGTERM, signal.default_int_handler)

    cli = import_package()
    from basisbound import constructions

    tracer = tracing.Tracer()
    if args.mode == "trace":
        before = calibrate.calibrate()
        with tracer.hooks(tracing.SETUP_HOOKS):
            jobs = workloads.build_jobs(args.workload, args.seed, args.workdir, constructions)
        factor = calibrate.scale(before, calibrate.calibrate())
        build_s = tracer.self_times()["constructions.build"] * factor
        tracer.spans = []
    else:
        jobs = workloads.build_jobs(args.workload, args.seed, args.workdir, constructions)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    gc.collect()
    rounds = Rounds(jobs, args.seed)
    probe_job = workloads.whole_space_job() if args.workload == "search-deep" else None
    probe = Counter()
    layer_rounds = []
    samples = args.workdir / "calibration.txt"
    with sampler(samples):
        deadline = time.monotonic() + args.seconds
        last = {False: 0.0, True: 0.0}
        traced = False
        while True:
            started = time.monotonic()
            if traced:
                with tracer.hooks(tracing.HOOKS):
                    rounds.run(cli, traced=True)
                layer_rounds.append(tracer.round_metrics())
            else:
                rounds.run(cli, traced=False)
            last[traced] = time.monotonic() - started
            if probe_job is not None:
                probe[rounds.judge(probe_job, *run_job(cli, probe_job)[2:])] += 1
            if args.mode == "trace":
                traced = not traced
            # Stop at the round boundary nearest the deadline, once the
            # mode's minimum (one untraced round, plus one traced round
            # when tracing) is met.
            enough = args.mode == "measure" or layer_rounds
            if enough and time.monotonic() + last[traced] / 2 > deadline:
                break
    speed = calibrate.Speed(samples)
    scaled = Scaled(rounds, speed)

    correct = rounds.outcomes["wrong"] == 0
    if args.mode == "measure":
        metrics = end_to_end(scaled)
        print(
            f"measured wall {statistics.median(scaled.raw_walls):.4f} s, "
            f"calibration {speed.median() * 1e3:.3f} ms (reference {calibrate.REFERENCE_S * 1e3:.0f} ms)",
            file=sys.stderr,
        )
    else:
        traced_factors = [f for f, (traced, _, _) in zip(scaled.factors, rounds.rounds) if traced]
        layer_rounds = [in_reference_seconds(m, f) for m, f in zip(layer_rounds, traced_factors)]
        metrics, counts_repeat = per_layer(
            scaled, layer_rounds, speed, build_s, rounds.outcomes, probe
        )
        correct = correct and counts_repeat
        if tracer.absent:
            print(f"absent hooks: {sorted(tracer.absent)}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": rounds.outcomes.total(),
        "failed": rounds.outcomes["failed"] + rounds.outcomes["wrong"],
        "metrics": metrics,
        "rounds": len(rounds.rounds),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
