"""exacthom benchmark: one workload, one seed, a closed loop of jobs.

    python3 perfbench/run.py --workload derive --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src. One client in one process and one thread sends the workload's fixed
job list over and over, each job starting when the previous one finished,
for at least MIN_PASSES passes and as long as the next pass is expected to
end within --seconds. Every answer is checked against a reference that does
not come from exacthom. Job and set-up times are CPU time of the process
(the jobs are single-threaded and CPU-bound, and CPU time leaves out the
time a shared host takes the CPU away), scaled to a reference host speed
measured between jobs (hostspeed.py). The raw speed scales and the wall
times of the passes are printed for comparison.

--trace 0 reports the end-to-end metrics. --trace 1 first runs untraced
passes for a third of the time (at least two), then wraps exacthom's
public functions from outside and reports per-pass span and work figures,
writing the spans to .perfbench/trace-<workload>-<seed>.jsonl. The last line of standard output
is a JSON object with keys correct, attempted, failed and metrics; the
lines before it print each metric with its unit.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import hostspeed
import tracing
from tracing import clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_PASSES = 3
SETUP_REPEATS = 9
# Probes of the host speed before and after each set-up.
SETUP_PROBES = 10
TAIL_LADDER = (99, 95, 90, 75, 50)
END_TO_END_UNITS = {
    "job_s.p50": "s",
    "job_s.tail": "s",
    "batch_s": "s",
    "correct_ratio": "1",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def import_exacthom() -> SimpleNamespace:
    """A fresh import of the package from ./src, dropping any earlier one."""
    if not (SRC / "exacthom" / "__init__.py").is_file():
        raise SystemExit(f"error: no exacthom package under {SRC}")
    for name in [n for n in sys.modules if n == "exacthom" or n.startswith("exacthom.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    eh = SimpleNamespace(
        **{m: importlib.import_module(f"exacthom.{m}") for m in ("linalg", "koszul", "powers", "presets", "cli")}
    )
    if Path(eh.cli.__file__).resolve().parent != SRC / "exacthom":
        raise SystemExit(f"error: exacthom was imported from {eh.cli.__file__}, not {SRC}")
    eh.parser = eh.cli.build_parser()
    return eh


def setup(workload: str, seed: int, workdir: Path):
    """Import exacthom, load the presets and build the job list."""
    from workloads import WORKLOADS

    eh = import_exacthom()
    for name in eh.presets.PRESET_NAMES:
        eh.presets.load_preset(name)
    return WORKLOADS[workload](eh, seed, workdir)


class Checker:
    """Checks each answer once in full; a later identical answer to the same
    job is accepted by comparing keys."""

    def __init__(self) -> None:
        self.accepted: dict[int, object] = {}
        self.reported = 0

    def ok(self, idx: int, job, answer, error) -> bool:
        if error is None:
            key = job.key(answer)
            if idx in self.accepted and self.accepted[idx] == key:
                return True
            try:
                error = job.check(answer)
            except Exception:  # a malformed report is a wrong answer
                error = traceback.format_exc(limit=2)
            if error is None:
                self.accepted[idx] = key
                return True
        if self.reported < 5:
            self.reported += 1
            print(f"FAILED {job.label}: {error}", file=sys.stderr)
        return False


def run_pass(jobs, checker: Checker, tracer=None, pass_no: int = 0):
    """Run the job list once; returns the job times scaled to the reference
    host speed, the failure count and the pass's overall scale."""
    times, failed = [], 0
    meter = hostspeed.Meter()
    for idx, job in enumerate(jobs):
        meter.before_job()
        if tracer is not None:
            tracer.begin_job(f"{pass_no}:{idx}")
        error = answer = None
        t0 = clock()
        try:
            answer = job.call()
        except Exception:  # a request that raises counts as failed
            error = traceback.format_exc(limit=3)
        elapsed = clock() - t0
        if tracer is not None:
            tracer.end_job(elapsed)
        meter.after_job(elapsed)
        times.append(elapsed)
        failed += not checker.ok(idx, job, answer, error)
    scaled = meter.scaled(times)
    return scaled, failed, sum(scaled) / sum(times)


def tail(samples: list[float], jobs_per_pass: int) -> tuple[int, float]:
    """The highest ladder percentile with at least ten jobs beyond it, judged
    on MIN_PASSES passes so the choice depends only on the job list. It is
    taken by nearest rank, so it is the time of one job, not a blend of two
    jobs of different sizes."""
    n = jobs_per_pass * MIN_PASSES
    q = next((q for q in TAIL_LADDER if n * (100 - q) / 100 >= 10), 50)
    return q, sorted(samples)[math.ceil(q / 100 * len(samples)) - 1]


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            probes = [hostspeed.probe() for _ in range(SETUP_PROBES)]
            t0 = clock()
            jobs = setup(args.workload, args.seed, workdir)
            elapsed = clock() - t0
            probes += [hostspeed.probe() for _ in range(SETUP_PROBES)]
            setup_times.append(elapsed * hostspeed.scale(probes))

        checker = Checker()
        untraced, batches, walls, scales, attempted, failed = [], [], [], [], 0, 0
        traced_batches, traced_walls, tracer = [], [], None
        start = time.perf_counter()
        untraced_end = start + (args.seconds / 3 if args.trace else args.seconds)
        min_untraced = 2 if args.trace else MIN_PASSES

        def more(done: list[float], least: int, end: float) -> bool:
            """True while fewer than `least` passes are done or the next
            pass, as long as the median of the `done` wall times, would end
            by `end`."""
            return len(done) < least or time.perf_counter() + statistics.median(done) <= end

        while more(walls, min_untraced, untraced_end):
            w0 = time.perf_counter()
            times, bad, scale = run_pass(jobs, checker)
            walls.append(time.perf_counter() - w0)
            scales.append(scale)
            untraced += times
            batches.append(sum(times))
            attempted += len(times)
            failed += bad
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            while more(traced_walls, 1, start + args.seconds):
                w0 = time.perf_counter()
                times, bad, _ = run_pass(jobs, checker, tracer, len(traced_batches))
                traced_walls.append(time.perf_counter() - w0)
                traced_batches.append(sum(times))
                attempted += len(times)
                failed += bad
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        q, tail_s = tail(untraced, len(jobs))
        values = {
            "job_s.p50": statistics.median(untraced),
            "job_s.tail": tail_s,
            "batch_s": statistics.median(batches),
            "correct_ratio": (attempted - failed) / attempted,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        notes = [
            f"job_s.tail is p{q} of {len(untraced)} jobs ({len(batches)} passes of {len(jobs)})",
            "pass times: " + " ".join(f"{b:.3f}" for b in batches),
            "host speed scales: " + " ".join(f"{x:.3f}" for x in scales),
            "pass wall times: " + " ".join(f"{w:.3f}" for w in walls),
        ]
    else:
        values = tracer.metrics(len(traced_batches))
        # The first pass warms the allocator and caches, so it is left out.
        values["trace.overhead_s"] = statistics.median(traced_batches) - statistics.median(batches[1:])
        units = tracing.units()
        trace_path = WORK / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(trace_path)
        notes = [
            f"per-pass figures over {len(traced_batches)} traced passes of {len(jobs)} jobs",
            f"{len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}",
        ]
    missing = set(units) - set(values)
    if missing:
        raise SystemExit(f"error: metrics not measured: {sorted(missing)}")

    print(f"exacthom benchmark: workload {args.workload}, seed {args.seed}, "
          f"python {platform.python_version()}, {os.cpu_count()} cpus")
    for note in notes:
        print(note)
    for name, unit in units.items():
        print(f"  {name:48s} {values[name]:.6g} {unit}")
    print(f"attempted {attempted}, failed {failed}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
