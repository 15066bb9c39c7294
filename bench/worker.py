"""Child process of the benchmark: runs one workload's job list.

Usage: python3 worker.py --workload NAME --jobs JOBS.json --seconds S
                         --trace 0|1 --report OUT.json

One client runs the jobs back to back through ``csmres.cli.main(argv)``
(a closed loop).  Job 0 first runs once untimed as a warm-up; then whole
passes over the job list run until ``--seconds`` of job time have been
measured, and at least MIN_PASSES times.  With ``--trace 1`` the first
half of the time runs untraced and the second half traced, so the report
holds the tracing overhead.  Only the calls to ``main`` are timed; clearing
and hashing output directories between jobs is not.

Whenever a set number of seconds of job time have passed since the last
reference timing, and once after the last job, the worker times the
workload's reference kernel (``REFERENCE``).  Between jobs that is all; on
``overlap``, whose jobs take seconds, it also happens inside an untraced
job, on entry to any public function below ``cli``, and the kernel's time
is left out of the job's.  A job's time is thus a list of
segments, each of which can be divided by the reference timings just
before and just after it.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import spans
from refkernel import grid_kernel, reference_kernel

ROOT = Path(__file__).resolve().parent.parent
# Every job runs at least twice, so a repeat can be compared byte for
# byte.  On berry and scan --seconds decides; overlap passes take 12-17 s.
MIN_PASSES = 2
# Per workload: the reference kernel, the job seconds between its timings,
# and whether it is also timed inside jobs.  An overlap job takes about
# 8 s; every 0.5 s, its timings take about 8% of the run.
REFERENCE = {"overlap": (grid_kernel, 0.5, True),
             "berry": (reference_kernel, 0.25, False),
             "scan": (reference_kernel, 0.25, False)}


class RefClock:
    """Times jobs in segments, with reference timings between them."""

    def __init__(self, kernel, every: float):
        self.kernel = kernel
        self.every = every
        self.refs: list[float] = []
        self._since = every  # job seconds since the last timing
        self._segments: list | None = None
        self._t0 = 0.0

    def reference(self) -> None:
        self.refs.append(self.kernel())
        self._since = 0.0

    def start(self) -> None:
        if self._since >= self.every:
            self.reference()
        self._segments = []
        self._t0 = time.perf_counter()

    def tick(self) -> None:
        """Inside a job: close the segment and time the kernel when
        ``every`` seconds of job time have passed."""
        now = time.perf_counter()
        if self._segments is not None \
                and self._since + now - self._t0 >= self.every:
            self._close(now)
            self.reference()
            self._t0 = time.perf_counter()

    def stop(self) -> list:
        """The job's segments: [seconds, index of the reference before]."""
        self._close(time.perf_counter())
        segments, self._segments = self._segments, None
        return segments

    def _close(self, now: float) -> None:
        self._segments.append([now - self._t0, len(self.refs) - 1])
        self._since += now - self._t0


def install_ticks(clock: RefClock) -> list:
    """Call ``clock.tick`` on entry to every public layer function below
    ``cli``; returns what ``spans.unpatch`` needs to undo it."""
    def ticked(fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            clock.tick()
            return fn(*args, **kwargs)
        return call

    return spans.patch({key: ticked(fn) for key, (name, fn)
                        in spans.public_functions().items()
                        if not name.startswith("cli.")})


def _digest(out: Path) -> tuple[str, int]:
    """sha256 over the names and bytes of every output file, and the total
    number of bytes."""
    h = hashlib.sha256()
    total = 0
    for f in sorted(out.iterdir()):
        data = f.read_bytes()
        total += len(data)
        h.update(f.name.encode() + b"\0" + data)
    return h.hexdigest(), total


def run_job(cli, job: dict, out: Path, clock: RefClock | None = None) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    argv = ["--config", job["config"], "--out", str(out), job["command"]]
    error = None
    if clock is not None:
        clock.start()
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception:  # a raising job is a failed job, not a failed run
        rc = None
        error = traceback.format_exc(limit=3)
    dt = time.perf_counter() - t0
    rec = {"job": job["name"], "rc": rc, "error": error, "seconds": dt}
    if clock is not None:
        rec["segments"] = clock.stop()
        rec["seconds"] = sum(s for s, _ in rec["segments"])
    rec["digest"], rec["bytes"] = _digest(out) if out.is_dir() else ("", 0)
    return rec


def run_passes(cli, jobs, seconds: float, min_passes: int, traced: bool,
               clock: RefClock, report: dict) -> None:
    """Whole passes over ``jobs`` until ``seconds`` are measured and at
    least ``min_passes`` passes ran."""
    records, passes = report["records"], report["passes"]
    measured = 0.0
    for count in itertools.count(1):
        wall = 0.0
        for job in jobs:
            rec = run_job(cli, job, Path(job["out"]), clock)
            rec["traced"] = traced
            records.append(rec)
            wall += rec["seconds"]
        passes.append({"traced": traced, "wall_s": wall})
        measured += wall
        if measured >= seconds and count >= min_passes:
            return


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=tuple(REFERENCE))
    ap.add_argument("--jobs", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", required=True)
    args = ap.parse_args()

    import csmres.cli as cli
    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"csmres imported from {cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    jobs = json.loads(Path(args.jobs).read_text())
    warm = run_job(cli, jobs[0], Path(args.report).parent / "warmup")
    kernel, every, in_job = REFERENCE[args.workload]
    clock = RefClock(kernel, every)
    clock.kernel()  # the first call pays one-off costs
    report = {"warmup": warm, "records": [], "passes": [],
              "refs": clock.refs}
    if args.trace:
        run_passes(cli, jobs, args.seconds / 2.0, 1, False, clock, report)
        tracer = spans.Tracer()
        tracer.install()
        report["unwrapped"] = tracer.unwrapped()
        try:
            run_passes(cli, jobs, args.seconds / 2.0, 1, True, clock, report)
        finally:
            tracer.uninstall()
        span_path = Path(args.report).with_name("spans.npz")
        tracer.save(span_path)
        report["spans"] = str(span_path)
    else:
        ticks = install_ticks(clock) if in_job else []
        try:
            run_passes(cli, jobs, args.seconds, MIN_PASSES, False, clock,
                       report)
        finally:
            spans.unpatch(ticks)
    clock.reference()
    report["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.report).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
