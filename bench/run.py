"""The csmres benchmark: one command, three seeded workloads.

Usage, from the repository root:

    python3 bench/run.py --workload overlap|berry|scan --seed N \
        --seconds S --trace 0|1

The job list is generated from the seed and handed to a child process
(``worker.py``) that runs it through ``csmres.cli.main(argv)``; the parent
then checks every output and prints one JSON object as its last line.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
a traced run reports per-layer metrics from spans recorded around each
layer's public functions.  ``bench/NOTES.md`` explains the workloads and
the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import jobs as joblist
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

# (name, unit, better) of the metrics each mode prints; BENCHMARK.json
# lists the same names.
END_TO_END = (
    ("wall_ref", "ref", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("digits", "digits", "higher"),
)
# Spans whose call count and self time are both reported.
_COUNTED = ("specfun.hyp2f1_grid", "specfun.complex_gamma",
            "specfun.reciprocal_gamma", "wavefun.raw_psi",
            "binbasis.binned_state", "binbasis.product_entry",
            "model.resonance_energy", "wavefun.classify_region",
            "eploop.boundary_crossings")
PER_LAYER = tuple(
    [(f"{name}.calls", "count", "lower") for name in _COUNTED]
    + [("specfun.hyp2f1_grid.points", "count", "lower"),
       ("wavefun.raw_psi.points", "count", "lower")]
    + [(f"{name}.self_s", "s", "lower") for name in _COUNTED]
    + [("specfun.hyp2f1_grid.ns_per_point", "ns", "lower"),
       ("binbasis.k_evals_per_bin", "count", "lower"),
       ("binbasis.overlap_matrix.total_s", "s", "lower"),
       ("binbasis.degeneracy_diagnostics.total_s", "s", "lower"),
       ("eploop.run_berry_loop.self_s", "s", "lower"),
       ("cli.main.self_s", "s", "lower"),
       ("cli.bytes_written", "bytes", "lower")]
    + [(f"{layer}.self_s", "s", "lower") for layer in spans.LAYERS]
    + [("trace.wall_s", "s", "lower"),
       ("trace.overhead_frac", "frac", "lower"),
       ("trace.spans", "count", "lower")])

# Spans each workload must record; none means the tracer missed a binding.
EXPECTED_SPANS = {
    "overlap": ("cli.main", "specfun.hyp2f1_grid", "specfun.complex_gamma",
                "specfun.reciprocal_gamma", "wavefun.raw_psi",
                "binbasis.binned_state", "binbasis.product_entry",
                "binbasis.overlap_matrix", "binbasis.degeneracy_diagnostics"),
    "berry": ("cli.main", "model.resonance_energy", "wavefun.classify_region",
              "eploop.run_berry_loop", "eploop.boundary_crossings"),
    "scan": ("cli.main", "model.resonance_energy", "specfun.hyp2f1_grid",
             "wavefun.raw_psi"),
}
# Largest share of a traced pass that may be cli self time.  On overlap it
# is below 0.1%; a missed binding of a binbasis function would move seconds
# into it.
MAX_CLI_SELF_SHARE = {"overlap": 0.01}

# The accuracy figure behind each workload's ``digits`` (see checks.py).
DIGITS_NAME = {"overlap": "basis_digits", "berry": "berry_digits",
               "scan": "psi_digits"}

# Modules a fresh interpreter imports before the workload's first job:
# csmres.cli, plus the module its commands import lazily.
SETUP_IMPORTS = {"overlap": "csmres.cli, csmres.binbasis",
                 "berry": "csmres.cli, csmres.eploop",
                 "scan": "csmres.cli, csmres.wavefun"}
SETUP_LAUNCHES = 5
# A fixed import that no change to csmres can speed up or slow down, of
# the same kind of work as the program's own import.  Each launch counts
# relative to the reference launches around it, scaled to
# SETUP_REFERENCE_S, about what the reference takes on a shared 2-core Xeon
# VM.  There, over eight repeats of five launches, the median in plain
# seconds spread by 19% (quartile distance over median) and the median
# ratio by 4%.
SETUP_REFERENCE = "import numpy, scipy.special, scipy.integrate"
SETUP_REFERENCE_S = 0.7
BLAS_THREADS = 1
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS")
WORKER_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 30


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "CSM_THREADS")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: str(BLAS_THREADS) for var in _THREAD_VARS})
    return env


def run_context(seed: int) -> dict:
    """Where and on what the numbers were measured."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for f in sorted((ROOT / "src" / "csmres").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import scipy

    return {"seed": seed, "git_commit": commit,
            "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "blas_threads": BLAS_THREADS,
            "blas_thread_vars": list(_THREAD_VARS)}


def _launch_seconds(statement: str) -> float:
    """Wall seconds of a fresh interpreter that runs ``statement``."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", statement], env=child_env(),
                          cwd=ROOT, capture_output=True,
                          timeout=SETUP_TIMEOUT_S)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"{statement!r} failed: "
                         + proc.stderr.decode(errors="replace"))
    return seconds


def measure_setup(workload: str) -> list[tuple[float, float]]:
    """Launches of a fresh interpreter importing the workload's modules:
    for each, its wall seconds and the mean wall seconds of the reference
    launches just before and just after it."""
    refs = [_launch_seconds(SETUP_REFERENCE)]
    launches = []
    for _ in range(SETUP_LAUNCHES):
        seconds = _launch_seconds(f"import {SETUP_IMPORTS[workload]}")
        refs.append(_launch_seconds(SETUP_REFERENCE))
        launches.append((seconds, 0.5 * (refs[-2] + refs[-1])))
    return launches


def count_failures(entries: list, report: dict, verdicts: dict) -> int:
    """Timed executions that exited non-zero, raised, wrote output that
    fails its check, or wrote other bytes than the job's first run (the
    untimed warm-up, for job 0)."""
    reference = {entries[0]["name"]: report["warmup"]["digest"]}
    failed = 0
    for rec in report["records"]:
        first = reference.setdefault(rec["job"], rec["digest"])
        if (rec["rc"] != 0 or rec["digest"] != first
                or not verdicts[rec["job"]].ok):
            failed += 1
    return failed


def pass_time(records: list, traced: bool, refs: list | None = None) -> float:
    """One pass over the job list: the median of each job's timed runs,
    summed over the jobs.

    With ``refs`` each run counts in reference units: each of its
    segments' seconds divided by the mean of the reference timings just
    before and just after it, summed.  On a shared 2-core Xeon virtual
    machine whose speed dropped by up to 2x for seconds to minutes at a
    time, the berry pass over ten seeds spread by 18% in seconds (quartile
    distance over median) and by 5% in reference units.
    """
    per_job: dict = {}
    for rec in records:
        if rec["traced"] == traced:
            t = rec["seconds"]
            if refs is not None:
                t = sum(s / (0.5 * (refs[i] + refs[i + 1]))
                        for s, i in rec["segments"])
            per_job.setdefault(rec["job"], []).append(t)
    return sum(statistics.median(t) for t in per_job.values())


def layer_metrics(sp: dict, records: list, refs: list) -> dict:
    """Per-layer metrics of the traced passes, per pass, from the spans."""
    traced = [r for r in records if r["traced"]]
    n_pass = len(traced) / len({r["job"] for r in traced})
    names = list(sp["names"])
    name_ix = sp["name_ix"]
    own = spans.self_times(sp)
    dur = sp["end"] - sp["start"]

    def of(name):
        return name_ix == names.index(name) if name in names \
            else np.zeros(len(name_ix), dtype=bool)

    def per_pass(values) -> float:
        return float(np.sum(values)) / n_pass

    out = {}
    for name in _COUNTED:
        out[f"{name}.calls"] = per_pass(of(name))
        out[f"{name}.self_s"] = per_pass(own[of(name)])
    for name in ("specfun.hyp2f1_grid", "wavefun.raw_psi"):
        out[f"{name}.points"] = per_pass(sp["points"][of(name)])
    points = out["specfun.hyp2f1_grid.points"]
    out["specfun.hyp2f1_grid.ns_per_point"] = \
        out["specfun.hyp2f1_grid.self_s"] / points * 1e9 if points else 0.0
    bins = out["binbasis.binned_state.calls"]
    inner = (of("wavefun.raw_psi") & spans.under(sp, "binbasis.binned_state"))
    out["binbasis.k_evals_per_bin"] = \
        per_pass(inner) / bins if bins else 0.0
    for name in ("binbasis.overlap_matrix", "binbasis.degeneracy_diagnostics"):
        out[f"{name}.total_s"] = per_pass(dur[of(name)])
    for name in ("eploop.run_berry_loop", "cli.main"):
        out[f"{name}.self_s"] = per_pass(own[of(name)])
    out["cli.bytes_written"] = per_pass([r["bytes"] for r in traced])
    layer_of = np.array([n.split(".", 1)[0] for n in names])
    for layer in spans.LAYERS:
        mask = np.isin(name_ix, np.flatnonzero(layer_of == layer))
        out[f"{layer}.self_s"] = per_pass(own[mask])
    out["trace.wall_s"] = pass_time(records, True)
    out["trace.overhead_frac"] = pass_time(records, True, refs) \
        / pass_time(records, False, refs) - 1.0
    out["trace.spans"] = len(name_ix) / n_pass
    return out


def trace_problems(workload: str, sp: dict, metrics: dict) -> list[str]:
    """Signs in the spans that the tracer missed a binding: an expected
    span that never happened, or time left in ``cli`` self time on a
    workload whose work all happens in the layers below it."""
    names = list(sp["names"])
    seen = set(names[i] for i in np.unique(sp["name_ix"]))
    problems = [f"no {name} span on the {workload} workload"
                for name in EXPECTED_SPANS[workload] if name not in seen]
    limit = MAX_CLI_SELF_SHARE.get(workload)
    share = metrics["cli.self_s"] / metrics["trace.wall_s"]
    if limit is not None and share > limit:
        problems.append(f"cli self time is {share:.3f} of the traced pass, "
                        f"above {limit}")
    return problems


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "csmres" / "__init__.py").is_file():
        raise BenchError(f"no csmres sources under {ROOT / 'src'}")
    work = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    entries = json.loads(
        joblist.write_jobs(joblist.make_jobs(workload, seed), work)
        .read_text())
    report_path = work / "worker.json"
    argv = [sys.executable, str(BENCH / "worker.py"),
            "--workload", workload, "--jobs", str(work / "jobs.json"),
            "--seconds", str(seconds), "--trace", str(int(trace)),
            "--report", str(report_path)]
    proc = subprocess.run(argv, env=child_env(), cwd=ROOT,
                          stdout=subprocess.DEVNULL,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    report = json.loads(report_path.read_text())

    verdicts = {e["name"]: checks.check_job(e["command"], e["config"],
                                            e["out"]) for e in entries}
    failed = count_failures(entries, report, verdicts)
    attempted = len(report["records"])
    digits = {e["name"]: verdicts[e["name"]].digits for e in entries
              if verdicts[e["name"]].digits is not None}

    lines = [f"workload {workload}  seed {seed}  trace {int(trace)}"]
    problems = [f"{name}: {p}" for name, v in verdicts.items()
                for p in v.problems]
    if trace:
        sp = spans.load(report["spans"])
        metrics = layer_metrics(sp, report["records"], report["refs"])
        bad = [f"{name} still binds an unwrapped public function"
               for name in report["unwrapped"]]
        bad += trace_problems(workload, sp, metrics)
        if bad:
            raise BenchError("trace self-check failed: " + "; ".join(bad))
        units = {name: unit for name, unit, _ in PER_LAYER}
        lines += [f"  {name:<40} {metrics[name]:.6g} {units[name]}"
                  for name in units]
    else:
        walls = [p["wall_s"] for p in report["passes"]]
        refs = report["refs"]
        setup = measure_setup(workload)
        worst = min(digits, key=digits.get) if digits else None
        metrics = {"wall_ref": pass_time(report["records"], False, refs),
                   "setup_s": SETUP_REFERENCE_S * statistics.median(
                       s / ref for s, ref in setup),
                   "peak_rss_mb": report["peak_rss_mb"],
                   # no figure at all means every job failed its check
                   "digits": digits[worst] if digits else 0.0}
        units = {name: unit for name, unit, _ in END_TO_END}
        lines += [
            f"  wall_ref     {metrics['wall_ref']:.4f} ref  per-job medians "
            f"over {len(walls)} passes of {len(entries)} jobs",
            f"  wall_s       {pass_time(report['records'], False):.4f} s   "
            f"per-job medians; pass totals "
            + ", ".join(f"{w:.3f}" for w in walls),
            f"  ref_s        {statistics.median(refs):.4f} s   median of "
            f"{len(refs)} reference timings, "
            f"{min(refs):.4f} to {max(refs):.4f}",
            f"  setup_s      {metrics['setup_s']:.4f} s   at "
            f"{SETUP_REFERENCE_S} s per reference launch; plain seconds "
            + ", ".join(f"{s:.3f}" for s, _ in setup)
            + "; reference " + ", ".join(f"{ref:.3f}" for _, ref in setup),
            f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB",
            f"  {DIGITS_NAME[workload]:<12} {metrics['digits']:.3f} digits  "
            f"worst of {len(digits)} jobs ({worst}), median "
            f"{statistics.median(digits.values()) if digits else 0.0:.3f}"]
    lines.append(f"  fail_frac    {failed}/{attempted} = "
                 f"{failed / attempted:.4g}")
    lines += [f"  FAILED {p}" for p in problems]
    context = run_context(seed)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": float(metrics[name]),
                                 "unit": units[name]} for name in units}}
    (work / "result.json").write_text(json.dumps(
        {"workload": workload, "context": context, "result": result,
         "digits_by_job": digits, "passes": report["passes"]},
        indent=2) + "\n")
    for sub in ("out", "warmup"):
        shutil.rmtree(work / sub, ignore_errors=True)
    print("\n".join(lines))
    print("context " + json.dumps(context, sort_keys=True))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=joblist.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
