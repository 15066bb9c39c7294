"""Seeded job lists for the three benchmark workloads.

A job is one ``csmres`` command plus the config file it reads.  The
program only ever sees the generated config files; the seed decides every
parameter.  Parameters are drawn by Latin-hypercube sampling: each range is
cut into as many strata as there are jobs and every stratum is used once,
so the cost of one pass over the job list varies little from seed to seed
while the individual inputs still move.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from pathlib import Path

WORKLOADS = ("overlap", "berry", "scan")

# (low, high) per sampled parameter
_OVERLAP_RANGES = {"theta": (0.2, 0.6), "lam": (0.6, 2.0)}
_BERRY_RANGES = {"theta": (0.05, 0.75), "lam": (0.6, 2.0),
                 "radius_u": (0.0, 1.0)}
_SCAN_RANGES = {"theta": (0.05, 0.75), "lam": (0.3, 3.0),
                "k_re": (0.2, 4.0), "k_im": (-1.0, 0.0)}
# berry radius_rel is log-uniform in [MIN, MAX], capped by the Taylor regime
RADIUS_REL_MIN = 3e-7
RADIUS_REL_MAX = 1e-5

# Jobs per pass.  overlap jobs take seconds each; berry and scan jobs take
# a fraction of a second, so their passes hold more jobs.
_N_JOBS = {"overlap": 2, "berry": 12, "scan": 6}

OVERLAP_BLOCK = {"k_min": 0.5, "k_max": 3.5, "n_bins": 6,
                 "deltas": [1e-2, 1e-3, 1e-4]}
BERRY_BLOCK = {"windings": 4, "n_steps": 1024}
WAVEFUNCTION_BLOCK = {"x_max": 20.0, "n_points": 16385}
SPECTRUM_BLOCK = {"n_max": 3}
REGIONS_BLOCK = {"n_points": 64}


def latin_hypercube(rng: random.Random, ranges: dict, n: int) -> list[dict]:
    """``n`` samples with every parameter's n strata each used once."""
    columns = {}
    for name, (lo, hi) in ranges.items():
        strata = list(range(n))
        rng.shuffle(strata)
        columns[name] = [lo + (hi - lo) * (s + rng.random()) / n
                         for s in strata]
    return [{name: col[i] for name, col in columns.items()} for i in range(n)]


def taylor_radius_rel(theta: float) -> float:
    """Largest berry ``radius_rel`` that ``run_berry_loop`` accepts.

    It raises PreconditionViolation unless
    |zeta| max|alpha'| sqrt(R) < 0.1, with R = radius_rel * lambda_bp,
    zeta = i (x_ref e^{i theta} - ln 2), x_ref = 10, alphas (-1, 0, 1) and
    lambda_bp = 1 / (8 sin^2 theta) in m = hbar = beta = 1.  At small theta
    lambda_bp is large and the limit falls below 1e-5.
    """
    zeta = abs(10.0 * cmath.exp(1j * theta) - math.log(2.0))
    lam_bp = 1.0 / (8.0 * math.sin(theta) ** 2)
    return (0.1 / zeta) ** 2 / lam_bp


def make_jobs(workload: str, seed: int) -> list[dict]:
    """The job list of ``workload`` for ``seed``: dicts of name, command
    and config.  The same seed always gives the same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"csmres-bench:{workload}:{seed}")
    n = _N_JOBS[workload]
    jobs = []
    if workload == "overlap":
        for i, p in enumerate(latin_hypercube(rng, _OVERLAP_RANGES, n)):
            cfg = {"theta": p["theta"], "lam": p["lam"],
                   "overlap": dict(OVERLAP_BLOCK)}
            jobs.append({"name": f"j{i:02d}", "command": "overlap",
                         "config": cfg})
    elif workload == "berry":
        for i, p in enumerate(latin_hypercube(rng, _BERRY_RANGES, n)):
            # half the precondition's limit, so rounding never trips it
            hi = min(RADIUS_REL_MAX, 0.5 * taylor_radius_rel(p["theta"]))
            radius_rel = RADIUS_REL_MIN * (hi / RADIUS_REL_MIN) ** p["radius_u"]
            cfg = {"theta": p["theta"], "lam": p["lam"],
                   "berry": dict(BERRY_BLOCK, radius_rel=radius_rel)}
            jobs.append({"name": f"j{i:02d}", "command": "berry",
                         "config": cfg})
    else:
        for i, p in enumerate(latin_hypercube(rng, _SCAN_RANGES, n)):
            wave = dict(WAVEFUNCTION_BLOCK,
                        k={"re": p["k_re"], "im": p["k_im"]})
            cfg = {"theta": p["theta"], "lam": p["lam"],
                   "spectrum": dict(SPECTRUM_BLOCK),
                   "regions": dict(REGIONS_BLOCK), "wavefunction": wave}
            for command in ("spectrum", "regions", "wavefunction"):
                jobs.append({"name": f"j{i:02d}-{command}",
                             "command": command, "config": cfg})
    return jobs


def write_jobs(jobs: list[dict], work: Path) -> Path:
    """Write each job's config file and the job list the worker reads.

    Returns the path of the job list.  Every job writes into its own
    output directory under ``work/out``.
    """
    entries = []
    for job in jobs:
        cfg_path = work / "configs" / f"{job['name']}.json"
        cfg_path.parent.mkdir(parents=True, exist_ok=True)
        cfg_path.write_text(json.dumps(job["config"], indent=2,
                                       sort_keys=True) + "\n")
        entries.append({"name": job["name"], "command": job["command"],
                        "config": str(cfg_path),
                        "out": str(work / "out" / job["name"])})
    path = work / "jobs.json"
    path.write_text(json.dumps(entries, indent=2) + "\n")
    return path
