"""Output checks for the benchmark jobs.

Each check reads the files one ``csmres`` command wrote, and the config it
was given, and returns a ``Verdict``: the reasons the output is wrong (none
if it is right) and, for the three workflows with an accuracy figure, the
number of correct digits.  The figures come from independent formulas, not
from the package: the cubic bin-energy formula for the Hermitian bins, the
closed-form resonance ladder, and mpmath for the wave function.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DIGITS_FLOOR = 1e-16
MIN_BASIS_DIGITS = 6.0
MIN_BERRY_DIGITS = 8.0
MIN_PSI_DIGITS = 12.0
COLLAPSE_SLOPE = (0.9, 1.1)
MAX_CONNECTION_DEFECT = 1e-8
PSI_SAMPLES = 32
ORACLE_DPS = 30


@dataclass
class Verdict:
    problems: list = field(default_factory=list)
    digits: float | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def digits_of(err: float) -> float:
    return -math.log10(max(err, DIGITS_FLOOR))


def _read_csv(path: Path, workflow: str) -> tuple[list, list]:
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))
    if not lines or lines[0] != [f"# csmres {workflow} v1"]:
        raise ValueError(f"{path.name}: bad version line")
    return lines[1], lines[2:]


def _floats(rows, cols) -> np.ndarray:
    out = np.array([[float(r[c]) for c in cols] for r in rows])
    if not np.all(np.isfinite(out)):
        raise ValueError("non-finite value")
    return out


def _bin_index(label: str) -> int:
    if not (label.startswith("bin[") and label.endswith("]")):
        raise ValueError(f"bad bin label {label!r}")
    return int(label[4:-1])


def check_overlap(cfg: dict, out: Path, v: Verdict) -> None:
    block = cfg["overlap"]
    n = block["n_bins"]
    _, rows = _read_csv(out / "overlap.csv", "overlap")
    mats = {"S": np.full((n, n), np.nan, complex),
            "H": np.full((n, n), np.nan, complex)}
    for name, row, col, re, im in rows:
        mats[name][_bin_index(row), _bin_index(col)] = \
            complex(float(re), float(im))
    s_mat, h_mat = mats["S"], mats["H"]
    if not (np.all(np.isfinite(s_mat)) and np.all(np.isfinite(h_mat))):
        v.problems.append("S or H missing or non-finite entries")
        return
    k = np.linspace(block["k_min"], block["k_max"], n + 1)
    e_bin = (k[1:] ** 3 - k[:-1] ** 3) / (6.0 * (k[1:] - k[:-1]))
    err_s = float(np.max(np.abs(s_mat - np.eye(n))))
    err_h = float(np.max(np.abs(h_mat - np.diag(e_bin)))
                  / np.max(np.abs(e_bin)))
    v.digits = digits_of(max(err_s, err_h))
    if v.digits < MIN_BASIS_DIGITS:
        v.problems.append(f"basis_digits {v.digits:.2f} < {MIN_BASIS_DIGITS}")

    _, deg = _read_csv(out / "degeneracy.csv", "degeneracy")
    d = _floats(deg, (0, 1, 2))
    if not np.allclose(d[:, 0], block["deltas"], rtol=1e-15, atol=0.0):
        v.problems.append("degeneracy.csv deltas differ from the config")
        return
    order = np.argsort(d[:, 0])
    delta, sigma = d[order, 0], d[order, 1]
    if np.any(sigma <= 0.0) or np.any(np.diff(sigma) <= 0.0):
        v.problems.append("sigma_min does not decrease with delta")
        return
    slope = float(np.polyfit(np.log(delta), np.log(sigma), 1)[0])
    if not COLLAPSE_SLOPE[0] <= slope <= COLLAPSE_SLOPE[1]:
        v.problems.append(f"sigma_min log-log slope {slope:.4f} outside "
                          f"{COLLAPSE_SLOPE}")

    payload = json.loads((out / "overlap.json").read_text())
    as_json = [["S", e["row"], e["col"], e["re"], e["im"]]
               for e in payload["overlap"]] \
        + [["H", e["row"], e["col"], e["re"], e["im"]]
           for e in payload["hamiltonian"]]
    if as_json != rows:
        v.problems.append("overlap.json differs from overlap.csv")
    if [[e["delta"], e["sigma_min"], e["cond"]]
            for e in payload["degeneracy"]] != deg:
        v.problems.append("overlap.json differs from degeneracy.csv")


def _complex_of(entry) -> complex:
    if isinstance(entry, dict):
        return complex(float(entry["re"]), float(entry["im"]))
    return complex(float(entry))


def check_berry(cfg: dict, out: Path, v: Verdict) -> None:
    payload = json.loads((out / "berry.json").read_text())
    if payload["monodromy_order"] != 4:
        v.problems.append(
            f"monodromy_order {payload['monodromy_order']} != 4")
    defect = float(payload["connection_consistency"])
    if not defect < MAX_CONNECTION_DEFECT:
        v.problems.append(f"connection_consistency {defect:.3g} >= "
                          f"{MAX_CONNECTION_DEFECT}")
    err = max(abs(_complex_of(payload["ratio_2pi"]) - 1j),
              abs(_complex_of(payload["overlap_4pi"]) + 1.0),
              abs(_complex_of(payload["overlap_8pi"]) - 1.0))
    v.digits = digits_of(err)
    if v.digits < MIN_BERRY_DIGITS:
        v.problems.append(f"berry_digits {v.digits:.2f} < {MIN_BERRY_DIGITS}")
    block = cfg["berry"]
    header, rows = _read_csv(out / "berry.csv", "berry")
    if len(rows) != block["windings"] * block["n_steps"] + 1:
        v.problems.append(f"berry.csv has {len(rows)} rows")
    region = header.index("region")
    _floats(rows, [c for c in range(len(header)) if c != region])


def check_spectrum(cfg: dict, out: Path, v: Verdict) -> None:
    _, rows = _read_csv(out / "spectrum.csv", "spectrum")
    e = _floats(rows, (1, 2, 3))
    n_max = cfg["spectrum"]["n_max"]
    if [r[0] for r in rows] != [str(n) for n in range(n_max + 1)]:
        v.problems.append("spectrum levels are not 0..n_max")
    if np.any(e[:, 1] >= 0.0):
        v.problems.append("a resonance has Im E_n >= 0")
    if np.any(np.diff(e[:, 0]) >= 0.0) or np.any(np.diff(e[:, 1]) >= 0.0):
        v.problems.append("E_n does not decrease in n")
    # closed form: E_n = (1/8) [sqrt(8 lam - 1) - i (2n + 1)]^2 in m=hbar=beta=1
    root = cmath.sqrt(8.0 * cfg["lam"] - 1.0)
    for n, (re, im, _) in enumerate(e):
        ref = (root - 1j * (2 * n + 1)) ** 2 / 8.0
        if abs(complex(re, im) - ref) > 1e-12 * abs(ref):
            v.problems.append(f"E_{n} differs from the closed form")
    json.loads((out / "spectrum.json").read_text())


def check_regions(cfg: dict, out: Path, v: Verdict) -> None:
    _, rows = _read_csv(out / "regions.csv", "regions")
    _floats(rows, range(6))
    if len(rows) != cfg["regions"]["n_points"]:
        v.problems.append(f"regions.csv has {len(rows)} rows")
    json.loads((out / "regions.json").read_text())


def psi_oracle(x: float, k: complex, lam: float, theta: float) -> complex:
    """Scaled solution by mpmath at ORACLE_DPS digits (m = hbar = beta = 1).

    Principal branches agree with the continued ones while
    |x| sin(theta) < pi/2, where tanh(x e^{i theta}) has no pole.
    """
    import mpmath as mp

    with mp.workdps(ORACLE_DPS):
        k = mp.mpc(k.real, k.imag)
        z = mp.mpf(x) * mp.expj(mp.mpf(theta))
        s = (-1 + mp.sqrt(1 - 8 * mp.mpf(lam))) / 2
        u = 1 / (1 + mp.exp(2 * z))
        pref = mp.exp(-0.5j * k * (mp.log(4) + mp.log(u) + mp.log(1 - u)))
        kb = 1j * k
        return complex(pref * mp.hyp2f1(-kb - s, -kb + s + 1, -kb + 1, u))


def check_wavefunction(cfg: dict, out: Path, v: Verdict) -> None:
    block = cfg["wavefunction"]
    _, rows = _read_csv(out / "wavefunction.csv", "wavefunction")
    data = _floats(rows, (0, 1, 2))
    if len(rows) != block["n_points"]:
        v.problems.append(f"wavefunction.csv has {len(rows)} rows")
    theta, lam = cfg["theta"], cfg["lam"]
    k = complex(block["k"]["re"], block["k"]["im"])
    limit = 0.9 * math.pi / (2.0 * math.sin(theta))
    inside = np.flatnonzero(np.abs(data[:, 0]) < limit)
    picks = inside[np.linspace(0, len(inside) - 1, PSI_SAMPLES).astype(int)]
    worst = 0.0
    for i in picks:
        x, re, im = data[i]
        ref = psi_oracle(x, k, lam, theta)
        worst = max(worst, abs(complex(re, im) - ref) / abs(ref))
    v.digits = digits_of(worst)
    if v.digits < MIN_PSI_DIGITS:
        v.problems.append(f"psi_digits {v.digits:.2f} < {MIN_PSI_DIGITS}")
    samples = json.loads((out / "wavefunction.json").read_text())["samples"]
    if [[e["x"], e["re"], e["im"]] for e in samples] != rows:
        v.problems.append("wavefunction.json differs from wavefunction.csv")


CHECKS = {"overlap": check_overlap, "berry": check_berry,
          "spectrum": check_spectrum, "regions": check_regions,
          "wavefunction": check_wavefunction}


def check_job(command: str, config_path, out) -> Verdict:
    """Check the files ``command`` wrote to ``out`` for its config."""
    v = Verdict()
    cfg = json.loads(Path(config_path).read_text())
    try:
        CHECKS[command](cfg, Path(out), v)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        v.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return v
