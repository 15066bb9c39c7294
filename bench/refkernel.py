"""Fixed pieces of work whose timings track the machine's current speed.

A shared machine's speed can change by 1.5x from one second to the next
while other tenants run.  Dividing a measured time by the timings of a
reference kernel taken just before and just after it removes most of
that change.  Process CPU time does not: on a shared 2-core Xeon VM it
moved with wall time (berry passes over five seeds spread 37% in both).

The change is not the same for every kind of code, so each workload has a
kernel of its own kind of work.  On that VM, between its
fast and slow states, scalar Python and indented JSON changed speed by
1.75-1.85x and elementwise exp/log on complex grids by 1.65x, but the
hypergeometric series on 8001-point grids by only 1.25-1.35x.
``reference_kernel`` mixes the first kinds (berry, scan);
``grid_kernel`` is a frozen copy of overlap's hot path.
"""

from __future__ import annotations

import cmath
import io
import json
import math
import time
from dataclasses import dataclass

import numpy as np

# The complex grid is 64 rows of 8001 points, built and evaluated a few
# rows at a time, so that the kernel adds about 2 MB, not 30 MB, to the
# peak memory of the process that times it.
_RADII = np.linspace(0.1, 2.0, 8001)
_PHASES = np.exp(1j * np.linspace(-3.0, 3.0, 64))
_ROWS_PER_CHUNK = 4
_JSON_ROWS = [{"x": f"{i * 0.37:.17g}", "re": f"{i * 1.1e-3:.17g}",
               "im": f"{-i * 2.3e-3:.17g}"} for i in range(2500)]


@dataclass(frozen=True)
class _Params:
    lam: complex
    theta: float


def reference_kernel() -> float:
    """Seconds for a fixed mix of the program's kinds of work.

    Complex vector arithmetic on a 64 x 8001 grid (specfun, wavefun,
    binbasis), indented JSON of 17-digit strings (cli), and scalar complex
    arithmetic on frozen dataclasses with 17-digit formatting (model,
    eploop).  About 0.1 s on a shared 2-core Xeon VM.  There, while the
    machine's speed changed, dividing by this mix kept berry and
    wavefunction job times within 3-6% (quartile distance over median of
    12-20 s windows); each part alone did no better for all workloads at
    once.
    """
    t0 = time.perf_counter()
    finite = True
    for row in range(0, len(_PHASES), _ROWS_PER_CHUNK):
        grid = _RADII[None, :] * _PHASES[row:row + _ROWS_PER_CHUNK, None]
        grid = np.exp(-0.5 * grid) * np.log1p(grid) / (1.0 + grid)
        finite &= bool(np.isfinite(grid).all())
    json.dump({"samples": _JSON_ROWS}, io.StringIO(), indent=2,
              sort_keys=True)
    z = 0.3 + 0.2j
    lines = []
    for i in range(4000):
        p = _Params(complex(1.0 + 1e-4 * i, 1e-6), 0.3)
        z = cmath.sqrt(p.lam * p.lam - 0.5j) + cmath.exp(1j * p.theta) * 1e-3
        lines.append(f"{z.real:.17g},{z.imag:.17g}")
    seconds = time.perf_counter() - t0
    if not (finite and cmath.isfinite(z)):
        raise RuntimeError("reference kernel produced a non-finite value")
    return seconds


# Frozen copy of the csmres 2F1 and scaled-solution code on the overlap
# grid, as it stood when the benchmark was defined.  It must never import
# csmres: a change to the program must not change the reference.
_GRID_X = np.linspace(-40.0, 40.0, 8001)
_LN4 = 2.0 * math.log(2.0)
_SERIES_EPS = 2.0e-16
_LANCZOS_G = 607.0 / 128.0
_LANCZOS = (
    0.99999999999999709182, 57.156235665862923517, -59.597960355475491248,
    14.136097974741747174, -0.49191381609762019978,
    0.33994649984811888699e-4, 0.46523628927048575665e-4,
    -0.98374475304879564677e-4, 0.15808870322491248884e-3,
    -0.21026444172410488319e-3, 0.21743961811521264320e-3,
    -0.16431810653676389022e-3, 0.84418223983852743293e-4,
    -0.26190838401581408670e-4, 0.36899182659531622704e-5,
)
# (k, theta) of the calls: two real-axis bins and the two partners of an
# EP-ray bin, with s of lambda = 1.3 (as overlap's binned states make them)
_GRID_CALLS = ((1.0 + 0.0j, 0.0), (2.6 + 0.0j, 0.0),
               (1.45 - 0.5j, 0.3), (1.45 + 0.5j, -0.3))
_GRID_S = 0.5 * (-1.0 + cmath.sqrt(1.0 - 8.0 * 1.3))


def _gamma(z: complex) -> complex:
    if z.real < 0.5:
        return cmath.pi / (cmath.sin(cmath.pi * z) * _gamma(1.0 - z))
    zz = z - 1.0
    acc = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        acc += _LANCZOS[i] / (zz + i)
    t = zz + _LANCZOS_G + 0.5
    return 2.5066282746310002 * t ** (zz + 0.5) * cmath.exp(-t) * acc


def _series(a, b, c, x):
    term = np.ones_like(x)
    total = np.ones_like(x)
    quiet = 0
    for n in range(100_000):
        term = term * ((a + n) * (b + n) / ((c + n) * (n + 1.0))) * x
        total = total + term
        if np.all(np.abs(term) <= _SERIES_EPS * np.abs(total)):
            quiet += 1
            if quiet >= 2:
                return total
        else:
            quiet = 0
    raise RuntimeError("reference series did not converge")


def _connection(a, b, c, v, log_v):
    cab = c - a - b
    gc = _gamma(c)
    coef1 = gc * _gamma(cab) / (_gamma(c - a) * _gamma(c - b))
    coef2 = gc * _gamma(-cab) / (_gamma(a) * _gamma(b))
    return (coef1 * _series(a, b, 1.0 - cab, v)
            + coef2 * np.exp(cab * log_v) * _series(c - a, c - b, 1.0 + cab, v))


def _hyp2f1(a, b, c, u, omu, log_omu):
    w = np.where(omu != 0.0, -u / omu, np.inf)
    r_v = np.abs(omu)
    with np.errstate(divide="ignore", over="ignore"):
        r_t = np.where(r_v > 0.0, 1.0 / r_v, np.inf)
    route = np.argmin(np.stack([np.abs(u), r_v, np.abs(w), r_t]), axis=0)
    out = np.empty_like(u)
    for code in range(4):
        m = route == code
        if not np.any(m):
            continue
        if code == 0:
            out[m] = _series(a, b, c, u[m])
        elif code == 1:
            out[m] = _connection(a, b, c, omu[m], log_omu[m])
        elif code == 2:
            out[m] = np.exp(-a * log_omu[m]) * _series(a, c - b, c, w[m])
        else:
            out[m] = np.exp(-a * log_omu[m]) * _connection(
                a, c - b, c, 1.0 / omu[m], -log_omu[m])
    return out


def _raw_psi(k: complex, s: complex, theta: float) -> np.ndarray:
    z = _GRID_X * cmath.exp(1j * theta)
    right = z.real >= 0.0
    t = np.exp(np.where(right, -2.0 * z, 2.0 * z))
    log1pt = np.log1p(t)
    frac = t / (1.0 + t)
    inv = 1.0 / (1.0 + t)
    u = np.where(right, frac, inv)
    omu = np.where(right, inv, frac)
    log_u = np.where(right, -2.0 * z - log1pt, -log1pt)
    log_omu = np.where(right, -log1pt, 2.0 * z - log1pt)
    pref = np.exp(-0.5j * k * (_LN4 + log_u + log_omu))
    kb = 1j * k
    return pref * _hyp2f1(-kb - s, -kb + s + 1.0, -kb + 1.0, u, omu, log_omu)


def grid_kernel() -> float:
    """Seconds for overlap's kind of work: scaled solutions through the
    2F1 series and connection formulas on the 8001-point overlap grid, and
    scalar complex gamma functions, in about the shares overlap spends on
    them (about 0.04 s on a shared 2-core Xeon VM)."""
    t0 = time.perf_counter()
    finite = True
    for k, theta in _GRID_CALLS:
        finite &= bool(np.isfinite(_raw_psi(k, _GRID_S, theta)).all())
    acc = 0.0j
    for i in range(600):
        acc += _gamma(complex(1.0 + 2e-3 * i, 0.5)) \
            / _gamma(complex(-0.4 + 1e-3 * i, -0.7))
    seconds = time.perf_counter() - t0
    if not (finite and cmath.isfinite(acc)):
        raise RuntimeError("grid kernel produced a non-finite value")
    return seconds

