"""Scaled wave functions of the sech-squared barrier.

The scattering solution along the rotated coordinate x' = x e^{i theta} is

    psi(k, lam, x') = (1 - xi^2)^{-ik/2beta} F(a, b; c; u),
    xi = tanh(beta x'),   u = (1 - xi)/2,
    a = -ik/beta - s,  b = -ik/beta + s + 1,  c = -ik/beta + 1,

with s the potential index from `model`.  This module evaluates it on real-x
grids with analytically continued branches (the u-image spirals around u = 1
at large |x|), provides the asymptotic plane-wave coefficients, the Siegert
residual and its Newton root-finder, the bilinear (c-product) Gamow norm
with closed-form tail corrections, and the convergent/divergent region
classification.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, NonNormalizable, \
    PreconditionViolation, SingularCoordinate
from .model import ModelParams, derived_quantities, resonance_energy
from .specfun import complex_gamma, hyp2f1_grid, reciprocal_gamma

LN4 = 2.0 * math.log(2.0)


class RegionLabel(enum.Enum):
    ConvergentA = "ConvergentA"
    DivergentB = "DivergentB"
    ScatteringBoundary = "ScatteringBoundary"


@dataclass(frozen=True)
class WaveField:
    """Sampled scaled wave function plus asymptotic tail descriptors.

    ``tail`` holds the exponents (q_plus, q_minus) of the dominant behavior
    e^{q x} at x -> +inf / -inf; ``meta`` is (k, lam, theta).
    """

    grid: np.ndarray
    values: np.ndarray
    tail: tuple
    meta: tuple

    @property
    def k(self):
        return self.meta[0]

    @property
    def lam(self):
        return self.meta[1]

    @property
    def theta(self):
        return self.meta[2]


@dataclass(frozen=True)
class AsymptoticCoefficients:
    """Plane-wave coefficients of the asymptotic forms.

    At x -> +inf the solution tends to 4^{-ik/2beta} e^{ikx'}; at x -> -inf
    to 4^{-ik/2beta} [refl * e^{-ikx'} + trans_like * e^{ikx'}].  The zeros
    of ``trans_like`` in k are the Siegert (purely outgoing) wavenumbers.
    """

    refl: complex
    trans_like: complex


def default_grid(beta: float = 1.0, x_max: float | None = None,
                 n_points: int = 2049) -> np.ndarray:
    """Default symmetric uniform grid, X_max = 12/beta, 2049 points."""
    if x_max is None:
        x_max = 12.0 / beta
    return np.linspace(-x_max, x_max, n_points)


def _split_by_sign(z: np.ndarray):
    """Stable u, 1-u, and continued logs for u = 1/(1 + e^{2z})."""
    right = z.real >= 0.0
    t = np.exp(np.where(right, -2.0 * z, 2.0 * z))
    if np.any(t == 0.0):
        raise SingularCoordinate("tanh argument saturates: 1 - xi^2 underflows")
    log1pt = np.log1p(t)
    frac = t / (1.0 + t)
    inv = 1.0 / (1.0 + t)
    u = np.where(right, frac, inv)
    omu = np.where(right, inv, frac)
    log_u = np.where(right, -2.0 * z - log1pt, -log1pt)
    log_omu = np.where(right, -log1pt, 2.0 * z - log1pt)
    return u, omu, log_u, log_omu


def raw_psi(k, s: complex, beta: float, theta: float,
            x: np.ndarray) -> np.ndarray:
    """Scaled solution on a real-x grid, continuous analytic branch.

    ``k`` is one wavenumber (result of shape (len(x),)) or a 1-D array of
    them (result (len(k), len(x)), row i at k[i]).  The coordinate map,
    its continued logarithms and the 2F1 routes depend on x alone and are
    computed once per call; all rows go through one batched
    ``hyp2f1_grid`` call.  ``theta`` may be negative (used for
    biorthogonal partners); the formula is the same with x' = x e^{i theta}.

    Raises
    ------
    PreconditionViolation
        If the gamma or 2F1 kernels overflow, or a value is not finite,
        as happens for large |k| (|k| = 150 at theta 0.3 on |x| <= 12).
    """
    x = np.asarray(x, dtype=float)
    k = np.asarray(k, dtype=complex)
    z = beta * x * cmath.exp(1j * theta)
    u, omu, log_u, log_omu = _split_by_sign(z)
    p = -1j * k / (2.0 * beta)
    kb = 1j * k / beta
    a = -kb - s
    b = -kb + s + 1.0
    c = -kb + 1.0
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            # (1 - xi^2)^p = exp(p (ln 4 + log u + log(1-u))), continued
            # branch
            pref = np.exp(np.multiply.outer(p, LN4 + log_u + log_omu))
            # a named right operand: numpy may evaluate pref * (temporary)
            # as temporary * pref, which rounds differently
            f = hyp2f1_grid(a, b, c, u, one_minus_u=omu,
                            log_one_minus_u=log_omu)
            psi = pref * f
    except OverflowError as exc:
        raise PreconditionViolation(
            f"raw_psi kernels overflow at k = {k}") from exc
    if not np.isfinite(psi).all():
        raise PreconditionViolation(f"raw_psi is not finite at k = {k}")
    return psi


def eval_wavefunction(params: ModelParams, k: complex,
                      grid: np.ndarray | None = None) -> WaveField:
    """Evaluate the scaled wave function on a spatial grid.

    Returns a WaveField whose tail exponents are the analytic ones:
    i k e^{i theta} at +inf and the dominant of -+ i k e^{i theta} at -inf
    (the reflected component if the Siegert residual vanishes, the
    transmitted-like one otherwise).
    """
    if grid is None:
        grid = default_grid(params.beta)
    grid = np.asarray(grid, dtype=float)
    dq = derived_quantities(params)
    values = raw_psi(k, dq.s, params.beta, params.theta, grid)
    coeffs = asymptotic_coefficients(params, k)
    phase = cmath.exp(1j * params.theta)
    q_plus = 1j * k * phase
    if abs(coeffs.trans_like) <= 1e-12 * (1.0 + abs(coeffs.refl)):
        q_minus = -1j * k * phase
    else:
        q_minus = 1j * k * phase
    return WaveField(grid=grid, values=values, tail=(q_plus, q_minus),
                     meta=(k, params.lam, params.theta))


def _gamma_coeffs(k: complex, s: complex, beta: float) -> tuple:
    """(refl, trans_like) gamma ratios at wavenumber k and index s."""
    kb = 1j * k / beta
    refl = complex_gamma(1.0 - kb) * complex_gamma(kb) \
        * reciprocal_gamma(1.0 + s) * reciprocal_gamma(-s)
    trans = complex_gamma(1.0 - kb) * complex_gamma(-kb) \
        * reciprocal_gamma(-kb - s) * reciprocal_gamma(-kb + s + 1.0)
    return refl, trans


def _amplitude(k: complex, beta: float) -> complex:
    """4^{-ik/2beta}, the common amplitude of the asymptotic plane waves."""
    return cmath.exp(-1j * k * LN4 / (2.0 * beta))


def asymptotic_coefficients(params: ModelParams, k: complex) -> AsymptoticCoefficients:
    """Gamma-ratio coefficients of the asymptotic plane waves."""
    refl, trans = _gamma_coeffs(complex(k), derived_quantities(params).s,
                                params.beta)
    return AsymptoticCoefficients(refl=refl, trans_like=trans)


def asymptotic_values(params: ModelParams, k: complex,
                      x: np.ndarray) -> np.ndarray:
    """Leading asymptotic form with full coefficients on a grid."""
    x = np.asarray(x, dtype=float)
    coeffs = asymptotic_coefficients(params, k)
    phase = cmath.exp(1j * params.theta)
    amp = _amplitude(k, params.beta)
    out = np.empty(x.shape, dtype=complex)
    pos = x >= 0.0
    out[pos] = amp * np.exp(1j * k * phase * x[pos])
    xm = x[~pos]
    out[~pos] = amp * (coeffs.refl * np.exp(-1j * k * phase * xm)
                       + coeffs.trans_like * np.exp(1j * k * phase * xm))
    return out


def siegert_residual(params: ModelParams, k: complex) -> complex:
    """Residual whose zeros in k are the purely outgoing wavenumbers."""
    return asymptotic_coefficients(params, k).trans_like


def find_resonance_k(params: ModelParams, k0: complex,
                     step: float = 1e-7, max_iter: int = 100,
                     tol: float = 1e-12) -> complex:
    """Complex Newton iteration on the Siegert residual.

    Numerical derivative with the given step; converges when |dk| < tol.

    Raises
    ------
    ValueError
        If max_iter < 1.
    NonConvergence
        If the iteration cap is reached.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    k = complex(k0)
    for _ in range(max_iter):
        f = siegert_residual(params, k)
        df = (siegert_residual(params, k + step) - f) / step
        if df == 0.0:
            raise NonConvergence("Siegert Newton", {"k": k, "residual": f})
        dk = f / df
        k = k - dk
        if abs(dk) < tol:
            return k
    raise NonConvergence("Siegert Newton", {"k": k, "last_step": abs(dk)})


def _tail_functional(params: ModelParams, lam: complex | None) -> float:
    """Re[i k_0(lam) e^{i theta}], whose sign classifies the n = 0 tail."""
    p = params if lam is None else params.with_lam(lam)
    k0 = resonance_energy(p, 0).k
    return (1j * k0 * cmath.exp(1j * p.theta)).real


def classify_region(params: ModelParams, lam: complex | None = None) -> RegionLabel:
    """Convergence class of the n = 0 Gamow tail at the given coupling.

    Sign of f = Re[i k_0(lam) e^{i theta}]: negative -> ConvergentA
    (square-integrable pseudo-bound state), positive -> DivergentB, within
    1e-12 of zero -> ScatteringBoundary.
    """
    f = _tail_functional(params, lam)
    if abs(f) <= 1e-12:
        return RegionLabel.ScatteringBoundary
    return RegionLabel.ConvergentA if f < 0.0 else RegionLabel.DivergentB


def classification_functional(params: ModelParams, lam: complex | None = None) -> float:
    """The signed functional whose sign defines classify_region."""
    return _tail_functional(params, lam)


def simpson(y, x):
    """Composite Simpson integral of samples ``y`` on strictly increasing
    ``x``.

    The same floating-point operations, in the same order, as scipy's
    ``simpson(y, x=x)`` on 1-D input: the non-uniform three-point rule on
    consecutive pairs of intervals, then for an even number of points
    Cartwright's correction on the last interval (the trapezoid for two
    points).  It returns a numpy scalar of y's type.  The last-interval
    weights are taken on 0-d arrays, as scipy takes them: numpy rounds a
    power of a 0-d array and of a scalar differently.
    """
    y = np.asarray(y)
    h = np.diff(np.asarray(x, dtype=float))
    n = len(y)
    if n == 2:
        return 0.5 * h[0] * (y[1] + y[0])
    stop = n - 2 if n % 2 else n - 3
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum = h0 + h1
    ratio = h0 / h1
    mid = hsum * (hsum / (h0 * h1))
    result = np.sum(hsum / 6.0 * (y[0:stop:2] * (2.0 - 1.0 / ratio)
                                  + y[1:stop + 1:2] * mid
                                  + y[2:stop + 2:2] * (2.0 - ratio)))
    if n % 2 == 0:
        a, b = h[-2, ...], h[-1, ...]
        result += ((2 * b ** 2 + 3 * a * b) / (6 * (b + a)) * y[-1]
                   + (b ** 2 + 3.0 * a * b) / (6 * a) * y[-2]
                   - b ** 3 / (6 * a * (a + b)) * y[-3])
    return result


def gamow_cnorm(field: WaveField) -> complex:
    """Bilinear c-norm integral(psi^2 dx) with closed-form tail corrections.

    The grid integral uses Simpson's rule; beyond the cutoff both tails are
    single exponentials e^{q y} in the outward coordinate y = |x|, matched
    to the endpoint values, so each tail contributes -psi(+-X)^2 / (2q).

    Raises
    ------
    NonNormalizable
        If either tail exponent has non-negative real part.
    """
    q_plus, q_minus = field.tail
    # outward-coordinate exponents: +inf side q_plus as is, -inf side -q_minus
    qp = q_plus
    qm = -q_minus
    if qp.real >= 0.0 or qm.real >= 0.0:
        raise NonNormalizable(
            f"tail exponents {qp}, {qm} do not both decay")
    interior = complex(simpson(field.values**2, x=field.grid))
    tail_p = -field.values[-1] ** 2 / (2.0 * qp)
    tail_m = -field.values[0] ** 2 / (2.0 * qm)
    return interior + tail_p + tail_m


def normalize_gamow(field: WaveField) -> WaveField:
    """Divide by the principal square root of the c-norm."""
    norm = gamow_cnorm(field)
    root = cmath.sqrt(norm)
    return WaveField(grid=field.grid, values=field.values / root,
                     tail=field.tail, meta=field.meta)
