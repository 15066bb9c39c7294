"""Closed-form spectral data of the complex-scaled sech-squared barrier.

The barrier V(x) = lambda / cosh^2(beta x) with lambda > (beta hbar)^2/(8m)
supports no bound states but an exact ladder of resonance poles.  This module
evaluates the resonance energies, the critical scaling angles at which a
resonance touches the rotated continuum, the admissible coupling windows as
functions of the scaling angle, and the branch point where the lowest
resonance coalesces with the continuum.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DegenerateIndex, NonConvergence, PreconditionViolation, \
    UndefinedAngle

_G_DEGENERATE_TOL = 1.0e-12


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the scaled barrier problem.

    Parameters
    ----------
    m, hbar, beta : float
        Mass, action quantum, inverse length scale; all positive.  The
        default configuration is the dimensionless convention
        m = hbar = beta = 1.
    lam : complex
        Coupling strength (energy units); complex values are accepted
        everywhere for analytic continuation.
    theta : float
        Scaling angle, restricted to 0 < theta < pi/4.
    """

    lam: complex
    theta: float
    m: float = 1.0
    hbar: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if not (self.m > 0 and self.hbar > 0 and self.beta > 0):
            raise ValueError("m, hbar, beta must be positive")
        if not (0.0 < self.theta < math.pi / 4):
            raise ValueError("theta must satisfy 0 < theta < pi/4")

    @property
    def energy_scale(self) -> float:
        """beta^2 hbar^2 / (8 m), the natural energy unit of the barrier."""
        return self.beta**2 * self.hbar**2 / (8.0 * self.m)

    def with_lam(self, lam: complex) -> "ModelParams":
        return ModelParams(lam=lam, theta=self.theta,
                           m=self.m, hbar=self.hbar, beta=self.beta)


@dataclass(frozen=True)
class DerivedQuantities:
    """Dimensionless index data derived from the coupling.

    g = 8 m lam / (beta hbar)^2 and s = (-1 + sqrt(1-g))/2 with the
    principal square root, so real lam above the degenerate point gives
    sqrt(1-g) = +i sqrt(g-1) and a fourth-quadrant resonance ladder.
    """

    g: complex
    s: complex
    m: float
    hbar: float
    beta: float

    def kappa_of_energy(self, energy: complex) -> complex:
        """kappa = sqrt(-2 m E) / (beta hbar), principal branch."""
        return cmath.sqrt(-2.0 * self.m * energy) / (self.beta * self.hbar)


def derived_quantities(params: ModelParams) -> DerivedQuantities:
    g = 8.0 * params.m * complex(params.lam) / (params.beta * params.hbar) ** 2
    s = 0.5 * (-1.0 + cmath.sqrt(1.0 - g))
    return DerivedQuantities(g=g, s=s, m=params.m, hbar=params.hbar,
                             beta=params.beta)


@dataclass(frozen=True)
class ResonancePole:
    """A single resonance pole of the barrier."""

    n: int
    energy: complex
    k: complex
    width: float


def resonance_energy(params: ModelParams, n: int) -> ResonancePole:
    """Exact resonance energy of level n.

    E_n = (hbar^2 beta^2 / 8m) [sqrt(g-1) - i(2n+1)]^2 with
    g = 8 m lam / (beta hbar)^2; the result does not depend on the scaling
    angle.

    Raises
    ------
    DegenerateIndex
        When g = 1 within 1e-12 (the index s degenerates).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    dq = derived_quantities(params)
    if abs(dq.g - 1.0) < _G_DEGENERATE_TOL:
        raise DegenerateIndex(f"g = {dq.g} within tolerance of 1")
    root = cmath.sqrt(dq.g - 1.0)
    energy = params.energy_scale * (root - 1j * (2 * n + 1)) ** 2
    k = cmath.sqrt(2.0 * params.m * energy) / params.hbar
    return ResonancePole(n=n, energy=energy, k=k, width=-2.0 * energy.imag)


@dataclass(frozen=True)
class CriticalAngle:
    """Critical scaling angle of level n with both branch readings.

    ``raw`` is half the single-branch arctan of -Im E / Re E exactly as the
    closed form prescribes; ``corrected`` is the quadrant-corrected angle
    -arg(E)/2, which equals ``raw`` whenever Re E > 0.  When Re E < 0 the
    two differ by pi/2 and neither is silently preferred; callers choose.
    """

    n: int
    raw: float
    corrected: float
    ambiguous: bool = False


def critical_angle(params: ModelParams, n: int) -> CriticalAngle:
    """Angle at which resonance n touches the rotated continuum.

    theta_n = (1/2) arctan(-Im E_n / Re E_n).

    Raises
    ------
    UndefinedAngle
        If Re E_n = 0; the caller may catch it and use pi/4 with a flag.
    """
    pole = resonance_energy(params, n)
    e = pole.energy
    if e.real == 0.0:
        raise UndefinedAngle(
            f"Re E_{n} = 0: arctan branch ambiguous, half-pi/2 = {math.pi/4}")
    raw = 0.5 * math.atan(-e.imag / e.real)
    corrected = -0.5 * math.atan2(e.imag, e.real)
    return CriticalAngle(n=n, raw=raw, corrected=corrected,
                         ambiguous=(e.real < 0.0))


@dataclass(frozen=True)
class RegionBounds:
    """Admissible-coupling windows at fixed scaling angle (real lam).

    lambda0_minus/plus bound the window where the n = 0 resonance sits below
    the rotated continuum; lambda1_minus/plus are the literal closed forms
    for n = 1.  lambda_bp = lambda0_plus is the branch-point coupling where
    the n = 0 resonance coalesces with the continuum, with energy E_bp and
    wavenumber k_bp.
    """

    theta: float
    lambda0_minus: float
    lambda0_plus: float
    lambda1_minus: float
    lambda1_plus: float
    lambda_bp: float
    E_bp: complex
    k_bp: complex


def branch_point_coupling(theta: float, m: float = 1.0, hbar: float = 1.0,
                          beta: float = 1.0) -> float:
    """lambda_bp = (beta^2 hbar^2 / 4m) / (1 - cos 2 theta)."""
    u0 = beta**2 * hbar**2 / (4.0 * m)
    # 1 - cos 2 theta = 2 sin^2 theta, stable at small angles
    return u0 / (2.0 * math.sin(theta) ** 2)


def branch_point(params: ModelParams) -> tuple:
    """(lambda_bp, E_bp, k_bp): where the n = 0 resonance meets the continuum.

    E_bp and k_bp are the energy and wavenumber of the n = 0 resonance at
    lambda_bp (``resonance_energy``).  The coupling of ``params`` does not
    enter.
    """
    lam_bp = branch_point_coupling(params.theta, params.m, params.hbar,
                                   params.beta)
    pole = resonance_energy(params.with_lam(lam_bp), 0)
    return lam_bp, pole.energy, pole.k


def lambda_window(theta: float, m: float = 1.0, hbar: float = 1.0,
                  beta: float = 1.0) -> RegionBounds:
    """All four window bounds plus branch-point data at fixed angle.

    lambda0^{+-} = (beta^2 hbar^2/4m)(1 +- cos 2theta)/sin^2 2theta and the
    n = 1 bounds are implemented literally as
    (beta^2 hbar^2/4m)[(9+5 t^2)/t^2 +- sqrt(((9+5 t^2)/t^2)^2 - (9+25 t^2)/t^2)]
    with t = tan 2theta.
    """
    if not (0.0 < theta < math.pi / 4):
        raise ValueError("theta must satisfy 0 < theta < pi/4")
    u0 = beta**2 * hbar**2 / (4.0 * m)
    two_t = 2.0 * theta
    s2 = math.sin(two_t) ** 2
    c = math.cos(two_t)
    l0m = u0 * (1.0 - c) / s2
    l0p = u0 * (1.0 + c) / s2
    t2 = math.tan(two_t) ** 2
    head = (9.0 + 5.0 * t2) / t2
    disc = head**2 - (9.0 + 25.0 * t2) / t2
    root = math.sqrt(disc)
    l1m = u0 * (head - root)
    l1p = u0 * (head + root)
    # the coupling of the parameter set does not enter the branch point
    lam_bp, E_bp, k_bp = branch_point(
        ModelParams(lam=0.0, theta=theta, m=m, hbar=hbar, beta=beta))
    return RegionBounds(
        theta=theta,
        lambda0_minus=l0m, lambda0_plus=l0p,
        lambda1_minus=l1m, lambda1_plus=l1p,
        lambda_bp=lam_bp, E_bp=E_bp, k_bp=k_bp,
    )


def _bisect_zero(fun, a: float, b: float, tol: float = 1e-10) -> float:
    """Zero of a real function on [a, b] by bisection, to an interval
    narrower than ``tol`` or down to adjacent floats; the sign of a value
    is whether it is below 0.

    Raises
    ------
    PreconditionViolation
        If fun(a) and fun(b) have the same sign.
    NonConvergence
        If 200 halvings leave the interval ``tol`` or wider.
    """
    fa, fb = fun(a), fun(b)
    if (fa < 0.0) == (fb < 0.0):
        raise PreconditionViolation(
            f"no sign change on [{a}, {b}]: f = {fa}, {fb}")
    for _ in range(200):
        m = 0.5 * (a + b)
        if b - a < tol or not a < m < b:
            return m
        fm = fun(m)
        if (fa < 0.0) == (fm < 0.0):
            a, fa = m, fm
        else:
            b = m
    raise NonConvergence("bisection", {"a": a, "b": b, "tol": tol})


def contact_coupling_root(theta: float, n: int = 0, m: float = 1.0,
                          hbar: float = 1.0, beta: float = 1.0) -> float:
    """Coupling where level n touches the continuum, by bisection.

    Solves tan(2 theta) Re E_n(lam) + Im E_n(lam) = 0 for real lam above
    the degenerate point; independent cross-check of the closed-form
    window bounds (and of lambda_bp for n = 0).
    """
    t = math.tan(2.0 * theta)
    scale = beta**2 * hbar**2 / (8.0 * m)

    def objective(lam):
        params = ModelParams(lam=lam, theta=theta, m=m, hbar=hbar, beta=beta)
        e = resonance_energy(params, n).energy
        return t * e.real + e.imag

    lo = scale * (1.0 + 1.0e-9)
    hi = scale * 1.0e7
    return _bisect_zero(objective, lo, hi, tol=1.0e-13)
