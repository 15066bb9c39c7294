"""Closed-form spectral data of the complex-scaled sech-squared barrier.

The barrier V(x) = lambda / cosh^2(beta x) with lambda > (beta hbar)^2/(8m)
supports no bound states but an exact ladder of resonance poles.  This module
evaluates the index s of the barrier (``potential_index``), the resonance
poles with the critical scaling angle theta_n = -arg(E_n)/2 at which
resonance n touches the rotated continuum (``ResonancePole``), the
admissible coupling windows as functions of the scaling angle, and the
branch point where the lowest resonance coalesces with the continuum.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateIndex, PreconditionViolation

_G_DEGENERATE_TOL = 1.0e-12


def _check_units(m: float, hbar: float, beta: float) -> None:
    """Refuse units the closed forms cannot divide by.

    Raises
    ------
    ValueError
        If m, hbar or beta is not positive, or beta^2, hbar^2,
        (beta hbar)^2 or beta^2 hbar^2 / (8 m) is not a positive finite
        float.
    """
    for name, value in (("m", m), ("hbar", hbar), ("beta", beta)):
        if not value > 0:
            raise ValueError(f"{name} = {value} must be positive")
    b, h = float(beta), float(hbar)
    for name, value in (("beta^2", b * b), ("hbar^2", h * h),
                        ("(beta hbar)^2", (b * h) * (b * h)),
                        ("beta^2 hbar^2 / (8 m)",
                         b * b * (h * h) / (8.0 * m))):
        if not 0.0 < value < math.inf:
            raise ValueError(
                f"units m = {m}, hbar = {hbar}, beta = {beta} give "
                f"{name} = {value}, outside the float range")


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the scaled barrier problem.

    Parameters
    ----------
    m, hbar, beta : float
        Mass, action quantum, inverse length scale; all positive, with
        beta^2, hbar^2, (beta hbar)^2 and beta^2 hbar^2 / (8 m) positive
        finite floats (``ValueError`` otherwise).  The default
        configuration is the dimensionless convention m = hbar = beta = 1.
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
        _check_units(self.m, self.hbar, self.beta)
        if not (0.0 < self.theta < math.pi / 4):
            raise ValueError(f"theta = {self.theta} outside (0, pi/4)")

    @property
    def energy_scale(self) -> float:
        """beta^2 hbar^2 / (8 m), the natural energy unit of the barrier."""
        return self.beta**2 * self.hbar**2 / (8.0 * self.m)

    def with_lam(self, lam: complex) -> "ModelParams":
        return ModelParams(lam=lam, theta=self.theta,
                           m=self.m, hbar=self.hbar, beta=self.beta)


def _index(params: ModelParams, lam) -> np.ndarray:
    """g = 8 m lam / (beta hbar)^2 at each coupling of ``lam``, one complex
    coupling or an array of them, as a 1-D array.

    Raises
    ------
    PreconditionViolation
        When g is not finite at a coupling (it overflows, or the coupling
        is not finite); one test per call, for an array as a whole.
    """
    lam = np.asarray(lam, dtype=complex).reshape(-1)
    # an overflow is refused below, typed, and not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        g = 8.0 * params.m * lam / (params.beta * params.hbar) ** 2
    if not np.isfinite(g).all():
        raise PreconditionViolation(
            f"g = 8 m lam / (beta hbar)^2 is not finite at lam = {lam}")
    return g


def _pole(params: ModelParams, lam, n: int) -> tuple:
    """(E_n, k_n) of the closed form at each coupling of ``lam``, one
    complex coupling or an array of them, as two 1-D arrays; the one place
    g, E_n and k_n are derived (``resonance_energy``).

    A single coupling is taken as an array of one, so that every step is a
    numpy array operation and an array element has the bits of the
    coupling taken alone: a product of numpy scalars, like one of Python
    complex numbers, rounds differently from the array product.

    Raises
    ------
    PreconditionViolation
        When a coupling, g, E_n or k_n at it is not finite (inf or nan in
        either part), as where E_n overflows at large n.
    DegenerateIndex
        When g = 1 within 1e-12 at any coupling (the index s degenerates).
    """
    g = _index(params, lam)
    near = np.abs(g - 1.0) < _G_DEGENERATE_TOL
    if near.any():
        raise DegenerateIndex(f"g = {complex(g[near][0])} within tolerance "
                              f"of 1")
    x = np.sqrt(g - 1.0) - (2 * n + 1) * 1j
    # refused below, typed, as for g
    with np.errstate(over="ignore", invalid="ignore"):
        energy = params.energy_scale * (x * x)
        k = np.sqrt(2.0 * params.m * energy) / params.hbar
    bad = ~(np.isfinite(energy) & np.isfinite(k))
    if bad.any():
        raise PreconditionViolation(
            f"E_{n} or k_{n} is not finite at g = {complex(g[bad][0])}")
    return energy, k


def potential_index(params: ModelParams) -> complex:
    """The index s = (-1 + sqrt(1 - g))/2 of the barrier at the coupling of
    ``params``, g = 8 m lam / (beta hbar)^2, with the principal square
    root, so real lam above the degenerate point gives
    sqrt(1 - g) = +i sqrt(g - 1) and a fourth-quadrant resonance ladder.

    Raises
    ------
    PreconditionViolation
        When g is not finite.
    """
    g = complex(_index(params, params.lam)[0])
    return 0.5 * (-1.0 + cmath.sqrt(1.0 - g))


@dataclass(frozen=True)
class ResonancePole:
    """A single resonance pole of the barrier."""

    n: int
    energy: complex
    k: complex
    width: float

    @property
    def critical_angle(self) -> float:
        """Angle theta_n = -arg(E_n)/2 at which the resonance touches the
        rotated continuum: it is uncovered once 2 theta exceeds -arg E_n.

        Where Re E_n > 0 this is the closed form
        (1/2) arctan(-Im E_n / Re E_n); where Re E_n < 0 it is pi/2 more
        than that, and at Re E_n = 0 (with Im E_n < 0) it is pi/4.
        """
        return -0.5 * math.atan2(self.energy.imag, self.energy.real)


def bin_energy(params: ModelParams, ka: complex, kb: complex) -> complex:
    """Closed-form bin-averaged kinetic energy (cubic formula)."""
    dk = kb - ka
    return params.hbar**2 / (2.0 * params.m) * (kb**3 - ka**3) / (3.0 * dk)


def resonance_energy(params: ModelParams, n: int) -> ResonancePole:
    """Exact resonance energy of level n.

    E_n = (hbar^2 beta^2 / 8m) [sqrt(g-1) - i(2n+1)]^2 with
    g = 8 m lam / (beta hbar)^2; the result does not depend on the scaling
    angle.

    Raises
    ------
    PreconditionViolation
        When the coupling, g, E_n or k_n is not finite.
    DegenerateIndex
        When g = 1 within 1e-12 (the index s degenerates).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    energy, k = _pole(params, params.lam, n)
    return ResonancePole(n=n, energy=complex(energy[0]), k=complex(k[0]),
                         width=-2.0 * float(energy[0].imag))


@dataclass(frozen=True)
class RegionBounds:
    """Admissible-coupling windows at fixed scaling angle (real lam).

    lambda0_minus/plus bound the window where the n = 0 resonance sits below
    the rotated continuum; lambda1_minus/plus are the literal closed forms
    for n = 1.  lambda0_plus is the branch-point coupling lambda_bp, where
    the n = 0 resonance coalesces with the continuum; its energy and
    wavenumber there are those of ``branch_point``.
    """

    theta: float
    lambda0_minus: float
    lambda0_plus: float
    lambda1_minus: float
    lambda1_plus: float


def _finite_bounds(theta: float, closed_form) -> tuple:
    """The tuple ``closed_form()`` when all of its values are finite floats;
    at tiny theta the sin^2 and tan^2 divisors of the closed forms
    underflow.

    Raises
    ------
    PreconditionViolation
        If a value overflows, is not finite or divides by an underflowed 0.
    """
    try:
        values = closed_form()
    except (OverflowError, ZeroDivisionError):
        values = (math.inf,)
    if not all(map(math.isfinite, values)):
        raise PreconditionViolation(
            f"closed-form coupling bounds are not finite at theta = {theta!r}")
    return values


def branch_point_coupling(theta: float, m: float = 1.0, hbar: float = 1.0,
                          beta: float = 1.0) -> float:
    """lambda_bp = (beta^2 hbar^2 / 4m) / (1 - cos 2 theta).

    Raises
    ------
    ValueError
        If the units are refused as ``ModelParams`` refuses them.
    PreconditionViolation
        If lambda_bp is not a finite float (theta below about 1e-154).
    """
    _check_units(m, hbar, beta)
    u0 = beta**2 * hbar**2 / (4.0 * m)
    # 1 - cos 2 theta = 2 sin^2 theta, stable at small angles
    (lam_bp,) = _finite_bounds(
        theta, lambda: (u0 / (2.0 * math.sin(theta) ** 2),))
    return lam_bp


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
    """All four window bounds at fixed angle.

    With u0 = beta^2 hbar^2/4m, lambda0^{+-} = u0 (1 +- cos 2theta)/sin^2 2theta,
    evaluated as lambda0^- = u0/(2 cos^2 theta) and lambda0^+ = lambda_bp
    (``branch_point_coupling``).  The n = 1 bounds are
    u0 [h +- sqrt(h^2 - q)] with h = (9+5 t^2)/t^2, q = (9+25 t^2)/t^2 and
    t = tan 2theta; lambda1^- is evaluated as u0 q / (h + sqrt(h^2 - q)),
    which does not cancel at small theta.

    Raises
    ------
    ValueError
        If theta is outside (0, pi/4) or the units are refused as
        ``ModelParams`` refuses them.
    PreconditionViolation
        If a bound is not a finite float (theta below about 1e-77).
    """
    if not (0.0 < theta < math.pi / 4):
        raise ValueError("theta must satisfy 0 < theta < pi/4")
    # first: it refuses the units before u0 can overflow
    lam_bp = branch_point_coupling(theta, m, hbar, beta)
    u0 = beta**2 * hbar**2 / (4.0 * m)

    def bounds():
        t2 = math.tan(2.0 * theta) ** 2
        head = (9.0 + 5.0 * t2) / t2
        q = (9.0 + 25.0 * t2) / t2
        outer = head + math.sqrt(head**2 - q)
        return u0 / (2.0 * math.cos(theta) ** 2), u0 * q / outer, u0 * outer

    l0m, l1m, l1p = _finite_bounds(theta, bounds)
    return RegionBounds(theta, l0m, lam_bp, l1m, l1p)
