"""Closed-form spectral data of the complex-scaled sech-squared barrier.

The barrier V(x) = lambda / cosh^2(beta x) with lambda > (beta hbar)^2/(8m)
supports no bound states but an exact ladder of resonance poles.  This module
evaluates the resonance energies, the critical scaling angle
theta_n = -arg(E_n)/2 at which resonance n touches the rotated continuum,
the admissible coupling windows as functions of the scaling angle, and the
branch point where the lowest resonance coalesces with the continuum.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateIndex, NonConvergence, PreconditionViolation

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


@dataclass(frozen=True)
class DerivedQuantities:
    """Dimensionless index data derived from the coupling.

    g = 8 m lam / (beta hbar)^2 and s = (-1 + sqrt(1-g))/2 with the
    principal square root, so real lam above the degenerate point gives
    sqrt(1-g) = +i sqrt(g-1) and a fourth-quadrant resonance ladder.
    """

    g: complex
    s: complex


def _times(x, re, im):
    """Parts of x (re + i im) for a real x, rounded as CPython rounds a
    float times a complex: the float is taken as x + 0i."""
    return x * re - 0.0 * im, x * im + 0.0 * re


def _over(re, im, x):
    """Parts of (re + i im) / x for a real x > 0, rounded as CPython
    rounds a complex over a float (Smith's quotient by x + 0i)."""
    return (re + im * 0.0) / x, (im - re * 0.0) / x


def _csqrt(z: np.ndarray) -> np.ndarray:
    """``cmath.sqrt`` of each element of a complex array, bit for bit
    unless a part of the root underflows to a subnormal float.

    ``np.sqrt`` rounds as ``cmath.sqrt`` does except on the imaginary
    axis, where cmath takes the real part 2 sqrt(|y|/8) and the imaginary
    part |y| / (2 Re) with the sign of y; those elements are redone so.
    """
    root = np.sqrt(z)
    axis = (z.real == 0.0) & (z.imag != 0.0)
    if axis.any():
        y = z.imag[axis]
        re = 2.0 * np.sqrt(np.abs(y) / 8.0)
        root.real[axis] = re
        root.imag[axis] = np.copysign(np.abs(y) / (2.0 * re), y)
    return root


def _sqrt(re, im):
    """Parts of the principal square root: cmath.sqrt of a scalar,
    ``_csqrt`` of arrays."""
    if isinstance(re, np.ndarray):
        z = np.empty(re.shape, dtype=complex)
        z.real, z.imag = re, im
        root = _csqrt(z)
    else:
        root = cmath.sqrt(complex(re, im))
    return root.real, root.imag


def _index(params: ModelParams, lam) -> tuple:
    """Parts of g = 8 m lam / (beta hbar)^2 at a complex coupling or a
    complex array of them.

    Raises
    ------
    PreconditionViolation
        When g is not finite at a coupling (it overflows, or the coupling
        is not finite); one test per call, for an array as a whole.
    """
    g = _over(*_times(8.0 * params.m, lam.real, lam.imag),
              (params.beta * params.hbar) ** 2)
    if not np.isfinite(g).all():
        raise PreconditionViolation(
            f"g = 8 m lam / (beta hbar)^2 is not finite at lam = {lam}")
    return g


def _pole(params: ModelParams, lam, n: int) -> tuple:
    """Parts ((Re E_n, Im E_n), (Re k_n, Im k_n)) of the closed form at a
    coupling or a 1-D numpy array of them; the one place g, E_n and k_n
    are derived (``resonance_energy``).

    Every step is written on real and imaginary parts, with the operations
    CPython's complex arithmetic performs, so that an array element has
    the bits of the scalar result: numpy's complex product, quotient and
    ``abs`` round differently.

    Raises
    ------
    PreconditionViolation
        When a coupling or g at it is not finite (inf or nan in either
        part).
    DegenerateIndex
        When g = 1 within 1e-12 at any coupling (the index s degenerates).
    """
    array = isinstance(lam, np.ndarray)
    lam = np.asarray(lam, dtype=complex) if array else complex(lam)
    if not (np.isfinite(lam).all() if array else cmath.isfinite(lam)):
        raise PreconditionViolation(f"coupling {lam} is not finite")
    gr, gi = _index(params, lam)
    # |g - 1|: np.hypot rounds as abs of a Python complex
    near = (np.hypot(gr - 1.0, gi) if array else abs(complex(gr - 1.0, gi))) \
        < _G_DEGENERATE_TOL
    if near.any() if array else near:
        j = np.argmax(near)
        g = complex(np.ravel(gr)[j], np.ravel(gi)[j])
        raise DegenerateIndex(f"g = {g} within tolerance of 1")
    rr, ri = _sqrt(gr - 1.0, gi)
    # x = sqrt(g - 1) - (2n + 1) i; CPython's x ** 2 is 1 * (x * x)
    xi = ri - (2 * n + 1)
    sq = _times(1.0, rr * rr - xi * xi, rr * xi + xi * rr)
    energy = _times(params.energy_scale, *sq)
    k = _over(*_sqrt(*_times(2.0 * params.m, *energy)), params.hbar)
    return energy, k


def derived_quantities(params: ModelParams) -> DerivedQuantities:
    """g and s at the coupling of ``params``.

    Raises
    ------
    PreconditionViolation
        When g is not finite.
    """
    g = complex(*_index(params, complex(params.lam)))
    s = 0.5 * (-1.0 + cmath.sqrt(1.0 - g))
    return DerivedQuantities(g=g, s=s)


@dataclass(frozen=True)
class ResonancePole:
    """A single resonance pole of the barrier."""

    n: int
    energy: complex
    k: complex
    width: float

    @property
    def critical_angle(self) -> float:
        """theta_n = -arg(E_n)/2, the angle of ``critical_angle``."""
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
        When the coupling or g is not finite.
    DegenerateIndex
        When g = 1 within 1e-12 (the index s degenerates).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    energy, k = _pole(params, params.lam, n)
    return ResonancePole(n=n, energy=complex(*energy), k=complex(*k),
                         width=-2.0 * energy[1])


def critical_angle(params: ModelParams, n: int) -> float:
    """Angle theta_n = -arg(E_n)/2 at which resonance n touches the
    rotated continuum: the resonance is uncovered once 2 theta exceeds
    -arg E_n.

    Where Re E_n > 0 this is the closed form (1/2) arctan(-Im E_n / Re E_n);
    where Re E_n < 0 it is pi/2 more than that, and at Re E_n = 0 (with
    Im E_n < 0) it is pi/4.
    """
    return resonance_energy(params, n).critical_angle


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
