"""Scaled wave functions of the sech-squared barrier.

The scattering solution along the rotated coordinate x' = x e^{i theta} is
the Poschl-Teller form

    psi(k, lam, x') = 4^{-ik/2beta} e^{ikx'} F(1+s, -s; c; u),
    u = (1 - tanh(beta x'))/2,   c = 1 - ik/beta,

with s the potential index from `model`: Euler's transformation of
(1 - xi^2)^{-ik/2beta} F(-ik/beta - s, -ik/beta + s + 1; c; u),
xi = tanh(beta x'), which leaves k in c alone.  This module evaluates it
on real-x grids, at x < 0 away from the origin through the mirror
identity of the even barrier (the u-image there spirals around u = 1),
gives the gamma-ratio coefficients of the asymptotic plane waves
(``_gamma_coeffs``), the Siegert residual and its Newton root-finder, and
the convergent/divergent region classification.  The c-products of these
functions, Simpson quadrature on the grid plus exact tails, are formed in
``binbasis``: ``overlap_matrix`` gives the c-product matrix S and the
Hamiltonian matrix H of a set of states from one pass, ``product_entry``
one entry of S.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, PreconditionViolation
from .model import ModelParams, _pole, potential_index
from .specfun import _K_BLOCK, SERIES_RADIUS, complex_gamma, hyp2f1_grid, \
    reciprocal_gamma

LN4 = 2.0 * math.log(2.0)


@dataclass(frozen=True)
class WaveField:
    """Sampled scaled wave function plus asymptotic tail descriptors.

    ``tail`` holds the exponents (q_plus, q_minus) of the dominant behavior
    e^{q x} at x -> +inf / -inf.
    """

    grid: np.ndarray
    values: np.ndarray
    tail: tuple


def default_grid(beta: float = 1.0, x_max: float | None = None,
                 n_points: int = 2049) -> np.ndarray:
    """Default symmetric uniform grid, X_max = 12/beta, 2049 points."""
    if x_max is None:
        x_max = 12.0 / beta
    return np.linspace(-x_max, x_max, n_points)


def _twins(x: np.ndarray) -> tuple:
    """The points x[i] < 0 whose image -x[i] the grid holds at the
    reversed index n-1-i, as a symmetric grid does, and the indices of
    those images (two index arrays of equal length)."""
    neg = np.flatnonzero(x < 0.0)
    image = len(x) - 1 - neg
    hit = x[image] == -x[neg]
    return neg[hit], image[hit]


def _grid_terms(x: np.ndarray, beta: float, theta: float) -> tuple:
    """The x-only work of ``raw_psi``, once per distinct |x|: (u, arg,
    mirror, summed, twinned, twin).

    A point x < 0 whose image -x the grid holds (``_twins``) takes
    t = e^{-2 beta |x| e^{i theta}} from there.  u = t/(1+t) at x >= 0 and
    1/(1+t) at x < 0; ``mirror`` marks the x < 0 where |u| is above
    SERIES_RADIUS, which then sum at u(y) = t/(1+t), y = -x.  ``arg`` is
    psi's exponent over ik, x' - ln 4/2beta, with x' = x e^{i theta}, or
    y e^{i theta} where mirrored.  ``twinned`` lists the mirrored points
    with an image, at the indices ``twin``: they take u and arg from there,
    with the same bits, and psi(k, y) too; ``summed`` marks the rest."""
    phase = cmath.exp(1j * theta)
    paired, image = _twins(x)
    own = np.ones(len(x), dtype=bool)
    own[paired] = False
    t = np.empty(len(x), dtype=complex)
    t[own] = np.exp(-2.0 * beta * np.abs(x[own]) * phase)
    t[paired] = t[image]
    pos = x >= 0.0
    u = np.where(pos, t, 1.0) / (1.0 + t)
    mirror = ~pos & (np.abs(u) > SERIES_RADIUS)
    hit = mirror[paired]
    twinned, twin = paired[hit], image[hit]
    summed = np.ones(len(x), dtype=bool)
    summed[twinned] = False
    alone = mirror & summed
    u[alone] = t[alone] / (1.0 + t[alone])
    u[twinned] = u[twin]
    arg = np.empty(len(x), dtype=complex)
    arg[summed] = np.where(alone, -x, x)[summed] * phase - LN4 / (2.0 * beta)
    arg[twinned] = arg[twin]
    return u, arg, mirror, summed, twinned, twin


def raw_psi(k, s: complex, beta: float, theta: float,
            x: np.ndarray) -> np.ndarray:
    """Scaled solution on a real-x grid, in the Poschl-Teller form

        psi(k, x) = exp(ik (x' - ln 4 / 2beta)) F(1+s, -s; 1-ik/beta; u),
        x' = x e^{i theta},   u = 1/(1 + e^{2 beta x'}),

    which k enters through c = 1-ik/beta alone.

    ``k`` is one wavenumber (result of shape (len(x),)) or a 1-D array of
    them (result (len(k), len(x)), row i at k[i]).  The series in u is
    summed in place at x >= 0, where |u| <= 1/2 for theta < pi/4 and the
    stopping series takes it, and in the band of x < 0 where
    1/2 < |u| <= SERIES_RADIUS, which ``hyp2f1_grid`` sums by Horner's
    rule to a proven degree.  Every other x = -y < 0 comes from the
    mirror identity of the even barrier,

        psi(k, -y) = R psi(k, y) + T 4^{-ik/beta} psi(-k, y),

    with (R, T) the asymptotic gamma ratios, and psi(-k, y) takes
    c = 1+ik/beta at u(y).  The band keeps the points near x = 0, where
    the two terms cancel, off the identity.  The x-only work, t = e^{-2
    beta |x| e^{i theta}}, u and psi's exponent over ik, is done once per
    distinct |x|: where the grid holds x = +y at the reversed index, as
    a symmetric grid does, the point -y takes t from there, and a
    mirrored one also u(y) and the exponent, with the same bits, and
    psi(k, y) instead of summing it again.  All rows go through one
    ``hyp2f1_grid`` call, plus one at -k for the mirrored points; the
    plane-wave factor is then formed and multiplied in for _K_BLOCK rows
    at a time, straight into the result where every point is summed (as
    on a half grid y >= 0).  A value does not depend on the block, on the
    other rows or on the other points.
    ``theta`` may be negative (used for biorthogonal partners); the formula
    is the same with x' = x e^{i theta}.

    Reach: the series terms shrink as |c| grows, so a large |k| costs
    them no digits.  At theta 0.3 on ``default_grid``, k = 100 and
    k = 150 agree with mpmath to about 1e-13 where |x| sin theta < pi/2,
    limited by the rounding of the phase k x'.  What is left is the float
    range: Gamma(ik/beta) of the mirror coefficients leaves it where
    |k/beta| is above about 226 (as at k = 300), and at the mirrored
    points psi itself, which grows like e^{|k| |x| sin theta} for a real
    k, overflows where |k| |x| sin theta is above about 709 (from k near
    200 on ``default_grid`` at theta 0.3).

    Raises
    ------
    PreconditionViolation
        If the gamma or 2F1 kernels overflow, a 2F1 series cancels to
        fewer than 8 digits, or a value is not finite (see the reach
        above).
    PoleError
        At k = 0, where the Jost pair is degenerate, if a point is
        mirrored.  At k = -i beta n (n >= 1), where c = 1-ik/beta is a
        non-positive integer, unless the series terminates first; with
        mirrored points also at k = +i beta n.
    """
    x = np.asarray(x, dtype=float)
    k = np.asarray(k, dtype=complex)
    u, arg, mirror, summed, twinned, twin = _grid_terms(x, beta, theta)
    arg_sum = arg[summed]
    # rows of up to _K_BLOCK wavenumbers; a scalar k is one block
    blocks = [...] if k.ndim == 0 else \
        [slice(i, i + _K_BLOCK) for i in range(0, len(k), _K_BLOCK)]
    kb = 1j * k / beta
    try:
        if mirror.any():
            # the gamma ratios before the series: they fail faster
            factors = _s_factors(s)
            refl, trans = np.array(
                [_mirror_coeffs(kj, s, beta, factors)
                 for kj in map(complex, k.flat)]
            ).T.reshape((2,) + k.shape + (1,))
        with np.errstate(over="ignore", invalid="ignore"):
            f = hyp2f1_grid(1.0 + s, -s, 1.0 - kb, u[summed])
            if mirror.any():
                g = hyp2f1_grid(1.0 + s, -s, 1.0 + kb, u[mirror])
            psi = np.empty(k.shape + x.shape, dtype=complex)
            every = summed.all()
            for rows in blocks:
                ik = 1j * k[rows]
                wave = np.exp(np.multiply.outer(ik, arg_sum))
                # the plane wave stays the left operand: a complex product
                # rounds differently with its operands swapped
                plus = psi[rows]
                if every:
                    np.multiply(wave, f[rows], out=plus)
                else:
                    plus[..., summed] = wave * f[rows]
                if mirror.any():
                    plus[..., twinned] = plus[..., twin]
                    minus = np.exp(np.multiply.outer(-ik, arg[mirror])) \
                        * g[rows]
                    plus[..., mirror] = refl[rows] * plus[..., mirror] \
                        + trans[rows] * minus
    except (OverflowError, PreconditionViolation) as exc:
        raise PreconditionViolation(f"raw_psi at k = {k}: {exc}") from exc
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

    On ``default_grid`` the values satisfy the scaled equation
    -(1/2) e^{-2i theta} psi'' + lam sech^2(x e^{i theta}) psi
    = (k^2/2) psi (m = hbar = beta = 1) with a five-point difference
    residual below 3e-8 max|psi|: worst 2.83e-8 (theta 0.45, lam 5,
    k 2.5 - 0.5i) at that point and 40 random ones over
    0.05 <= theta <= 0.74, 0.3 <= lam <= 5, 0.3 <= |k| <= 2.6 and
    -0.5 <= arg k <= 0.  That residual is the difference rule's
    truncation error: it falls 13-16x when the step halves (acceptance
    7).
    """
    if grid is None:
        grid = default_grid(params.beta)
    grid = np.asarray(grid, dtype=float)
    s = potential_index(params)
    values = raw_psi(k, s, params.beta, params.theta, grid)
    refl, trans = _gamma_coeffs(complex(k), s, params.beta, _s_factors(s))
    phase = cmath.exp(1j * params.theta)
    q_plus = 1j * k * phase
    if abs(trans) <= 1e-12 * (1.0 + abs(refl)):
        q_minus = -1j * k * phase
    else:
        q_minus = 1j * k * phase
    return WaveField(grid=grid, values=values, tail=(q_plus, q_minus))


def _s_factors(s: complex) -> tuple:
    """(1/Gamma(1 + s), 1/Gamma(-s)), the factors of the reflection ratio
    that do not depend on k."""
    return reciprocal_gamma(1.0 + s), reciprocal_gamma(-s)


def _gamma_coeffs(k: complex, s: complex, beta: float,
                  s_factors: tuple) -> tuple:
    """(refl, trans_like) gamma ratios at wavenumber k and index s,

        refl = Gamma(1 - ik/beta) Gamma(ik/beta) / (Gamma(1 + s) Gamma(-s)),
        trans_like = Gamma(1 - ik/beta) Gamma(-ik/beta)
                     / (Gamma(-ik/beta - s) Gamma(-ik/beta + s + 1)),

    with ``s_factors`` = ``_s_factors(s)``, taken once per s by the
    caller.  Five gamma evaluations per k; each product is formed left to
    right in the order written.
    """
    kb = 1j * k / beta
    gamma_1mkb = complex_gamma(1.0 - kb)
    refl = gamma_1mkb * complex_gamma(kb) * s_factors[0] * s_factors[1]
    trans = gamma_1mkb * complex_gamma(-kb) \
        * reciprocal_gamma(-kb - s) * reciprocal_gamma(-kb + s + 1.0)
    return refl, trans


def _amplitude(k: complex, beta: float) -> complex:
    """4^{-ik/2beta}, the common amplitude of the asymptotic plane waves."""
    return cmath.exp(-1j * k * LN4 / (2.0 * beta))


def _mirror_coeffs(k: complex, s: complex, beta: float,
                   s_factors: tuple) -> tuple:
    """(R, T 4^{-ik/beta}), so that psi(k, -y) = R psi(k, y)
    + T 4^{-ik/beta} psi(-k, y)."""
    refl, trans = _gamma_coeffs(k, s, beta, s_factors)
    return refl, trans * _amplitude(k, beta) ** 2


def siegert_residual(params: ModelParams, k: complex) -> complex:
    """Residual whose zeros in k are the purely outgoing wavenumbers: the
    transmitted-like gamma ratio of ``_gamma_coeffs``."""
    s = potential_index(params)
    return _gamma_coeffs(complex(k), s, params.beta, _s_factors(s))[1]


def find_resonance_k(params: ModelParams, k0: complex) -> complex:
    """Complex Newton iteration on the Siegert residual.

    Forward-difference derivative with step 1e-7; converges when
    |dk| < 1e-12.  Started within 1e-3 (relative) of pole n, the root's
    energy (hbar k)^2 / 2m matches the closed-form E_n to about 2e-15
    relative: worst 1.5e-15 over 400 random (lam, beta, m) at theta 0.3,
    n = 0 and 1 (acceptance 1).

    Raises
    ------
    NonConvergence
        After 100 steps without convergence.
    """
    k = complex(k0)
    for _ in range(100):
        f = siegert_residual(params, k)
        df = (siegert_residual(params, k + 1e-7) - f) / 1e-7
        if df == 0.0:
            raise NonConvergence("Siegert Newton", {"k": k, "residual": f})
        dk = f / df
        k = k - dk
        if abs(dk) < 1e-12:
            return k
    raise NonConvergence("Siegert Newton", {"k": k, "last_step": abs(dk)})


def classification_functional(params: ModelParams,
                              lam: complex | np.ndarray | None = None):
    """Re[i k_0(lam) e^{i theta}], whose sign classifies the n = 0 tail:
    ``classify_region`` labels a value below -1e-12 beta "ConvergentA",
    one above 1e-12 beta "DivergentB" and one between
    "ScatteringBoundary".

    ``lam`` is one coupling (default: that of ``params``), giving a float,
    or a 1-D numpy array of them, giving an array; the Berry loop
    evaluates all its nodes in one call.  k_0 comes from ``model._pole``,
    which takes one coupling as an array of one, and the product with
    e^{i theta} is an array product too, so an array element has the bits
    of the scalar result.  The value is proportional to beta: it is
    (beta / 2) Re[i x e^{i theta}] with x = +-(sqrt(g - 1) - i) and
    g = 8 m lam / (beta hbar)^2.  A coupling that is not finite raises
    ``PreconditionViolation`` (``model._pole``).
    """
    lam = params.lam if lam is None else lam
    f = (1j * _pole(params, lam, 0)[1] * cmath.exp(1j * params.theta)).real
    return f if np.ndim(lam) else f[0]


_LABELS = ("ConvergentA", "DivergentB", "ScatteringBoundary")


def classify_region(params: ModelParams,
                    lam: complex | np.ndarray | None = None):
    """Convergence class of the n = 0 Gamow tail at the given coupling.

    The label is text, the sign of f = Re[i k_0(lam) e^{i theta}]:
    negative -> "ConvergentA" (square-integrable pseudo-bound state),
    positive -> "DivergentB", |f| <= 1e-12 beta -> "ScatteringBoundary".
    The band scales with beta as f does, so a coupling reads the same
    label in any units.  For a 1-D numpy array of couplings the result
    is a list of those strings (shared, not a new object per coupling),
    from one ``classification_functional`` call on the array, whose
    elements have the bits of its scalar calls: each coupling gets the
    label of its scalar call.
    """
    f = classification_functional(params, lam)
    index = np.where(np.abs(f) <= 1e-12 * params.beta, 2,
                     np.where(f < 0.0, 0, 1)).tolist()
    return [_LABELS[i] for i in index] if np.ndim(f) else _LABELS[index]
