"""Analytic continuation around the resonance branch point.

The coupling is driven around the circle lam = lam_bp + R e^{i phi}.  Near
the branch point the discretized spectrum follows the square-root ansatz
E_pm = E_bp +- alpha sqrt(lam - lam_bp), so one 2 pi turn in lam swaps the
two energy sheets and only a 4 pi turn closes them.  The binned wave
function carries an extra half-order from the 1/sqrt(dk) normalization
(dk itself shrinks like the square root), which doubles the period again:
the transported state returns to itself only after 8 pi (branch order 4),
acquiring a factor i per 2 pi and a minus sign per 4 pi.

The slope alpha is exact: the cubic bin energy of the upper straddling
bin [k_bp, k_bp + sqrt(t)] at lam = lam_bp + t is
E_bp + alpha sqrt(t) + (hbar^2 / 6m) t with no higher term, and
alpha = hbar^2 k_bp / 2m (``_sheet_slope``).

This module provides the loop driver with its region bookkeeping and
connection factors, and the per-direction asymptotic phase-factor
extraction.  The loop is a function of its angle alone: it starts where
its circle crosses the rotated-continuum boundary, found in closed form
(``boundary_crossings``), and its sheet roots are closed forms on the
circle, r = sqrt(R) e^{i phi/2} and w = sqrt(2 r), so nothing is
continued step by step.  It closes exactly: each turn revisits the
couplings and roots of the first turn bit for bit, with r negated and w
turned by a quarter, so the per-turn readout ratios are i, -1 and 1 up
to the rounding of one complex division.  Its arithmetic is numpy's, on
arrays: a loop node has the bits of the same steps taken on arrays of
one node.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyRange, PreconditionViolation
from .model import ModelParams, branch_point, branch_point_coupling
from .wavefun import LN4, classify_region

# Newton steps per boundary crossing (``boundary_crossings``)
_NEWTON_STEPS = 6


@dataclass(frozen=True)
class LoopSpec:
    """Geometry of a coupling-plane loop around the branch point.

    ``radius`` is the circle radius in the lam plane (must be small
    against lam_bp); ``n_steps`` is the number of steps per 2 pi;
    ``windings`` counts full 2 pi turns; ``start_phase`` picks the
    starting angle (None selects the boundary crossing where the lower
    sheet meets the rotated continuum, the natural Fig.-4 start);
    ``orientation`` +1/-1 sets the loop direction.  The readout bin has
    the nodes k_bp -+ sqrt(lam - lam_bp), and its phase is taken at
    x = 10/beta (``_readout_zeta``).
    """

    radius: float
    windings: int = 4
    n_steps: int = 256
    start_phase: float | None = None
    orientation: int = 1

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError("radius must be positive")
        if self.n_steps < 64:
            raise ValueError("n_steps must be at least 64")
        if self.windings < 1:
            raise ValueError("windings must be at least 1")
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")

    @property
    def dphi(self) -> float:
        """Signed angle step of the loop."""
        return self.orientation * 2.0 * math.pi / self.n_steps


@dataclass(frozen=True)
class LoopTrace:
    """Path-ordered record of one loop run.

    Arrays are indexed by step; ``accumulated`` is the running product of
    connection factors, which takes one more factor at the node just past
    each sign change of the sheet gap (see ``run_berry_loop``).
    """

    phi: np.ndarray
    lam: np.ndarray
    e_plus: np.ndarray
    e_minus: np.ndarray
    region: tuple
    readout: np.ndarray
    unwrapped_phase: np.ndarray
    accumulated: np.ndarray


def _sheet_slope(params: ModelParams, k_bp: complex) -> complex:
    """alpha_e of the sheet pair E_pm = E_bp +- alpha_e sqrt(lam - lam_bp)."""
    return params.hbar**2 * k_bp / (2.0 * params.m)


def boundary_crossings(params: ModelParams, radius: float) -> list:
    """The two angles phi in [0, 2 pi), sorted, where the circle
    lam = lam_bp + radius e^{i phi} about the exact branch point meets the
    rotated-continuum boundary Re[i k_0 e^{i theta}] = 0, in closed form.

    In g = 8 m lam / (beta hbar)^2 the circle is |g - g_bp| = R_g, with
    g_bp = 1 / sin^2 theta and R_g = (radius / lam_bp) / sin^2 theta, and
    the boundary is the line sqrt(g - 1) = c + t e^{-i theta}, c = cot
    theta, t real.  There g - g_bp = e^{-i theta} t (2 c + e^{-i theta} t),
    so t solves t^2 (t^2 + 4 c cos(theta) t + 4 c^2) = R_g^2, which has one
    root of each sign on the principal branch, t > -1 / sin(theta), for
    radius < lam_bp (at small theta it can have more negative roots below
    it), and phi = arg(g - g_bp).  With
    t = tau R_g / (2 c) and eps = R_g / (2 c^2), each root is found by
    _NEWTON_STEPS Newton steps on
    tau^2 (1 + eps cos(theta) tau + eps^2 tau^2 / 4) = 1 from tau = +-1,
    which reach it to the last bits for radius up to 0.95 lam_bp.  On the
    benchmark's berry loops the angles are within 1e-15 of the crossings
    found at 50 digits.

    Raises
    ------
    PreconditionViolation
        If radius >= lam_bp: the circle then encloses lam = 0, and the
        boundary meets it once.
    """
    theta = params.theta
    lam_bp = branch_point_coupling(theta, params.m, params.hbar, params.beta)
    if not radius < lam_bp:
        raise PreconditionViolation(
            f"loop radius {radius!r} is not below lam_bp = {lam_bp!r}")
    eps = radius / lam_bp / (2.0 * math.cos(theta) ** 2)
    a, b = eps * math.cos(theta), 0.25 * eps * eps
    rot = cmath.exp(-1j * theta)
    phis = []
    for tau in (1.0, -1.0):
        for _ in range(_NEWTON_STEPS):
            tau -= (tau * tau * (1.0 + a * tau + b * tau * tau) - 1.0) \
                / (tau * (2.0 + 3.0 * a * tau + 4.0 * b * tau * tau))
        phis.append(cmath.phase(rot * tau * (2.0 + rot * eps * tau))
                    % (2.0 * math.pi))
    return sorted(phis)


def _start_phase(params: ModelParams, spec: LoopSpec) -> float:
    """``spec.start_phase``, else the first boundary crossing.

    That crossing is the one where |E_0| < |E_bp|: on the boundary line,
    |E_0| / |E_bp| = (1 + t sin(theta))^2, so it is the root t < 0, at
    phi in (pi - theta, 3 pi / 2 - theta), and the root t > 0 lies in
    (2 pi - 2 theta, 2 pi - theta).  The crossings
    (``boundary_crossings``) are evaluated only when no start phase is
    given.
    """
    if spec.start_phase is not None:
        return spec.start_phase
    return boundary_crossings(params, spec.radius)[0]


def _readout_zeta(params: ModelParams, spec: LoopSpec,
                  direction: int = 1) -> complex:
    """Exponent zeta of the asymptotic readout at x = direction * 10/beta.

    Raises
    ------
    PreconditionViolation
        If the Taylor-regime bound |zeta alpha' sqrt(R)| < 0.1 fails, with
        alpha' = 1 the outer node coefficient of the readout bin.
    """
    beta = params.beta
    xp = direction * (10.0 / beta) * cmath.exp(1j * params.theta)
    zeta = -1j * LN4 / (2.0 * beta) + 1j * direction * xp
    bound = abs(zeta) * math.sqrt(spec.radius)
    if bound >= 0.1:
        raise PreconditionViolation(
            f"Taylor-regime bound violated: |zeta alpha' sqrt(R)| = "
            f"{bound:.3f} >= 0.1")
    return zeta


def _readouts(zeta: complex, k_bp: complex, rs: np.ndarray,
              ws: np.ndarray) -> np.ndarray:
    """Exact asymptotic binned values across the node pairs k_bp -+ r,

        I = (e^{zeta k_up} - e^{zeta k_dn}) / (zeta w),  k_up/dn = k_bp +- r,

    with w = sqrt(dk), dk = 2 r, the root on the loop's sheet
    (``_loop_readout``); the symmetric node pair makes the bracket flip
    sign exactly under phi -> phi + 2 pi.  One pass of numpy array
    operations over all the nodes, so a node has the bits of the same
    operations on arrays of one.
    """
    return (np.exp(zeta * (k_bp + rs)) - np.exp(zeta * (k_bp - rs))) \
        / (zeta * ws)


def _loop_readout(spec: LoopSpec, zeta: complex, phi0: float, windings: int,
                  branch: tuple):
    """Walk the coupling circle from phi0 and read out the binned state.

    Returns (phis, lam, rs, read): the step angles phi0 + dphi j, the
    couplings lam_bp + R e^{i phi_j}, the roots r = sqrt(lam - lam_bp)
    and the readout at each step (``_readouts``, all steps in one call),
    whose node-spacing root is w = sqrt(2 r).  ``branch`` is
    ``branch_point`` of the loop's parameters.

    The roots are closed forms on the circle, not roots of the rounded
    couplings: r = sqrt(R) e^{i psi_j / 2} and
    w = sqrt(2 sqrt(R)) e^{i psi_j / 4}, psi_j = phi0' + dphi j with
    phi0' = remainder(phi0, 2 pi), so node 0 takes the principal roots.
    The couplings and roots are computed for one turn, j < n_steps, and
    node j + t n_steps takes the bits of node j, with r times (-1)^t and
    w times (i orientation)^t, both exact.  So the loop closes exactly,
    E_+ and E_- swap bit for bit each turn, and the readout's
    cancellation at small |zeta r| is the same at nodes a turn apart and
    drops out of the per-turn ratios.

    Raises
    ------
    EmptyRange
        If lam_bp + R rounds to lam_bp, where the loop's circle has no
        extent in floating point.  If a readout is 0, which has no phase:
        the nodes k_bp -+ r give one exponential in floating point, as
        where r is below the spacing of floats near k_bp.
    """
    lam_bp, _, k_bp = branch
    if lam_bp + spec.radius == lam_bp:
        raise EmptyRange(f"loop radius {spec.radius!r} rounds away at "
                         f"lam_bp = {lam_bp!r}")
    n = spec.n_steps
    nodes = np.arange(windings * n + 1)
    phis = phi0 + spec.dphi * nodes
    lam = (lam_bp + spec.radius * np.exp(1j * phis[:n]))[nodes % n]
    psi = math.remainder(phi0, 2.0 * math.pi) + spec.dphi * nodes[:n]
    r = math.sqrt(spec.radius) * np.exp(0.5j * psi)
    w = math.sqrt(2.0 * math.sqrt(spec.radius)) * np.exp(0.25j * psi)
    quarter = 1j * spec.orientation
    rs = np.concatenate((r, -r))[nodes % (2 * n)]
    ws = np.concatenate((w, quarter * w, -w, -quarter * w))[nodes % (4 * n)]
    read = _readouts(zeta, k_bp, rs, ws)
    if not read.all():
        raise EmptyRange(f"readout is 0 at {np.count_nonzero(read == 0)} of "
                         f"{read.size} loop nodes: k_bp -+ r round to k_bp")
    return phis, lam, rs, read


def run_berry_loop(params: ModelParams, spec: LoopSpec,
                   branch: tuple | None = None):
    """Drive the coupling loop and extract the geometric-factor verdicts.

    ``branch`` is ``branch_point(params)``, evaluated here if not given:
    a caller that has it saves a pole evaluation.  Returns (LoopTrace,
    verdicts).  The verdicts dict holds the per-2pi
    ratios of the transported asymptotic readout, the 4 pi and 8 pi
    overlaps, the monodromy order (smallest number of turns returning the
    state, None if not reached) and the consistency between the readout
    ratios and the accumulated connection factors.

    The connection factors are read at the step nodes: the tracked sheet
    E_bp + alpha_e r meets the rotated continuum ray where
    Im(E e^{2 i theta}) changes sign, and the accumulated factor is
    multiplied by i (-i for orientation -1) at the node past each change.
    The crossing itself is not located between the nodes.

    Raises
    ------
    PreconditionViolation
        If the Taylor-regime bound |zeta alpha' sqrt(R)| < 0.1 fails.
    EmptyRange
        If the loop's radius rounds away at lam_bp, or a readout is 0
        (``_loop_readout``).
    """
    zeta = _readout_zeta(params, spec)
    branch = branch_point(params) if branch is None else branch
    _, e_bp, k_bp = branch
    alpha_e = _sheet_slope(params, k_bp)
    phi0 = _start_phase(params, spec)
    phis, lam, rs, read = _loop_readout(spec, zeta, phi0, spec.windings,
                                        branch)

    # the readout phase moves by |dphi| / 4 + O(|zeta r|^2) <= pi / 128 +
    # 0.004 per step, well inside the +-pi of the wrapped differences
    angles = np.angle(read)
    jumps = (np.diff(angles) + math.pi) % (2.0 * math.pi) - math.pi
    unwrapped = np.concatenate(([angles[0]], angles[0] + np.cumsum(jumps)))

    # connection factors: the tracked sheet meets the rotated continuum ray
    # where Im(E e^{2 i theta}) changes sign between two step nodes
    gap = ((e_bp + alpha_e * rs) * cmath.exp(2j * params.theta)).imag
    change = (gap[:-1] < 0.0) != (gap[1:] < 0.0)
    # one product per change, not a power: berry.csv prints the signed
    # zeros, and 1j * 1j * 1j * 1j is (1 - 0j) where 1j ** 4 is (1 + 0j)
    factors = [1.0 + 0.0j]
    for _ in range(np.count_nonzero(change)):
        factors.append(factors[-1] * (1j if spec.orientation > 0 else -1j))
    accumulated = np.array(factors)[np.concatenate(([0], np.cumsum(change)))]

    trace = LoopTrace(
        phi=phis, lam=lam,
        e_plus=e_bp + alpha_e * rs, e_minus=e_bp - alpha_e * rs,
        region=tuple(classify_region(params, lam)), readout=read,
        unwrapped_phase=unwrapped, accumulated=accumulated)

    ratios = {wnd: complex(read[wnd * spec.n_steps] / read[0])
              for wnd in range(1, spec.windings + 1)}
    monodromy = next((wnd for wnd, r in ratios.items()
                      if abs(r - 1.0) < 1e-3), None)
    consistency = max(
        abs(ratios[wnd] - accumulated[wnd * spec.n_steps])
        for wnd in range(1, spec.windings + 1))
    verdicts = {
        "ratio_2pi": ratios.get(1),
        "overlap_4pi": ratios.get(2),
        "overlap_8pi": ratios.get(4),
        "monodromy_order": monodromy,
        "connection_consistency": float(consistency),
    }
    return trace, verdicts


def case_asymptotic_phase(direction: int, params: ModelParams,
                          spec: LoopSpec) -> complex:
    """Per-2pi factor of the asymptotic binned state in one direction.

    ``direction`` +1 reads the outgoing form e^{ikx'} at x -> +inf, -1
    the outgoing form e^{-ikx'} at x -> -inf (the reflected-side term,
    with the transmitted-like one negligible near the Siegert condition).
    Both must give the same factor i per positive 2 pi turn.  The loop is
    one turn of ``spec`` whatever its ``windings``.
    """
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    zeta = _readout_zeta(params, spec, direction)
    phi0 = _start_phase(params, spec)
    read = _loop_readout(spec, zeta, phi0, 1, branch_point(params))[3]
    return complex(read[spec.n_steps] / read[0])
