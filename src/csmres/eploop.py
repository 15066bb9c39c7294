"""Analytic continuation around the resonance branch point.

The coupling is driven around the circle lam = lam_bp + R e^{i phi}.  Near
the branch point the discretized spectrum follows the square-root ansatz
E_pm = E_bp +- alpha sqrt(lam - lam_bp), so one 2 pi turn in lam swaps the
two energy sheets and only a 4 pi turn closes them.  The binned wave
function carries an extra half-order from the 1/sqrt(dk) normalization
(dk itself shrinks like the square root), which doubles the period again:
the transported state returns to itself only after 8 pi (branch order 4),
acquiring a factor i per 2 pi and a minus sign per 4 pi.

This module provides the Puiseux (leading square-root) fit of the bin
energy, the loop driver with its sheet continuation, region bookkeeping and
connection factors, and the per-direction asymptotic phase-factor
extraction.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchCollision, EmptyRange, PreconditionViolation, \
    StepTooCoarse
from .model import ModelParams, _bisect_zero, _csqrt, bin_energy, \
    branch_point, resonance_energy
from .wavefun import LN4, classification_functional, classify_region

# scan points per 2 pi of the boundary-crossing search
_N_SCAN = 720
# log-spaced couplings of the Puiseux fit, over this window relative to
# lam_bp
_N_FIT = 25
_FIT_WINDOW = (1e-6, 1e-4)


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
class PuiseuxFit:
    """Leading square-root fit E = E_bp + alpha sqrt(lam - lam_bp)."""

    alpha: complex
    residual: float
    exponent: float


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


def _abs(z: np.ndarray) -> np.ndarray:
    """|z| of each element, rounded as ``abs`` of a Python complex."""
    return np.hypot(z.real, z.imag)


def _continued_roots(targets) -> np.ndarray:
    """Square roots along a path, continued from the principal first root.

    Every later root is the sign of the principal root c_j nearest its
    predecessor, which keeps the path on one sheet: root j keeps the sign
    of root j-1 when |c_j - c_{j-1}| <= |c_j + c_{j-1}| and flips it
    otherwise, a running product of signs.  ``targets`` is a 1-D array; all
    principal roots come from one ``model._csqrt`` call (bit for bit
    ``cmath.sqrt``) and the distances from ``np.hypot`` on real and
    imaginary parts, which rounds as ``abs`` of a Python complex does where
    ``np.abs`` of a complex array does not, so the result has the bits of
    the root-by-root continuation.

    Raises
    ------
    BranchCollision
        If a root lies farther than 0.9 |c_j| from its predecessor: the two
        sheets are then too close to tell apart at that step.
    """
    c = _csqrt(np.asarray(targets, dtype=complex))
    near = _abs(c[1:] - c[:-1]) <= _abs(c[1:] + c[:-1])
    sign = np.cumprod(np.concatenate(([1], np.where(near, 1, -1))))
    # a zero root is taken as it is, with the signs of its zeros
    roots = np.where((sign > 0) | (c == 0.0), c, -c)
    step, size = _abs(np.diff(roots)), _abs(c[1:])
    far = np.flatnonzero((size > 0.0) & (step > 0.9 * size))
    if far.size:
        j = far[0]
        raise BranchCollision(
            f"sheet continuation ambiguous: step {step[j]:.3e} "
            f"vs sheet separation {2.0 * size[j]:.3e}")
    return roots


def _sheet_slope(params: ModelParams, k_bp: complex) -> complex:
    """alpha_e of the sheet pair E_pm = E_bp +- alpha_e sqrt(lam - lam_bp)."""
    return params.hbar**2 * k_bp / (2.0 * params.m)


def fit_puiseux(params: ModelParams) -> PuiseuxFit:
    """Fit the leading square-root behavior of the straddling-bin energy.

    Samples the bin-averaged energy of the upper straddling bin
    [k_bp, k_bp + sqrt(t)] at _N_FIT couplings lam_bp + t with t
    log-spaced over _FIT_WINDOW (relative to lam_bp), regresses
    log|E - E_bp| against log t for the exponent, and extracts alpha from
    the fixed-exponent-1/2 least squares.

    Raises
    ------
    EmptyRange
        If a bin [k_bp, k_bp + sqrt(t)] has zero width in floating point,
        as where sqrt(t) is below the spacing of floats near k_bp.
    """
    lo, hi = _FIT_WINDOW
    lam_bp, e_bp, k_bp = branch_point(params)
    ts = np.geomspace(lo * lam_bp, hi * lam_bp, _N_FIT)
    tops = [k_bp + math.sqrt(t) for t in ts]
    if k_bp in tops:
        raise EmptyRange(f"Puiseux fit bins have zero width at k_bp = {k_bp}")
    ys = np.array([bin_energy(params, k_bp, top) - e_bp for top in tops])
    logt = np.log(ts)
    logy = np.log(np.abs(ys))
    exponent, intercept = np.polyfit(logt, logy, 1)
    pred = exponent * logt + intercept
    residual = float(np.max(np.abs(np.expm1(pred - logy))))
    roots = np.sqrt(ts)
    alpha = complex(np.sum(roots * ys) / np.sum(ts))
    return PuiseuxFit(alpha=alpha, residual=residual, exponent=float(exponent))


def boundary_crossings(params: ModelParams, radius: float) -> list:
    """Angles in [0, 2 pi) where the coupling circle meets the boundary.

    Scans the sign of the region-classification functional along
    lam_bp + R e^{i phi}, at all _N_SCAN + 1 scan angles in one call on an
    array of couplings, and bisects each change to 1e-10 with scalar
    calls.  The functional is written on real and imaginary parts, so an
    array element has the bits of the scalar value at its angle, and the
    scan brackets the changes a point-by-point scan would.
    """
    lam_bp, _, _ = branch_point(params)

    def f(phi):
        return classification_functional(
            params, lam_bp + radius * cmath.exp(1j * phi))

    grid = np.linspace(0.0, 2.0 * math.pi, _N_SCAN + 1)
    negative = classification_functional(
        params, lam_bp + radius * np.exp(1j * grid)) < 0.0
    return [_bisect_zero(f, grid[i], grid[i + 1])
            for i in np.flatnonzero(negative[:-1] != negative[1:])]


def _start_phase(params: ModelParams, spec: LoopSpec) -> float:
    """``spec.start_phase``, else the crossing on the near-origin side.

    That is the boundary crossing of the loop's circle
    (``boundary_crossings``, scanned only when no start phase is given)
    where |E_0| < |E_bp|.
    """
    if spec.start_phase is not None:
        return spec.start_phase
    lam_bp, e_bp, _ = branch_point(params)
    for phi in boundary_crossings(params, spec.radius):
        lam = lam_bp + spec.radius * cmath.exp(1j * phi)
        if abs(resonance_energy(params.with_lam(lam), 0).energy) < abs(e_bp):
            return phi
    raise PreconditionViolation("no lower boundary crossing found")


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


def _times(z: complex, a: np.ndarray) -> tuple:
    """Real and imaginary parts of z * a, rounded as numpy's scalar
    complex product rounds them; its array product does not."""
    return z.real * a.real - z.imag * a.imag, z.real * a.imag + z.imag * a.real


def _exp(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """e^{re + i im} as cmath.exp computes it: math.exp of the real part
    times math.cos and math.sin of the imaginary part (numpy's exp rounds
    differently).  The readout's real parts stay near -ln 2 / 2, far from
    cmath.exp's branch for real parts above about 708."""
    n, im = len(re), im.tolist()
    mag = np.fromiter(map(math.exp, re.tolist()), float, n)
    out = np.empty(n, dtype=complex)
    out.real = mag * np.fromiter(map(math.cos, im), float, n)
    out.imag = mag * np.fromiter(map(math.sin, im), float, n)
    return out


def _readouts(zeta: complex, k_bp: complex, rs: np.ndarray,
              ws: np.ndarray) -> np.ndarray:
    """Exact asymptotic binned values across the node pairs k_bp -+ r,

        I = (e^{zeta k_up} - e^{zeta k_dn}) / (zeta w),  k_up/dn = k_bp +- r,

    with w = sqrt(dk), dk = 2 r, the branch-continued root of each step;
    the symmetric node pair makes the bracket flip sign exactly under
    phi -> phi + 2 pi.  One array pass with the bits of the node-by-node
    evaluation in Python complex and numpy scalars: the products zeta k
    and zeta w on real and imaginary parts (``_times``), the exponentials
    as cmath.exp has them (``_exp``) and the quotient by numpy's complex
    division, which rounds as its scalar division does.
    """
    bracket = _exp(*_times(zeta, k_bp + rs)) - _exp(*_times(zeta, k_bp - rs))
    scale = np.empty(len(ws), dtype=complex)
    scale.real, scale.imag = _times(zeta, ws)
    return bracket / scale


def _loop_readout(params: ModelParams, spec: LoopSpec, zeta: complex,
                  phi0: float, windings: int):
    """Walk the coupling circle from phi0 and read out the binned state.

    Returns (phis, lam, rs, read): the step angles, the couplings, the
    continued roots r = sqrt(lam - lam_bp) and the readout at each step
    (``_readouts``, all steps in one call), whose node-spacing root
    w = sqrt(2 r) is continued along with r.

    Raises
    ------
    EmptyRange
        If a readout is 0, which has no phase: the nodes k_bp -+ r give
        one exponential in floating point, as where r is below the
        spacing of floats near k_bp.
    """
    lam_bp, _, k_bp = branch_point(params)
    phis = phi0 + spec.dphi * np.arange(windings * spec.n_steps + 1)
    lam = lam_bp + spec.radius * np.exp(1j * phis)
    rs = _continued_roots(lam - lam_bp)
    ws = _continued_roots(2.0 * rs)
    read = _readouts(zeta, k_bp, rs, ws)
    if not read.all():
        raise EmptyRange(f"readout is 0 at {np.count_nonzero(read == 0)} of "
                         f"{read.size} loop nodes: k_bp -+ r round to k_bp")
    return phis, lam, rs, read


def run_berry_loop(params: ModelParams, spec: LoopSpec):
    """Drive the coupling loop and extract the geometric-factor verdicts.

    Returns (LoopTrace, verdicts).  The verdicts dict holds the per-2pi
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
        If a readout is 0 (``_loop_readout``).
    StepTooCoarse
        If the readout phase jumps by more than pi/4 between steps.
    """
    zeta = _readout_zeta(params, spec)
    _, e_bp, k_bp = branch_point(params)
    alpha_e = _sheet_slope(params, k_bp)
    phi0 = _start_phase(params, spec)
    phis, lam, rs, read = _loop_readout(params, spec, zeta, phi0,
                                        spec.windings)

    angles = np.angle(read)
    jumps = np.diff(angles)
    jumps = (jumps + math.pi) % (2.0 * math.pi) - math.pi
    if np.max(np.abs(jumps)) > math.pi / 4.0:
        raise StepTooCoarse(
            f"max readout phase jump {np.max(np.abs(jumps)):.3f} > pi/4")
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
    read = _loop_readout(params, spec, zeta, phi0, 1)[3]
    return complex(read[spec.n_steps] / read[0])
