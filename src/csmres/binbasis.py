"""Momentum-bin discretization of the (complex-scaled) continuum.

Delta-normalized continuum solutions are averaged over momentum bins,

    phi_hat_n(x) = (1/sqrt(dk)) * integral over [k_n, k_{n+1}] of phi(k, x) dk,

which turns them into square-integrable states falling off like 1/x.  Two
contour families are supported: a real-axis partition (the unrotated
Hermitian construction, left states by complex conjugation) and an
EP-adapted ray of nodes k_n = k_bp + alpha'_n sqrt(lam - lam_bp) (scaled
construction, left states by the analytic-conjugate biorthogonal rule,
which is the solution at -k).

The bin integrals sample only the Jost pair psi(k, y), psi(-k, y) on the
half grid y = |x|: the barrier is even, so

    psi(k, -y) = R(k) psi(k, y) + T(k) 4^{-ik/beta} psi(-k, y)

with (R, T) the gamma-ratio coefficients of the asymptotic plane waves,
and every right state, H applied to it and left partner is a weighted sum
of those samples.

All overlap and Hamiltonian entries combine Simpson quadrature on a finite
grid, |x| <= X, with the exact tails beyond it.  There the resonance is
c e^{q y} and every asymptotic component of a bin is the integral over the
bin of c(k) e^{zeta k y} dk, with c(k) held as its Legendre series from
gamma-ratio samples at _TAIL_N Gauss nodes (more for wide bins).  Every
y-integral of a product is the Abel (Zel'dovich) value -e^{QX}/Q, which
also continues non-decaying products; in k it leaves one Cauchy integral
of c(k) e^{zeta k X} / (k - z) per point or node of the other factor.
Where z lies on the bin, the convergence factor e^{-0 y} gives the
principal value minus i pi sgn Im(zeta (k_b - k_a)) times the residue:
for Hermitian bins this is the pi delta(u) of pi delta(u) + i PV e^{iuX}/u,
u = k - k', and for a resonance whose k lies on a bin the residue of its
pole.  The
degeneracy diagnostics near the branch point are built on top: the smallest
singular value of the bilinear overlap of {resonance} + {straddling bins}
collapses as the exceptional point is approached.
"""

from __future__ import annotations

import cmath
import functools
import logging
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

from .errors import EmptyRange, NonNormalizable, QuadratureError
from .model import ModelParams, branch_point, derived_quantities, \
    resonance_energy
from .wavefun import _amplitude, _gamma_coeffs, raw_psi, simpson

SQRT_2PI = math.sqrt(2.0 * math.pi)

_log = logging.getLogger(__name__)

# Gauss orders n of the embedded Gauss-Kronrod pairs G_n / K_{2n+1}
_GK_ORDERS = (8, 16, 32, 64)
# bin quadrature stops when a pair's two integrals agree to this
_GL_TOL = 1e-9
# Gauss-Legendre nodes per bin at which the tail coefficients c(k) are
# first sampled, for their Legendre series of degree _TAIL_N - 1
_TAIL_N = 24
# k-nodes per batched raw_psi call.  It bounds the series working set:
# the default `csmres overlap` run (2-core Xeon VM, one BLAS thread) took
# about 2.1, 1.7, 1.9 and 1.8 s with blocks of 4, 8, 16 and 32 nodes, at a
# peak RSS of 97, 101, 106 and 118 MB
_K_BLOCK = 8


# ---------------------------------------------------------------------------
# bin grids

@dataclass(frozen=True)
class BinGrid:
    """Ordered nodes of a momentum-bin partition along a contour."""

    nodes: np.ndarray
    hermitian: bool

    @property
    def n_bins(self) -> int:
        return len(self.nodes) - 1

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.nodes)


def real_axis(k_min: float, k_max: float, n_bins: int) -> BinGrid:
    """Uniform real-axis partition of [k_min, k_max] (Hermitian
    construction).

    Raises
    ------
    ValueError
        If k_max <= k_min.
    EmptyRange
        If n_bins <= 0.
    """
    if not k_max > k_min:
        raise ValueError("k_max must exceed k_min")
    if n_bins <= 0:
        raise EmptyRange("n_bins must be positive")
    nodes = np.linspace(k_min, k_max, n_bins + 1).astype(complex)
    return BinGrid(nodes=nodes, hermitian=True)


def ep_ray(params: ModelParams, alphas=(-1.0, 0.0, 1.0)) -> BinGrid:
    """EP-adapted partition: nodes k_bp + alpha' sqrt(lam - lam_bp), with
    lam the coupling of ``params``.

    Raises
    ------
    ValueError
        If the alphas are not strictly increasing.
    EmptyRange
        If there are fewer than two alphas.
    """
    alphas = np.asarray(alphas, dtype=float)
    if np.any(np.diff(alphas) <= 0.0):
        raise ValueError("alphas must be strictly increasing")
    if len(alphas) < 2:
        raise EmptyRange("EP contour needs at least two nodes")
    lam_bp, _, k_bp = branch_point(params)
    root = cmath.sqrt(complex(params.lam) - lam_bp)
    return BinGrid(nodes=(k_bp + alphas * root).astype(complex),
                   hermitian=False)


# ---------------------------------------------------------------------------
# tail bookkeeping

@dataclass(frozen=True)
class TailTerm:
    """One tail component beyond the cut, as a function of y = |x| >= X.

    With ``seg`` None it is coef e^{rate y}.  With ``seg = (ka, kb)`` it is
    the integral over the straight segment of c(k) e^{rate k y} dk, where
    ``coef`` holds the Legendre coefficients of c in the segment
    coordinate u = (2k - ka - kb) / (kb - ka).
    """

    coef: complex | np.ndarray
    rate: complex
    seg: tuple | None = None


@functools.cache
def _rule(n: int, tanh_sinh: bool = False):
    """Nodes t, weights and Legendre Vandermonde P_m(t), m < n, of a rule
    on [-1, 1], read-only: Gauss-Legendre of order n, or tanh-sinh,
    t = tanh(pi/2 sinh s) at 2n+1 equally spaced s in |s| <= 3.15, where
    1 - |t| reaches 1e-16."""
    if tanh_sinh:
        s = np.linspace(-3.15, 3.15, 2 * n + 1)
        arg = 0.5 * math.pi * np.sinh(s)
        t = np.tanh(arg)
        w = (3.15 / n) * 0.5 * math.pi * np.cosh(s) / np.cosh(arg) ** 2
    else:
        t, w = leggauss(n)
    out = t, w, legvander(t, n - 1)
    for a in out:
        a.setflags(write=False)
    return out


def _n_nodes(term: TailTerm, x_cut: float) -> int:
    """Quadrature order on a bin term's segment: the length of its series
    plus twice the radians e^{rate k X} turns across half the segment."""
    ka, kb = term.seg
    return len(term.coef) \
        + 2 * math.ceil(abs(0.5 * term.rate * (kb - ka) * x_cut))


def _cauchy(term: TailTerm, z: np.ndarray, x_cut: float) -> np.ndarray:
    """Integral over the segment of phi(k) / (k - z), phi = c(k) e^{rate k X},
    at each point of z.

    Gauss-Legendre of order n = ``_n_nodes``.  Where the rule's error on
    1/(k - z), about rho^-2n for z on the Bernstein ellipse rho, is above
    rounding, the pole is subtracted: phi(z) times log((kb - z)/(ka - z))
    minus the rule applied to 1/(k - z) is added, with c(z) interpolated
    from the nodes (barycentric weights (-1)^j sqrt((1 - t_j^2) w_j)),
    which is exact for the series of degree below n.
    On the segment, up to rounding, the integral is the Abel limit of the
    y-integral: the convergence factor e^{-0 y} moves the pole off the
    segment and gives PV - i pi sgn Im(rate (kb - ka)) phi(z).
    """
    t, w, vander = _rule(_n_nodes(term, x_cut))
    ka, kb = term.seg
    rate = term.rate * x_cut
    c = vander[:, :len(term.coef)] @ term.coef
    phi = c * np.exp(rate * 0.5 * (ka + kb + (kb - ka) * t))
    u = (2.0 * z - ka - kb) / (kb - ka)
    kern = w / (t - u[:, None])
    out = kern @ phi
    near = len(t) * np.log(np.abs(u + np.sqrt(u - 1.0) * np.sqrt(u + 1.0))) \
        < 18.0
    un, kn = u[near], kern[near]
    log = np.log((un - 1.0) / (un + 1.0))
    on = (np.abs(un.imag) < 1e-9) & (np.abs(un.real) < 1.0)
    log[on] = log[on].real - 1j * math.pi * np.sign((rate * (kb - ka)).imag)
    mu = (-1.0) ** np.arange(len(t)) * np.sqrt((1.0 - t * t) / w)
    phi_z = (kn @ (mu * c)) / (kn @ mu) \
        * np.exp(rate * 0.5 * (ka + kb + (kb - ka) * un))
    out[near] += phi_z * (log - kn.sum(axis=1))
    return out


def _tail_product(left: TailTerm, right: TailTerm, x_cut: float) -> complex:
    """Abel-regularized integral over y in [X, inf) of the product of two
    tail terms.

    Every y-integral is -e^{QX}/Q with Q the total rate.  Two point terms
    take it directly.  A point term of rate q times a bin term of rate r
    is -e^{qX}/r times ``_cauchy`` of the bin at z = -q/r, and a bin
    times a bin integrates that over the first bin's segment: by
    Gauss-Legendre where z(k) stays clear of the second segment, and by
    tanh-sinh, which resolves the logarithms of ``_cauchy`` at the ends,
    where z(k) meets an end of it (same or touching bins).  Nodes whose z
    is within rounding of an end of the second segment are dropped.
    """
    if right.seg is None:
        left, right = right, left
    if right.seg is None:
        q = left.rate + right.rate
        return -left.coef * right.coef * cmath.exp(q * x_cut) / q
    ratio = -left.rate / right.rate
    ends = np.array(right.seg)
    if left.seg is None:
        amp, k = np.array([left.coef]), np.ones(1)
    else:
        ka, kb = left.seg
        meets = np.min(np.abs(np.subtract.outer(ratio * np.array(left.seg),
                                                ends))) < 1e-9 * abs(kb - ka)
        t, w, vander = _rule(_n_nodes(left, x_cut), meets)
        k = 0.5 * (ka + kb + (kb - ka) * t)
        amp = 0.5 * (kb - ka) * w * (vander[:, :len(left.coef)] @ left.coef)
    z = ratio * k
    keep = np.min(np.abs(z[:, None] - ends), axis=1) > 1e-14 * np.abs(z)
    return -np.sum(amp[keep] * np.exp(left.rate * k[keep] * x_cut)
                   * _cauchy(right, z[keep], x_cut)) / right.rate


# ---------------------------------------------------------------------------
# states

@dataclass(frozen=True)
class Side:
    """One function of x: its samples on the grid and its tail terms
    beyond x = X (``plus``) and x = -X (``minus``)."""

    values: np.ndarray
    plus: tuple
    minus: tuple

    def _map(self, values, term) -> "Side":
        return Side(values, tuple(map(term, self.plus)),
                    tuple(map(term, self.minus)))

    def scaled(self, f) -> "Side":
        """The function times the number f."""
        return self._map(self.values * f,
                         lambda t: replace(t, coef=f * t.coef))

    def conj(self) -> "Side":
        """The complex-conjugate function."""
        return self._map(np.conj(self.values), lambda t: TailTerm(
            coef=np.conj(t.coef), rate=np.conj(t.rate),
            seg=None if t.seg is None else tuple(np.conj(t.seg))))


@dataclass(frozen=True)
class BasisState:
    """A square-integrable basis state.

    ``right`` is the (ket-side) function, ``left`` its biorthogonal
    partner, which enters every product without further conjugation, and
    ``h`` the Hamiltonian applied to ``right`` (exact: spectral weight for
    bins, eigenvalue for the resonance).
    """

    name: str
    energy: complex
    right: Side
    left: Side
    h: Side


def spatial_grid(beta: float = 1.0, x_max: float | None = None,
                 n_points: int = 8001) -> np.ndarray:
    """Default overlap grid: X = 40/beta, step 0.01/beta.

    The grid is exactly mirror-symmetric, ``x == -x[::-1]`` holds in
    floating point (each linspace point moves by at most 1 ulp of X), so
    its |x| take (n_points + 1) / 2 distinct values.
    """
    if x_max is None:
        x_max = 40.0 / beta
    x = np.linspace(-x_max, x_max, n_points)
    return 0.5 * (x - x[::-1])


def _cutoff(x: np.ndarray) -> float:
    """Tail cut X of a grid spanning [-X, X].

    Both tails start at |x| = X, so a grid whose ends are not mirror
    images would cut one tail short or count part of it twice.

    Raises
    ------
    ValueError
        If x[0] != -x[-1] or x[-1] <= 0.
    """
    x_cut = float(x[-1])
    if not (x_cut > 0.0 and float(x[0]) == -x_cut):
        raise ValueError(
            f"grid must span [-X, X] with X > 0, got [{x[0]}, {x[-1]}]")
    return x_cut


@functools.cache
def _kronrod_rule(n: int):
    """Gauss-Kronrod pair G_n / K_{2n+1} on [-1, 1], n even.

    Returns (t, rows): the 2n+1 Kronrod nodes in ascending order, and a
    (2, 2n+1) array whose first row holds the Kronrod weights and whose
    second the Gauss weights, zero at the n+1 Kronrod-only nodes.  K is
    exact to degree 3n+1, G to 2n-1.  The Jacobi-Kronrod matrix comes from
    Laurie's algorithm (Math. Comp. 66 (1997) 1133, as in Gautschi's
    r_kronrod) applied to the Legendre recurrence; its eigenvalues are the
    nodes and the squared first eigenvector components, times 2, the
    weights.  The odd-indexed nodes are the Gauss nodes, which are taken
    from ``leggauss`` together with their weights.  The arrays are shared
    by every caller and read-only.
    """
    size = 2 * n + 1
    a = np.zeros(size)
    b = np.zeros(size)
    j = np.arange(1, (3 * n + 1) // 2 + 1)
    b[0] = 2.0
    b[j] = j * j / (4.0 * j * j - 1.0)
    s = np.zeros(n // 2 + 2)
    t = np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    # Laurie's recurrences for the lower half of the Jacobi-Kronrod matrix,
    # with r_kronrod's names: s and t are the two latest rows of mixed
    # moments, a and b the recurrence coefficients filled in as they go
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        ll = m - k
        s[k + 1] = np.cumsum((a[k + n + 1] - a[ll]) * t[k + 1]
                             + b[k + n + 1] * s[k] - b[ll] * s[k + 1])
        s, t = t, s
    s[1:n // 2 + 2] = s[:n // 2 + 1].copy()
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        ll = m - k
        jj = n - 1 - ll
        s[jj + 1] = np.cumsum(-(a[k + n + 1] - a[ll]) * t[jj + 1]
                              - b[k + n + 1] * s[jj + 1] + b[ll] * s[jj + 2])
        last = jj[-1]
        kk = (m + 1) // 2
        if m % 2 == 0:
            a[kk + n + 1] = a[kk] + (s[last + 1] - b[kk + n + 1]
                                     * s[last + 2]) / t[last + 2]
        else:
            b[kk + n + 1] = s[last + 1] / s[last + 2]
        s, t = t, s
    a[2 * n] = a[n - 1] - b[2 * n] * s[1] / t[1]
    off = np.sqrt(b[1:])
    nodes, vecs = np.linalg.eigh(np.diag(a) + np.diag(off, 1)
                                 + np.diag(off, -1))
    weights = b[0] * vecs[0] ** 2
    # the rule is symmetric: remove the eigensolver's roundoff asymmetry
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    rows = np.zeros((2, size))
    rows[0] = weights
    nodes[1::2], rows[1, 1::2] = leggauss(n)
    nodes.setflags(write=False)
    rows.setflags(write=False)
    return nodes, rows


def _gk_integral(fun, weights, ka: complex, kb: complex, x_max: float):
    """Adaptive embedded Gauss-Kronrod over the straight segment [ka, kb].

    ``fun`` maps an array of k values to samples (n_src, len(k), nx),
    ``weights(k)`` gives per-node weights (n_out, n_src, len(k)), and row
    o of the result (n_out, nx) is the integral of the sum over sources
    of weights[o, src](k) fun[src](k).  Each level evaluates ``fun``
    once, on the 2n+1 nodes of K_{2n+1}, and forms both K and the
    embedded G_n of every row from those samples with one matrix product;
    it returns K once max|K - G| <= _GL_TOL max(1, max|K|) over all rows, and
    otherwise moves to the next n in _GK_ORDERS.  The ladder starts at the
    smallest n >= |kb - ka| x_max / 2, half the radians e^{ikx} turns across
    the bin on a grid reaching |x| = x_max; a low start costs one level and
    no accuracy.  One debug record per call gives the level reached, the
    k-nodes evaluated and the last max|K - G| / scale.

    Raises
    ------
    QuadratureError
        If K_{129} and G_{64} still disagree.
    """
    mid = 0.5 * (ka + kb)
    half = 0.5 * (kb - ka)
    turns = 0.5 * abs(kb - ka) * x_max
    orders = [n for n in _GK_ORDERS if n >= turns] or [_GK_ORDERS[-1]]
    nodes = 0
    for n in orders:
        t, pair = _kronrod_rule(n)
        ks = mid + half * t.astype(complex)
        samples = fun(ks)
        coef = weights(ks)
        n_out = len(coef)
        # Kronrod rows first, then Gauss rows; sources run along the columns
        rows = (pair[:, None, None, :] * coef).reshape(2 * n_out, -1)
        integ = half * (rows @ samples.reshape(rows.shape[1], -1))
        nodes += len(t)
        kron, gauss = integ[:n_out], integ[n_out:]
        scale = max(1.0, float(np.max(np.abs(kron))))
        diff = float(np.max(np.abs(kron - gauss)))
        settled = diff <= _GL_TOL * scale
        if settled:
            break
    _log.debug("bin integral: K%d/G%d, %d k-nodes, |K-G|/scale %.3g%s",
               len(t), n, nodes, diff / scale, "" if settled else ", failed")
    if not settled:
        raise QuadratureError(
            f"bin quadrature did not settle at K{len(t)}/G{n}")
    return kron


def bin_energy(params: ModelParams, ka: complex, kb: complex) -> complex:
    """Closed-form bin-averaged kinetic energy (cubic formula)."""
    dk = kb - ka
    return params.hbar**2 / (2.0 * params.m) * (kb**3 - ka**3) / (3.0 * dk)


class _Continuum:
    """Coefficient toolkit for normalized continuum solutions.

    ``channel=False``: delta-normalized, phi = J psi / (sqrt(2 pi) B);
    mutually delta-orthonormal but singular where B(k) vanishes (the
    resonance pole approaches the contour near the branch point).
    ``channel=True``: unit outgoing amplitude, phi = J psi / sqrt(2 pi);
    bounded everywhere, delta weight (1 + A^2 + B^2)/2 instead of 1.
    """

    def __init__(self, params: ModelParams, theta: float,
                 channel: bool = False):
        self.theta = float(theta)
        self.beta = params.beta
        self.channel = bool(channel)
        self.s = derived_quantities(params).s
        self.jac = cmath.exp(0.5j * self.theta)
        zp = 1j * cmath.exp(1j * self.theta)
        # rate factors of the plus, minus-reflected and minus-transmitted
        # asymptotic components, in the order of ``coefficients``
        self.zetas = (zp, zp, -zp)

    def coefficients(self, ks: np.ndarray) -> np.ndarray:
        """Coefficients (3, len(ks)) of the plus, minus-reflected and
        minus-transmitted asymptotic components of phi(k, y),

            J A (1, R, T) / div,   A = 4^{-ik/2beta},

        div = sqrt(2 pi) T (delta) or sqrt(2 pi) (channel), from one
        gamma-ratio evaluation (R, T) per k.
        """
        out = np.empty((3, len(ks)), dtype=complex)
        for j, k in enumerate(ks):
            refl, trans = _gamma_coeffs(complex(k), self.s, self.beta)
            lead = self.jac * _amplitude(complex(k), self.beta) / SQRT_2PI
            if not self.channel:
                lead /= trans
            out[:, j] = lead, lead * refl, lead * trans
        return out

    def jost_pair(self, ks: np.ndarray, y: np.ndarray,
                  conjugate: bool) -> np.ndarray:
        """psi(k, y) and psi(-k, y) for each k, shape (2, len(ks), len(y)).

        ``raw_psi`` evaluates up to _K_BLOCK k-values per call.  With
        ``conjugate``, which the caller may set only for real k, theta 0
        and real lam, psi(-k) is taken as the complex conjugate of
        psi(k), and only +k is evaluated.
        """
        kk = ks if conjugate else np.concatenate([ks, -ks])
        psi = np.empty((len(kk), len(y)), dtype=complex)
        for start in range(0, len(kk), _K_BLOCK):
            psi[start:start + _K_BLOCK] = raw_psi(
                kk[start:start + _K_BLOCK], self.s, self.beta, self.theta, y)
        if conjugate:
            return np.stack([psi, psi.conj()])
        return psi.reshape(2, len(ks), len(y))


def binned_state(params: ModelParams, grid: BinGrid, n: int,
                 x: np.ndarray, normalization: str = "delta") -> BasisState:
    """Construct binned state n with its biorthogonal left partner.

    Real-axis grids use the unrotated solutions with conjugated left
    states; EP-ray grids use the scaled solutions with the
    analytic-conjugate partner (conjugate all explicit i's and parameters,
    keep the theta scaling), which is the same solution at -k.

    ``normalization``: "delta" uses delta-normalized continuum solutions
    (mutual overlaps -> delta_{nn'}); these are singular wherever the
    outgoing-coefficient zero (the resonance pole) approaches the contour,
    which happens for EP-ray grids near the branch point.  "channel" uses
    unit-outgoing-amplitude solutions, bounded everywhere, at the price of
    a smooth non-unit delta weight.

    The bin integral is adaptive embedded Gauss-Kronrod in k (see
    ``_gk_integral``), started from the phase e^{ikx} turns across the bin
    on this grid: the default 6-bin real-axis partition starts, and
    settles, at K33, an EP-ray bin near the branch point at K17.  Each
    level samples the Jost pair psi(k, y), psi(-k, y) on the distinct
    y = |x| of the grid only (half of a mirror-symmetric grid), with
    ``raw_psi`` on blocks of up to _K_BLOCK k-values; on real-axis grids
    with real lam psi(-k) is the conjugate of psi(k) and costs nothing.
    The reflection identity of the even barrier puts every per-node
    scalar into the quadrature weights: the state on x >= 0 and on x < 0,
    H applied to it (weight eps(k)) and, on EP-ray grids, the left
    partner all come from the same samples and one Gauss-Kronrod ladder,
    and only the finished integrals are gathered back onto x.  On every
    returned row the Kronrod and Gauss integrals agree to _GL_TOL
    relative to max(1, max|K|).  The tails beyond X are exact: each
    asymptotic component, plain and eps-weighted, and on EP-ray grids the
    partner's from the coefficients at -k, is a ``TailTerm`` holding the
    Legendre series of its coefficient on the bin.  All come from one
    gamma-ratio sample set at _TAIL_N Gauss nodes, or 2 or 4 times as
    many where the series has not settled to _GL_TOL.

    Raises
    ------
    ValueError
        For an unknown normalization or a grid not spanning [-X, X].
    QuadratureError
        If the Gauss-Kronrod ladder or the tail series does not settle.
    """
    if normalization not in ("delta", "channel"):
        raise ValueError(f"unknown normalization {normalization!r}")
    channel = normalization == "channel"
    if not 0 <= n < grid.n_bins:
        raise IndexError(f"bin index {n} out of range")
    x_max = _cutoff(x)
    ka = complex(grid.nodes[n])
    kb = complex(grid.nodes[n + 1])
    dk = kb - ka
    inv_sqrt_dk = 1.0 / np.sqrt(np.complex128(dk))
    theta_eff = 0.0 if grid.hermitian else params.theta
    cont = _Continuum(params, theta_eff, channel=channel)
    eps = lambda k: (params.hbar * k) ** 2 / (2.0 * params.m)
    y, at = np.unique(np.abs(x), return_inverse=True)

    def weights(ks):
        # rows (x >= 0, x < 0) of phi, of eps phi and of the left partner,
        # over the sources (psi(k, y), psi(-k, y)): phi(k, y) = w0 psi(k, y)
        # and phi(k, -y) = w1 psi(k, y) + w2 psi(-k, y), where (w0, w1, w2)
        # are the coefficients divided by (A, A, 1/A), and A(-k) = 1/A(k)
        amp = np.array([_amplitude(k, params.beta) for k in ks])
        scale = np.array([amp, amp, 1.0 / amp])
        w0, w1, w2 = cont.coefficients(ks) / scale
        zero = np.zeros_like(w0)
        e = eps(ks)
        rows = [(w0, zero), (w1, w2), (e * w0, zero), (e * w1, e * w2)]
        if not grid.hermitian:
            # the solution at -k: psi(k) and psi(-k) swap roles
            v0, v1, v2 = cont.coefficients(-ks) * scale
            rows += [(zero, v0), (v2, v1)]
        return np.array(rows)

    # conj psi(k, s) = psi(-k, conj s), and conj s is s or -1 - s (the
    # same solution) only for real lam
    conjugate = grid.hermitian and complex(params.lam).imag == 0.0
    integ = inv_sqrt_dk * _gk_integral(
        lambda ks: cont.jost_pair(ks, y, conjugate), weights, ka, kb, x_max)
    nonneg = x >= 0.0

    def on_grid(pos, neg):
        return np.where(nonneg, pos[at], neg[at])

    # Legendre coefficients of the tail coefficients on the bin, from
    # samples at _TAIL_N Gauss nodes, or at 2 or 4 times as many until the
    # last two of every row fall below _GL_TOL of its largest
    for n_tail in (_TAIL_N, 2 * _TAIL_N, 4 * _TAIL_N):
        t, w, vander = _rule(n_tail)
        kt = 0.5 * (ka + kb + dk * t)
        c = cont.coefficients(kt)
        rows = [c, eps(kt) * c] if grid.hermitian \
            else [c, eps(kt) * c, cont.coefficients(-kt)]
        coef = (np.concatenate(rows) * w) @ vander * (np.arange(n_tail) + 0.5)
        if np.all(np.max(np.abs(coef[:, -2:]), axis=1)
                  <= _GL_TOL * np.max(np.abs(coef), axis=1)):
            break
    else:
        raise QuadratureError(
            f"tail coefficients did not settle at {n_tail} nodes")
    # rows: the coefficients, eps times them (H) and, on EP-ray grids, the
    # partner's, which is the solution at -k with rates -zeta
    zetas = cont.zetas * 2 + tuple(-r for r in cont.zetas)
    terms = [TailTerm(coef=inv_sqrt_dk * a, rate=r, seg=(ka, kb))
             for a, r in zip(coef, zetas)]

    def side(j):
        # function j on x >= 0 and x < 0, its plus component beyond X and
        # its reflected and transmitted ones beyond -X
        return Side(on_grid(*integ[2 * j:2 * j + 2]), (terms[3 * j],),
                    (terms[3 * j + 1], terms[3 * j + 2]))

    right = side(0)
    return BasisState(
        name=f"bin[{n}]", energy=bin_energy(params, ka, kb), right=right,
        left=right.conj() if grid.hermitian else side(2), h=side(1))


def plane_wave_bin(x: np.ndarray, ka: float, kb: float) -> np.ndarray:
    """Free-particle binned state by the direct integral.

    (1/sqrt(dk)) (e^{i kb x} - e^{i ka x}) / (i x), with the x -> 0 limit
    sqrt(dk); falls off like 1/x.
    """
    x = np.asarray(x, dtype=float)
    dk = kb - ka
    out = np.empty(x.shape, dtype=complex)
    small = np.abs(x) < 1e-12
    xs = x[~small]
    out[~small] = (np.exp(1j * kb * xs) - np.exp(1j * ka * xs)) \
        / (1j * xs) / math.sqrt(dk)
    out[small] = math.sqrt(dk)
    return out


def resonance_state(params: ModelParams, x: np.ndarray, n: int = 0,
                    normalization: str = "l2") -> BasisState:
    """Resonance Gamow state as a basis state (left state = itself).

    ``normalization``: "l2" divides by the regularized conjugate L2 norm
    (unit probability mass; the bilinear diagonal then exposes
    self-orthogonality), "cnorm" by the principal root of the bilinear
    norm.

    Raises
    ------
    ValueError
        For an unknown normalization or a grid not spanning [-X, X].
    """
    from .wavefun import eval_wavefunction, gamow_cnorm

    x_cut = _cutoff(x)
    pole = resonance_energy(params, n)
    fld = eval_wavefunction(params, pole.k, x)
    q = 1j * pole.k * cmath.exp(1j * params.theta)
    if q.real >= 0.0:
        raise NonNormalizable("resonance tail does not decay at this angle")
    v = fld.values
    if normalization == "l2":
        interior = float(simpson(np.abs(v) ** 2, x=x))
        tail = (abs(v[-1]) ** 2 + abs(v[0]) ** 2) / (-2.0 * q.real)
        scale = 1.0 / math.sqrt(interior + tail)
    elif normalization == "cnorm":
        scale = 1.0 / cmath.sqrt(gamow_cnorm(fld))
    else:
        raise ValueError(f"unknown normalization {normalization!r}")
    v = v * scale
    cp = v[-1] * cmath.exp(-q * x_cut)
    cm = v[0] * cmath.exp(-q * x_cut)
    e = pole.energy
    right = Side(v, (TailTerm(coef=cp, rate=q),), (TailTerm(coef=cm, rate=q),))
    h = Side(e * v, (TailTerm(coef=e * cp, rate=q),),
             (TailTerm(coef=e * cm, rate=q),))
    return BasisState(name=f"res[{n}]", energy=e, right=right, left=right,
                      h=h)


# ---------------------------------------------------------------------------
# matrices

@dataclass(frozen=True)
class OverlapMatrix:
    """Dense product matrix with row (left) and column (right) labels."""

    matrix: np.ndarray
    row_labels: tuple
    col_labels: tuple


def product_entry(left: BasisState, right: BasisState, x: np.ndarray,
                  apply_h: bool = False) -> complex:
    """c-product of a left state with a right state (or H right state).

    Simpson on the grid plus the exact products (``_tail_product``) of
    every pair of tail terms on each side, both cut at |x| = X.

    Raises
    ------
    ValueError
        If the grid does not span [-X, X].
    """
    bra, ket = left.left, right.h if apply_h else right.right
    x_cut = _cutoff(x)
    interior = complex(simpson(bra.values * ket.values, x=x))
    tails = sum(_tail_product(a, b, x_cut)
                for side_l, side_r in ((bra.plus, ket.plus),
                                       (bra.minus, ket.minus))
                for a in side_l for b in side_r)
    return interior + tails


def overlap_matrix(left_states, right_states, x: np.ndarray,
                   apply_h: bool = False) -> OverlapMatrix:
    """Assemble the dense matrix of c-products (or Hamiltonian products)."""
    mat = np.empty((len(left_states), len(right_states)), dtype=complex)
    for i, ls in enumerate(left_states):
        for j, rs in enumerate(right_states):
            mat[i, j] = product_entry(ls, rs, x, apply_h=apply_h)
    return OverlapMatrix(
        matrix=mat,
        row_labels=tuple(s.name for s in left_states),
        col_labels=tuple(s.name for s in right_states),
    )


def unit_diagonal_state(state: BasisState, x: np.ndarray) -> BasisState:
    """Rescale a state so its bilinear self-product equals 1.

    Both sides are divided by the principal root of the diagonal entry;
    the rescale is impossible (and meaningless) for self-orthogonal
    states, where the diagonal vanishes.
    """
    d = product_entry(state, state, x)
    if abs(d) < 1e-300:
        raise NonNormalizable("state is self-orthogonal; cannot rescale")
    inv = 1.0 / np.sqrt(np.complex128(d))
    return replace(state, right=state.right.scaled(inv),
                   left=state.left.scaled(inv), h=state.h.scaled(inv))


# ---------------------------------------------------------------------------
# degeneracy diagnostics

@dataclass(frozen=True)
class DegeneracyPoint:
    lam: complex
    sigma_min: float
    cond: float
    matrix: OverlapMatrix


def _ep_states(params: ModelParams, lam: complex, alphas, x: np.ndarray):
    """L2-normalized resonance and unit-diagonal channel bins on the EP ray."""
    p = params.with_lam(lam)
    grid = ep_ray(p, alphas)
    res = resonance_state(p, x, normalization="l2")
    bins = [
        unit_diagonal_state(
            binned_state(p, grid, j, x, normalization="channel"), x)
        for j in range(grid.n_bins)]
    return res, bins


def degeneracy_diagnostics(params: ModelParams, lam_seq,
                           alphas=(-1.0, 0.0, 1.0),
                           x: np.ndarray | None = None):
    """Overlap-matrix conditioning of {resonance} + {straddling bins}.

    For each coupling in ``lam_seq`` (inside region A, approaching the
    branch point) the bilinear overlap matrix of the L2-normalized
    resonance with the EP-adapted bins is assembled and its smallest
    singular value and condition number recorded.  sigma_min collapses
    toward 0 as the eigenvector coalesces with the continuum.
    """
    if x is None:
        x = spatial_grid(params.beta)
    out = []
    for lam in lam_seq:
        res, bins = _ep_states(params, lam, alphas, x)
        states = [res] + bins
        s_mat = overlap_matrix(states, states, x)
        svals = np.linalg.svd(s_mat.matrix, compute_uv=False)
        out.append(DegeneracyPoint(
            lam=complex(lam),
            sigma_min=float(svals[-1]),
            cond=float(svals[0] / svals[-1]),
            matrix=s_mat,
        ))
    return out


def limit_exchange_entries(params: ModelParams, lam_seq,
                           alphas=(-1.0, 0.0, 1.0),
                           x: np.ndarray | None = None):
    """Both orders of the coupling limit in the resonance-bin product.

    Returns (interior_entries, limit_entries): the first list holds, for
    each coupling in the sequence, the largest |c-product| of the
    L2-normalized resonance with the straddling bins; these are products of
    c-orthogonal eigenstates at distinct eigenvalues, hence exactly zero up
    to quadrature error, and tend to 0 along the sequence.  The second
    holds the products with the resonance replaced by the boundary
    continuum solution at k_bp (in its own continuum normalization); those
    stay far from zero.  The boundary products are finite-box (grid
    Simpson, no tail continuation): the boundary solution is not
    square-integrable and its full product with a bin carries the smeared
    delta-function divergence, so the fixed-box value is the meaningful
    one.
    """
    if x is None:
        x = spatial_grid(params.beta)
    lam_bp, _, k_bp = branch_point(params)
    # boundary continuum solution at the branch point
    s_bp = derived_quantities(params.with_lam(lam_bp)).s
    phi_bp = cmath.exp(0.5j * params.theta) \
        * raw_psi(k_bp, s_bp, params.beta, params.theta, x) / SQRT_2PI
    interior = []
    limits = []
    for lam in lam_seq:
        res, bins = _ep_states(params, lam, alphas, x)
        interior.append(max(abs(product_entry(res, b, x)) for b in bins))
        limits.append(max(abs(complex(simpson(phi_bp * b.right.values,
                                              x=x)))
                          for b in bins))
    return interior, limits
