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

A basis state (``BasisState``) holds three functions of x: the state,
its biorthogonal partner and H applied to it; ``overlap_matrix`` returns
the c-product matrix S and the Hamiltonian matrix H of two lists of
states as the pair (S, H).  Labels and energies are the caller's: a bin's
energy is ``model.bin_energy`` of its nodes.

All overlap and Hamiltonian entries combine Simpson quadrature on a finite
grid, |x| <= X, with the exact tails beyond it; one ``SpatialGrid`` holds
the grid, its cut X, its half grid and the Simpson rule.  Beyond X the
resonance is c e^{q y} and every asymptotic component of a bin is the
integral over the bin of c(k) e^{zeta k y} dk, with c(k) held as its
Legendre series from the gamma-ratio samples the bin quadrature takes at
its Kronrod nodes.  Every
y-integral of a product is the Abel (Zel'dovich) value -e^{QX}/Q, which
also continues non-decaying products; in k it leaves one Cauchy integral
of c(k) e^{zeta k X} / (k - z) per point or node of the other factor.
Where z lies on the bin, the convergence factor e^{-0 y} gives the
principal value minus i pi sgn Im(zeta (k_b - k_a)) times the residue:
for Hermitian bins this is the pi delta(u) of pi delta(u) + i PV e^{iuX}/u,
u = k - k', and for a resonance whose k lies on a bin the residue of its
pole.  The degeneracy diagnostics near the branch point read the c-norm of
the L2-normalized resonance alone, its phase rigidity, which collapses as
the exceptional point is approached.  The straddling EP-ray bins are
c-orthogonal to the resonance, which ``limit_exchange_entries`` checks.
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
from .model import ModelParams, branch_point, potential_index, \
    resonance_energy
from .specfun import _SQRT_2PI
from .wavefun import _amplitude, _gamma_coeffs, _s_factors, raw_psi

_log = logging.getLogger(__name__)

# Gauss orders n of the embedded Gauss-Kronrod pairs G_n / K_{2n+1}
_GK_ORDERS = (8, 16, 32, 64)
# bin quadrature stops when a pair's two integrals agree to this, and the
# last two Legendre coefficients of every tail series fall below it
_GL_TOL = 1e-9
# least order of the tanh-sinh rule of a product of touching bins.  The far
# end of the neighbour, one bin width away, is a singularity of its Cauchy
# integral, so between equal widths the rule's error falls only like
# e^{-1.8 n}: 2e-11 at n = 16, below rounding from n = 20
_TANH_SINH_MIN = 24


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


def ep_ray(params: ModelParams) -> BinGrid:
    """EP-adapted partition: the two bins between the nodes
    k_bp + alpha' sqrt(lam - lam_bp), alpha' = -1, 0, 1, with lam the
    coupling of ``params``.

    Raises
    ------
    EmptyRange
        If the nodes coincide in floating point, as they do where lam
        rounds to lam_bp: the bins would have zero width.
    """
    lam_bp, _, k_bp = branch_point(params)
    root = cmath.sqrt(complex(params.lam) - lam_bp)
    nodes = k_bp + np.array([-1.0, 0.0, 1.0]) * root
    if np.any(nodes[1:] == nodes[:-1]):
        raise EmptyRange(f"EP-ray bins at lam = {params.lam} have zero width "
                         f"(lam - lam_bp = {complex(params.lam) - lam_bp})")
    return BinGrid(nodes=nodes.astype(complex), hermitian=False)


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


def _cauchy(term: TailTerm, coefs, z: np.ndarray, x_cut: float) -> list:
    """Integral over the segment of phi(k) / (k - z), phi = c(k) e^{rate k X},
    at each point of z, for each coefficient vector of ``coefs``.

    ``term`` gives the segment, the rate and the series length; each
    vector of ``coefs`` holds the Legendre coefficients of one c(k) of that
    length (``term.coef`` and those of the terms sharing its segment and
    rate).  Gauss-Legendre of order n = ``_n_nodes``.  Where the rule's
    error on 1/(k - z), about rho^-2n for z on the Bernstein ellipse rho,
    is above rounding, the pole is subtracted: phi(z) times
    log((kb - z)/(ka - z)) minus the rule applied to 1/(k - z) is added,
    with c(z) interpolated from the nodes (barycentric weights
    (-1)^j sqrt((1 - t_j^2) w_j)), which is exact for the series of degree
    below n.  On the segment, up to rounding, the integral is the Abel
    limit of the y-integral: the convergence factor e^{-0 y} moves the
    pole off the segment and gives PV - i pi sgn Im(rate (kb - ka)) phi(z).
    The kernel, the logarithms, the mask of subtracted points and the
    barycentric denominators are built once; each vector then takes its
    own matrix-vector products, which have the bits of a call with that
    vector alone.
    """
    t, w, vander = _rule(_n_nodes(term, x_cut))
    ka, kb = term.seg
    rate = term.rate * x_cut
    grow = np.exp(rate * 0.5 * (ka + kb + (kb - ka) * t))
    u = (2.0 * z - ka - kb) / (kb - ka)
    kern = w / (t - u[:, None])
    near = len(t) * np.log(np.abs(u + np.sqrt(u - 1.0) * np.sqrt(u + 1.0))) \
        < 18.0
    un, kn = u[near], kern[near]
    log = np.log((un - 1.0) / (un + 1.0))
    on = (np.abs(un.imag) < 1e-9) & (np.abs(un.real) < 1.0)
    log[on] = log[on].real - 1j * math.pi * np.sign((rate * (kb - ka)).imag)
    log -= kn.sum(axis=1)
    mu = (-1.0) ** np.arange(len(t)) * np.sqrt((1.0 - t * t) / w)
    den = kn @ mu
    grow_z = np.exp(rate * 0.5 * (ka + kb + (kb - ka) * un))
    out = []
    for coef in coefs:
        c = vander[:, :len(coef)] @ coef
        vals = kern @ (c * grow)
        vals[near] += (kn @ (mu * c)) / den * grow_z * log
        out.append(vals)
    return out


def _tail_products(bra: TailTerm, kets, x_cut: float) -> list:
    """Abel-regularized integrals over y in [X, inf) of the product of the
    tail term ``bra`` with each tail term of ``kets``, which share their
    rate and segment (a state's term and the same term of H applied to
    it).

    Every y-integral is -e^{QX}/Q with Q the total rate.  Two point terms
    take it directly.  A point term of rate q times a bin term of rate r
    is -e^{qX}/r times ``_cauchy`` of the bin at z = -q/r, and a bin
    times a bin integrates that over the first bin's segment: by
    Gauss-Legendre where z(k) stays clear of the second segment, and by
    tanh-sinh, which resolves the logarithms of ``_cauchy`` at the ends,
    where z(k) meets an end of it (same or touching bins), of order at
    least _TANH_SINH_MIN.  Nodes whose z is within rounding of an end of
    the second segment are dropped.  The first factor is the one without
    a segment if there is one, else ``bra``.  The rule, the nodes z and
    ``_cauchy``'s kernel are shared by the kets; each product keeps the
    bits of a call with its ket alone.
    """
    swap = kets[0].seg is None
    left, right = (kets[0], bra) if swap else (bra, kets[0])
    if right.seg is None:
        q = left.rate + right.rate
        return [-ket.coef * bra.coef * cmath.exp(q * x_cut) / q
                for ket in kets]
    # the factor with a segment gives the Cauchy integrals, the other one
    # the amplitudes: one of the two lists has one entry per ket
    lefts, rights = (kets, [bra.coef]) if swap \
        else ([bra], [ket.coef for ket in kets])
    ratio = -left.rate / right.rate
    ends = np.array(right.seg)
    if left.seg is None:
        amps, k = [np.array([term.coef]) for term in lefts], np.ones(1)
    else:
        ka, kb = left.seg
        meets = np.min(np.abs(np.subtract.outer(ratio * np.array(left.seg),
                                                ends))) < 1e-9 * abs(kb - ka)
        n = _n_nodes(left, x_cut)
        t, w, vander = _rule(max(n, _TANH_SINH_MIN) if meets else n, meets)
        k = 0.5 * (ka + kb + (kb - ka) * t)
        amps = [0.5 * (kb - ka) * w * (vander[:, :len(left.coef)] @ left.coef)]
    z = ratio * k
    keep = np.min(np.abs(z[:, None] - ends), axis=1) > 1e-14 * np.abs(z)
    grow = np.exp(left.rate * k[keep] * x_cut)
    cauchy = _cauchy(right, rights, z[keep], x_cut)
    return [-np.sum(amp[keep] * grow * cy) / right.rate
            for amp in amps for cy in cauchy]


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
    bins, eigenvalue for the resonance).  The tail terms of ``h`` have the
    rates and segments of those of ``right``, place by place, which
    ``overlap_matrix`` relies on.
    """

    right: Side
    left: Side
    h: Side


@dataclass(frozen=True, eq=False)
class SpatialGrid:
    """The overlap grid: the points ``x``, mirror-symmetric, the tail cut
    X = x[-1] (``cut``), the distinct |x| (``y``) with the index ``at``
    that gathers them back onto x, and the composite Simpson rule on x.

    ``rule`` holds the four coefficient arrays of the non-uniform
    three-point rule on consecutive pairs of intervals h0, h1:
    (h0 + h1) / 6 and the sample weights 2 - h1/h0, (h0 + h1)^2 / (h0 h1)
    and 2 - h0/h1, each computed as scipy computes it.  Built once by
    ``spatial_grid``; the arrays are read-only.
    """

    x: np.ndarray
    cut: float
    y: np.ndarray
    at: np.ndarray
    rule: tuple

    def integral(self, f: np.ndarray):
        """Simpson integral of samples ``f`` on x: the floating-point
        operations, in order, of scipy's Simpson integral of f on x (an odd
        number of points); a numpy scalar of f's type."""
        a, w0, w1, w2 = self.rule
        return np.sum(a * (f[0:-2:2] * w0 + f[1:-1:2] * w1 + f[2::2] * w2))


def spatial_grid(beta: float = 1.0, x_max: float | None = None,
                 n_points: int = 8001) -> SpatialGrid:
    """Default overlap grid: X = 40/beta, step 0.01/beta.

    The grid is exactly mirror-symmetric, ``x == -x[::-1]`` holds in
    floating point (each linspace point moves by at most 1 ulp of X), so
    its |x| take (n_points + 1) / 2 distinct values.  Both tails start at
    |x| = X, and the Simpson rule needs an odd number of points.

    Raises
    ------
    ValueError
        If n_points is even or below 3, or x_max is not positive.
    """
    if x_max is None:
        x_max = 40.0 / beta
    if n_points < 3 or n_points % 2 == 0 or not x_max > 0.0:
        raise ValueError(f"spatial grid needs an odd n_points >= 3 and "
                         f"x_max > 0, got {n_points} and {x_max}")
    x = np.linspace(-x_max, x_max, n_points)
    x = 0.5 * (x - x[::-1])
    y, at = np.unique(np.abs(x), return_inverse=True)
    h = np.diff(x)
    h0, h1 = h[0:-1:2], h[1::2]
    hsum = h0 + h1
    ratio = h0 / h1
    rule = (hsum / 6.0, 2.0 - 1.0 / ratio, hsum * (hsum / (h0 * h1)),
            2.0 - ratio)
    for a in (x, y, at) + rule:
        a.setflags(write=False)
    return SpatialGrid(x=x, cut=float(x[-1]), y=y, at=at, rule=rule)


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


@functools.cache
def _kronrod_series(n: int) -> np.ndarray:
    """Weights (2n+1, 3n/2) taking samples f_j at the nodes t_j of
    ``_kronrod_rule(n)`` to the Legendre coefficients

        a_m = (m + 1/2) sum_j w_j P_m(t_j) f_j,   m < 3n/2,

    with w the Kronrod weights.  K_{2n+1} is exact to degree 3n+1, so for
    f of degree below 3n/2 they are its Legendre series.  The length is even
    for every n in _GK_ORDERS, and it must be: ``_n_nodes`` adds an even
    number to it, and an odd Gauss rule in ``_cauchy`` has a node at the
    segment centre, where the tanh-sinh rule of a same-bin product also has
    one, so the Cauchy kernel would divide by zero.  Read-only and shared.
    """
    t, rows = _kronrod_rule(n)
    m = 3 * n // 2
    out = rows[0][:, None] * legvander(t, m - 1) * (np.arange(m) + 0.5)
    out.setflags(write=False)
    return out


def _gk_integral(fun, ka: complex, kb: complex, x_max: float):
    """Adaptive embedded Gauss-Kronrod over the straight segment [ka, kb].

    ``fun`` maps an array of k values to (samples, weights, series):
    samples (n_src, len(k), nx), per-node weights (n_out, n_src, len(k))
    and series rows (n_ser, len(k)).  It returns (integrals, coefficients):
    row o of the integrals (n_out, nx) is the integral of the sum over
    sources of weights[o, src](k) samples[src](k), and row r of the
    coefficients (n_ser, 3n/2) the Legendre series of series row r in the
    segment coordinate (``_kronrod_series``).  Each level evaluates ``fun``
    once, on the 2n+1 nodes of K_{2n+1}, and forms K, the embedded G_n and
    the series from those samples with matrix products.  It stops once
    max|K - G| <= _GL_TOL max(1, max|K|) over all rows and the last two
    coefficients of every series row are at most _GL_TOL of its largest,
    and otherwise moves to the next n in _GK_ORDERS.  The ladder starts at
    the smallest n >= |kb - ka| x_max / 2, half the radians e^{ikx} turns
    across the bin on a grid reaching |x| = x_max; a low start costs one
    level and no accuracy.  One debug record per call gives the level
    reached, the k-nodes evaluated, the last max|K - G| / scale and the
    largest ratio of a series' last two coefficients to its largest.

    Raises
    ------
    QuadratureError
        If K_{129} and G_{64} still disagree or the series have not settled.
    """
    mid = 0.5 * (ka + kb)
    half = 0.5 * (kb - ka)
    turns = 0.5 * abs(kb - ka) * x_max
    orders = [n for n in _GK_ORDERS if n >= turns] or [_GK_ORDERS[-1]]
    nodes = 0
    for n in orders:
        t, pair = _kronrod_rule(n)
        ks = mid + half * t.astype(complex)
        samples, coef, series = fun(ks)
        n_out = len(coef)
        # Kronrod rows first, then Gauss rows; sources run along the columns
        rows = (pair[:, None, None, :] * coef).reshape(2 * n_out, -1)
        integ = half * (rows @ samples.reshape(rows.shape[1], -1))
        legendre = series @ _kronrod_series(n)
        nodes += len(t)
        kron, gauss = integ[:n_out], integ[n_out:]
        scale = max(1.0, float(np.max(np.abs(kron))))
        diff = float(np.max(np.abs(kron - gauss)))
        size = np.abs(legendre)
        tail = float(np.max(np.max(size[:, -2:], axis=1) / np.max(
            size, axis=1, initial=np.finfo(float).tiny)))
        settled = diff <= _GL_TOL * scale and tail <= _GL_TOL
        if settled:
            break
    _log.debug("bin integral: K%d/G%d, %d k-nodes, |K-G|/scale %.3g, "
               "series tail %.3g%s", len(t), n, nodes, diff / scale, tail,
               "" if settled else ", failed")
    if not settled:
        raise QuadratureError(
            f"bin quadrature did not settle at K{len(t)}/G{n}")
    return kron, legendre


def _coefficients(ks: np.ndarray, s: complex, beta: float, factors: tuple,
                  jac: complex, channel: bool) -> np.ndarray:
    """Coefficients (3, len(ks)) of the plus, minus-reflected and
    minus-transmitted asymptotic components of the normalized continuum
    solution phi(k, y) at index s,

        J A (1, R, T) / div,   A = 4^{-ik/2beta},

    with J = ``jac`` and div = sqrt(2 pi) T, delta-normalized:
    phi = J psi / (sqrt(2 pi) T), mutually delta-orthonormal but singular
    where T(k) vanishes (the resonance pole approaches the contour near
    the branch point); or, with ``channel``, div = sqrt(2 pi), unit
    outgoing amplitude: bounded everywhere, with a smooth non-unit delta
    weight.  One gamma-ratio evaluation (R, T) per k, five gamma
    evaluations, with ``factors`` = ``_s_factors(s)``.
    """
    out = np.empty((3, len(ks)), dtype=complex)
    for j, k in enumerate(ks):
        refl, trans = _gamma_coeffs(complex(k), s, beta, factors)
        lead = jac * _amplitude(complex(k), beta) / _SQRT_2PI
        if not channel:
            lead /= trans
        out[:, j] = lead, lead * refl, lead * trans
    return out


def binned_state(params: ModelParams, grid: BinGrid, n: int,
                 space: SpatialGrid,
                 normalization: str = "delta") -> BasisState:
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
    on the spatial grid: the default 6-bin real-axis partition starts, and
    settles, at K33, an EP-ray bin near the branch point at K17.  Each
    level samples the Jost pair psi(k, y), psi(-k, y) on the distinct
    y = |x| of the grid only (``space.y``, half of the grid), with one
    ``raw_psi`` call per level for all its k-nodes; on real-axis grids
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
    Legendre series of its coefficient on the bin.  The ladder takes that
    series from the same coefficient samples, 3n/2 terms at K_{2n+1}, and
    does not stop before its last two terms fall below _GL_TOL of its
    largest.

    Raises
    ------
    ValueError
        For an unknown normalization.
    QuadratureError
        If the Gauss-Kronrod ladder does not settle.
    """
    if normalization not in ("delta", "channel"):
        raise ValueError(f"unknown normalization {normalization!r}")
    if not 0 <= n < grid.n_bins:
        raise IndexError(f"bin index {n} out of range")
    ka, kb = (complex(k) for k in grid.nodes[n:n + 2])
    inv_sqrt_dk = 1.0 / np.sqrt(np.complex128(kb - ka))
    theta = 0.0 if grid.hermitian else params.theta
    channel = normalization == "channel"
    s = potential_index(params)
    factors = _s_factors(s)
    jac = cmath.exp(0.5j * theta)
    # conj psi(k, s) = psi(-k, conj s), and conj s is s or -1 - s (the
    # same solution) only for real lam
    conjugate = grid.hermitian and complex(params.lam).imag == 0.0

    def sample(ks):
        # quadrature weights: rows (x >= 0, x < 0) of phi, of eps phi and of
        # the left partner, over the sources (psi(k, y), psi(-k, y)):
        # phi(k, y) = w0 psi(k, y) and phi(k, -y) = w1 psi(k, y)
        # + w2 psi(-k, y), where (w0, w1, w2) are the coefficients divided
        # by (A, A, 1/A), and A(-k) = 1/A(k).  Series rows: the
        # coefficients, eps times them (H) and, on EP-ray grids, the
        # partner's, which is the solution at -k with rates -zeta
        amp = np.array([_amplitude(k, params.beta) for k in ks])
        scale = np.array([amp, amp, 1.0 / amp])
        c = _coefficients(ks, s, params.beta, factors, jac, channel)
        w0, w1, w2 = c / scale
        zero = np.zeros_like(w0)
        e = (params.hbar * ks) ** 2 / (2.0 * params.m)
        rows = [(w0, zero), (w1, w2), (e * w0, zero), (e * w1, e * w2)]
        series = [c, e * c]
        if not grid.hermitian:
            # the solution at -k: psi(k) and psi(-k) swap roles
            c_minus = _coefficients(-ks, s, params.beta, factors, jac,
                                    channel)
            v0, v1, v2 = c_minus * scale
            rows += [(zero, v0), (v2, v1)]
            series.append(c_minus)
        # the Jost pair (psi(k, y), psi(-k, y)) from one raw_psi call; with
        # ``conjugate`` psi(-k) is the conjugate of psi(k), and only +k is
        # evaluated
        psi = raw_psi(ks if conjugate else np.concatenate([ks, -ks]), s,
                      params.beta, theta, space.y)
        if conjugate:
            pair = np.empty((2,) + psi.shape, dtype=complex)
            pair[0] = psi
            np.conjugate(psi, out=pair[1])
        else:
            pair = psi.reshape(2, len(ks), len(space.y))
        return pair, np.array(rows), np.concatenate(series)

    integ, coef = _gk_integral(sample, ka, kb, space.cut)
    # rates of the plus, minus-reflected and minus-transmitted components
    # of phi and of eps phi, then of the partner at -k
    zp = 1j * cmath.exp(1j * theta)
    rates = (zp, zp, -zp)
    zetas = rates * 2 + tuple(-r for r in rates)
    terms = [TailTerm(coef=inv_sqrt_dk * a, rate=r, seg=(ka, kb))
             for a, r in zip(coef, zetas)]

    def side(j):
        # function j gathered from its x >= 0 and x < 0 rows, its plus
        # component beyond X and its reflected and transmitted ones
        # beyond -X
        pos, neg = inv_sqrt_dk * integ[2 * j:2 * j + 2]
        return Side(np.where(space.x >= 0.0, pos[space.at], neg[space.at]),
                    (terms[3 * j],), (terms[3 * j + 1], terms[3 * j + 2]))

    right = side(0)
    return BasisState(right=right,
                      left=right.conj() if grid.hermitian else side(2),
                      h=side(1))


def resonance_state(params: ModelParams, space: SpatialGrid) -> BasisState:
    """The n = 0 resonance Gamow state as a basis state (left state =
    itself).

    Divided by the regularized conjugate L2 norm (unit probability mass),
    so that the bilinear diagonal exposes self-orthogonality;
    ``unit_diagonal_state`` rescales it to unit c-norm instead.

    Raises
    ------
    NonNormalizable
        If the resonance tail does not decay at this angle.
    """
    pole = resonance_energy(params, 0)
    q = 1j * pole.k * cmath.exp(1j * params.theta)
    if q.real >= 0.0:
        raise NonNormalizable("resonance tail does not decay at this angle")
    v = raw_psi(pole.k, potential_index(params), params.beta, params.theta,
                space.x)
    interior = float(space.integral(np.abs(v) ** 2))
    tail = (abs(v[-1]) ** 2 + abs(v[0]) ** 2) / (-2.0 * q.real)
    scale = 1.0 / math.sqrt(interior + tail)
    v = v * scale
    cp = v[-1] * cmath.exp(-q * space.cut)
    cm = v[0] * cmath.exp(-q * space.cut)
    e = pole.energy
    right = Side(v, (TailTerm(coef=cp, rate=q),), (TailTerm(coef=cm, rate=q),))
    h = Side(e * v, (TailTerm(coef=e * cp, rate=q),),
             (TailTerm(coef=e * cm, rate=q),))
    return BasisState(right=right, left=right, h=h)


# ---------------------------------------------------------------------------
# matrices

def _products(left: BasisState, kets, space: SpatialGrid) -> list:
    """c-products of a left state with each ``Side`` of ``kets``: a
    state's right side, or its right and H sides.  The kets' tail terms
    at each place share rate and segment, as a state's two sides do, so
    ``_tail_products`` takes them together."""
    bra = left.left
    tails = [0] * len(kets)
    for side_l, sides_r in ((bra.plus, [ket.plus for ket in kets]),
                            (bra.minus, [ket.minus for ket in kets])):
        for a in side_l:
            for terms in zip(*sides_r):
                for i, v in enumerate(_tail_products(a, terms, space.cut)):
                    tails[i] += v
    return [complex(space.integral(bra.values * ket.values)) + tail
            for ket, tail in zip(kets, tails)]


def product_entry(left: BasisState, right: BasisState,
                  space: SpatialGrid) -> complex:
    """c-product of a left state with a right state.

    Simpson on the grid (``SpatialGrid.integral``) plus the exact products
    (``_tail_products``) of every pair of tail terms on each side, both
    cut at |x| = X.  It has the bits of the S entry of ``overlap_matrix``.
    """
    return _products(left, (right.right,), space)[0]


def overlap_matrix(left_states, right_states, space: SpatialGrid) -> tuple:
    """The c-product matrix S and the Hamiltonian matrix H of the states,
    (S, H), rows from ``left_states`` and columns from ``right_states``,
    from one pass over the pairs: one ``_products`` call per pair takes a
    right state and H applied to it together, so the Gauss rule, nodes
    and Cauchy kernel of each pair of tail terms are built once for both.
    Entry for entry S has the bits of ``product_entry``.

    On the delta-normalized bins of a real-axis grid S is the identity and
    H is diag(eps_j) to about 1e-11: over 0.1 <= lam <= 10 and six bins
    on k in [0.2, 5] the worst entry errors are 6.6e-12 (at lam 5) and
    4.1e-11 (at lam 10; acceptance 3)."""
    shape = (len(left_states), len(right_states))
    s, h = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
    for i, ls in enumerate(left_states):
        for j, rs in enumerate(right_states):
            s[i, j], h[i, j] = _products(ls, (rs.right, rs.h), space)
    return s, h


def unit_diagonal_state(state: BasisState, space: SpatialGrid) -> BasisState:
    """Rescale a state so its bilinear self-product equals 1.

    Both sides are divided by the principal root of the diagonal entry;
    the rescale is impossible (and meaningless) for self-orthogonal
    states, where the diagonal vanishes.
    """
    d = product_entry(state, state, space)
    if abs(d) < 1e-300:
        raise NonNormalizable("state is self-orthogonal; cannot rescale")
    inv = 1.0 / np.sqrt(np.complex128(d))
    return replace(state, right=state.right.scaled(inv),
                   left=state.left.scaled(inv), h=state.h.scaled(inv))


# ---------------------------------------------------------------------------
# degeneracy diagnostics

@dataclass(frozen=True)
class DegeneracyPoint:
    """The self-orthogonality of the resonance at one offset from the
    branch point: ``sigma_min`` is its phase rigidity |(psi|psi)|, and
    ``cond`` is derived from it."""

    sigma_min: float

    @property
    def cond(self) -> float:
        """1 / sigma_min."""
        return 1.0 / self.sigma_min


def _ep_states(params: ModelParams, lam: complex, space: SpatialGrid):
    """L2-normalized resonance and unit-diagonal channel bins on the EP ray."""
    p = params.with_lam(lam)
    grid = ep_ray(p)
    res = resonance_state(p, space)
    bins = [
        unit_diagonal_state(
            binned_state(p, grid, j, space, normalization="channel"), space)
        for j in range(grid.n_bins)]
    return res, bins


def degeneracy_diagnostics(params: ModelParams, deltas):
    """Self-orthogonality of the resonance approaching the branch point.

    For each offset delta in ``deltas`` it records, at the coupling
    lam = lam_bp + delta (inside region A for a small delta > 0,
    approaching the branch point as delta falls), with lam_bp taken once
    from ``branch_point``, sigma_min = |(psi|psi)|, the c-norm of the
    L2-normalized resonance, which is its phase rigidity
    |(psi|psi)| / <psi|psi>; the point's ``cond`` is 1 / sigma_min.
    sigma_min collapses toward 0 as the eigenvector coalesces with the
    continuum.  The two stand for the smallest singular value and the
    condition number of the c-product matrix of the resonance with the
    unit-diagonal channel bins on the EP ray (``_ep_states``), which are
    c-orthogonal to it (``limit_exchange_entries``).  At
    1e-4 <= lam - lam_bp <= 1e-2 that matrix's smallest singular value is
    sigma_min to 2.2e-16 relative over 0.2 <= theta <= 0.74 (1.4e-13 at
    theta 0.05), and its largest is 1 to 7e-10 over 0.2 <= theta <= 0.6
    (3.8e-8 at theta 0.05), which bounds the relative difference of cond
    from its condition number.  The resonance lives on
    ``spatial_grid(params.beta)``.

    Raises
    ------
    EmptyRange
        If lam_bp + delta rounds to lam_bp, where the resonance sits on the
        branch point.
    NonNormalizable
        If the resonance tail does not decay at a coupling.
    """
    space = spatial_grid(params.beta)
    lam_bp = branch_point(params)[0]
    out = []
    for delta in deltas:
        lam = lam_bp + delta
        if lam == lam_bp:
            raise EmptyRange(f"lam = lam_bp + {delta} rounds to "
                             f"lam_bp = {lam_bp}")
        res = resonance_state(params.with_lam(lam), space)
        sigma_min = float(abs(product_entry(res, res, space)))
        out.append(DegeneracyPoint(sigma_min=sigma_min))
    return out


def limit_exchange_entries(params: ModelParams, deltas):
    """Both orders of the coupling limit in the resonance-bin product.

    Returns (interior_entries, limit_entries): the first list holds, for
    each offset delta in ``deltas``, at the coupling lam = lam_bp + delta,
    the largest |c-product| of the L2-normalized resonance with the
    straddling bins; these are products of c-orthogonal eigenstates at
    distinct eigenvalues, hence exactly zero up to quadrature error, and
    tend to 0 along the sequence: below 1e-10 at
    1e-6 <= lam - lam_bp <= 1e-2 over 0.2 <= theta <= 0.6 (at most 4.4e-11,
    at theta 0.2 and lam - lam_bp = 1e-2).  The second
    holds the products with the resonance replaced by the boundary
    continuum solution at k_bp (in its own continuum normalization); those
    stay far from zero.  The boundary products are finite-box (grid
    Simpson, no tail continuation): the boundary solution is not
    square-integrable and its full product with a bin carries the smeared
    delta-function divergence, so the fixed-box value is the meaningful
    one.  The states live on ``spatial_grid(params.beta)``.
    """
    space = spatial_grid(params.beta)
    lam_bp, _, k_bp = branch_point(params)
    # boundary continuum solution at the branch point
    s_bp = potential_index(params.with_lam(lam_bp))
    phi_bp = cmath.exp(0.5j * params.theta) \
        * raw_psi(k_bp, s_bp, params.beta, params.theta, space.x) / _SQRT_2PI
    interior = []
    limits = []
    for delta in deltas:
        res, bins = _ep_states(params, lam_bp + delta, space)
        interior.append(max(abs(product_entry(res, b, space)) for b in bins))
        limits.append(max(abs(complex(space.integral(phi_bp * b.right.values)))
                          for b in bins))
    return interior, limits
