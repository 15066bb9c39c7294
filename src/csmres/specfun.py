"""Complex special functions: gamma and the Gauss hypergeometric 2F1.

Everything downstream (wave functions, asymptotic coefficients, momentum-bin
quadratures) reduces to these two kernels evaluated at complex parameters and
complex argument, so they are implemented here from scratch at double
precision.

A non-terminating 2F1 is summed by its defining power series in ``u``,
sum_n C_n u^n with C_n = (a)_n (b)_n / ((c)_n n!), accepted where
|u| <= SERIES_RADIUS (0.8) and refused with ``PreconditionViolation`` at
every other point.  It is summed two ways:

* at |u| <= 1/2 by the stopping series (``_series_sum``): each (row,
  point) pair adds terms until two in a row are below _EPS times its
  partial sum;
* in the band 1/2 < |u| <= SERIES_RADIUS by Horner's rule (``_horner``)
  to a degree N proven in advance at the point's own r = |u|: the tail
  bound |C_{N+1}| r^{N+1} / (1 - rho_N) <= _EPS |sum|, with
  rho_N = SERIES_RADIUS sup_{n>=N} |(a+n)(b+n)/((c+n)(n+1))| (after
  Pearson, Olver & Porter, Numer. Algorithms 74 (2017) 821).

The same bound at |u| = 1/2 gives each row's cap: the degree past which
every term is below _EPS times the smallest sum the cancellation verdict
accepts; a stopping pair still running there raises ``NonConvergence``.
A 2F1 that terminates, in a and b or, through Euler's transformation, in
c-a and c-b, is a polynomial (times (1-u)^{c-a-b}) at any u, summed by
the same Horner's rule to its degree.  The wave functions of ``wavefun``
take the Poschl-Teller form F(1+s, -s; 1-ik/beta; u), whose series
converges at every point they sum: |u| <= 1/2 at x >= 0 for
theta < pi/4, |u| <= SERIES_RADIUS in the band of x < 0 next to 0, and
the rest of x < 0 comes from the mirror identity of the even barrier,
which evaluates it at x >= 0 instead.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

from .errors import NonConvergence, PoleError, PreconditionViolation

# Lanczos parameters (g = 607/128, 15 coefficients).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_COEFFS = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
# sqrt(2 pi), of the Lanczos form and of the plane-wave normalization
_SQRT_2PI = 2.5066282746310002

# series terms per block of term ratios computed at once
_RATIO_ROWS = 64
_EPS = 2.0e-16
# largest |u| at which a non-terminating 2F1 is summed
SERIES_RADIUS = 0.8
# largest ratio of a series term to the sum: 1e8 leaves 8 digits
_MAX_CANCELLATION = 1.0e8
# tail bound that proves a degree for every sum the cancellation verdict
# accepts: such a sum is at least 1 / _MAX_CANCELLATION, as the first
# term is 1, and the 2 leaves room for the partial sums
_CAP_TARGET = _EPS / (2.0 * _MAX_CANCELLATION)
_LOG_MAX = math.log(np.finfo(float).max)
# each round of the band's sums brings the tail bound _ROUND times lower,
# from _EPS / _ROUND, until it is below _EPS |sum|
_ROUND = 8.0
# parameter rows per ``_series_sum`` call.  It bounds the series working
# set: on the benchmark's overlap workload (2-core Xeon VM, one BLAS
# thread, 4 alternating runs) blocks of 17 took 5-9% more time than blocks
# of 8, at 2.4 MB more peak RSS
_K_BLOCK = 8


def _nonpositive_int(z: complex, tol: float = 1.0e-12) -> int | None:
    """Return n if z is within tol of a non-positive integer n, else None;
    z is finite."""
    n = round(z.real)
    if n <= 0 and abs(z - n) < tol:
        return n
    return None


def _finite(fun: str, z) -> complex:
    """z as a complex number; a z that is not finite raises
    ``PreconditionViolation`` naming it."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise PreconditionViolation(f"{fun} argument z = {z} is not finite")
    return z


def _sin_pi(z: complex) -> complex:
    """sin(pi z), reduced by the nearest integer n of Re z first:
    (-1)^n sin(pi (z - n)), where z - n is exact, so the product with pi
    rounds no digits of the distance to a pole away."""
    n = round(z.real)
    sine = cmath.sin(cmath.pi * (z - n))
    return -sine if n % 2 else sine


def complex_gamma(z) -> complex:
    """Gamma function for complex argument (Lanczos approximation).

    Relative error below 1e-12 for |z| <= 50 at distance >= 0.01 from the
    poles.  Uses the reflection formula for Re z < 1/2, with sin(pi z)
    reduced by the nearest integer (``_sin_pi``), so nearer a pole the
    error stays at that level: 1e-13 or less at z = -3 + 1e-10, -2.999
    and -48.99.

    Raises
    ------
    PoleError
        If z is a non-positive integer.
    PreconditionViolation
        If z is not finite, or Gamma(z) or a factor of it leaves the float
        range (Re z above 171, or |Im z| large, as at 0.3 - 300i).
    """
    z = _finite("complex_gamma", z)
    pole = _nonpositive_int(z)
    if pole is not None:
        raise PoleError(pole, z)
    # the Lanczos sum at z, or at 1 - z for the reflection
    zz = (z if z.real >= 0.5 else 1.0 - z) - 1.0
    acc = _LANCZOS_COEFFS[0]
    for i in range(1, len(_LANCZOS_COEFFS)):
        acc += _LANCZOS_COEFFS[i] / (zz + i)
    t = zz + _LANCZOS_G + 0.5
    try:
        gamma = _SQRT_2PI * t ** (zz + 0.5) * cmath.exp(-t) * acc
        if z.real < 0.5:
            # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z)
            gamma = cmath.pi / (_sin_pi(z) * gamma)
        # an overflowing factor times one that underflowed gives nan
        if cmath.isfinite(gamma):
            return gamma
    except (OverflowError, ZeroDivisionError):
        pass
    raise PreconditionViolation(f"gamma leaves the float range at z = {z}")


def reciprocal_gamma(z) -> complex:
    """1/Gamma(z); entire, returns exactly 0 at the poles of Gamma.

    Raises
    ------
    PreconditionViolation
        If z is not finite, or 1/Gamma(z) or a factor of it leaves the
        float range (as at 1 + 500i, where Gamma(z) underflows to 0).
    """
    z = _finite("reciprocal_gamma", z)
    pole = _nonpositive_int(z)
    if pole is not None:
        return 0.0 + 0.0j
    try:
        # 1/Gamma(z) = sin(pi z) Gamma(1-z) / pi for Re z < 1/2
        rgamma = _sin_pi(z) * complex_gamma(1.0 - z) / cmath.pi \
            if z.real < 0.5 else 1.0 / complex_gamma(z)
        if cmath.isfinite(rgamma):
            return rgamma
    except (OverflowError, ZeroDivisionError, PreconditionViolation):
        pass
    raise PreconditionViolation(f"1/gamma leaves the float range at z = {z}")


def _pair(a, b, c, xs, i: int) -> dict:
    """a, b, c and x of pair i of the point-major layout of ``_series_sum``."""
    r = i % len(a)
    return {"a": complex(a[r]), "b": complex(b[r]), "c": complex(c[r]),
            "x": complex(xs[i])}


def _row_terms(a: complex, b: complex, c: complex, length: int) -> tuple:
    """The term ratios (a+n)(b+n)/((c+n)(n+1)) of one row for n < length;
    log|C_n| of its coefficients C_n = (a)_n (b)_n / ((c)_n n!) for
    n <= length; and q, q[N] >= sup_{n >= N} |ratio_n|.  q[N] is the
    largest computed |ratio_n| from N on, or, if larger, the majorant
    (1 + |a|/L)(1 + |b|/L) / (1 + min(Re c, 0)/L) of every ratio from
    L = length on (|a+n| <= n + |a|, |c+n| >= n + Re c, and the majorant
    falls with L); inf where L + min(Re c, 0) <= 0."""
    n = np.arange(length, dtype=float)
    ratios = (a + n) * (b + n) / ((c + n) * (n + 1.0))
    size = np.abs(ratios)
    low = length + min(c.real, 0.0)
    later = (1.0 + abs(a) / length) * (1.0 + abs(b) / length) \
        * (length / low) if low > 0.0 else np.inf
    q = np.maximum(np.maximum.accumulate(size[::-1])[::-1], later)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_c = np.concatenate(([0.0], np.cumsum(np.log(size))))
    return ratios, log_c, q


def _tail_factor(log_c: np.ndarray, q: np.ndarray,
                 radius: float) -> np.ndarray:
    """log of |C_{N+1}| / (1 - radius q[N]) for N < len(q), inf where
    radius q[N] >= 1.  At |x| = r <= radius the terms past degree N sum to
    at most |C_{N+1}| r^{N+1} sum_j (r q[N])^j, so to at most this factor
    times r^{N+1}: the tail bound of degree N."""
    rq = radius * q
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = log_c[1:] - np.log1p(-rq)
    return np.where(rq < 1.0, logs, np.inf)


def _degree(factor: np.ndarray, r: np.ndarray, log_target: float) -> tuple:
    """Per radius r (each at most the factor's radius): the smallest
    degree N < len(factor) whose tail bound, factor[N] + (N+1) log r, is
    at most ``log_target``, or len(factor) where none is; and the bound
    there (inf where none is).  The bound of degree N holds where
    log r <= (log_target - factor[N]) / (N+1); the running maximum of
    those limits rises with N, and the degree is the first N where it
    reaches log r."""
    n1 = np.arange(1.0, len(factor) + 1.0)
    reach = np.fmax.accumulate((log_target - factor) / n1)
    with np.errstate(divide="ignore"):
        lr = np.log(r)
    degree = np.searchsorted(reach, lr)
    found = degree < len(factor)
    bound = np.full(len(r), np.inf)
    bound[found] = factor[degree[found]] + (degree[found] + 1.0) * lr[found]
    return degree, bound


def _cap(a: complex, b: complex, c: complex, length: int) -> float:
    """The cap of the stopping series of one row: the smallest degree N
    < length whose tail bound at |x| = 1/2 is at most _CAP_TARGET, or inf
    if none is."""
    _, log_c, q = _row_terms(a, b, c, length)
    degree = _degree(_tail_factor(log_c, q, 0.5), np.array([0.5]),
                     math.log(_CAP_TARGET))[0][0]
    return float(degree) if degree < length else math.inf


def _horner(coef: np.ndarray, x: np.ndarray, degree) -> np.ndarray:
    """sum_{n <= degree} coef[n] x^n at each point of x, by Horner's rule
    from the point's own degree (one int, or one per point) down to 0.

    The points run by decreasing degree, so those still summing are a
    prefix; a point joins at its degree with acc = coef[degree].  A value
    thus depends on coef, its x and its degree alone."""
    if np.ndim(degree):
        order = np.argsort(-degree, kind="stable")
        xs, top = x[order], degree[order]
        # count[n]: the points of degree at least n
        count = np.searchsorted(-top, -np.arange(top[0] + 1),
                                side="right").tolist()
    else:
        order, xs, top = None, x, [degree]
        count = [len(x)] * (degree + 1)
    acc = np.empty_like(xs)
    prod = np.empty_like(xs)
    # coef[n] as an array of one, which numpy adds faster than a scalar
    coef = np.asarray(coef)[:, None]
    end = 0
    for n in range(top[0], -1, -1):
        if end:
            # the product goes to its own buffer: an in-place complex
            # product rounds differently (see ``_series_sum``)
            np.multiply(run, arg, out=step)
            np.add(step, coef[n], out=run)
        if count[n] > end:
            acc[end:count[n]] = coef[n]
            end = count[n]
            run, step, arg = acc[:end], prod[:end], xs[:end]
    if order is None:
        return acc
    out = np.empty_like(acc)
    out[order] = acc
    return out


def _series_sum(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                x: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Power series sum_{n} (a)_n (b)_n / ((c)_n n!) x^n per row and point.

    ``a``, ``b``, ``c`` are parameter vectors of length nk, and ``x`` holds
    m points by decreasing |x|, |x| <= 1/2, which sit at the positions
    ``at`` of the caller's points; the result is (nk, m), in the order of
    ``x``.  Each (row, point) pair stops on its own, after two consecutive
    terms at most _EPS times its partial sum, so a value does not depend
    on which other rows or points share the call.  Each pair also keeps
    the largest |term| it has added, which the cancellation verdict below
    compares with its sum.

    The pairs are laid out point-major in one array.  A pair at a larger
    |x| runs longer, so the running pairs gather at the front, and each
    term is computed on views of the prefix up to the last running pair.
    A pair that stops inside that prefix has its argument set to 0: its
    later terms are exactly 0, so its sum and peak keep their bits.  The
    verdict is taken in that layout; ``at`` is read only to name a
    failing pair.

    The cap of a row is the degree N where the tail bound at |x| = 1/2
    (``_tail_factor``) falls to _CAP_TARGET: each term past N is below
    _EPS / 2e8, so a pair whose sum the verdict could accept, at least
    1e-8 as its first term is 1, has stopped by term N + 2.  It is sought
    over 128 ratios once a pair has run 64 terms, and over twice as many
    at each doubling of the terms while none is found.

    Raises
    ------
    PreconditionViolation
        If a pair added a term larger than _MAX_CANCELLATION times its sum:
        there the terms cancel to fewer than 8 significant digits, as for
        |a| near 50 at x = 1/2.  The message names the first such pair in
        the order of the rows and of ``at``.  Also at the first term that
        is not finite, as for |Im a| near 1000; the message names its pair.
    NonConvergence
        If a pair still runs past the cap of its row; the message names it.
    """
    nk, m = len(a), len(x)
    # pair (point i, row r) at i * nk + r
    xs = np.repeat(x, nk)
    part = np.ones(nk * m, dtype=complex)
    # the first term is 1, so no peak is below 1
    peak = np.ones(nk * m)
    term = np.ones(nk * m, dtype=complex)
    factor = np.empty((m, nk), dtype=complex)
    was_quiet = np.zeros(nk * m, dtype=bool)
    cap = np.full(nk, math.inf)
    # the lowest cap found, as a float for the test of each term
    low = math.inf
    end = nk * m
    # a term that overflows is not finite, and the loop stops at it
    with np.errstate(over="ignore", invalid="ignore"):
        for n in itertools.count():
            if not n % _RATIO_ROWS:
                # the term ratios of the next _RATIO_ROWS terms; each row
                # has the bits of (a + n) * (b + n) / ((c + n) * (n + 1.0))
                # evaluated for its n alone
                ns = np.arange(n, n + _RATIO_ROWS, dtype=float)[:, None]
                ratios = (a + ns) * (b + ns) / ((c + ns) * (ns + 1.0))
                # n = 64, 128, 256, ...: the caps not yet found
                if n and not n & (n - 1):
                    for r in np.flatnonzero(cap == math.inf):
                        cap[r] = _cap(complex(a[r]), complex(b[r]),
                                      complex(c[r]), 2 * n)
                    low = float(cap.min())
            factor[:-(-end // nk)] = ratios[n % _RATIO_ROWS]
            # the right operand of a complex product is never a temporary:
            # numpy may evaluate x * temp as temp * x for large arrays, and
            # a complex product rounds differently with its operands
            # swapped.  ``term *= factor`` also broke the match with
            # one-point calls; sums round the same in any form.
            term = term[:end] * factor.reshape(-1)[:end] * xs[:end]
            size = np.abs(term)
            if not size.max() < np.inf:
                i = np.flatnonzero(~np.isfinite(size))[0]
                raise PreconditionViolation(
                    f"2F1 series term {n + 1} is not finite at "
                    + ", ".join(f"{k} = {v}"
                                for k, v in _pair(a, b, c, xs, i).items()))
            part[:end] += term
            np.maximum(peak[:end], size, out=peak[:end])
            quiet = size <= _EPS * np.abs(part[:end])
            done = quiet & was_quiet[:end]
            was_quiet = quiet
            # the last running pair: the last False of ``done``, found in
            # its bytes, which is far faster than an argmin from the end
            last = done.tobytes().rfind(b"\x00")
            if last < 0:
                break
            if n > low:
                # term n + 1 is past the cap of a row
                past = ~done & (n > cap)[np.arange(end) % nk]
                if past.any():
                    raise NonConvergence(
                        "2F1 power series",
                        _pair(a, b, c, xs, np.flatnonzero(past)[0])
                        | {"terms": n + 1})
            xs[:end][done] = 0.0
            end = last + 1
    bad = peak > _MAX_CANCELLATION * np.abs(part)
    if bad.any():
        point, r = np.nonzero(bad.reshape(m, nk))
        first = np.lexsort((at[point], r))[0]
        raise PreconditionViolation(
            _cancel_message(a[r[first]], b[r[first]], c[r[first]],
                            x[point[first]]))
    return part.reshape(m, nk).T.copy()


def _cancel_message(a, b, c, x) -> str:
    return (f"2F1 series terms cancel to fewer than 8 digits at "
            f"a = {complex(a)}, b = {complex(b)}, c = {complex(c)}, "
            f"x = {complex(x)}")


def _band_row(a: complex, b: complex, c: complex, x: np.ndarray,
              at: np.ndarray) -> np.ndarray:
    """One non-terminating 2F1 row at the band points x, by decreasing |x|
    with 1/2 < |x| <= SERIES_RADIUS, which sit at the positions ``at`` of
    the caller's points.

    Each point is summed by ``_horner`` to a degree N proven by the tail
    bound at its own r = |x|,
    |C_{N+1}| r^{N+1} / (1 - SERIES_RADIUS q[N]) <= _EPS |sum|
    (``_tail_factor``).  The bound is taken over L ratios, L the first of
    256, 512, ... at which the bound at SERIES_RADIUS reaches _CAP_TARGET,
    so L depends on the row alone.  In round j = 1, 2, ... a point not yet
    proven is summed to the degree that brings its bound to
    _EPS / _ROUND^j, which depends on r alone; the first round proves
    every sum of at least 1 / _ROUND.  A value thus depends on the row and
    its point alone.

    Raises
    ------
    PreconditionViolation
        As ``_series_sum``: if a term |C_n| r^n at the largest r, or a
        point's Horner sum, is not finite; if a point's largest term
        |C_n| r^n up to its degree is above _MAX_CANCELLATION times its
        sum, or no round proves its sum (a sum below
        1 / _MAX_CANCELLATION).  The message names the first such point in
        the order of ``at``.
    """
    r = np.abs(x)
    # the bound at SERIES_RADIUS reaches _CAP_TARGET near degree 250 for
    # parameters of a few units
    length = 4 * _RATIO_ROWS
    while True:
        ratios, log_c, q = _row_terms(a, b, c, length)
        # terms at the largest r, which bound those at every other point
        over = ~(log_c + np.arange(length + 1) * math.log(r[0]) <= _LOG_MAX)
        if over.any():
            raise PreconditionViolation(
                f"2F1 series term {int(over.argmax())} is not finite at "
                f"a = {a}, b = {b}, c = {c}, x = {complex(x[0])}")
        factor = _tail_factor(log_c, q, SERIES_RADIUS)
        if _degree(factor, np.array([SERIES_RADIUS]),
                   math.log(_CAP_TARGET))[0][0] < length:
            break
        length *= 2
    degree = np.empty(len(x), dtype=int)
    total = np.empty(len(x), dtype=complex)
    todo = np.arange(len(x))
    target = _EPS
    # a coefficient C_n may leave the float range where C_n r^n does not,
    # and then the sum is not finite
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        coef = np.concatenate(([1.0 + 0.0j], np.cumprod(ratios)))
        while todo.size:
            # every bound at r <= SERIES_RADIUS reaches _CAP_TARGET below L
            target /= _ROUND
            if target < _CAP_TARGET:
                # a sum below 1 / _MAX_CANCELLATION, which the verdict
                # refuses: the first such point in the caller's order
                j = todo[np.argmin(at[todo])]
                raise PreconditionViolation(_cancel_message(a, b, c, x[j]))
            degree[todo], tail = _degree(factor, r[todo], math.log(target))
            total[todo] = _horner(coef, x[todo], degree[todo])
            lost = todo[~np.isfinite(total[todo])]
            if lost.size:
                j = lost[np.argmin(at[lost])]
                raise PreconditionViolation(
                    f"2F1 series sum is not finite at a = {a}, b = {b}, "
                    f"c = {c}, x = {complex(x[j])}")
            todo = todo[~(tail <= np.log(_EPS * np.abs(total[todo])))]
        # the largest term up to each point's degree; the terms at the
        # largest r bound it for all points
        top = degree.max()
        n = np.arange(top + 1)
        limit = math.log(_MAX_CANCELLATION) + np.log(np.abs(total))
        bad = np.zeros(len(x), dtype=bool)
        if not (log_c[:top + 1] + n * math.log(r[0])).max() <= limit.min():
            terms = log_c[:top + 1] + n * np.log(r)[:, None]
            terms[n > degree[:, None]] = -np.inf
            bad = ~(terms.max(axis=1) <= limit)
    if bad.any():
        j = np.flatnonzero(bad)[np.argmin(at[bad])]
        raise PreconditionViolation(_cancel_message(a, b, c, x[j]))
    return total


def _general_rows(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                  u: np.ndarray, out: np.ndarray) -> None:
    """Fill out, shape (len(a), len(u)), with the non-terminating 2F1 rows
    of parameters a, b, c.  The points are stably sorted by decreasing |u|
    once for all rows; the band, 1/2 < |u| <= SERIES_RADIUS, is the prefix
    of that order and each row sums it by ``_band_row``.  The rest,
    |u| <= 1/2, is summed by ``_series_sum`` in blocks of _K_BLOCK rows.

    Raises
    ------
    PreconditionViolation
        At a point with |u| above SERIES_RADIUS, naming the first such u.
    """
    size = np.abs(u)
    refused = ~(size <= SERIES_RADIUS)
    if refused.any():
        raise PreconditionViolation(
            f"2F1 argument u = {u[refused][0]} has |u| above {SERIES_RADIUS}")
    at = np.argsort(-size, kind="stable")
    x = u[at]
    band = int(np.count_nonzero(size > 0.5))
    if band < len(u):
        for i in range(0, len(a), _K_BLOCK):
            rows = slice(i, i + _K_BLOCK)
            out[rows, at[band:]] = _series_sum(a[rows], b[rows], c[rows],
                                               x[band:], at[band:])
    if band:
        for r in range(len(a)):
            out[r, at[:band]] = _band_row(complex(a[r]), complex(b[r]),
                                          complex(c[r]), x[:band], at[:band])


def hyp2f1_grid(a, b, c, u) -> np.ndarray:
    """Gauss 2F1(a, b; c; u) over an array of arguments u, for one or many
    parameter sets.

    Parameters
    ----------
    a, b, c : complex or 1-D array_like of complex
        Hypergeometric parameters.  Scalars give one 2F1 over the whole
        array u; vectors of a common length nk give nk of them, row i with
        parameters (a[i], b[i], c[i]).
    u : array_like of complex
        Arguments.  A row that does not terminate is summed by the power
        series in u, which needs |u| <= SERIES_RADIUS at every point; the
        points' order by decreasing |u| is found once per call for all
        rows (``_general_rows``).  Points with |u| <= 1/2 go to the
        stopping series, those of the band 1/2 < |u| <= SERIES_RADIUS to
        Horner's rule at a degree proven by the tail bound (see the
        module docstring).  A row with a or b at a non-positive integer
        is that polynomial, and one with c-a or c-b there is
        (1-u)^{c-a-b} times the polynomial F(c-a, c-b; c; u) (Euler's
        transformation, principal power), each summed by Horner's rule to
        its degree: either takes any u (off the cut u >= 1 for the
        second).

    Returns
    -------
    ndarray
        Shape (len(u),) for scalar parameters, (nk, len(u)) for vectors.
        The stopping series runs in blocks of _K_BLOCK rows.  Every series
        stops per row and point (see ``_series_sum``) and every band
        point's degree depends on its row and its own point alone
        (``_band_row``), so an entry is the same whatever other rows or
        points share the call.

    Raises
    ------
    PoleError
        c a non-positive integer, in any row, not masked by earlier
        termination of that row's polynomial.
    PreconditionViolation
        A parameter or argument that is not finite; the message names it.
        A non-terminating row and a point with |u| above SERIES_RADIUS;
        the message names the first such u.  Also a series whose terms
        cancel to fewer than 8 digits, or one with a term that is not
        finite (see ``_series_sum`` and ``_band_row``); the message names
        its parameters and argument, from the stopping series of the
        first block of rows with one, else from the band of the first row
        with one.
    NonConvergence
        A stopping series still running past the cap of its row, where
        its sum is below any the cancellation verdict accepts.
    """
    scalar = all(np.ndim(p) == 0 for p in (a, b, c))
    a, b, c = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(p, dtype=complex)) for p in (a, b, c)))
    # contiguous: numpy's |u| of a strided array rounds differently, and
    # a refusal decided by |u| <= SERIES_RADIUS must not depend on layout
    u = np.ascontiguousarray(u, dtype=complex)
    for name, p in zip("abcu", (a, b, c, u)):
        bad = ~np.isfinite(p)
        if bad.any():
            raise PreconditionViolation(
                f"hyp2f1 argument {name} = {p[bad][0]} is not finite")

    out = np.empty((len(a), len(u)), dtype=complex)
    general = np.ones(len(a), dtype=bool)
    # a parameter within 1e-12 of a non-positive integer has |Im| < 1e-12
    # and Re <= 0.5; only rows with one go through the scalar check
    near = np.zeros(len(a), dtype=bool)
    for p in (a, b, c, c - a, c - b):
        near |= (np.abs(p.imag) < 1e-12) & (p.real <= 0.5)
    for r in np.flatnonzero(near):
        ar, br, cr = complex(a[r]), complex(b[r]), complex(c[r])
        nc = _nonpositive_int(cr)
        # a polynomial in a or b; else, by Euler's transformation
        # F = (1-u)^{c-a-b} F(c-a, c-b; c; u), one in c-a or c-b
        for euler, (pa, pb) in enumerate(((ar, br), (cr - ar, cr - br))):
            ends = [-n for n in map(_nonpositive_int, (pa, pb))
                    if n is not None]
            if ends:
                break
        else:
            if nc is not None:
                raise PoleError(nc, cr)
            continue
        degree = min(ends)
        if nc is not None and -nc < degree:
            raise PoleError(nc, cr)
        n = np.arange(degree, dtype=float)
        coef = np.concatenate(([1.0 + 0.0j], np.cumprod(
            (pa + n) * (pb + n) / ((cr + n) * (n + 1.0)))))
        poly = _horner(coef, u, degree)
        out[r] = poly * (1.0 - u) ** (cr - ar - br) if euler else poly
        general[r] = False
    if general.any():
        sums = out if general.all() else \
            np.empty((np.count_nonzero(general), len(u)), dtype=complex)
        _general_rows(a[general], b[general], c[general], u, sums)
        if sums is not out:
            out[general] = sums
    return out[0] if scalar else out


def hyp2f1(a, b, c, u) -> complex:
    """Scalar Gauss hypergeometric function 2F1(a, b; c; u)."""
    return complex(hyp2f1_grid(a, b, c, np.array([u], dtype=complex))[0])
