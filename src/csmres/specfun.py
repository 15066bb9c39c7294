"""Complex special functions: gamma and the Gauss hypergeometric 2F1.

Everything downstream (wave functions, asymptotic coefficients, momentum-bin
quadratures) reduces to these two kernels evaluated at complex parameters and
complex argument, so they are implemented here from scratch at double
precision.

A non-terminating 2F1 is summed by its defining power series in ``u``,
accepted where |u| <= SERIES_RADIUS (0.8), and refused with
``PreconditionViolation`` at every other point.  A 2F1 that terminates,
in a and b or, through Euler's transformation, in c-a and c-b, is a
polynomial (times (1-u)^{c-a-b}) at any u.  The wave functions of
``wavefun`` take the Poschl-Teller form F(1+s, -s; 1-ik/beta; u), whose
series converges at every point they sum: |u| <= 1/2 at x >= 0 for
theta < pi/4, |u| <= SERIES_RADIUS in the band of x < 0 next to 0, and
the rest of x < 0 comes from the mirror identity of the even barrier,
which evaluates it at x >= 0 instead.
"""

from __future__ import annotations

import cmath

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

_SERIES_CAP = 100_000
# series terms per block of term ratios computed at once
_RATIO_ROWS = 64
_EPS = 2.0e-16
# largest |u| at which a non-terminating 2F1 is summed
SERIES_RADIUS = 0.8
# largest ratio of a series term to the sum: 1e8 leaves 8 digits
_MAX_CANCELLATION = 1.0e8
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


def complex_gamma(z) -> complex:
    """Gamma function for complex argument (Lanczos approximation).

    Relative error below 1e-12 for |z| <= 50 at distance >= 0.01 from the
    poles.  Uses the reflection formula for Re z < 1/2, whose sin(pi z)
    loses digits nearer a pole: the relative error is about 1e-16 |z| over
    the distance (1.4e-6 at z = -3 + 1e-10).

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
            gamma = cmath.pi / (cmath.sin(cmath.pi * z) * gamma)
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
        rgamma = cmath.sin(cmath.pi * z) * complex_gamma(1.0 - z) / cmath.pi \
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


def _series_sum(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                x: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Power series sum_{n} (a)_n (b)_n / ((c)_n n!) x^n per row and point.

    ``a``, ``b``, ``c`` are parameter vectors of length nk, and ``x`` holds
    m points by decreasing |x|, which sit at the positions ``at`` of the
    caller's points; the result is (nk, m), in the order of ``x``.  Each
    (row, point) pair stops on its own, after two consecutive terms at most
    _EPS times its partial sum, so a value does not depend on which other
    rows or points share the call.  Each pair also keeps the largest
    |term| it has added, which the cancellation verdict below compares with
    its sum.  The caller keeps |x| <= SERIES_RADIUS.

    The pairs are laid out point-major in one array.  A pair at a larger
    |x| runs longer, so the running pairs gather at the front, and each
    term is computed on views of the prefix up to the last running pair.
    A pair that stops inside that prefix has its argument set to 0: its
    later terms are exactly 0, so its sum and peak keep their bits.  The
    verdict is taken in that layout; ``at`` is read only to name a
    failing pair.

    Raises
    ------
    PreconditionViolation
        If a pair added a term larger than _MAX_CANCELLATION times its sum:
        there the terms cancel to fewer than 8 significant digits, as for
        |a| near 50 at x = 1/2.  The message names the first such pair in
        the order of the rows and of ``at``.  Also at the first term that
        is not finite, as for |Im a| near 1000; the message names its pair.
    NonConvergence
        If a pair still runs after _SERIES_CAP terms.
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
    end = nk * m
    # a term that overflows is not finite, and the loop stops at it
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(_SERIES_CAP):
            if not n % _RATIO_ROWS:
                # the term ratios of the next _RATIO_ROWS terms; each row
                # has the bits of (a + n) * (b + n) / ((c + n) * (n + 1.0))
                # evaluated for its n alone
                ns = np.arange(n, n + _RATIO_ROWS, dtype=float)[:, None]
                ratios = (a + ns) * (b + ns) / ((c + ns) * (ns + 1.0))
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
            if done.all():
                break
            xs[:end][done] = 0.0
            # past the last running pair, the last False of ``done``
            end -= int(np.argmin(done[::-1]))
        else:
            raise NonConvergence(
                "2F1 power series",
                _pair(a, b, c, xs, np.flatnonzero(~done)[0]))
    bad = peak > _MAX_CANCELLATION * np.abs(part)
    if bad.any():
        point, r = np.nonzero(bad.reshape(m, nk))
        first = np.lexsort((at[point], r))[0]
        raise PreconditionViolation(
            f"2F1 series terms cancel to fewer than 8 digits at "
            f"a = {complex(a[r[first]])}, b = {complex(b[r[first]])}, "
            f"c = {complex(c[r[first]])}, x = {complex(x[point[first]])}")
    return part.reshape(m, nk).T.copy()


def _terminating_sum(a: complex, b: complex, c: complex,
                     x: np.ndarray, degree: int) -> np.ndarray:
    """Exact terminating hypergeometric polynomial of the given degree; the
    caller has checked that no c + n vanishes below it."""
    term = np.ones_like(x)
    total = np.ones_like(x)
    for n in range(degree):
        term = term * ((a + n) * (b + n) / ((c + n) * (n + 1.0))) * x
        total = total + term
    return total


def _general_rows(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                  u: np.ndarray, out: np.ndarray) -> None:
    """Fill out, shape (len(a), len(u)), with the non-terminating 2F1 rows
    of parameters a, b, c: the power series in u, its points stably sorted
    by decreasing |u| once for all rows, summed in blocks of _K_BLOCK rows.

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
    for i in range(0, len(a), _K_BLOCK):
        rows = slice(i, i + _K_BLOCK)
        out[rows, at] = _series_sum(a[rows], b[rows], c[rows], x, at)


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
        rows (``_general_rows``).  A row with a or b at a non-positive
        integer is that polynomial, and one with c-a or c-b there is
        (1-u)^{c-a-b} times the polynomial F(c-a, c-b; c; u) (Euler's
        transformation, principal power): either takes any u (off the cut
        u >= 1 for the second).

    Returns
    -------
    ndarray
        Shape (len(u),) for scalar parameters, (nk, len(u)) for vectors.
        The non-terminating rows are summed in blocks of _K_BLOCK.  Every
        series stops per row and point (see ``_series_sum``), so an entry
        is the same whatever other rows or points share the call.

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
        finite (see ``_series_sum``); the message names its parameters and
        argument, in the first block of rows with one.
    NonConvergence
        Iteration cap hit (pathological parameters only).
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
        poly = _terminating_sum(pa, pb, cr, u, degree)
        # not ``*=``: numpy's in-place complex product of one point rounds
        # differently from the same product in a longer array
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
