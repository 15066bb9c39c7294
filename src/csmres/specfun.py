"""Complex special functions: gamma and the Gauss hypergeometric 2F1.

Everything downstream (wave functions, asymptotic coefficients, momentum-bin
quadratures) reduces to these two kernels evaluated at complex parameters and
complex argument, so they are implemented here from scratch at double
precision with explicit branch control.

The 2F1 evaluator selects among four representations by the smallest-modulus
effective argument:

* the defining power series in ``u``,
* the ``u -> 1-u`` connection formula near ``u = 1``,
* the Pfaff transformation ``w = u/(u-1)``,
* Pfaff followed by the connection formula (large ``|u|``).

Callers that walk ``u`` along a path winding around ``u = 1`` (the spatial
tails of scaled wave functions do exactly that) may pass an analytically
continued logarithm of ``1-u``; all branch-sensitive powers are then taken on
that branch instead of the principal one.
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

_SERIES_CAP = 100_000
_EPS = 2.0e-16
# dist(c-a-b, Z) below which the u->1-u connection formula is regularized
_DEGENERATE_TOL = 1.0e-6
# imaginary shift used for the regularization; 1e-9 would lose ~9 digits to
# cancellation between the two near-pole connection terms, 1e-5 balances
# cancellation (~1e-11) against the O(shift^2) extrapolation residual
_DEGENERATE_SHIFT = 1.0e-5


def _nonpositive_int(z: complex, tol: float = 1.0e-12) -> int | None:
    """Return n if z is within tol of a non-positive integer n, else None."""
    n = round(z.real)
    if n <= 0 and abs(z - n) < tol:
        return n
    return None


def complex_gamma(z) -> complex:
    """Gamma function for complex argument (Lanczos approximation).

    Relative error below 1e-12 for |z| <= 50.  Uses the reflection formula
    for Re z < 1/2.

    Raises
    ------
    PoleError
        If z is a non-positive integer.
    PreconditionViolation
        If Gamma(z) or a factor of it leaves the float range (Re z above
        171, or |Im z| large, as at 0.3 - 300i).
    """
    z = complex(z)
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
        gamma = math_sqrt_2pi * t ** (zz + 0.5) * cmath.exp(-t) * acc
        if z.real < 0.5:
            # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z)
            gamma = cmath.pi / (cmath.sin(cmath.pi * z) * gamma)
        # an overflowing factor times one that underflowed gives nan
        if cmath.isfinite(gamma):
            return gamma
    except (OverflowError, ZeroDivisionError):
        pass
    raise PreconditionViolation(f"gamma leaves the float range at z = {z}")


math_sqrt_2pi = 2.5066282746310002  # sqrt(2 pi)


def reciprocal_gamma(z) -> complex:
    """1/Gamma(z); entire, returns exactly 0 at the poles of Gamma.

    Raises
    ------
    PreconditionViolation
        If 1/Gamma(z) or a factor of it leaves the float range (as at
        1 + 500i, where Gamma(z) underflows to 0).
    """
    z = complex(z)
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


def _series_sum(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                x: np.ndarray) -> np.ndarray:
    """Power series sum_{n} (a)_n (b)_n / ((c)_n n!) x^n per row and point.

    ``a``, ``b``, ``c`` are parameter vectors of length nk and ``x`` has
    length m; the result is (nk, m).  Each (row, point) pair stops on its
    own, after two consecutive terms at most _EPS times its partial sum, so
    a value does not depend on which other rows or points share the call.
    Converges for |x| < 1; the caller guarantees |x| bounded away from 1.
    """
    nk, m = len(a), len(x)
    total = np.ones((nk, m), dtype=complex)
    # active (row, point) pairs, flattened row-major; the partial sums
    # start as a view of the result and are copied at the first drop
    part = total.reshape(-1)
    idx = np.arange(nk * m, dtype=np.int32)
    row = idx // m
    xs = np.broadcast_to(x, (nk, m)).reshape(-1)
    term = np.ones(nk * m, dtype=complex)
    was_quiet = np.zeros(nk * m, dtype=bool)
    for n in range(_SERIES_CAP):
        if not idx.size:
            return total
        ratio = (a + n) * (b + n) / ((c + n) * (n + 1.0))
        # the right operand of a complex product is never a temporary:
        # numpy may evaluate x * temp as temp * x for large arrays, and a
        # complex product rounds differently with its operands swapped.
        # ``term *= factor`` also broke the match with one-point calls;
        # sums round the same in any form.
        factor = ratio[row]
        term = term * factor * xs
        part += term
        quiet = np.abs(term) <= _EPS * np.abs(part)
        done = quiet & was_quiet
        if done.any():
            total.reshape(-1)[idx[done]] = part[done]
            # one array at a time, so each old copy is freed before the next
            keep = ~done
            idx = idx[keep]
            row = row[keep]
            xs = xs[keep]
            term = term[keep]
            part = part[keep]
            quiet = quiet[keep]
        was_quiet = quiet
    r = row[0]
    raise NonConvergence(
        "2F1 power series",
        {"a": complex(a[r]), "b": complex(b[r]), "c": complex(c[r]),
         "max_abs_x": float(np.max(np.abs(xs)))},
    )


def _rows(p: np.ndarray, m: int) -> np.ndarray:
    """p[i] repeated along row i of a contiguous (len(p), m) array."""
    return np.repeat(p, m).reshape(len(p), m)


def _outer(p: np.ndarray, v: np.ndarray) -> np.ndarray:
    """p[i] * v[j] as a (len(p), len(v)) array.

    numpy rounds a broadcast complex product in another loop than a
    same-shape one, and picks the loop from the shapes.  Both factors are
    expanded first, so a value does not depend on how many rows or points
    share the call.
    """
    return np.multiply(_rows(p, len(v)), np.tile(v, (len(p), 1)))


def _terminating_sum(a: complex, b: complex, c: complex,
                     x: np.ndarray, degree: int) -> np.ndarray:
    """Exact terminating hypergeometric polynomial of the given degree."""
    x = np.asarray(x, dtype=complex)
    term = np.ones_like(x)
    total = np.ones_like(x)
    for n in range(degree):
        denom = c + n
        if abs(denom) < 1.0e-13:
            raise PoleError(round(denom.real) - n, c)
        term = term * ((a + n) * (b + n) / (denom * (n + 1.0))) * x
        total = total + term
    return total


def _connection_sum(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                    v: np.ndarray, log_v: np.ndarray) -> np.ndarray:
    """2F1 via the u -> 1-u connection formula; v = 1-u, log_v = log(1-u).

    Parameter vectors of length nk, result (nk, len(v)).  log_v may lie on
    any analytic continuation of the logarithm; the branch of v^(c-a-b)
    follows it.
    """
    cab = c - a - b
    near = np.round(cab.real)
    degenerate = (np.abs(cab.imag) < _DEGENERATE_TOL) \
        & (np.abs(cab.real - near) < _DEGENERATE_TOL)
    out = np.zeros((len(a), len(v)), dtype=complex)
    if degenerate.any():
        # Degenerate (integer c-a-b): the two terms develop cancelling gamma
        # poles.  Evaluate at c +/- i*shift and average; even in the shift,
        # so the error is O(shift^2).
        d = 1j * _DEGENERATE_SHIFT
        da, db, dc = a[degenerate], b[degenerate], c[degenerate]
        up = _connection_sum(da, db, dc + d, v, log_v)
        dn = _connection_sum(da, db, dc - d, v, log_v)
        out[degenerate] = 0.5 * (up + dn)
        regular = ~degenerate
        if regular.any():
            out[regular] = _connection_sum(a[regular], b[regular], c[regular],
                                           v, log_v)
        return out
    coef1 = np.empty(len(a), dtype=complex)
    coef2 = np.empty(len(a), dtype=complex)
    for r in range(len(a)):
        ar, br, cr, cabr = complex(a[r]), complex(b[r]), complex(c[r]), \
            complex(cab[r])
        gc = complex_gamma(cr)
        coef1[r] = gc * complex_gamma(cabr) * reciprocal_gamma(cr - ar) \
            * reciprocal_gamma(cr - br)
        coef2[r] = gc * complex_gamma(-cabr) * reciprocal_gamma(ar) \
            * reciprocal_gamma(br)
    # right operands of complex products are named (see _series_sum)
    live = coef1 != 0.0
    if live.any():
        series = _series_sum(a[live], b[live], 1.0 - cab[live], v)
        out[live] = _rows(coef1[live], len(v)) * series
    live = coef2 != 0.0
    if live.any():
        power = np.exp(_outer(cab[live], log_v))
        series = _series_sum(c[live] - a[live], c[live] - b[live],
                             1.0 + cab[live], v)
        out[live] += _rows(coef2[live], len(v)) * power * series
    return out


def _general_rows(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                  u: np.ndarray, omu: np.ndarray, log_omu: np.ndarray,
                  out: np.ndarray, rows: np.ndarray) -> None:
    """Fill out[rows] with non-terminating 2F1 rows (parameters a, b, c),
    each point on its smallest-modulus route."""
    w = np.where(omu != 0.0, -u / omu, np.inf)

    r_u = np.abs(u)
    r_v = np.abs(omu)
    r_w = np.abs(w)
    with np.errstate(divide="ignore", over="ignore"):
        r_t = np.where(r_v > 0.0, 1.0 / r_v, np.inf)
    # route codes: 0 direct, 1 connection, 2 Pfaff, 3 Pfaff+connection
    moduli = np.stack([r_u, r_v, r_w, r_t], axis=0)
    route = np.argmin(moduli, axis=0)

    m0 = route == 0
    if np.any(m0):
        out[np.ix_(rows, m0)] = _series_sum(a, b, c, u[m0])
    m1 = route == 1
    if np.any(m1):
        out[np.ix_(rows, m1)] = _connection_sum(a, b, c, omu[m1],
                                                log_omu[m1])
    m2 = route == 2
    if np.any(m2):
        pf = np.exp(-_outer(a, log_omu[m2]))
        series = _series_sum(a, c - b, c, w[m2])
        out[np.ix_(rows, m2)] = pf * series
    m3 = route == 3
    if np.any(m3):
        # 2F1(a, c-b; c; w) continued near w = 1; note 1-w = 1/(1-u)
        pf = np.exp(-_outer(a, log_omu[m3]))
        one_minus_w = 1.0 / omu[m3]
        series = _connection_sum(a, c - b, c, one_minus_w, -log_omu[m3])
        out[np.ix_(rows, m3)] = pf * series


def hyp2f1_grid(a, b, c, u, *, one_minus_u=None, log_one_minus_u=None) -> np.ndarray:
    """Gauss 2F1(a, b; c; u) over an array of arguments u, for one or many
    parameter sets.

    Parameters
    ----------
    a, b, c : complex or 1-D array_like of complex
        Hypergeometric parameters.  Scalars give one 2F1 over the whole
        array u; vectors of a common length nk give nk of them, row i with
        parameters (a[i], b[i], c[i]).
    u : array_like of complex
        Arguments.  The route of each point (direct series, u -> 1-u
        connection, Pfaff, Pfaff plus connection) depends on u alone and is
        chosen once for all rows.
    one_minus_u : array_like of complex, optional
        Precomputed 1-u; pass it when u is exponentially close to 1 so the
        subtraction does not lose digits.
    log_one_minus_u : array_like of complex, optional
        Analytically continued log(1-u) along the caller's path.  Defaults
        to the principal branch.  All powers of (1-u) are taken on this
        branch, which is what makes the result single-valued along spatial
        grids whose u-image winds around u = 1.

    Returns
    -------
    ndarray
        Shape (len(u),) for scalar parameters, (nk, len(u)) for vectors.
        Every series stops per row and point (see ``_series_sum``), so an
        entry is the same whatever other rows or points share the call.

    Raises
    ------
    PoleError
        c a non-positive integer, in any row, not masked by earlier series
        termination of that row.
    NonConvergence
        Iteration cap hit (pathological arguments only).
    """
    scalar = all(np.ndim(p) == 0 for p in (a, b, c))
    a, b, c = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(p, dtype=complex)) for p in (a, b, c)))
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    if one_minus_u is None:
        omu = 1.0 - u
    else:
        omu = np.atleast_1d(np.asarray(one_minus_u, dtype=complex))
    if log_one_minus_u is None:
        log_omu = np.log(omu)
    else:
        log_omu = np.atleast_1d(np.asarray(log_one_minus_u, dtype=complex))

    out = np.empty((len(a), len(u)), dtype=complex)
    general = np.ones(len(a), dtype=bool)
    for r in range(len(a)):
        ar, br, cr = complex(a[r]), complex(b[r]), complex(c[r])
        na = _nonpositive_int(ar)
        nb = _nonpositive_int(br)
        nc = _nonpositive_int(cr)
        if na is None and nb is None:
            if nc is not None:
                raise PoleError(nc, cr)
            continue
        # terminating polynomial: exact, branch-free
        degree = min(-n for n in (na, nb) if n is not None)
        if nc is not None and -nc < degree:
            raise PoleError(nc, cr)
        out[r] = _terminating_sum(ar, br, cr, u, degree)
        general[r] = False
    if general.any():
        _general_rows(a[general], b[general], c[general], u, omu, log_omu,
                      out, general)
    return out[0] if scalar else out


def hyp2f1(a, b, c, u, *, one_minus_u=None, log_one_minus_u=None) -> complex:
    """Scalar Gauss hypergeometric function 2F1(a, b; c; u)."""
    kw = {}
    if one_minus_u is not None:
        kw["one_minus_u"] = np.array([one_minus_u], dtype=complex)
    if log_one_minus_u is not None:
        kw["log_one_minus_u"] = np.array([log_one_minus_u], dtype=complex)
    return complex(hyp2f1_grid(a, b, c, np.array([u], dtype=complex), **kw)[0])
