"""Tests for the complex gamma and 2F1 kernels.

Golden values were computed with a 30-digit arbitrary-precision oracle and
frozen here; the shipped code never depends on it.
"""

import cmath
import math
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from csmres.binbasis import spatial_grid
from csmres.errors import NonConvergence, PoleError, PreconditionViolation
from csmres.specfun import SERIES_RADIUS, complex_gamma, hyp2f1, hyp2f1_grid, \
    reciprocal_gamma

SQRT_PI = 1.7724538509055160273

# (z, Gamma(z)) golden pairs, 30-digit oracle
GAMMA_GOLDEN = [
    (1 + 1j, 0.49801566811835607 - 0.15494982830181067j),
    (-2.5 + 3j, 0.000479788410841897 + 0.00029885571114485887j),
    (4 - 7j, 0.012329549545154535 + 0.04183837877183839j),
    (0.5 - 0.5j, 0.8181639995417473 + 0.7633138287139826j),
]

# (a, b, c, u, 2F1(a,b;c;u)) golden tuples on the contract domain; the
# first, the sixth and the seventh sit at |u| = 0.79
HYP_GOLDEN = [
    ((0.751 + 2.383j), (1.654 - 1.649j), (1.11 + 2.241j),
     (0.6932902238933946 + 0.37874617549732037j),
     (9.796707818665956 + 5.8990018303956075j)),
    ((1.782 - 0.192j), (-1.182 - 1.329j), (0.988 - 0.33j),
     (0.46242887424126394 - 0.016256591892054497j),
     (-0.1585394665675074 - 0.6175169297546022j)),
    ((2.973 + 1.756j), (0.733 + 2.934j), (0.881 - 2.039j),
     (0.016470365289112467 - 0.0053546706964634795j),
     (0.9260944311223512 + 0.03042340854149924j)),
    ((-2.786 + 0.089j), (-0.203 + 2.503j), (1.999 + 0.085j),
     (0.5273554345598055 + 0.00584697628285966j),
     (0.39158158478048793 - 1.5392630113890902j)),
    ((-2.929 - 1.846j), (1.152 - 1.796j), (1.298 - 2.978j),
     (-1.6069018017830442e-06 - 7.735424134957767e-06j),
     (0.9999911224452184 + 1.5619262650960667e-05j)),
    ((-1.394 + 2.282j), (0.059 + 2.083j), (2.027 + 1.451j),
     (-0.25539875782216764 - 0.7475770692730574j),
     (1.8940785460347922 + 3.3076311378503704j)),
    ((0.047 + 2.228j), (-0.832 + 0.589j), (0.46 - 0.674j),
     (-0.7443556491282399 + 0.26464063862316506j),
     (1.5815255011844094 + 2.6228606368224754j)),
    ((1.898 - 0.723j), (2.872 + 0.54j), (1.934 + 0.828j),
     (0.0011081409327587726 - 0.001502000374623087j),
     (1.0002610476020966 - 0.0052642805138042635j)),
]


# (a, b, c, u, 2F1(a,b;c;u)) at points with |u| > SERIES_RADIUS >=
# |u/(u-1)|, 30-digit oracle: the series in u is refused there
HYP_OUTSIDE = [
    ((-1.394 + 2.282j), (0.059 + 2.083j), (2.027 + 1.451j),
     (-0.2913032769246944 - 1.5945894641858214j),
     (2.2084194943746573 + 14.542462036120643j)),
    ((0.047 + 2.228j), (-0.832 + 0.589j), (0.46 - 0.674j),
     (-3.0 + 1.0j),
     (8.783284635444952 + 10.537724419055879j)),
]


def _contract_domain_u(rng):
    """Random u on the image of u = (1 - tanh(beta x e^{i theta}))/2, where
    |u| <= SERIES_RADIUS: all of x >= 0 and the band of x < 0 next to 0."""
    while True:
        x = rng.uniform(-9.0, 9.0)
        theta = rng.uniform(0.05, 0.7)
        u = complex(1.0 / (1.0 + np.exp(2.0 * x * np.exp(1j * theta))))
        if abs(u) <= SERIES_RADIUS:
            return u


class TestComplexGamma:
    def test_factorial_base_case(self):
        assert abs(complex_gamma(1.0) - 1.0) < 1e-14

    def test_half_integer(self):
        assert abs(complex_gamma(0.5) - SQRT_PI) < 1e-13

    def test_golden_values(self):
        for z, expect in GAMMA_GOLDEN:
            got = complex_gamma(z)
            assert abs(got - expect) <= 1e-12 * abs(expect), z

    def test_pole_raises(self):
        for n in (0, -1, -5):
            with pytest.raises(PoleError) as err:
                complex_gamma(complex(n))
            assert err.value.pole == n

    def test_recurrence_identity(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 1000:
            z = complex(rng.uniform(-30, 30), rng.uniform(-30, 30))
            if min(abs(z - n) for n in range(-31, 2)) <= 0.1:
                continue
            lhs = complex_gamma(z + 1.0)
            rhs = z * complex_gamma(z)
            assert abs(lhs - rhs) < 1e-12 * abs(lhs)
            checked += 1

    def test_reflection_identity(self):
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 1000:
            z = complex(rng.uniform(-30, 30), rng.uniform(-30, 30))
            if min(abs(z - n) for n in range(-31, 32)) <= 0.1:
                continue
            resid = complex_gamma(z) * complex_gamma(1.0 - z) \
                * cmath.sin(cmath.pi * z) / cmath.pi
            assert abs(resid - 1.0) < 1e-11
            checked += 1

    @pytest.mark.parametrize("fun, z", [
        # sin(pi z) of the reflection overflows
        (complex_gamma, 0.3 - 300j),
        # Gamma(z) above the float range
        (complex_gamma, 200.5),
        # an overflowing factor times an underflowed one is nan
        (complex_gamma, 113.06 + 705.27j),
        # Gamma(z) underflows to 0
        (reciprocal_gamma, 1 + 500j),
        (reciprocal_gamma, -300.5),
    ])
    def test_out_of_float_range_raises(self, fun, z):
        named = re.escape(f"z = {complex(z)}")
        with pytest.raises(PreconditionViolation, match=named):
            fun(z)

    @pytest.mark.parametrize("z", [-3 + 1e-10, -2.999, -48.99,
                                   complex(-3.0, 1e-10), -7.5 + 2j])
    def test_near_a_pole(self, z):
        # sin(pi z) of the reflection is taken at z minus its nearest
        # integer, so no digit of the distance to the pole is lost
        import mpmath as mp

        with mp.workdps(40):
            expect = complex(mp.gamma(mp.mpc(z)))
        assert abs(complex_gamma(z) - expect) <= 1e-13 * abs(expect)
        assert abs(reciprocal_gamma(z) * expect - 1.0) <= 1e-13

    def test_reciprocal_gamma_zero_at_poles(self):
        for n in (0, -1, -3, -8):
            assert reciprocal_gamma(complex(n)) == 0.0

    def test_reciprocal_gamma_consistent(self):
        for z, expect in GAMMA_GOLDEN:
            assert abs(reciprocal_gamma(z) - 1.0 / expect) < 1e-12 / abs(expect)


class TestHyp2f1:
    def test_value_at_zero(self):
        assert hyp2f1(0.3 + 1j, -0.7j, 1.5, 0.0) == 1.0

    def test_degree_one_terminating(self):
        b, c, u = 1.3 - 0.4j, 0.9 + 0.2j, 0.37 + 0.61j
        got = hyp2f1(-1.0, b, c, u)
        assert abs(got - (1.0 - b / c * u)) < 1e-14

    def test_zero_parameter_gives_one(self):
        # a = 0 terminates at the constant term regardless of u
        for u in (0.5, 0.99 + 0.01j, -3.0 + 2j):
            assert hyp2f1(0.0, 1.7 - 2.2j, 0.4 + 1j, u) == 1.0

    def test_golden_values(self):
        for a, b, c, u, expect in HYP_GOLDEN:
            got = hyp2f1(a, b, c, u)
            assert abs(got - expect) <= 1e-10 * abs(expect), (a, b, c, u)

    def test_euler_transformation(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            c = complex(rng.uniform(0.5, 3), rng.uniform(-2, 2))
            u = _contract_domain_u(rng)
            lhs = hyp2f1(a, b, c, u)
            rhs = (1.0 - u) ** (c - a - b) * hyp2f1(c - a, c - b, c, u)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))

    def test_continuity_across_switch_radii(self):
        # across the circle |1-u| = 1, where |u| = |u/(u-1)|, the series
        # in u is continuous
        for phi in (-0.7, 0.2, 0.6):
            u_lo = 1.0 - (1.0 - 1e-8) * cmath.exp(1j * phi)
            u_hi = 1.0 - (1.0 + 1e-8) * cmath.exp(1j * phi)
            a, b, c = 0.8 - 1.1j, -0.6 + 0.4j, 1.2 + 0.5j
            f_lo = hyp2f1(a, b, c, u_lo)
            f_hi = hyp2f1(a, b, c, u_hi)
            assert abs(f_lo - f_hi) < 1e-7 * abs(f_lo)

    @pytest.mark.parametrize("u", [
        cmath.exp(1j * cmath.pi / 3), cmath.exp(-1j * cmath.pi / 3),
        0.93 + 0.02j, 1.0 + 1e-7j])
    def test_outside_the_series_region_raises(self, u):
        # |u| = |u/(u-1)| = 1 at e^{+-i pi/3}; the parameters at
        # 0.93 + 0.02j have integer c - a - b.  The refusal comes before
        # any series term
        a, b = 0.7 - 0.9j, 1.1 + 0.9j
        start = time.perf_counter()
        with pytest.raises(PreconditionViolation, match=re.escape(str(u))):
            hyp2f1(a, b, a + b + 1.0, u)
        assert time.perf_counter() - start < 0.5
        # a terminating row takes any u
        assert abs(hyp2f1(-1.0, b, 1.5, u) - (1.0 - b / 1.5 * u)) < 1e-14

    @pytest.mark.parametrize("a, b, c, u, expect", HYP_OUTSIDE)
    def test_refused_where_only_pfaff_would_converge(self, a, b, c, u,
                                                     expect):
        # |u/(u-1)| <= SERIES_RADIUS < |u|: the series in u is refused,
        # naming u, in a batch as alone; mpmath has the value
        import mpmath as mp

        assert abs(u / (u - 1.0)) <= SERIES_RADIUS < abs(u)
        with mp.workdps(30):
            assert abs(complex(mp.hyp2f1(*map(mp.mpc, (a, b, c, u))))
                       - expect) <= 1e-15 * abs(expect)
        named = re.escape(f"u = {complex(u)}")
        with pytest.raises(PreconditionViolation, match=named):
            hyp2f1(a, b, c, u)
        with pytest.raises(PreconditionViolation, match=named):
            hyp2f1_grid(np.array([a, 0.5]), np.array([b, 1.5]),
                        np.array([c, 2.5]), np.array([0.3, u, 0.1j]))

    def test_grid_matches_scalar(self):
        # every series stops per point, so a grid entry is bitwise the
        # one-point value
        rng = np.random.default_rng(31)
        a, b, c = 1.3 - 0.8j, -0.4 + 1.6j, 1.1 + 0.3j
        us = np.array([_contract_domain_u(rng) for _ in range(400)])
        grid = hyp2f1_grid(a, b, c, us)
        for i, u in enumerate(us):
            assert grid[i] == hyp2f1(a, b, c, u)

    def test_grid_values_do_not_depend_on_neighbours(self):
        rng = np.random.default_rng(32)
        a, b, c = 0.4 + 2.1j, 1.6 - 0.5j, 0.7 + 1.9j
        us = np.array([_contract_domain_u(rng) for _ in range(400)])
        whole = hyp2f1_grid(a, b, c, us)
        perm = rng.permutation(len(us))
        assert np.array_equal(hyp2f1_grid(a, b, c, us[perm]), whole[perm])
        parts = [hyp2f1_grid(a, b, c, chunk)
                 for chunk in np.array_split(us, [7, 150, 151])]
        assert np.array_equal(np.concatenate(parts), whole)

    @pytest.mark.parametrize("theta, k_im", [(0.0, 0.0), (0.4, -0.3)])
    def test_overlap_shaped_batch_is_independent(self, theta, k_im):
        # raw_psi's rows for 8 k-nodes on the half grid of an overlap job:
        # |u| runs from 1/2 to below 1e-16, where a pair stops after two
        # terms.  Rows, point order and point chunks change no bit
        t = np.exp(-2.0 * spatial_grid(1.0).y * cmath.exp(1j * theta))
        u = t / (1.0 + t)
        assert np.abs(u).max() == 0.5 and np.abs(u).min() < 1e-16
        rows = [_psi_rows(complex(k, k_im), 1.3)[0]
                for k in np.linspace(0.6, 1.2, 8)]
        a, b, c = (np.array(col) for col in zip(*rows))
        whole = hyp2f1_grid(a, b, c, u)
        for i, row in enumerate(rows):
            assert hyp2f1_grid(*row, u).tobytes() == whole[i].tobytes(), i
        assert hyp2f1_grid(a, b, c, u[::-1]).tobytes() \
            == whole[:, ::-1].tobytes()
        parts = [hyp2f1_grid(a, b, c, chunk) for chunk in np.array_split(u, 3)]
        assert np.concatenate(parts, axis=1).tobytes() == whole.tobytes()

    def test_non_finite_term_raises_at_once(self):
        # the terms overflow near n = 440; a term that is not finite is
        # never small, so this must not spin on to the row's cap
        start = time.perf_counter()
        with pytest.raises(PreconditionViolation,
                           match=re.escape("not finite at a = (0.3-1000j)")):
            hyp2f1_grid(0.3 - 1000j, 1.7 - 1000j, 1.0 - 1000j, [0.79])
        assert time.perf_counter() - start < 0.5

    def test_parameter_rows_match_single_calls(self):
        # one batched call over parameter rows: generic, terminating
        # (a = -2), terminating before a c pole and integer c-a-b = 1, at
        # points that include the edge of the series region on either side
        # of the real axis
        rng = np.random.default_rng(33)
        us = np.array([_contract_domain_u(rng) for _ in range(200)]
                      + [0.79 * cmath.exp(0.5j), 0.79 * cmath.exp(-2.5j)])
        a0, b0 = 0.7 - 0.9j, 1.1 + 0.9j
        rows = [(1.3 - 0.8j, -0.4 + 1.6j, 1.1 + 0.3j),
                (-2.0, 0.6 + 1.2j, 1.4 - 0.3j),
                (-1.0, 1.5, -2.0),
                (a0, b0, a0 + b0 + 1.0),
                (-0.3 - 1.7j, 2.2 + 0.4j, 1.0 - 1.7j)]
        a, b, c = (np.array(col) for col in zip(*rows))
        batch = hyp2f1_grid(a, b, c, us)
        assert batch.shape == (len(rows), len(us))
        for i, (ai, bi, ci) in enumerate(rows):
            assert np.array_equal(batch[i], hyp2f1_grid(ai, bi, ci, us)), i

    def test_pole_row_raises_in_a_batch(self):
        us = np.array([0.3 + 0.1j, 0.8 - 0.2j])
        with pytest.raises(PoleError):
            hyp2f1_grid(0.5, 1.5, -2.0, us)
        with pytest.raises(PoleError):
            hyp2f1_grid(np.array([0.5, 0.5]), np.array([1.5, 1.5]),
                        np.array([1.2 + 0.3j, -2.0]), us)

    @pytest.mark.parametrize("n_rows, terminating", [(33, True), (34, False)])
    def test_row_blocks_match_one_row_calls(self, n_rows, terminating):
        # raw_psi's rows at k and -k on the overlap half grid at theta 0.4,
        # summed in blocks of 8 over one order of the points; a terminating
        # row (a = -2) leaves the others unaligned
        t = np.exp(-2.0 * spatial_grid(1.0).y * cmath.exp(0.4j))
        u = t / (1.0 + t)
        rows = [row for k in np.linspace(0.6, 3.2, 17)
                for row in _psi_rows(complex(k, -0.1), 1.3)][:n_rows]
        if terminating:
            rows[5] = (-2.0, 0.6 + 1.2j, 1.4 - 0.3j)
        a, b, c = (np.array(col) for col in zip(*rows))
        whole = hyp2f1_grid(a, b, c, u)
        for i, row in enumerate(rows):
            assert hyp2f1_grid(*row, u).tobytes() == whole[i].tobytes(), i

    def test_c_pole_raises_unless_terminating(self):
        with pytest.raises(PoleError):
            hyp2f1(0.5, 1.5, -2.0, 0.3)
        # terminates at degree 1 before the c = -2 pole matters
        got = hyp2f1(-1.0, 1.5, -2.0, 0.3)
        assert abs(got - (1.0 - 1.5 / -2.0 * 0.3)) < 1e-14
        # c - a = -3 ends Euler's polynomial after the c = -2 pole
        with pytest.raises(PoleError):
            hyp2f1(1.0, 0.5, -2.0, 0.3)

    @pytest.mark.parametrize("u", [0.6 + 0.3j, -0.2 - 0.75j, -3.0 + 1.0j,
                                   0.95 + 0.1j])
    def test_euler_terminating_row_is_a_polynomial(self, u):
        # raw_psi's row F(1+s, -s; c; u) of the n-th Gamow state, where
        # c - b = -n: (1-u)^{c-a-b} times a polynomial of degree n, also
        # at |u| above SERIES_RADIUS, where a series row is refused
        import mpmath as mp

        s, n = 0.3 + 0.7j, 2
        a, b, c = 1.0 + s, -s, -s - n
        start = time.perf_counter()
        got = hyp2f1(a, b, c, u)
        assert time.perf_counter() - start < 0.5
        with mp.workdps(30):
            expect = complex(mp.hyp2f1(*map(mp.mpc, (a, b, c, u))))
        assert abs(got - expect) <= 1e-14 * abs(expect)
        # in a batch with a series row, bitwise the one-row value
        if abs(u) <= SERIES_RADIUS:
            rows = hyp2f1_grid(np.array([0.5, a]), np.array([1.5, b]),
                               np.array([2.5, c]), np.array([0.1j, u]))
            assert rows[1, 1] == got


@pytest.mark.parametrize("fun, args, name", [
    (complex_gamma, (complex(math.nan, 1.0),), "z"),
    (complex_gamma, (math.inf,), "z"),
    (reciprocal_gamma, (math.inf,), "z"),
    (reciprocal_gamma, (complex(0.5, -math.inf),), "z"),
    (hyp2f1, (math.nan, 1.0, 2.0, 0.3), "a"),
    (hyp2f1, (0.5, math.inf, 2.0, 0.3), "b"),
    (hyp2f1, (0.5, 1.0, complex(2.0, math.nan), 0.3), "c"),
    (hyp2f1, (0.5, 1.0, 2.0, math.nan), "u"),
    (hyp2f1_grid, (0.5, 1.0, 2.0, np.array([0.3, complex(math.inf, 0.0)])),
     "u"),
])
def test_non_finite_argument_raises_typed_error(fun, args, name):
    # refused before the pole check's round() and before any division,
    # with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionViolation,
                           match=rf"argument {name} = .* is not finite"):
            fun(*args)


def _index(lam: float) -> complex:
    """Potential index s at coupling lam (m = hbar = beta = 1)."""
    return 0.5 * (-1.0 + cmath.sqrt(1.0 - 8.0 * lam))


def _psi_rows(k: complex, lam: float) -> list:
    """The (a, b, c) rows ``raw_psi`` sums at beta = 1, at k and at -k:
    the Poschl-Teller form F(1+s, -s; 1-ik; u)."""
    s = _index(lam)
    return [(1.0 + s, -s, 1.0 - kb) for kb in (1j * k, -1j * k)]


def _gauss_rows(k: complex, lam: float) -> list:
    """The rows of the same solutions before Euler's transformation,
    F(-ik-s, -ik+s+1; 1-ik; u), at k and at -k: all three parameters grow
    with k, and their terms cancel at large k."""
    s = _index(lam)
    return [(-kb - s, -kb + s + 1.0, -kb + 1.0) for kb in (1j * k, -1j * k)]


def _series_peak(a: complex, b: complex, c: complex, x: complex) -> float:
    """Largest |term| of the 2F1 power series in x, at 30 digits."""
    import mpmath as mp

    with mp.workdps(30):
        a, b, c, x = map(mp.mpc, (a, b, c, x))
        term, peak, n = mp.mpc(1), mp.mpf(1), 0
        # past n = |a| + |b| + |c| and 17 orders below the peak: the term
        # ratio tends to |x| < 1, so no later term comes back up
        while n <= abs(a) + abs(b) + abs(c) or abs(term) > 1e-17 * peak:
            term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * x
            peak = max(peak, abs(term))
            n += 1
        return float(peak)


class TestAgainstMpmath:
    """The gamma and 2F1 kernels against mpmath over their stated domains."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(re_z=st.floats(-50.0, 50.0), im_z=st.floats(-50.0, 50.0))
    def test_complex_gamma_relative_error(self, re_z, im_z):
        import mpmath as mp

        z = complex(re_z, im_z)
        # nearer a pole the reflection's sin(pi z) loses digits
        assume(abs(z) <= 50.0)
        assume(min(abs(z - n) for n in range(-50, 1)) >= 0.01)
        with mp.workdps(30):
            expect = complex(mp.gamma(mp.mpc(re_z, im_z)))
        assert abs(complex_gamma(z) - expect) <= 1e-12 * abs(expect)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(k_re=st.floats(0.2, 4.0), k_im=st.floats(-1.0, 0.0),
           lam=st.floats(0.3, 3.0), rho=st.floats(0.0, SERIES_RADIUS - 1e-12),
           phase=st.floats(-math.pi, math.pi))
    def test_hyp2f1_grid_on_the_accepted_region(self, k_re, k_im, lam, rho,
                                                phase):
        # raw_psi's parameter rows, and the rows of the same solutions
        # before Euler's transformation, over the whole disc |u| <= 0.8
        import mpmath as mp

        u = rho * cmath.exp(1j * phase)
        k = complex(k_re, k_im)
        rows = _psi_rows(k, lam) + _gauss_rows(k, lam)
        a, b, c = (np.array(col) for col in zip(*rows))
        got = hyp2f1_grid(a, b, c, np.array([u]))[:, 0]
        with mp.workdps(30):
            for g, row in zip(got, rows):
                expect = complex(mp.hyp2f1(*map(mp.mpc, row), mp.mpc(u)))
                assert abs(g - expect) <= 1e-12 * abs(expect), (row, u)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(k=st.floats(10.0, 60.0), lam=st.floats(0.3, 3.0),
           rho=st.floats(0.5, SERIES_RADIUS - 1e-12),
           phase=st.sampled_from([0.0, 2.5, -1.5]))
    def test_cancellation_verdict(self, k, lam, rho, phase):
        # rows before Euler's transformation along three directions of u
        # on which log(peak/|sum|) grows about linearly in k, so the draws
        # of k sweep the ratio through the threshold
        import mpmath as mp

        u = rho * cmath.exp(1j * phase)
        a, b, c = _gauss_rows(complex(k), lam)[0]
        series = (a, b, c, u)
        with mp.workdps(30):
            total = float(abs(mp.hyp2f1(*map(mp.mpc, series))))
        ratio = _series_peak(*series) / total
        assume(not 1e7 <= ratio <= 1e9)
        if ratio > 1e9:
            with pytest.raises(PreconditionViolation, match="cancel"):
                hyp2f1_grid(a, b, c, np.array([u]))
        else:
            hyp2f1_grid(a, b, c, np.array([u]))


def _band_u(rng, n: int) -> np.ndarray:
    """n random points of the band, 1/2 < |u| <= SERIES_RADIUS."""
    rho = rng.uniform(0.5, SERIES_RADIUS - 1e-12, n)
    rho[rho <= 0.5] = 0.6
    return rho * np.exp(1j * rng.uniform(-math.pi, math.pi, n))


class TestBand:
    """Non-terminating rows at 1/2 < |u| <= SERIES_RADIUS, summed by
    Horner's rule to the degree the tail bound proves at each point."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(k_re=st.one_of(st.floats(0.2, 4.0), st.sampled_from([10.0,
                                                                 150.0])),
           k_im=st.floats(-1.0, 0.0), lam=st.floats(0.3, 3.0),
           rho=st.floats(0.5, SERIES_RADIUS - 1e-12, exclude_min=True),
           phase=st.floats(-math.pi, math.pi))
    def test_matches_mpmath(self, k_re, k_im, lam, rho, phase):
        # raw_psi's rows, complex s and c, at k and -k
        import mpmath as mp

        u = rho * cmath.exp(1j * phase)
        rows = _psi_rows(complex(k_re, k_im), lam)
        a, b, c = (np.array(col) for col in zip(*rows))
        got = hyp2f1_grid(a, b, c, np.array([u]))[:, 0]
        with mp.workdps(30):
            for g, row in zip(got, rows):
                expect = complex(mp.hyp2f1(*map(mp.mpc, row), mp.mpc(u)))
                assert abs(g - expect) <= 1e-13 * abs(expect), (row, u)

    @pytest.mark.parametrize("phi", [0.0, 0.4, -1.9, math.pi])
    def test_continuous_across_one_half(self, phi):
        # the series takes |u| = 1/2, the band the next float above it
        a, b, c = _psi_rows(1.5 - 0.3j, 1.3)[0]
        inner = 0.5 * cmath.exp(1j * phi)
        outer = np.nextafter(0.5, 1.0) * cmath.exp(1j * phi)
        if abs(outer) <= 0.5:
            outer *= 1.0 + 2e-16
        f_in, f_out = hyp2f1_grid(a, b, c, np.array([inner, outer]))
        assert abs(f_in - f_out) <= 1e-14 * abs(f_in)

    def test_values_do_not_depend_on_neighbours_or_rows(self):
        # band points mixed with series points: permuting or splitting
        # the points, or summing a row alone, changes no bit
        rng = np.random.default_rng(41)
        us = np.concatenate([_band_u(rng, 150),
                             [_contract_domain_u(rng) for _ in range(150)]])
        rng.shuffle(us)
        rows = _psi_rows(2.1 - 0.4j, 0.9) + _psi_rows(150.0, 1.3) \
            + [(1.3 - 0.8j, -0.4 + 1.6j, 1.1 + 0.3j)]
        a, b, c = (np.array(col) for col in zip(*rows))
        whole = hyp2f1_grid(a, b, c, us)
        perm = rng.permutation(len(us))
        assert hyp2f1_grid(a, b, c, us[perm]).tobytes() \
            == whole[:, perm].tobytes()
        parts = [hyp2f1_grid(a, b, c, chunk)
                 for chunk in np.array_split(us, [1, 90, 91, 200])]
        assert np.concatenate(parts, axis=1).tobytes() == whole.tobytes()
        for i, row in enumerate(rows):
            assert hyp2f1_grid(*row, us).tobytes() == whole[i].tobytes(), i
        for j in (0, 7, 250):
            assert hyp2f1_grid(a, b, c, us[j:j + 1])[:, 0].tobytes() \
                == whole[:, j].tobytes()

    def test_cancellation_is_refused(self):
        # the row before Euler's transformation at k = 50 on the band:
        # its terms peak far above the sum, naming the band point
        import mpmath as mp

        u = 0.7 * cmath.exp(2.5j)
        a, b, c = _gauss_rows(50.0, 1.3)[0]
        with mp.workdps(30):
            total = float(abs(mp.hyp2f1(*map(mp.mpc, (a, b, c, u)))))
        assert _series_peak(a, b, c, u) > 1e9 * total
        with pytest.raises(PreconditionViolation,
                           match=re.escape(f"cancel to fewer than 8 digits "
                                           f"at a = {a}")):
            hyp2f1_grid(np.array([0.5, a]), np.array([1.5, b]),
                        np.array([2.5, c]), np.array([0.1j, u, 0.3]))

    def test_non_finite_term_is_refused_among_series_points(self):
        # the terms at |u| = 0.79 overflow near n = 440; the points that
        # the series takes do not hide it
        start = time.perf_counter()
        with pytest.raises(PreconditionViolation,
                           match=r"term \d+ is not finite at "
                                 + re.escape("a = (0.3-1000j)")):
            hyp2f1_grid(0.3 - 1000j, 1.7 - 1000j, 1.0 - 1000j,
                        np.array([1e-3, 0.79, 0.6j]))
        assert time.perf_counter() - start < 0.5

    def test_coefficient_past_the_float_range_is_refused(self):
        # C_n overflows from n = 383 on while C_n 0.8^n peaks near 1e281:
        # the Horner sum is not finite, refused without a warning
        with warnings.catch_warnings(), pytest.raises(
                PreconditionViolation,
                match=re.escape("sum is not finite at a = (-1100.5+0j)")):
            warnings.simplefilter("error")
            hyp2f1_grid(-1100.5, 2.0, 1.5, np.array([1e-3, 0.8, 0.6j]))


class TestTerminatingRows:
    """Rows that end in a polynomial, by Horner's rule to their degree,
    at points inside and outside the series region."""

    POINTS = np.array([0.3 + 0.2j, -0.6 + 0.45j, 0.75j, -3.0 + 1.0j,
                       0.95 + 0.1j, 2.5 - 4.0j])

    def _check(self, a, b, c):
        import mpmath as mp

        got = hyp2f1_grid(a, b, c, self.POINTS)
        with mp.workdps(30):
            for g, u in zip(got, self.POINTS):
                expect = complex(mp.hyp2f1(*map(mp.mpc, (a, b, c, u))))
                assert abs(g - expect) <= 1e-14 * max(1.0, abs(expect)), u

    @pytest.mark.parametrize("lam, degree", [(-1.0, 1), (-3.0, 2)])
    def test_reflectionless(self, lam, degree):
        # s = 1, 2: b = -s ends the polynomial at degree s
        s = _index(lam)
        assert s == degree
        for k in (0.7, 2.0 - 0.5j, 150.0):
            self._check(*_psi_rows(k, lam)[0])

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_gamow(self, n):
        # at the n-th Gamow pole c - b = -n: (1-u)^{c-a-b} times the
        # polynomial F(c-a, c-b; c; u) of degree n
        s = _index(1.3)
        a, b, c = 1.0 + s, -s, -s - n
        assert c - b == -n
        self._check(a, b, c)


def test_derived_cap_refuses_a_row_that_cannot_stop():
    # F(1, 1; c; 1/2) vanishes at this c: the partial sums fall to
    # rounding level, so the terms never drop below _EPS times them.  The
    # pair runs past its cap, the degree where the tail bound at |u| = 1/2
    # falls below every sum the cancellation verdict could accept, and is
    # refused there, about 90 terms in
    import mpmath as mp

    c = -0.3465164914758597 + 1.05516006427817j
    with mp.workdps(30):
        assert abs(complex(mp.hyp2f1(1, 1, c, 0.5))) < 1e-15
    start = time.perf_counter()
    with pytest.raises(NonConvergence, match=r"'terms': \d\d\}"):
        hyp2f1_grid(1.0, 1.0, c, np.array([0.5, 0.1, 1e-3j]))
    assert time.perf_counter() - start < 0.1
