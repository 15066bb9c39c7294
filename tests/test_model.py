"""Tests for the closed-form spectral data."""

import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csmres import model
from csmres.errors import DegenerateIndex, NonConvergence, \
    PreconditionViolation
from csmres.model import (
    ModelParams,
    _bisect_zeros,
    _pole,
    branch_point,
    branch_point_coupling,
    contact_coupling_root,
    lambda_window,
    potential_index,
    resonance_energy,
)

SQRT7 = math.sqrt(7.0)


class TestModelParams:
    @pytest.mark.parametrize("units, named", [
        ({"beta": 1e-170}, "beta^2 = 0.0"),
        ({"hbar": 1e155}, "hbar^2 = inf"),
        ({"beta": 1e100, "hbar": 1e100}, "(beta hbar)^2 = inf"),
        ({"m": 1e-310}, "beta^2 hbar^2 / (8 m) = inf"),
        ({"m": 1e300, "beta": 1e-20}, "beta^2 hbar^2 / (8 m) = 0.0"),
    ])
    def test_units_outside_the_float_range_raise(self, units, named):
        # each of the four squares the closed forms divide by is checked
        with pytest.raises(ValueError, match=re.escape(named)):
            ModelParams(lam=1.0, theta=0.3, **units)

    def test_units_at_the_float_range_are_accepted(self):
        p = ModelParams(lam=1.0, theta=0.3, m=1e-30, hbar=1e-17, beta=1e150)
        assert 0.0 < p.energy_scale < math.inf


def coupling_index(p):
    """g = 8 m lam / (beta hbar)^2, the dimensionless coupling."""
    return 8.0 * p.m * p.lam / (p.beta * p.hbar) ** 2


class TestDerivedQuantities:
    def test_index_equation(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            lam = complex(rng.uniform(0.2, 5), rng.uniform(-1, 1))
            p = ModelParams(lam=lam, theta=0.3)
            s, g = potential_index(p), coupling_index(p)
            # s(s+1) = -g/4 by construction of the index
            assert abs(s * (s + 1.0) + g / 4.0) < 1e-12 * max(1.0, abs(g))

    def test_principal_branch_above_threshold(self):
        p = ModelParams(lam=1.0, theta=0.3)
        g = coupling_index(p)
        assert abs(potential_index(p)
                   - (-0.5 + 0.5j * math.sqrt(g.real - 1.0))) < 1e-14

    @pytest.mark.parametrize("lam, units", [
        (1e308, {}),
        (-1000.0, {"m": 1e300, "hbar": 1e-3}),
        (1e300, {"hbar": 0.1, "beta": 1e-8}),
        (complex(1.0, 1e308), {}),
    ])
    def test_index_outside_the_float_range_raises(self, lam, units):
        # a finite coupling whose g = 8 m lam / (beta hbar)^2 overflows is
        # refused where g is derived, not carried on as nan
        p = ModelParams(lam=lam, theta=0.3, **units)
        named = "g = 8 m lam / (beta hbar)^2 is not finite"
        with pytest.raises(PreconditionViolation, match=re.escape(named)):
            potential_index(p)
        with pytest.raises(PreconditionViolation, match=re.escape(named)):
            resonance_energy(p, 0)


class TestResonanceEnergy:
    def test_n0_reference_units(self):
        p = ModelParams(lam=1.0, theta=0.3)
        r = resonance_energy(p, 0)
        assert abs(r.energy - (0.75 - SQRT7 / 4.0 * 1j)) < 1e-14
        assert abs(r.k - (SQRT7 / 2.0 - 0.5j)) < 1e-14
        assert r.energy.imag < 0 and r.k.real > 0 and r.k.imag < 0
        assert abs(r.width - SQRT7 / 2.0) < 1e-14

    def test_n1_reference_units(self):
        p = ModelParams(lam=1.0, theta=0.3)
        r = resonance_energy(p, 1)
        expect = (1.0 / 8.0) * (SQRT7 - 3j) ** 2
        assert abs(r.energy - expect) < 1e-14
        assert abs(r.energy - (-0.25 - 3.0 * SQRT7 / 4.0 * 1j)) < 1e-13

    def test_threshold_limit(self):
        p = ModelParams(lam=0.125 * (1.0 + 1e-9), theta=0.3)
        r = resonance_energy(p, 0)
        assert abs(r.energy - (-0.125)) < 1e-4
        assert abs(r.energy.imag) < 1e-4

    def test_degenerate_index_raises(self):
        p = ModelParams(lam=0.125, theta=0.3)
        with pytest.raises(DegenerateIndex):
            resonance_energy(p, 0)

    def test_kappa_index_relation(self):
        # ladder condition: with the principal branches of both roots the
        # pole of level n satisfies kappa(E_n) = s + n + 1 (the equivalent
        # statement kappa - s = -n holds on the conjugate branch pair)
        for n in (0, 1, 2, 3):
            p = ModelParams(lam=2.3, theta=0.35)
            s = potential_index(p)
            r = resonance_energy(p, n)
            # kappa = sqrt(-2 m E) / (beta hbar), principal branch
            kappa = cmath.sqrt(-2.0 * p.m * r.energy) / (p.beta * p.hbar)
            assert abs(kappa - (s + n + 1.0)) < 1e-12
            # branch-free restatement: kappa - s = -n with kappa -> -kappa
            # and s -> -1-s
            assert abs((-kappa) - (-1.0 - s) + n) < 1e-12

    def test_theta_independent_bit_identical(self):
        thetas = [0.05, 0.2, 0.361, 0.7, 0.78]
        vals = set()
        for th in thetas:
            p = ModelParams(lam=1.7, theta=min(th, 0.785))
            r = resonance_energy(p, 0)
            vals.add((r.energy.real, r.energy.imag, r.k.real, r.k.imag))
        assert len(vals) == 1

    def test_general_units(self):
        # carried constants: scale invariance of the closed form
        p = ModelParams(lam=3.0, theta=0.3, m=1.7, hbar=0.8, beta=1.3)
        r = resonance_energy(p, 0)
        scale = p.energy_scale
        g = 8.0 * p.m * 3.0 / (p.beta * p.hbar) ** 2
        expect = scale * (cmath.sqrt(g - 1.0) - 1j) ** 2
        assert abs(r.energy - expect) < 1e-14 * abs(expect)


def single_branch_angle(params, n):
    """The single-branch closed form (1/2) arctan(-Im E_n / Re E_n)."""
    e = resonance_energy(params, n).energy
    return 0.5 * math.atan(-e.imag / e.real)


class TestCriticalAngle:
    def test_n0_reference(self):
        p = ModelParams(lam=1.0, theta=0.3)
        angle = resonance_energy(p, 0).critical_angle
        assert abs(angle - 0.5 * math.atan(SQRT7 / 3.0)) < 1e-14
        assert abs(angle - 0.361367) < 1e-6
        assert resonance_energy(p, 0).energy.real > 0.0
        assert angle == single_branch_angle(p, 0)

    def test_branch_point_self_consistency(self):
        lam_bp = branch_point_coupling(math.pi / 6)
        p = ModelParams(lam=lam_bp, theta=math.pi / 6)
        angle = resonance_energy(p, 0).critical_angle
        assert abs(angle - math.pi / 6) < 1e-10

    def test_large_coupling_limit(self):
        for lam in (1e3, 1e5, 1e7):
            p = ModelParams(lam=lam, theta=0.3)
            angle = resonance_energy(p, 0).critical_angle
            assert angle < 1.0 / math.sqrt(lam)

    def test_negative_real_part_exposes_both(self):
        p = ModelParams(lam=1.0, theta=0.3)
        assert resonance_energy(p, 1).energy.real < 0.0
        raw = single_branch_angle(p, 1)
        assert raw < 0.0
        angle = resonance_energy(p, 1).critical_angle
        assert abs(angle - (raw + math.pi / 2.0)) < 1e-14

    @pytest.mark.parametrize("lam, n", [(0.25, 0), (1.25, 1)])
    def test_zero_real_part_is_quarter_pi(self, lam, n):
        # E_n = (1/8)(sqrt(g - 1) - (2n + 1) i)^2 with sqrt(g - 1) = 2n + 1
        # exactly: the arctan form divides by 0, -arg(E_n)/2 is pi/4
        p = ModelParams(lam=lam, theta=0.3)
        assert resonance_energy(p, n).energy.real == 0.0
        assert resonance_energy(p, n).critical_angle == math.pi / 4

    def test_monotone_in_n_where_unambiguous(self):
        p = ModelParams(lam=40.0, theta=0.3)
        assert all(resonance_energy(p, n).energy.real > 0.0
                   for n in range(4))
        angles = [resonance_energy(p, n).critical_angle for n in range(4)]
        raws = [single_branch_angle(p, n) for n in range(4)]
        assert raws == sorted(raws)
        assert angles == sorted(angles)
        # arctan and atan2 round apart (by 1 ulp at n = 2)
        assert all(abs(a - r) <= 1e-15 * a for a, r in zip(angles, raws))


class TestLambdaWindow:
    def test_reference_values_pi_over_6(self):
        rb = lambda_window(math.pi / 6)
        lam_bp, e_bp, k_bp = branch_point(
            ModelParams(lam=1.0, theta=math.pi / 6))
        assert abs(rb.lambda0_plus - 0.5) < 1e-14
        assert abs(lam_bp - 0.5) < 1e-14
        assert abs(rb.lambda0_minus - 1.0 / 6.0) < 1e-14
        assert abs(rb.lambda1_plus - 3.5) < 1e-12
        assert abs(rb.lambda1_minus - 0.5) < 1e-12
        assert abs(e_bp - (0.25 - math.sqrt(3.0) / 4.0 * 1j)) < 1e-14
        assert abs(k_bp - cmath.exp(-1j * math.pi / 6.0)) < 1e-14

    def test_bp_contact_condition(self):
        for th in (math.pi / 8, math.pi / 6, math.pi / 5):
            _, e_bp, _ = branch_point(ModelParams(lam=1.0, theta=th))
            assert abs(math.tan(2 * th) * e_bp.real + e_bp.imag) < 1e-10

    def test_both_lambda0_plus_forms_agree(self):
        # lambda0_plus is lambda_bp; the window form (1 + cos 2t)/sin^2 2t
        # gives the same value
        for th in np.linspace(0.01, math.pi / 4 - 0.01, 1000):
            rb = lambda_window(th)
            lam_bp = branch_point(ModelParams(lam=1.0, theta=th))[0]
            window = 0.25 * (1.0 + math.cos(2 * th)) / math.sin(2 * th) ** 2
            assert rb.lambda0_plus == lam_bp
            assert abs(window - lam_bp) < 1e-14 * lam_bp

    @pytest.mark.parametrize("units, named", [
        ({"m": -1.0}, "m = -1.0 must be positive"),
        ({"hbar": 0.0}, "hbar = 0.0 must be positive"),
        ({"hbar": 1e155}, "hbar^2 = inf"),
        ({"m": 1e-310}, "beta^2 hbar^2 / (8 m) = inf"),
    ])
    def test_bad_units_are_refused(self, units, named):
        # refused as ModelParams refuses them, not turned into bounds
        for call in (lambda: lambda_window(0.3, **units),
                     lambda: branch_point_coupling(0.3, **units),
                     lambda: ModelParams(lam=1.0, theta=0.3, **units)):
            with pytest.raises(ValueError, match=re.escape(named)):
                call()

    def test_evaluates_no_resonance(self, monkeypatch):
        # the bounds are closed forms in theta and the units alone
        expect = lambda_window(0.3, 1.7, 0.8, 1.3)

        def refused(*args):
            raise AssertionError("resonance_energy called")

        monkeypatch.setattr(model, "resonance_energy", refused)
        assert lambda_window(0.3, 1.7, 0.8, 1.3) == expect

    @pytest.mark.parametrize("theta", [0.02, 1e-3, 1e-8])
    def test_bounds_match_mpmath(self, theta):
        # the closed forms as written, at 50 digits; lambda1_minus cancels
        # in them at small theta (0 instead of 0.125 at 1e-8 in doubles)
        import mpmath as mp

        with mp.workdps(50):
            th = mp.mpf(theta)
            s2, c = mp.sin(2 * th) ** 2, mp.cos(2 * th)
            t2 = mp.tan(2 * th) ** 2
            head = (9 + 5 * t2) / t2
            root = mp.sqrt(head**2 - (9 + 25 * t2) / t2)
            expect = [(1 - c) / s2 / 4, (1 + c) / s2 / 4,
                      (head - root) / 4, (head + root) / 4]
        rb = lambda_window(theta)
        got = [rb.lambda0_minus, rb.lambda0_plus, rb.lambda1_minus,
               rb.lambda1_plus]
        for g, e in zip(got, expect):
            assert abs(g - float(e)) <= 1e-14 * float(e)

    def test_theta_to_quarter_pi_limit(self):
        rb = lambda_window(math.pi / 4 - 1e-9)
        assert abs(rb.lambda0_plus - 0.25) < 1e-6

    def test_ordering_on_moderate_angles(self):
        for th in np.linspace(0.05, 0.35, 300):
            rb = lambda_window(th)
            assert rb.lambda0_plus < rb.lambda1_plus

    def test_numerical_contact_root_matches_closed_form(self):
        for th in (math.pi / 8, math.pi / 6, math.pi / 5):
            root = contact_coupling_root(th, n=0)
            assert abs(root - branch_point_coupling(th)) < 1e-10
        # n = 1: the literal formula's plus root is the physical contact
        for th in (math.pi / 8, math.pi / 6):
            rb = lambda_window(th)
            root = contact_coupling_root(th, n=1)
            assert abs(root - rb.lambda1_plus) < 1e-9 * rb.lambda1_plus


def expanded_cubic(roots):
    """(t - r1)(t - r2)(t - r3) by Horner from its rounded coefficients:
    near a root the value is rounding noise, whose signs decide the last
    halvings of a bisection."""
    r1, r2, r3 = roots
    c2, c1, c0 = -(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3

    def fun(t):
        return ((t + c2) * t + c1) * t + c0

    return fun


def scalar_outcomes(scalar_bisect, fun, brackets, tol):
    """The oracle's zero per bracket, each point an array of one, or the
    error that one of the brackets raises: ``PreconditionViolation``
    first, since ``_bisect_zeros`` tests every bracket's ends before it
    halves any."""
    def one(a, b):
        try:
            return scalar_bisect(lambda t: fun(np.array([t]))[0], a, b, tol)
        except (PreconditionViolation, NonConvergence) as exc:
            return type(exc)

    zeros = [one(a, b) for a, b in brackets]
    for error in (PreconditionViolation, NonConvergence):
        if error in zeros:
            return error
    return zeros


class TestBisectZero:
    def test_root_to_tolerance(self):
        (root,) = _bisect_zeros(lambda t: t * t - 2.0, [(0.0, 2.0)],
                                tol=1e-13)
        assert abs(root - math.sqrt(2.0)) < 1e-13

    def test_stops_at_adjacent_floats(self):
        # 1e-13 is below the float spacing near 1e6
        (root,) = _bisect_zeros(lambda t: t - 1e6 - 0.3, [(1e6, 1e6 + 1.0)],
                                tol=1e-13)
        assert abs(root - (1e6 + 0.3)) <= 2.0 * math.ulp(1e6)

    def test_same_sign_raises(self):
        with pytest.raises(PreconditionViolation):
            _bisect_zeros(lambda t: t * t + 1.0, [(-1.0, 1.0)])
        # one bracket without a sign change refuses the call
        with pytest.raises(PreconditionViolation):
            _bisect_zeros(lambda t: t * t - 0.25, [(0.0, 1.0), (-1.0, 1.0)])

    def test_iteration_cap_raises(self):
        # 200 halvings of 1e300 leave about 6e239, far above tol
        with pytest.raises(NonConvergence):
            _bisect_zeros(lambda t: t - 1e-250, [(0.0, 1e300)], tol=1e-300)

    @pytest.mark.parametrize("tol, zero", [(2.0**-9, None),
                                           (1.5 * 2.0**-9, 2.0**-10)])
    def test_cap_is_the_scalar_loops(self, scalar_bisect, tol, zero):
        # [0, 2^190] halves exactly towards 0: 199 halvings leave 2^-9, so
        # the stop test before the 200th passes at tol 1.5 * 2^-9, and at
        # 2^-9 only the one before the 201st would, which is never made
        brackets = [(0.0, 2.0**190)]
        expect = scalar_outcomes(scalar_bisect, np.negative, brackets, tol)
        if zero is None:
            assert expect is NonConvergence
            with pytest.raises(NonConvergence):
                _bisect_zeros(np.negative, brackets, tol=tol)
        else:
            assert expect == [zero]
            assert _bisect_zeros(np.negative, brackets, tol=tol) == [zero]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(roots=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3,
                          unique=True).map(sorted),
           widths=st.lists(st.tuples(st.floats(-14.0, 1.0),
                                     st.floats(-14.0, 1.0)),
                           min_size=1, max_size=3),
           tol=st.sampled_from([0.0, 1e-15, 1e-12, 1e-10, 1e-6]))
    @example(roots=[-1.0, 0.5, 2.0], widths=[(0.0, 0.0)], tol=0.0)
    @example(roots=[-1.0, 0.5, 2.0], widths=[(-3.0, 0.0), (-9.0, -1.0),
                                             (-14.0, -14.0)], tol=1e-12)
    def test_zeros_are_the_scalar_loops(self, scalar_bisect, roots, widths,
                                        tol):
        # bracket i straddles root i, with ends 10^u away; the expanded
        # cubic's noise decides the halvings near the root, and the
        # brackets take different numbers of halvings
        fun = expanded_cubic(roots)
        brackets = [(r - 10.0**lo, r + 10.0**hi)
                    for r, (lo, hi) in zip(roots, widths)]
        expect = scalar_outcomes(scalar_bisect, fun, brackets, tol)
        if isinstance(expect, type):
            with pytest.raises(expect):
                _bisect_zeros(fun, brackets, tol=tol)
            return
        got = _bisect_zeros(fun, brackets, tol=tol)
        assert [z.hex() for z in got] == [z.hex() for z in expect]
        # the ends' values given, as a scan would give them
        values = [(fun(np.array([a]))[0], fun(np.array([b]))[0])
                  for a, b in brackets]
        assert _bisect_zeros(fun, brackets, values, tol) == got


class TestBranchPoint:
    @settings(max_examples=200, deadline=None)
    @given(theta=st.floats(1e-3, math.pi / 4 - 1e-3),
           m=st.floats(0.2, 5.0), hbar=st.floats(0.2, 5.0),
           beta=st.floats(0.2, 5.0))
    def test_one_branch_point_everywhere(self, theta, m, hbar, beta):
        p = ModelParams(lam=1.0, theta=theta, m=m, hbar=hbar, beta=beta)
        lam_bp, e_bp, k_bp = branch_point(p)
        assert lam_bp == branch_point_coupling(theta, m, hbar, beta)
        assert lambda_window(theta, m, hbar, beta).lambda0_plus == lam_bp
        pole = resonance_energy(p.with_lam(lam_bp), 0)
        assert (pole.energy, pole.k) == (e_bp, k_bp)

    def test_coupling_does_not_enter(self):
        p = ModelParams(lam=1.0, theta=0.3)
        assert branch_point(p) == branch_point(p.with_lam(2.0 - 0.5j))


EPS = np.finfo(float).eps


def pole_reference(p, lam, n):
    """(E_n, k_n) of the closed form in CPython complex arithmetic, with
    the scale of the rounding of each: one ulp of g moves sqrt(g - 1) by
    |g| / (2 |sqrt(g - 1)|) ulp, E_n by that through its square, and k_n
    by the relative change of E_n halved."""
    g = 8.0 * p.m * complex(lam) / (p.beta * p.hbar) ** 2
    root = cmath.sqrt(g - 1.0)
    x = root - (2 * n + 1) * 1j
    energy = p.energy_scale * x ** 2
    k = cmath.sqrt(2.0 * p.m * energy) / p.hbar
    e_scale = p.energy_scale * (abs(x) ** 2 + abs(x) * abs(g) / abs(root))
    return energy, k, e_scale, abs(k) + p.m * e_scale / (p.hbar ** 2
                                                        * abs(k))


class TestPole:
    # over 3 000 such couplings the closed form differs from its CPython
    # reference by at most 1.9 ulp of the scale of E_n and 1.1 of k_n's
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(theta=st.floats(0.01, 0.78), m=st.floats(0.3, 3.0),
           hbar=st.floats(0.3, 3.0), beta=st.floats(0.3, 3.0),
           offsets=st.lists(st.tuples(st.floats(-14.0, 1.0),
                                      st.floats(0.0, 2.0 * math.pi)),
                            min_size=1, max_size=12),
           n=st.integers(0, 3))
    def test_array_matches_single_couplings(self, theta, m, hbar, beta,
                                            offsets, n):
        # couplings lam_bp (1 + 10^u e^{i phi}); a single coupling, Python
        # complex, numpy scalar or 0-d array, is an array of one
        p = ModelParams(lam=1.0, theta=theta, m=m, hbar=hbar, beta=beta)
        lbp = branch_point_coupling(theta, m, hbar, beta)
        lams = np.array([lbp * (1.0 + 10.0 ** u * cmath.exp(1j * phi))
                         for u, phi in offsets])
        energy, k = _pole(p, lams, n)
        for j, lam in enumerate(lams):
            for single in (complex(lam), lam, np.asarray(lam)):
                e1, k1 = _pole(p, single, n)
                assert e1.tobytes() == energy[j:j + 1].tobytes()
                assert k1.tobytes() == k[j:j + 1].tobytes()
            e_ref, k_ref, e_scale, k_scale = pole_reference(p, lam, n)
            assert abs(energy[j] - e_ref) <= 8.0 * EPS * e_scale
            assert abs(k[j] - k_ref) <= 8.0 * EPS * k_scale
