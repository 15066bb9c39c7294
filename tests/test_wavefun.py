"""Tests for scaled wave functions, Siegert roots, norms, and regions."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson as scipy_simpson

from csmres.errors import NonNormalizable, PreconditionViolation
from csmres.model import (
    ModelParams,
    branch_point,
    branch_point_coupling,
    derived_quantities,
    lambda_window,
    resonance_energy,
)
from csmres.binbasis import ep_ray, spatial_grid
from csmres.specfun import complex_gamma
from csmres.wavefun import (
    RegionLabel,
    _amplitude,
    _gamma_coeffs,
    asymptotic_coefficients,
    asymptotic_values,
    classify_region,
    default_grid,
    eval_wavefunction,
    find_resonance_k,
    gamow_cnorm,
    normalize_gamow,
    raw_psi,
    siegert_residual,
    simpson,
)

SQRT7 = math.sqrt(7.0)


def ode_residual(params, k, field):
    """Relative residual of the scaled ODE on interior points (5-pt stencil)."""
    x = field.grid
    v = field.values
    h = x[1] - x[0]
    d2 = (-v[4:] + 16 * v[3:-1] - 30 * v[2:-2] + 16 * v[1:-3] - v[:-4]) / (12 * h * h)
    e2t = cmath.exp(-2j * params.theta)
    xp = x[2:-2] * cmath.exp(1j * params.theta)
    pot = params.lam / np.cosh(xp) ** 2
    energy = (params.hbar * k) ** 2 / (2.0 * params.m)
    res = -params.hbar**2 / (2 * params.m) * e2t * d2 + pot * v[2:-2] - energy * v[2:-2]
    return np.max(np.abs(res)) / np.max(np.abs(v))


class TestEvalWavefunction:
    def test_origin_value_is_f_at_half(self):
        p = ModelParams(lam=1.0, theta=0.4)
        k = 0.9 - 0.2j
        f = eval_wavefunction(p, k)
        from csmres.specfun import hyp2f1
        s = derived_quantities(p).s
        kb = 1j * k
        expect = hyp2f1(-kb - s, -kb + s + 1, -kb + 1, 0.5)
        mid = len(f.grid) // 2
        assert abs(f.values[mid] - expect) < 1e-12 * abs(expect)

    def test_free_limit_is_plane_wave(self):
        # s = 0 (lam = 0): psi = 4^{-ik/2} e^{ikx}; modulus constant for
        # real k along real x at zero rotation
        x = np.linspace(-10, 10, 401)
        k = 1.3
        psi = raw_psi(k, 0.0, 1.0, 0.0, x)
        expect = 4.0 ** (-1j * k / 2.0) * np.exp(1j * k * x)
        assert np.max(np.abs(psi - expect)) < 1e-11
        assert np.max(np.abs(np.abs(psi) - 1.0)) < 1e-12

    def test_ode_residual_resonance(self):
        p = ModelParams(lam=1.0, theta=0.4)
        k = resonance_energy(p, 0).k
        f = eval_wavefunction(p, k)
        assert ode_residual(p, k, f) < 1e-6

    def test_ode_residual_generic_k(self):
        p = ModelParams(lam=2.0, theta=0.3)
        f = eval_wavefunction(p, 1.1 + 0.05j)
        assert ode_residual(p, 1.1 + 0.05j, f) < 1e-6

    def test_asymptotic_agreement(self):
        for theta in (0.3, 0.4):
            p = ModelParams(lam=1.0, theta=theta)
            k = resonance_energy(p, 0).k
            f = eval_wavefunction(p, k)
            av = asymptotic_values(p, k, f.grid)
            m = np.abs(f.grid) > 8.0
            rel = np.abs(f.values[m] - av[m]) / np.abs(av[m])
            assert np.max(rel) < 1e-6

    def test_asymptotic_agreement_generic_k(self):
        p = ModelParams(lam=1.7, theta=0.35)
        k = 1.4 - 0.1j
        f = eval_wavefunction(p, k)
        av = asymptotic_values(p, k, f.grid)
        m = np.abs(f.grid) > 8.0
        rel = np.abs(f.values[m] - av[m]) / np.abs(av[m])
        assert np.max(rel) < 1e-6

    def test_tail_decay_above_critical_angle(self):
        # theta = 0.4 > theta_0(1) ~ 0.3614: decay both sides, fitted
        # exponent matches the analytic one to 1%
        p = ModelParams(lam=1.0, theta=0.4)
        k = resonance_energy(p, 0).k
        f = eval_wavefunction(p, k)
        x = f.grid
        sel = x > 8.0
        slope = np.polyfit(x[sel], np.log(np.abs(f.values[sel])), 1)[0]
        q = (1j * k * cmath.exp(1j * p.theta)).real
        assert q < 0.0
        assert abs(slope - q) < 0.01 * abs(q)
        sel = x < -8.0
        slope = np.polyfit(x[sel], np.log(np.abs(f.values[sel])), 1)[0]
        assert slope > 0.0  # decays toward -inf

    def test_tail_growth_below_critical_angle(self):
        p = ModelParams(lam=1.0, theta=0.3)
        k = resonance_energy(p, 0).k
        f = eval_wavefunction(p, k)
        x = f.grid
        sel = x < -8.0
        slope = np.polyfit(x[sel], np.log(np.abs(f.values[sel])), 1)[0]
        assert slope < 0.0  # grows toward -inf
        assert classify_region(p) is RegionLabel.DivergentB


def psi_oracle(x: float, k: complex, s: complex, theta: float) -> complex:
    """Scaled solution (beta = 1) by mpmath on principal branches.

    50 digits keep 1 - u exact to double precision out to |x| = 40.
    """
    import mpmath as mp

    with mp.workdps(50):
        k = mp.mpc(k.real, k.imag)
        s = mp.mpc(s.real, s.imag)
        z = mp.mpf(x) * mp.expj(mp.mpf(theta))
        u = 1 / (1 + mp.exp(2 * z))
        pref = mp.exp(-0.5j * k * (mp.log(4) + mp.log(u) + mp.log(1 - u)))
        kb = 1j * k
        return complex(pref * mp.hyp2f1(-kb - s, -kb + s + 1, -kb + 1, u))


def _k_rows(case):
    """(k-nodes, s, theta) of a batched raw_psi call as binned_state makes
    them: real-axis nodes unrotated, EP-ray nodes at +theta and their
    analytic-conjugate partners at -theta."""
    if case == "real":
        p = ModelParams(lam=1.0, theta=0.3)
        return np.linspace(0.5, 3.5, 7).astype(complex), \
            derived_quantities(p).s, 0.0
    th = math.pi / 6
    lam = branch_point_coupling(th) + 1e-3
    p = ModelParams(lam=lam, theta=th)
    nodes = ep_ray(p, (-2.0, -1.0, 0.0, 1.0, 2.0)).nodes
    if case == "ep+":
        return nodes, derived_quantities(p).s, th
    return np.conj(nodes), derived_quantities(p.with_lam(np.conj(lam))).s, -th


@pytest.mark.parametrize("case", ["real", "ep+", "ep-"])
class TestBatchedRawPsi:
    x = spatial_grid(1.0)

    def test_rows_match_single_k_calls(self, case):
        ks, s, theta = _k_rows(case)
        rows = raw_psi(ks, s, 1.0, theta, self.x)
        assert rows.shape == (len(ks), len(self.x))
        for k, row in zip(ks, rows):
            one = raw_psi(k, s, 1.0, theta, self.x)
            assert np.all(np.abs(row - one) <= 4e-15 * np.abs(one))

    def test_rows_match_mpmath(self, case):
        # principal branches agree with the continued ones while
        # |x| sin(theta) < pi/2, where tanh(x e^{i theta}) has no pole
        ks, s, theta = _k_rows(case)
        rows = raw_psi(ks, s, 1.0, theta, self.x)
        inside = np.flatnonzero(
            np.abs(self.x) * math.sin(abs(theta)) < 0.9 * math.pi / 2.0)
        picks = inside[np.linspace(0, len(inside) - 1, 9).astype(int)]
        worst = max(abs(row[i] - psi_oracle(self.x[i], k, s, theta))
                    / abs(row[i]) for k, row in zip(ks, rows) for i in picks)
        assert -math.log10(worst) >= 12.0


def _index(lam):
    """Potential index s at coupling lam (s does not depend on theta)."""
    return derived_quantities(ModelParams(lam=lam, theta=0.3)).s


class TestJostPairIdentities:
    """The identities the bin integrals of binbasis rest on."""

    x = spatial_grid(1.0, n_points=801)

    @settings(max_examples=30, deadline=None)
    @given(theta=st.floats(0.0, 0.75), lam=st.floats(0.05, 2.0),
           on_ray=st.booleans(), k_real=st.floats(0.2, 3.5),
           alpha=st.floats(-2.0, 2.0), offset=st.floats(1e-6, 1e-2),
           phase=st.floats(0.0, 2.0 * math.pi))
    def test_mirror_identity(self, theta, lam, on_ray, k_real, alpha,
                             offset, phase):
        # the even barrier: psi(k, -y) = R psi(k, y) + T 4^{-ik} psi(-k, y),
        # for real s (lam < 1/8) and Re s = -1/2 (lam > 1/8) alike
        s = _index(lam)
        k = complex(k_real)
        if on_ray:
            theta = max(theta, 0.05)
            _, _, k_bp = branch_point(ModelParams(lam=lam, theta=theta))
            k = k_bp + alpha * cmath.sqrt(offset * cmath.exp(1j * phase))
        y = self.x[self.x >= 0.0]
        refl, trans = _gamma_coeffs(k, s, 1.0)
        pair = raw_psi(np.array([k, -k]), s, 1.0, theta, y)
        mirror = raw_psi(k, s, 1.0, theta, -y)
        got = refl * pair[0] + trans * _amplitude(k, 1.0) ** 2 * pair[1]
        scale = max(np.max(np.abs(pair)), np.max(np.abs(mirror)))
        assert np.max(np.abs(got - mirror)) <= 1e-12 * scale

    @pytest.mark.parametrize("alpha", (-1.0, 0.0, 1.0))
    @pytest.mark.parametrize("theta", (0.2, math.pi / 6, 0.7))
    def test_analytic_conjugate_is_solution_at_minus_k(self, theta, alpha):
        lam_bp, _, k_bp = branch_point(ModelParams(lam=1.0, theta=theta))
        lam = lam_bp + 1e-3 * cmath.exp(0.7j)
        s = _index(lam)
        k = k_bp + alpha * cmath.sqrt(lam - lam_bp)
        bar = np.conj(raw_psi(np.conj(k), np.conj(s), 1.0, -theta, self.x))
        minus = raw_psi(-k, s, 1.0, theta, self.x)
        assert np.max(np.abs(bar - minus)) <= 1e-14 * np.max(np.abs(minus))

    @pytest.mark.parametrize("lam", (0.06, 0.5, 1.8))
    def test_unrotated_conjugate_is_solution_at_minus_k(self, lam):
        s = _index(lam)
        for k in (0.3, 1.7, 3.4):
            psi = raw_psi(k, s, 1.0, 0.0, self.x)
            minus = raw_psi(-k, s, 1.0, 0.0, self.x)
            assert np.max(np.abs(np.conj(psi) - minus)) \
                <= 1e-14 * np.max(np.abs(minus))


class TestRawPsiRange:
    """Past the kernels' range raw_psi raises a typed error, not NaN."""

    p = ModelParams(lam=1.0, theta=0.3)
    x = default_grid(1.0, None, 65)

    @pytest.mark.parametrize("k, what", [
        (150.0, "not finite"),      # the 2F1 connection power overflows
        (300.0, "kernels overflow"),  # math range error in complex_gamma
    ])
    def test_large_k_raises(self, k, what):
        s = derived_quantities(self.p).s
        with pytest.raises(PreconditionViolation, match=what):
            raw_psi(k, s, 1.0, self.p.theta, self.x)
        with pytest.raises(PreconditionViolation, match=what):
            raw_psi(np.array([1.0, k]), s, 1.0, self.p.theta, self.x)


class TestSiegert:
    def test_exact_condition_is_machine_zero(self):
        p = ModelParams(lam=1.0, theta=0.3)
        s = derived_quantities(p).s
        k = -1j * p.beta * (s + 1.0)
        assert siegert_residual(p, k) == 0.0

    def test_newton_matches_closed_form(self):
        p = ModelParams(lam=1.0, theta=0.3)
        k = find_resonance_k(p, 0.8 - 0.4j)
        assert abs(k - (SQRT7 / 2.0 - 0.5j)) < 1e-8
        e = (k**2) / 2.0
        assert abs(e - resonance_energy(p, 0).energy) < 1e-8

    def test_no_iterations_is_a_value_error(self):
        p = ModelParams(lam=1.0, theta=0.3)
        with pytest.raises(ValueError, match="max_iter"):
            find_resonance_k(p, 0.8 - 0.4j, max_iter=0)

    def test_anti_resonance_first_quadrant(self):
        # outgoing-at-minus-infinity condition: zeros of the residual at -k;
        # the physical anti-resonance sits in the first quadrant at the
        # conjugate of the resonance wavenumber (real coupling)
        p = ModelParams(lam=1.0, theta=0.3)
        k_res = resonance_energy(p, 0).k

        def conjugate_condition(k):
            return siegert_residual(p, -k)

        k = 1.2 + 0.4j
        for _ in range(100):
            fv = conjugate_condition(k)
            dfv = (conjugate_condition(k + 1e-7) - fv) / 1e-7
            dk = fv / dfv
            k = k - dk
            if abs(dk) < 1e-12:
                break
        assert k.real > 0 and k.imag > 0
        assert abs(k - k_res.conjugate()) < 1e-8

    def test_sinh_identity_for_reflection(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = ModelParams(lam=rng.uniform(0.3, 4.0), theta=0.3)
            s = derived_quantities(p).s
            k = complex(rng.uniform(0.2, 2.0), rng.uniform(-0.5, 0.5))
            if (math.pi * k / p.beta).real <= 0:
                continue
            refl = asymptotic_coefficients(p, k).refl
            ident = 1j * cmath.sin(math.pi * s) / cmath.sinh(math.pi * k / p.beta)
            assert abs(refl - ident) < 1e-10 * max(1.0, abs(ident))


class TestSimpson:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), n=st.integers(2, 40), uniform=st.booleans(),
           complex_y=st.booleans())
    def test_equals_scipy_bit_for_bit(self, data, n, uniform, complex_y):
        start = data.draw(st.floats(-50.0, 50.0))
        if uniform:
            x = np.linspace(start, start + data.draw(st.floats(1e-3, 100.0)),
                            n)
        else:
            steps = data.draw(st.lists(st.floats(1e-3, 10.0),
                                       min_size=n - 1, max_size=n - 1))
            x = start + np.concatenate(([0.0], np.cumsum(steps)))
        samples = st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)
        y = np.array(data.draw(samples))
        if complex_y:
            y = y + 1j * np.array(data.draw(samples))
        got, want = simpson(y, x), scipy_simpson(y, x=x)
        assert got == want
        assert type(got) is type(want)


class TestGamowNorm:
    def test_finite_and_truncation_stable(self):
        p = ModelParams(lam=1.0, theta=0.4)
        k = resonance_energy(p, 0).k
        n1 = gamow_cnorm(eval_wavefunction(p, k))
        n2 = gamow_cnorm(eval_wavefunction(p, k, default_grid(1.0, 24.0, 4097)))
        assert abs(n2 - n1) < 1e-8 * abs(n1)

    def test_matches_gamma_ratio_closed_form(self):
        # independent oracle: the regularized bilinear integral has the
        # closed form e^{-i theta} sqrt(pi) G(-(s+1)) / G(-1/2-s) / beta
        for lam, theta in ((1.0, 0.4), (0.8, 0.45), (2.0, 0.5)):
            p = ModelParams(lam=lam, theta=theta)
            s = derived_quantities(p).s
            expect = cmath.exp(-1j * theta) * math.sqrt(math.pi) \
                * complex_gamma(-(s + 1.0)) / complex_gamma(-0.5 - s) / p.beta
            k = resonance_energy(p, 0).k
            got = gamow_cnorm(eval_wavefunction(p, k, default_grid(1.0, 30.0, 6001)))
            assert abs(got - expect) < 1e-8 * abs(expect)

    def test_divergent_raises(self):
        p = ModelParams(lam=1.0, theta=0.3)  # below theta_0
        k = resonance_energy(p, 0).k
        with pytest.raises(NonNormalizable):
            gamow_cnorm(eval_wavefunction(p, k))

    def test_normalized_field_has_unit_cnorm(self):
        p = ModelParams(lam=1.0, theta=0.4)
        k = resonance_energy(p, 0).k
        f = normalize_gamow(eval_wavefunction(p, k))
        assert abs(gamow_cnorm(f) - 1.0) < 1e-10

    def test_limit_toward_branch_point_is_finite_gamma_ratio(self):
        # The unnormalized bilinear norm does NOT vanish at the branch
        # point: it tends smoothly to the finite gamma-ratio limit (the
        # vanishing shows up per unit L2 mass instead, see binbasis
        # diagnostics).  Verified against the closed form at every step.
        th = math.pi / 6
        lbp = branch_point_coupling(th)
        grid = default_grid(1.0, 30.0, 6001)
        mags = []
        for d in (1e-1, 1e-2, 1e-3, 1e-4):
            p = ModelParams(lam=lbp + d, theta=th)
            s = derived_quantities(p).s
            expect = cmath.exp(-1j * th) * math.sqrt(math.pi) \
                * complex_gamma(-(s + 1.0)) / complex_gamma(-0.5 - s)
            k = resonance_energy(p, 0).k
            got = gamow_cnorm(eval_wavefunction(p, k, grid))
            assert abs(got - expect) < 1e-7 * abs(expect)
            mags.append(abs(got))
        # monotone approach to the finite limiting magnitude
        limit = abs(cmath.exp(-1j * th) * math.sqrt(math.pi)
                    * complex_gamma(-(-0.5 + 0.5j * math.sqrt(3)) - 1.0)
                    / complex_gamma(-0.5 - (-0.5 + 0.5j * math.sqrt(3))))
        diffs = [abs(m - limit) for m in mags]
        assert diffs == sorted(diffs, reverse=True)
        assert limit > 1.0  # manifestly non-zero


class TestClassifyRegion:
    def test_real_coupling_sides(self):
        th = 0.4
        lbp = branch_point_coupling(th)
        p = ModelParams(lam=1.0, theta=th)
        assert classify_region(p, lbp * 1.5) is RegionLabel.ConvergentA
        assert classify_region(p, lbp * 0.7) is RegionLabel.DivergentB
        assert classify_region(p, lbp) is RegionLabel.ScatteringBoundary

    def test_flip_at_critical_angle(self):
        from csmres.model import critical_angle
        lam = 1.0
        th0 = critical_angle(ModelParams(lam=lam, theta=0.3), 0).raw
        above = ModelParams(lam=lam, theta=th0 + 1e-10)
        below = ModelParams(lam=lam, theta=th0 - 1e-10)
        assert classify_region(above) is RegionLabel.ConvergentA
        assert classify_region(below) is RegionLabel.DivergentB

    def test_boundary_field_matches_continuum_solution(self):
        # at lam = lam_bp the outgoing solution and the rotated-continuum
        # solution at k_bp are one and the same function
        th = math.pi / 6
        rb = lambda_window(th)
        p = ModelParams(lam=rb.lambda_bp, theta=th)
        k_res = resonance_energy(p, 0).k
        assert abs(k_res - rb.k_bp) < 1e-12
        f1 = eval_wavefunction(p, k_res)
        f2 = eval_wavefunction(p, rb.k_bp)
        mid = len(f1.grid) // 2
        ratio = f1.values[mid] / f2.values[mid]
        assert np.max(np.abs(f1.values - ratio * f2.values)) < 1e-12
