"""Tests for scaled wave functions, Siegert roots, norms, and regions."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson as scipy_simpson

from csmres import wavefun
from csmres.errors import CsmError, DegenerateIndex, NonNormalizable, \
    PreconditionViolation
from csmres.model import (
    ModelParams,
    branch_point,
    branch_point_coupling,
    potential_index,
    resonance_energy,
)
from csmres.binbasis import product_entry, resonance_state, spatial_grid, \
    unit_diagonal_state
from csmres.specfun import SERIES_RADIUS, complex_gamma, hyp2f1_grid, \
    reciprocal_gamma
from csmres.wavefun import (
    _amplitude,
    _gamma_coeffs,
    _s_factors,
    classification_functional,
    classify_region,
    default_grid,
    eval_wavefunction,
    find_resonance_k,
    raw_psi,
    siegert_residual,
)

SQRT7 = math.sqrt(7.0)


def gamma_coeffs_oracle(k: complex, s: complex, beta: float) -> tuple:
    """(refl, trans_like) from eight gamma evaluations per k, each product
    left to right: the oracle of ``_gamma_coeffs``, which evaluates
    Gamma(1 - ik/beta) once and takes the k-free factors from its caller."""
    kb = 1j * k / beta
    refl = complex_gamma(1.0 - kb) * complex_gamma(kb) \
        * reciprocal_gamma(1.0 + s) * reciprocal_gamma(-s)
    trans = complex_gamma(1.0 - kb) * complex_gamma(-kb) \
        * reciprocal_gamma(-kb - s) * reciprocal_gamma(-kb + s + 1.0)
    return refl, trans


def asymptotic_values(params, k, x):
    """Leading asymptotic form of the scaled solution with its full
    gamma-ratio coefficients on a grid, the far-field oracle of
    ``eval_wavefunction``."""
    x = np.asarray(x, dtype=float)
    s = potential_index(params)
    refl, trans = _gamma_coeffs(complex(k), s, params.beta, _s_factors(s))
    phase = cmath.exp(1j * params.theta)
    amp = _amplitude(k, params.beta)
    out = np.empty(x.shape, dtype=complex)
    pos = x >= 0.0
    out[pos] = amp * np.exp(1j * k * phase * x[pos])
    xm = x[~pos]
    out[~pos] = amp * (refl * np.exp(-1j * k * phase * xm)
                       + trans * np.exp(1j * k * phase * xm))
    return out


def ray_nodes(params):
    """Five EP-ray nodes k_bp + alpha' sqrt(lam - lam_bp), alpha' = -2..2,
    two beyond each end of the ``ep_ray`` bins."""
    lam_bp, _, k_bp = branch_point(params)
    root = cmath.sqrt(complex(params.lam) - lam_bp)
    return k_bp + np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * root


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
        s = potential_index(p)
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
        assert classify_region(p) == "DivergentB"


def _k_rows(case):
    """(k-nodes, s, theta) of a batched raw_psi call as binned_state makes
    them: real-axis nodes unrotated, EP-ray nodes at +theta and their
    analytic-conjugate partners at -theta."""
    if case == "real":
        p = ModelParams(lam=1.0, theta=0.3)
        return np.linspace(0.5, 3.5, 7).astype(complex), \
            potential_index(p), 0.0
    th = math.pi / 6
    lam = branch_point_coupling(th) + 1e-3
    p = ModelParams(lam=lam, theta=th)
    nodes = ray_nodes(p)
    if case == "ep+":
        return nodes, potential_index(p), th
    return np.conj(nodes), potential_index(p.with_lam(np.conj(lam))), -th


@pytest.mark.parametrize("case", ["real", "ep+", "ep-"])
class TestBatchedRawPsi:
    x = spatial_grid(1.0).x

    def test_rows_match_single_k_calls(self, case):
        ks, s, theta = _k_rows(case)
        rows = raw_psi(ks, s, 1.0, theta, self.x)
        assert rows.shape == (len(ks), len(self.x))
        for k, row in zip(ks, rows):
            one = raw_psi(k, s, 1.0, theta, self.x)
            assert np.all(np.abs(row - one) <= 4e-15 * np.abs(one))

    def test_rows_match_mpmath(self, case, psi_oracle):
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
    return potential_index(ModelParams(lam=lam, theta=0.3))


class TestJostPairIdentities:
    """The identities the bin integrals of binbasis rest on."""

    x = spatial_grid(1.0, n_points=801).x

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
        refl, trans = _gamma_coeffs(k, s, 1.0, _s_factors(s))
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


class TestMirroredRawPsi:
    """x < 0: in place in the band |u| <= SERIES_RADIUS, by the mirror
    identity beyond it."""

    @settings(max_examples=40, deadline=None)
    @given(theta=st.floats(0.05, 0.75), on_ray=st.booleans(),
           partner=st.booleans(), lam=st.floats(0.3, 3.0),
           k_re=st.floats(0.2, 4.0), k_im=st.floats(-1.0, 0.0),
           node=st.integers(0, 4), offset=st.floats(1e-6, 1e-2),
           phase=st.floats(0.0, 2.0 * math.pi),
           fractions=st.lists(st.floats(0.0, 1.0), min_size=4,
                              max_size=4))
    def test_negative_x_matches_mpmath(self, psi_oracle, theta, on_ray,
                                       partner, lam, k_re, k_im, node,
                                       offset, phase, fractions):
        # the scan k ranges at real lam, or EP-ray nodes as binned_state
        # evaluates them (the partner at conjugate k and lam and -theta)
        k = complex(k_re, k_im)
        if on_ray:
            lam = branch_point_coupling(theta) + offset * cmath.exp(1j * phase)
            p = ModelParams(lam=lam, theta=theta)
            k = complex(ray_nodes(p)[node])
            if partner:
                k, lam, theta = k.conjugate(), lam.conjugate(), -theta
        s = _index(lam)
        # principal branches (the oracle's) hold while |x| sin|theta| <
        # pi/2; points on both sides of the band edge and near x = 0,
        # where the two mirror terms cancel
        y_max = min(30.0, 0.9 * math.pi / (2.0 * math.sin(abs(theta))))
        y = np.linspace(0.0, y_max, 2001)
        band = np.abs(1.0 / (1.0 + np.exp(-2.0 * y * cmath.exp(1j * theta)))) \
            <= SERIES_RADIUS
        edge = np.flatnonzero(~band)[0]
        x = -np.concatenate([y[[edge - 1, edge]], [0.08],
                             y_max * np.array(fractions)])
        psi = raw_psi(k, s, 1.0, theta, x)
        worst = max(abs(v - psi_oracle(xi, k, s, theta)) / abs(v)
                    for xi, v in zip(x, psi))
        assert -math.log10(worst) >= 12.0

    def test_band_avoids_the_mirror_cancellation(self, psi_oracle):
        # near x = 0 the two mirror terms cancel: mirroring every x < 0 here
        # keeps 12.1 digits at x = -0.15, the band 13.0 at worst
        theta, k = 0.5835446288273954, 0.22311220047590596 - 0.9227558969952958j
        s = _index(2.9422793197687676)
        x = -np.linspace(0.05, 1.2, 24)
        psi = raw_psi(k, s, 1.0, theta, x)
        worst = max(abs(v - psi_oracle(xi, k, s, theta)) / abs(v)
                    for xi, v in zip(x, psi))
        assert -math.log10(worst) >= 12.5

    @pytest.mark.parametrize("theta", (0.06, 0.4, 0.74))
    @pytest.mark.parametrize("grid", ("linspace", "spatial"))
    def test_mirrored_points_reuse_their_twins(self, monkeypatch, theta,
                                               grid):
        # a mirrored x = -y takes psi(k, y) from the point x = +y; the
        # x < 0 half alone has no such points and sums psi(k, y) itself
        x = default_grid(1.0, 20.0, 4097) if grid == "linspace" \
            else spatial_grid(1.0).x
        k, s = 1.5 - 0.9j, _index(1.3)
        summed = []

        def counted(a, b, c, u):
            summed.append(len(u))
            return hyp2f1_grid(a, b, c, u)

        monkeypatch.setattr(wavefun, "hyp2f1_grid", counted)
        whole = raw_psi(k, s, 1.0, theta, x)
        # the +k sum skips every mirrored point
        band = np.count_nonzero(
            (x < 0.0) & (np.abs(1.0 / (1.0 + np.exp(
                -2.0 * np.abs(x) * cmath.exp(1j * theta)))) <= SERIES_RADIUS))
        assert summed[0] == np.count_nonzero(x >= 0.0) + band
        neg = x < 0.0
        halves = np.empty_like(whole)
        halves[~neg] = raw_psi(k, s, 1.0, theta, x[~neg])
        halves[neg] = raw_psi(k, s, 1.0, theta, x[neg])
        assert whole.tobytes() == halves.tobytes()

    def test_zero_k_with_mirrored_points_raises(self):
        # the Jost pair psi(k), psi(-k) is degenerate at k = 0; the band
        # alone needs no mirror
        s = _index(1.0)
        with pytest.raises(CsmError):
            raw_psi(0.0, s, 1.0, 0.3, default_grid(1.0))
        near = raw_psi(0.0, s, 1.0, 0.3, np.linspace(-0.5, 0.5, 11))
        assert np.isfinite(near).all()


class TestGammaFactors:
    """``_gamma_coeffs`` with shared factors against the eight-call form."""

    def test_bits_of_the_eight_call_form(self):
        # real and Gamow-type k, both signs of Im k, and s of real lam on
        # either side of 1/8 and of complex lam
        rng = np.random.default_rng(41)
        lams = (0.05, 0.6, 1.3, 2.0 + 0.3j, 0.4 - 0.05j)
        beta = (1.0, 0.7)
        n = 0
        for lam in lams:
            s = _index(lam)
            factors = _s_factors(s)
            for b in beta:
                ks = rng.uniform(0.05, 5.0, 1000) \
                    + 1j * rng.uniform(-1.5, 0.5, 1000)
                ks[:200] = ks[:200].real
                for k in map(complex, ks):
                    assert _gamma_coeffs(k, s, b, factors) \
                        == gamma_coeffs_oracle(k, s, b), (k, s, b)
                    n += 1
        assert n >= 10_000

    def test_five_gamma_evaluations_per_k(self, monkeypatch):
        calls = []

        def counted(name, fun):
            def call(z):
                calls.append(name)
                return fun(z)
            return call

        for name in ("complex_gamma", "reciprocal_gamma"):
            monkeypatch.setattr(wavefun, name,
                                counted(name, getattr(wavefun, name)))
        s = _index(1.3)
        factors = _s_factors(s)
        assert calls == ["reciprocal_gamma"] * 2
        calls.clear()
        for k in np.linspace(0.5, 3.5, 17):
            _gamma_coeffs(complex(k), s, 1.0, factors)
        assert calls.count("complex_gamma") == 3 * 17
        assert calls.count("reciprocal_gamma") == 2 * 17


class TestRawPsiRange:
    """At large |k| the series keeps its digits; past the gamma kernels'
    range raw_psi raises a typed error, not NaN."""

    p = ModelParams(lam=1.0, theta=0.3)
    x = default_grid(1.0, None, 65)

    @pytest.mark.parametrize("k", [40.0, 100.0, 150.0])
    def test_large_k_matches_mpmath(self, psi_oracle, k):
        # k enters the series through c = 1 - ik alone, whose terms shrink
        # as |k| grows; principal branches (the oracle's) hold while
        # |x| sin(theta) < pi/2
        s = potential_index(self.p)
        inside = np.flatnonzero(
            np.abs(self.x) * math.sin(self.p.theta) < math.pi / 2.0)
        one = raw_psi(k, s, 1.0, self.p.theta, self.x)
        rows = raw_psi(np.array([1.0, k]), s, 1.0, self.p.theta, self.x)
        for psi in (one, rows[1]):
            worst = max(abs(psi[i] - psi_oracle(x, k, s, self.p.theta))
                        / abs(psi[i]) for i, x in zip(inside, self.x[inside]))
            assert worst <= 1e-12

    @pytest.mark.parametrize("k, what", [
        (300.0, "float range"),  # Gamma(300i) leaves it
    ])
    def test_large_k_raises(self, k, what):
        s = potential_index(self.p)
        with pytest.raises(PreconditionViolation, match=what):
            raw_psi(k, s, 1.0, self.p.theta, self.x)
        with pytest.raises(PreconditionViolation, match=what):
            raw_psi(np.array([1.0, k]), s, 1.0, self.p.theta, self.x)


class TestSiegert:
    def test_exact_condition_is_machine_zero(self):
        p = ModelParams(lam=1.0, theta=0.3)
        s = potential_index(p)
        k = -1j * p.beta * (s + 1.0)
        assert siegert_residual(p, k) == 0.0

    def test_newton_matches_closed_form(self):
        p = ModelParams(lam=1.0, theta=0.3)
        k = find_resonance_k(p, 0.8 - 0.4j)
        assert abs(k - (SQRT7 / 2.0 - 0.5j)) < 1e-8
        e = (k**2) / 2.0
        assert abs(e - resonance_energy(p, 0).energy) < 1e-8

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
            s = potential_index(p)
            k = complex(rng.uniform(0.2, 2.0), rng.uniform(-0.5, 0.5))
            if (math.pi * k / p.beta).real <= 0:
                continue
            refl = _gamma_coeffs(k, s, p.beta, _s_factors(s))[0]
            ident = 1j * cmath.sin(math.pi * s) / cmath.sinh(math.pi * k / p.beta)
            assert abs(refl - ident) < 1e-10 * max(1.0, abs(ident))


def gamow_cnorm(params, space):
    """Bilinear c-norm of the unnormalized n = 0 Gamow state, from the
    package's own path: ``product_entry`` of the L2-normalized resonance
    with itself, times the L2 mass, which is taken here by scipy's Simpson
    rule on the grid plus the two exponential tails beyond +-X."""
    pole = resonance_energy(params, 0)
    q = 1j * pole.k * cmath.exp(1j * params.theta)
    v = raw_psi(pole.k, potential_index(params), params.beta,
                params.theta, space.x)
    mass = scipy_simpson(np.abs(v) ** 2, x=space.x) \
        + (abs(v[0]) ** 2 + abs(v[-1]) ** 2) / (-2.0 * q.real)
    res = resonance_state(params, space)
    return product_entry(res, res, space) * mass


class TestGamowNorm:
    def test_finite_and_truncation_stable(self):
        p = ModelParams(lam=1.0, theta=0.4)
        n1 = gamow_cnorm(p, spatial_grid(1.0))
        n2 = gamow_cnorm(p, spatial_grid(1.0, 24.0, 4097))
        assert abs(n2 - n1) < 1e-8 * abs(n1)

    def test_matches_gamma_ratio_closed_form(self):
        # independent oracle: the regularized bilinear integral has the
        # closed form e^{-i theta} sqrt(pi) G(-(s+1)) / G(-1/2-s) / beta
        for lam, theta in ((1.0, 0.4), (0.8, 0.45), (2.0, 0.5)):
            p = ModelParams(lam=lam, theta=theta)
            s = potential_index(p)
            expect = cmath.exp(-1j * theta) * math.sqrt(math.pi) \
                * complex_gamma(-(s + 1.0)) / complex_gamma(-0.5 - s) / p.beta
            got = gamow_cnorm(p, spatial_grid(1.0, 30.0, 6001))
            assert abs(got - expect) < 1e-8 * abs(expect)

    def test_divergent_raises(self):
        p = ModelParams(lam=1.0, theta=0.3)  # below theta_0
        with pytest.raises(NonNormalizable):
            resonance_state(p, spatial_grid(1.0))

    def test_normalized_field_has_unit_cnorm(self):
        p = ModelParams(lam=1.0, theta=0.4)
        space = spatial_grid(1.0)
        res = unit_diagonal_state(resonance_state(p, space), space)
        assert abs(product_entry(res, res, space) - 1.0) < 1e-10

    def test_limit_toward_branch_point_is_finite_gamma_ratio(self):
        # The unnormalized bilinear norm does NOT vanish at the branch
        # point: it tends smoothly to the finite gamma-ratio limit (the
        # vanishing shows up per unit L2 mass instead, see binbasis
        # diagnostics).  Verified against the closed form at every step.
        th = math.pi / 6
        lbp = branch_point_coupling(th)
        space = spatial_grid(1.0, 30.0, 6001)
        mags = []
        for d in (1e-1, 1e-2, 1e-3, 1e-4):
            p = ModelParams(lam=lbp + d, theta=th)
            s = potential_index(p)
            expect = cmath.exp(-1j * th) * math.sqrt(math.pi) \
                * complex_gamma(-(s + 1.0)) / complex_gamma(-0.5 - s)
            got = gamow_cnorm(p, space)
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
        assert classify_region(p, lbp * 1.5) == "ConvergentA"
        assert classify_region(p, lbp * 0.7) == "DivergentB"
        assert classify_region(p, lbp) == "ScatteringBoundary"
        assert type(classify_region(p, lbp)) is str

    def test_flip_at_critical_angle(self):
        lam = 1.0
        th0 = resonance_energy(ModelParams(lam=lam, theta=0.3),
                               0).critical_angle
        above = ModelParams(lam=lam, theta=th0 + 1e-10)
        below = ModelParams(lam=lam, theta=th0 - 1e-10)
        assert classify_region(above) == "ConvergentA"
        assert classify_region(below) == "DivergentB"

    def test_boundary_field_matches_continuum_solution(self):
        # at lam = lam_bp the outgoing solution and the rotated-continuum
        # solution at k_bp are one and the same function
        th = math.pi / 6
        lam_bp, _, k_bp = branch_point(ModelParams(lam=1.0, theta=th))
        p = ModelParams(lam=lam_bp, theta=th)
        k_res = resonance_energy(p, 0).k
        assert abs(k_res - k_bp) < 1e-12
        f1 = eval_wavefunction(p, k_res)
        f2 = eval_wavefunction(p, k_bp)
        mid = len(f1.grid) // 2
        ratio = f1.values[mid] / f2.values[mid]
        assert np.max(np.abs(f1.values - ratio * f2.values)) < 1e-12


def k0_closed_form(p, lam):
    """k_0 in CPython complex arithmetic, step for step the closed form of
    ``resonance_energy``: a reference within rounding."""
    g = 8.0 * p.m * complex(lam) / (p.beta * p.hbar) ** 2
    root = cmath.sqrt(g - 1.0)
    energy = p.energy_scale * (root - 1j) ** 2
    return cmath.sqrt(2.0 * p.m * energy) / p.hbar


def functional_oracle(p, lam):
    """The per-coupling classification: a new parameter set per coupling,
    k_0 from ``resonance_energy`` and the product with e^{i theta} on an
    array of one."""
    q = p.with_lam(lam)
    k = np.array([resonance_energy(q, 0).k])
    return (1j * k * cmath.exp(1j * q.theta)).real[0]


def functional_reference(p, lam):
    """The classification functional in CPython complex arithmetic."""
    return (1j * k0_closed_form(p, lam) * cmath.exp(1j * p.theta)).real


# away from g = 1 the numpy and CPython forms of k_0 agree to a few ulp
# of |k_0|: over 20 000 couplings like these tests' the worst is 2.7 ulp
# for k_0 and 1.9 ulp of |k_0| for the functional
K0_REL_TOL = 8.0 * np.finfo(float).eps


def label_oracle(p, lam):
    f = functional_oracle(p, lam)
    if abs(f) <= 1e-12 * p.beta:
        return "ScatteringBoundary"
    return "ConvergentA" if f < 0.0 else "DivergentB"


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


units = st.floats(0.3, 3.0)
# couplings lam_bp (1 + 10^u e^{i phi}): both sides of the boundary circle
offsets = st.tuples(st.floats(-14.0, -1.0), st.floats(0.0, 2.0 * math.pi))


class TestArrayClassification:
    """The array form against the per-coupling scalar path, bit for bit,
    and against the CPython closed form within rounding."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(theta=st.floats(0.01, 0.78), m=units, hbar=units, beta=units,
           offsets=st.lists(offsets, min_size=1, max_size=12))
    def test_functional_and_labels_match_scalar_path(self, theta, m, hbar,
                                                     beta, offsets):
        p = ModelParams(lam=1.0, theta=theta, m=m, hbar=hbar, beta=beta)
        lbp = branch_point_coupling(theta, m, hbar, beta)
        lams = [lbp, lbp * 1.5, lbp * 0.7] + [
            lbp + lbp * 10.0 ** u * cmath.exp(1j * phi) for u, phi in offsets]
        scalar = [functional_oracle(p, lam) for lam in lams]
        for lam, f in zip(lams, scalar):
            k = resonance_energy(p.with_lam(lam), 0).k
            assert abs(k - k0_closed_form(p, lam)) <= K0_REL_TOL * abs(k)
            assert abs(f - functional_reference(p, lam)) \
                <= K0_REL_TOL * abs(k)
            assert bits(classification_functional(p, lam)) == bits(f)
            assert bits(classification_functional(p.with_lam(lam))) \
                == bits(f)
        assert bits(classification_functional(p, np.array(lams))) \
            == bits(scalar)
        labels = classify_region(p, np.array(lams))
        assert labels == [label_oracle(p, lam) for lam in lams]
        assert labels[0] == "ScatteringBoundary"
        assert all(type(label) is str for label in labels)

    def test_boundary_within_tolerance(self):
        # f within 1e-12 of zero on both sides of lam_bp, and just beyond
        p = ModelParams(lam=1.0, theta=0.4)
        lbp = branch_point_coupling(0.4)
        lams = np.array([lbp * (1.0 + d) for d in
                         (-1e-9, -1e-13, 0.0, 1e-13, 1e-9)])
        f = classification_functional(p, lams)
        assert np.abs(f[1:4]).max() <= 1e-12 < np.abs(f[[0, 4]]).min()
        assert classify_region(p, lams) == [
            label_oracle(p, lam) for lam in lams]
        assert classify_region(p, lams)[1:4] == \
            ["ScatteringBoundary"] * 3

    @pytest.mark.parametrize("rel", [0.0, 5e-13, -5e-13])
    def test_degenerate_index_raises(self, rel):
        # g = 8 m lam / (beta hbar)^2 within 1e-12 of 1, in an array of
        # otherwise regular couplings
        p = ModelParams(lam=1.0, theta=0.4, m=1.7, hbar=0.6, beta=2.2)
        lam = p.energy_scale * (1.0 + rel)
        lbp = branch_point_coupling(0.4, 1.7, 0.6, 2.2)
        with pytest.raises(DegenerateIndex):
            classify_region(p, np.array([lbp, lam, 2.0 * lbp]))
        with pytest.raises(DegenerateIndex):
            classify_region(p, lam)
        with pytest.raises(DegenerateIndex):
            resonance_energy(p.with_lam(lam), 0)

    @pytest.mark.parametrize("lam", [math.inf, math.nan,
                                     complex(1.0, math.inf)])
    def test_non_finite_coupling_raises(self, lam):
        # refused where E_n and k_n are derived, in both forms, before any
        # arithmetic: an array of couplings must not warn on 0 * inf first
        p = ModelParams(lam=lam, theta=0.3)
        with pytest.raises(PreconditionViolation, match="not finite"):
            resonance_energy(p, 0)
        with pytest.raises(PreconditionViolation, match="not finite"):
            classify_region(p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionViolation, match="not finite"):
                classify_region(p, np.array([1.0, lam]))

    def test_real_array_and_imaginary_axis(self):
        # float couplings, -0.0 imaginary parts and a sqrt(g - 1) on the
        # imaginary axis (Re g = 1), where np.sqrt and cmath.sqrt round
        # differently; units of powers of 2 make g = 1 exact at
        # lam = energy_scale
        p = ModelParams(lam=1.0, theta=0.3, m=2.0, hbar=0.5, beta=4.0)
        es = p.energy_scale
        lams = [0.5 * es, 3.0 * es, complex(3.0 * es, -0.0),
                complex(0.5 * es, -0.0), complex(es, 0.37 * es),
                complex(es, -2.1 * es)]
        scalar = [functional_oracle(p, lam) for lam in lams]
        for lam, f in zip(lams, scalar):
            assert bits(classification_functional(p, lam)) == bits(f)
            k = resonance_energy(p.with_lam(lam), 0).k
            assert abs(f - functional_reference(p, lam)) \
                <= K0_REL_TOL * abs(k)
        assert bits(classification_functional(p, np.array(lams))) \
            == bits(scalar)
        reals = np.array([0.5 * es, 3.0 * es])
        assert bits(classification_functional(p, reals)) == bits(scalar[:2])
