"""Tests for momentum-bin states, overlap machinery, and EP diagnostics."""

import cmath
import logging
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss, legvander
from scipy.integrate import simpson

from csmres import binbasis
from csmres.binbasis import (
    _GK_ORDERS,
    BinGrid,
    TailTerm,
    _gk_integral,
    _kronrod_rule,
    bin_energy,
    binned_state,
    build_bins,
    degeneracy_diagnostics,
    ep_ray,
    limit_exchange_entries,
    overlap_matrix,
    plane_wave_bin,
    product_entry,
    real_axis,
    resonance_state,
    spatial_grid,
    tail_integral,
    unit_diagonal_state,
)
from csmres.errors import EmptyRange, QuadratureError
from csmres.model import ModelParams, branch_point_coupling, \
    derived_quantities
from csmres.wavefun import _gamma_coeffs, raw_psi

LN2 = math.log(2.0)


class TestGrids:
    def test_uniform_real_partition(self):
        p = ModelParams(lam=1.0, theta=0.3)
        grid = build_bins(p, real_axis(0.5, 3.5), n_bins=6)
        assert grid.hermitian and grid.n_bins == 6
        assert np.allclose(grid.nodes, np.linspace(0.5, 3.5, 7))
        assert np.allclose(grid.widths, 0.5)

    def test_empty_partition_raises(self):
        p = ModelParams(lam=1.0, theta=0.3)
        with pytest.raises(EmptyRange):
            build_bins(p, real_axis(0.5, 3.5), n_bins=0)
        with pytest.raises(EmptyRange):
            build_bins(p, ep_ray(0.5 + 0.01j, alphas=(0.0,)))

    def test_ep_ray_substitution(self):
        # nodes k_bp + alpha' sqrt(lam - lam_bp), principal root:
        # offset 1e-4 e^{i pi/3} -> step 1e-2 e^{i pi/6}
        th = math.pi / 6
        p = ModelParams(lam=1.0, theta=th)
        lbp = branch_point_coupling(th)
        lam = lbp + 1e-4 * cmath.exp(1j * math.pi / 3)
        grid = build_bins(p, ep_ray(lam, alphas=(0.0, 1.0, 2.0)))
        k_bp = cmath.exp(-1j * th)
        step = 1e-2 * cmath.exp(1j * math.pi / 6)
        for n, a in enumerate((0.0, 1.0, 2.0)):
            assert abs(grid.nodes[n] - (k_bp + a * step)) < 1e-14

    def test_alpha_ordering_enforced(self):
        with pytest.raises(ValueError):
            ep_ray(0.5 + 0.01j, alphas=(1.0, 0.0))


class TestTailIntegral:
    def segment(self, power, rate, a, b):
        t, w = leggauss(200)
        y = 0.5 * (a + b) + 0.5 * (b - a) * t
        return 0.5 * (b - a) * np.sum(w * np.exp(rate * y) / y**power)

    def test_additivity_decaying(self):
        q = -0.3 + 0.7j
        for p in (0, 1, 2, 3, 5):
            whole = tail_integral(p, q, 10.0)
            part = self.segment(p, q, 10.0, 25.0) + tail_integral(p, q, 25.0)
            assert abs(whole - part) < 1e-12 * max(1.0, abs(whole))

    def test_additivity_continued(self):
        # growing exponentials: the regularized values still satisfy the
        # same additivity, which pins down the analytic continuation
        q = 0.2 + 1.0j
        for p in (0, 1, 2, 4):
            whole = tail_integral(p, q, 10.0)
            part = self.segment(p, q, 10.0, 25.0) + tail_integral(p, q, 25.0)
            assert abs(whole - part) < 1e-10 * max(1.0, abs(whole))

    def test_pure_exponential_closed_form(self):
        q = -0.5 + 0.3j
        assert abs(tail_integral(0, q, 8.0) - (-cmath.exp(q * 8.0) / q)) < 1e-15

    def test_zero_rate_algebraic(self):
        assert abs(tail_integral(3, 0.0, 10.0) - 0.5e-2) < 1e-15

    def test_product_sum_integrates_each_sum_once(self, monkeypatch):
        # bin tails repeat (power, rate) sums: the product sum must equal
        # the plain pairwise loop bit for bit with one integral per sum
        rng = np.random.default_rng(5)
        rates = (-0.3 + 0.7j, -0.1 - 1.2j, 0.2 + 1.0j)

        def terms(count):
            return [TailTerm(coef=complex(*rng.standard_normal(2)),
                             power=int(rng.integers(0, 4)),
                             rate=rates[int(rng.integers(0, 3))])
                    for _ in range(count)]

        left, right = terms(12), terms(10)
        plain = 0.0 + 0.0j
        for tl in left:
            for tr in right:
                plain += tl.coef * tr.coef * tail_integral(
                    tl.power + tr.power, tl.rate + tr.rate, 40.0)
        calls = []
        monkeypatch.setattr(binbasis, "tail_integral",
                            lambda *a: calls.append(a) or tail_integral(*a))
        assert binbasis._tail_product_sum(left, right, 40.0) == plain
        assert len(calls) == len(set(calls)) == len(
            {(tl.power + tr.power, tl.rate + tr.rate)
             for tl in left for tr in right})


def _legendre_coeffs(n):
    """Exact ascending monomial coefficients of P_n."""
    prev, cur = [Fraction(1)], [Fraction(0), Fraction(1)]
    if n == 0:
        return prev
    for j in range(1, n):
        nxt = [(2 * j + 1) * c for c in [Fraction(0)] + cur]
        for i, c in enumerate(prev):
            nxt[i] -= j * c
        prev, cur = cur, [c / (j + 1) for c in nxt]
    return cur


def _stieltjes_coeffs(n):
    """Exact ascending monomial coefficients of the monic Stieltjes
    polynomial E_{n+1}: orthogonal to every x^j, j <= n, under the weight
    P_n on [-1, 1]."""
    pn = _legendre_coeffs(n)
    mom = [sum(c * Fraction(2, i + m + 1) for i, c in enumerate(pn)
               if (i + m) % 2 == 0) for m in range(2 * n + 2)]
    size = n + 1
    aug = [[mom[i + j] for i in range(size)] + [-mom[size + j]]
           for j in range(size)]
    for col in range(size):
        piv = next(r for r in range(col, size) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                f = aug[r][col] / aug[col][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][size] / aug[i][i] for i in range(size)] + [Fraction(1)]


def _kronrod_oracle(n):
    """K_{2n+1} by mpmath at 60 digits: the roots of P_n and E_{n+1}, and
    the weights that integrate P_0 ... P_{2n} exactly."""
    import mpmath as mp

    with mp.workdps(60):
        x = []
        for coeffs in (_legendre_coeffs(n), _stieltjes_coeffs(n)):
            desc = [mp.mpf(c.numerator) / c.denominator
                    for c in reversed(coeffs)]
            x += [mp.re(r) for r in mp.polyroots(desc, maxsteps=200,
                                                  extraprec=300)]
        x.sort()
        vand = mp.matrix([[mp.legendre(j, xi) for xi in x]
                          for j in range(2 * n + 1)])
        w = mp.lu_solve(vand, mp.matrix([2] + [0] * (2 * n)))
        return np.array([float(v) for v in x]), np.array([float(v) for v in w])


class TestKronrodRule:
    @pytest.mark.parametrize("n", (8, 16))
    def test_matches_stieltjes_construction(self, n):
        t, rows = _kronrod_rule(n)
        xo, wo = _kronrod_oracle(n)
        assert np.max(np.abs(t - xo)) < 1e-14
        assert np.max(np.abs(rows[0] - wo)) < 1e-14

    @pytest.mark.parametrize("n", _GK_ORDERS)
    def test_level_is_exact_positive_and_embeds_gauss(self, n):
        t, rows = _kronrod_rule(n)
        assert t.shape == (2 * n + 1,) and rows.shape == (2, 2 * n + 1)
        assert np.all(np.diff(t) > 0.0) and -1.0 < t[0] and t[-1] < 1.0
        assert np.all(rows[0] > 0.0)
        # K_{2n+1} integrates P_0 ... P_{3n+1} exactly
        moments = rows[0] @ legvander(t, 3 * n + 1)
        moments[0] -= 2.0
        assert np.max(np.abs(moments)) < 1e-14
        tg, wg = leggauss(n)
        assert np.max(np.abs(t[1::2] - tg)) <= 1e-15
        assert np.max(np.abs(rows[1, 1::2] - wg)) <= 1e-15
        assert np.all(rows[1, 0::2] == 0.0)

    def test_unsettled_integrand_raises_within_the_ladder(self, caplog):
        ladder = sum(2 * n + 1 for n in _GK_ORDERS)
        seen = []

        def fun(ks):
            seen.append(len(ks))
            return np.exp(2000j * ks)[None, :, None]

        with caplog.at_level(logging.DEBUG, logger="csmres.binbasis"), \
                pytest.raises(QuadratureError):
            _gk_integral(fun, lambda ks: np.ones((1, 1, len(ks))),
                         0.0, 1.0, 1.0)
        assert seen == [2 * n + 1 for n in _GK_ORDERS]
        assert sum(seen) == ladder
        (msg,) = [r.getMessage() for r in caplog.records]
        assert msg.startswith(f"bin integral: K129/G64, {ladder} k-nodes")
        assert msg.endswith(", failed")


class TestBinQuadrature:
    """binned_state against a plain leggauss(96) integral of raw_psi."""

    x = np.linspace(-40.0, 40.0, 801)

    @staticmethod
    def gl96(fun, ka, kb):
        t, w = leggauss(96)
        half = 0.5 * (kb - ka)
        ks = 0.5 * (ka + kb) + half * t.astype(complex)
        return half * (w @ fun(ks)) / np.sqrt(np.complex128(kb - ka))

    @staticmethod
    def digits(got, ref):
        return -math.log10(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))

    def hermitian_refs(self, p):
        """Values and H values of the delta bin [1.5, 2] at theta 0."""
        s = derived_quantities(p).s

        def phi(ks):
            trans = np.array([_gamma_coeffs(k, s, 1.0)[1] for k in ks])
            return raw_psi(ks, s, 1.0, 0.0, self.x) \
                / (math.sqrt(2.0 * math.pi) * trans[:, None])

        return (self.gl96(phi, 1.5, 2.0),
                self.gl96(lambda ks: 0.5 * ks[:, None] ** 2 * phi(ks),
                          1.5, 2.0))

    def test_hermitian_delta_bin(self, caplog):
        p = ModelParams(lam=1.0, theta=0.3)
        grid = build_bins(p, real_axis(0.5, 3.5), n_bins=6)
        with caplog.at_level(logging.DEBUG, logger="csmres.binbasis"):
            st = binned_state(p, grid, 2, self.x)
        ref, ref_h = self.hermitian_refs(p)
        assert self.digits(st.values, ref) >= 12.0
        assert self.digits(st.h_values, ref_h) >= 12.0
        # the phase span 0.5 * 40 / 2 = 10 radians starts and settles at K33
        (msg,) = [r.getMessage() for r in caplog.records]
        assert msg.startswith("bin integral: K33/G16, 33 k-nodes")

    def test_hermitian_bin_with_complex_lam(self):
        # conj psi(k) is not psi(-k) here: x < 0 needs psi at -k itself
        p = ModelParams(lam=1.0 + 0.1j, theta=0.3)
        grid = build_bins(p, real_axis(0.5, 3.5), n_bins=6)
        st = binned_state(p, grid, 2, self.x)
        ref, ref_h = self.hermitian_refs(p)
        assert self.digits(st.values, ref) >= 12.0
        assert self.digits(st.h_values, ref_h) >= 12.0

    def test_ep_ray_channel_bin(self, caplog):
        th = math.pi / 6
        lam = branch_point_coupling(th) + 1e-2
        p = ModelParams(lam=lam, theta=th)
        grid = build_bins(p, ep_ray(lam))
        ka, kb = complex(grid.nodes[0]), complex(grid.nodes[1])
        with caplog.at_level(logging.DEBUG, logger="csmres.binbasis"):
            st = binned_state(p, grid, 0, self.x, normalization="channel")
        s = derived_quantities(p).s
        s_bar = derived_quantities(p.with_lam(np.conj(lam))).s
        jac = cmath.exp(0.5j * th) / math.sqrt(2.0 * math.pi)
        ref = self.gl96(
            lambda ks: jac * raw_psi(ks, s, 1.0, th, self.x), ka, kb)
        ref_left = self.gl96(
            lambda ks: jac * np.conj(raw_psi(np.conj(ks), s_bar, 1.0, -th,
                                             self.x)), ka, kb)
        assert self.digits(st.values, ref) >= 12.0
        assert self.digits(st.left_values, ref_left) >= 12.0
        # the left partner rides on the right state's ladder
        (msg,) = [r.getMessage() for r in caplog.records]
        assert msg.startswith("bin integral: K17/G8, 17 k-nodes")


class TestJostPairWork:
    """Bins sample psi(k) and psi(-k) on the distinct |x| of the grid only."""

    x = spatial_grid()

    def test_spatial_grid_is_mirror_symmetric(self):
        assert np.array_equal(self.x, -self.x[::-1])
        assert len(np.unique(np.abs(self.x))) == 4001
        # symmetrizing moves each linspace point by at most 1 ulp of X
        plain = np.linspace(-40.0, 40.0, 8001)
        assert np.max(np.abs(self.x - plain)) <= np.spacing(40.0)

    def psi_work(self, monkeypatch, build):
        calls = []

        def counted(k, s, beta, theta, x):
            calls.append((np.size(k), len(x)))
            return raw_psi(k, s, beta, theta, x)

        monkeypatch.setattr(binbasis, "raw_psi", counted)
        build()
        assert max(k for k, _ in calls) <= binbasis._K_BLOCK
        assert {n for _, n in calls} == {4001}
        return sum(k for k, _ in calls)

    def test_hermitian_bin_evaluates_plus_k_only(self, monkeypatch):
        p = ModelParams(lam=1.0, theta=0.3)
        grid = build_bins(p, real_axis(0.5, 3.5), n_bins=6)
        assert self.psi_work(
            monkeypatch, lambda: binned_state(p, grid, 0, self.x)) == 33

    def test_ep_ray_bin_shares_one_ladder(self, monkeypatch):
        # K17 nodes at k and at -k carry the right state and its partner
        th = math.pi / 6
        lam = branch_point_coupling(th) + 1e-2
        p = ModelParams(lam=lam, theta=th)
        grid = build_bins(p, ep_ray(lam))
        assert self.psi_work(monkeypatch, lambda: binned_state(
            p, grid, 0, self.x, normalization="channel")) == 34


class TestGridSpan:
    lopsided = np.linspace(-30.0, 40.0, 701)

    def test_lopsided_grid_raises(self):
        p = ModelParams(lam=1.0, theta=0.4)
        grid = build_bins(p, real_axis(1.0, 2.0), n_bins=2)
        st = binned_state(p, grid, 0, np.linspace(-35.0, 35.0, 701))
        with pytest.raises(ValueError, match="span"):
            binned_state(p, grid, 0, self.lopsided)
        with pytest.raises(ValueError, match="span"):
            resonance_state(p, self.lopsided)
        with pytest.raises(ValueError, match="span"):
            product_entry(st, st, self.lopsided)


class TestBinEnergy:
    def test_cubic_matches_quadrature(self):
        rng = np.random.default_rng(11)
        p = ModelParams(lam=1.0, theta=0.3)
        t, w = leggauss(12)
        for _ in range(20):
            ka = complex(rng.uniform(0.2, 2.0), rng.uniform(-0.5, 0.5))
            kb = ka + complex(rng.uniform(0.1, 1.0), rng.uniform(-0.3, 0.3))
            ks = 0.5 * (ka + kb) + 0.5 * (kb - ka) * t
            quad = 0.5 * (kb - ka) * np.sum(w * ks**2 / 2.0) / (kb - ka)
            assert abs(bin_energy(p, ka, kb) - quad) < 1e-12 * abs(quad)

    def test_midpoint_limit(self):
        p = ModelParams(lam=1.0, theta=0.3)
        assert abs(bin_energy(p, 1.0, 1.0 + 1e-9) - 0.5) < 1e-8


class TestPlaneWaveBin:
    def test_origin_value_and_falloff(self):
        x = np.linspace(-60.0, 60.0, 4001)
        dk = 0.5
        v = plane_wave_bin(x, 1.0, 1.5)
        mid = len(x) // 2
        assert abs(v[mid] - math.sqrt(dk)) < 1e-12
        far = np.abs(x) > 30.0
        assert np.all(np.abs(v[far]) <= 2.0 / (math.sqrt(dk) * np.abs(x[far])))

    def test_matches_riemann_sum(self):
        x = np.linspace(-5.0, 5.0, 11)
        ks = np.linspace(1.0, 1.5, 20001)
        direct = simpson(np.exp(1j * np.outer(ks, x)), x=ks, axis=0) \
            / math.sqrt(0.5)
        assert np.max(np.abs(plane_wave_bin(x, 1.0, 1.5) - direct)) < 1e-9


class TestBinnedState:
    def test_free_limit_matches_plane_wave_bin(self):
        # vanishing coupling: the continuum solution is 4^{-ik/2} e^{ikx},
        # so the binned state is the free bin evaluated at x - ln 2
        p = ModelParams(lam=1e-12, theta=0.3)
        x = np.linspace(-8.0, 8.0, 321)
        grid = build_bins(p, real_axis(1.0, 1.5), n_bins=1)
        st = binned_state(p, grid, 0, x)
        expect = plane_wave_bin(x - LN2, 1.0, 1.5) / math.sqrt(2.0 * math.pi)
        assert np.max(np.abs(st.values - expect)) < 1e-6

    def test_bad_index_and_normalization(self):
        p = ModelParams(lam=1.0, theta=0.3)
        x = np.linspace(-8.0, 8.0, 161)
        grid = build_bins(p, real_axis(1.0, 2.0), n_bins=2)
        with pytest.raises(IndexError):
            binned_state(p, grid, 2, x)
        with pytest.raises(ValueError):
            binned_state(p, grid, 0, x, normalization="what")

    def test_bin_energy_recorded(self):
        p = ModelParams(lam=1.0, theta=0.3)
        x = np.linspace(-8.0, 8.0, 161)
        grid = build_bins(p, real_axis(1.0, 2.0), n_bins=2)
        st = binned_state(p, grid, 1, x)
        assert abs(st.energy - bin_energy(p, 1.5, 2.0)) < 1e-14


class TestHermitianIdentity:
    @pytest.fixture(autouse=True, scope="class")
    def six_bins(self, request):
        # built once: the tests only read them
        cls = request.cls
        cls.p = ModelParams(lam=1.0, theta=0.3)
        cls.x = spatial_grid(1.0)
        cls.grid = build_bins(cls.p, real_axis(0.5, 3.5), n_bins=6)
        cls.bins = [binned_state(cls.p, cls.grid, j, cls.x) for j in range(6)]

    def test_overlap_is_identity(self):
        s = overlap_matrix(self.bins, self.bins, self.x).matrix
        assert np.max(np.abs(s - np.eye(6))) < 1e-5

    def test_overlap_is_hermitian(self):
        s = overlap_matrix(self.bins, self.bins, self.x).matrix
        assert np.max(np.abs(s - s.conj().T)) < 1e-5

    def test_hamiltonian_is_diagonal_of_bin_energies(self):
        h = overlap_matrix(self.bins, self.bins, self.x, apply_h=True).matrix
        eps = np.array([b.energy for b in self.bins])
        assert np.max(np.abs(h - np.diag(eps))) < 1e-5

    def test_neighboring_bins_orthogonal(self):
        s01 = product_entry(self.bins[0], self.bins[1], self.x)
        assert abs(s01) < 1e-6


class TestScaledIdentity:
    def test_rotated_continuum_biorthonormality(self):
        # delta-normalized scaled bins away from any outgoing-coefficient
        # zero: the analytic-conjugate left partners reproduce the identity
        th = 0.2
        p = ModelParams(lam=1.0, theta=th)
        x = spatial_grid(1.0)
        ray = cmath.exp(-1j * th)
        nodes = np.array([ray * t for t in (1.0, 1.5, 2.0, 2.5)],
                         dtype=complex)
        grid = BinGrid(nodes=nodes, hermitian=False, lam=1.0 + 0.0j)
        bins = [binned_state(p, grid, j, x) for j in range(3)]
        s = overlap_matrix(bins, bins, x).matrix
        h = overlap_matrix(bins, bins, x, apply_h=True).matrix
        eps = np.array([b.energy for b in bins])
        assert np.max(np.abs(s - np.eye(3))) < 1e-5
        assert np.max(np.abs(h - np.diag(eps))) < 1e-5


class TestUnitDiagonal:
    def test_rescale_gives_unit_self_product(self):
        th = math.pi / 6
        lbp = branch_point_coupling(th)
        lam = lbp + 1e-3
        p = ModelParams(lam=lam, theta=th)
        x = spatial_grid(1.0)
        grid = build_bins(p, ep_ray(lam))
        st = binned_state(p, grid, 0, x, normalization="channel")
        un = unit_diagonal_state(st, x)
        assert abs(product_entry(un, un, x) - 1.0) < 1e-9


class TestDegeneracyDiagnostics:
    def test_sigma_min_collapses_toward_branch_point(self):
        th = math.pi / 6
        lbp = branch_point_coupling(th)
        p = ModelParams(lam=1.0, theta=th)
        pts = degeneracy_diagnostics(p, [lbp + d for d in (1e-2, 1e-4, 1e-6)])
        sig = [pt.sigma_min for pt in pts]
        assert sig[0] > sig[1] > sig[2]
        assert sig[0] / sig[2] > 1e3
        assert pts[2].cond > 1e4
        # the collapse tracks the coupling distance linearly
        for pt, d in zip(pts, (1e-2, 1e-4, 1e-6)):
            assert 0.3 * d < pt.sigma_min < 3.0 * d

    def test_resonance_diag_drives_the_collapse(self):
        th = math.pi / 6
        lbp = branch_point_coupling(th)
        p = ModelParams(lam=1.0, theta=th)
        (pt,) = degeneracy_diagnostics(p, [lbp + 1e-4])
        m = pt.matrix.matrix
        assert pt.matrix.row_labels[0] == "res[0]"
        # bins stay unit-diagonal; the resonance self-product vanishes
        assert abs(m[1, 1] - 1.0) < 1e-6 and abs(m[2, 2] - 1.0) < 1e-6
        assert abs(m[0, 0]) < 1e-3

    def test_limit_exchange_inequality(self):
        th = math.pi / 6
        lbp = branch_point_coupling(th)
        p = ModelParams(lam=1.0, theta=th)
        interior, limits = limit_exchange_entries(
            p, [lbp + d for d in (1e-3, 1e-5)])
        assert all(v < 1e-4 for v in interior)
        assert all(v > 0.1 for v in limits)
        assert interior[1] < interior[0]


class TestResonanceState:
    def test_l2_normalization_unit_mass(self):
        p = ModelParams(lam=1.0, theta=0.4)
        x = spatial_grid(1.0)
        st = resonance_state(p, x, normalization="l2")
        q = st.tails_plus[0].rate
        interior = float(simpson(np.abs(st.values) ** 2, x=x))
        tail = (abs(st.values[-1]) ** 2 + abs(st.values[0]) ** 2) \
            / (-2.0 * q.real)
        assert abs(interior + tail - 1.0) < 1e-9

    def test_cnorm_normalization_unit_self_product(self):
        p = ModelParams(lam=1.0, theta=0.4)
        x = spatial_grid(1.0)
        st = resonance_state(p, x, normalization="cnorm")
        assert abs(product_entry(st, st, x) - 1.0) < 1e-6

    def test_h_values_are_energy_multiples(self):
        p = ModelParams(lam=1.0, theta=0.4)
        x = spatial_grid(1.0)
        st = resonance_state(p, x)
        assert np.max(np.abs(st.h_values - st.energy * st.values)) == 0.0
