"""Tests for momentum-bin states, overlap machinery, and EP diagnostics."""

import cmath
import logging
import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss, legval, legvander
from scipy.integrate import quad, simpson

from csmres import binbasis
from csmres.binbasis import (
    _GK_ORDERS,
    BasisState,
    BinGrid,
    TailTerm,
    _gk_integral,
    _kronrod_rule,
    _tail_product,
    bin_energy,
    binned_state,
    degeneracy_diagnostics,
    ep_ray,
    limit_exchange_entries,
    overlap_matrix,
    plane_wave_bin,
    product_entry,
    real_axis,
    resonance_state,
    spatial_grid,
    unit_diagonal_state,
)
from csmres.errors import EmptyRange, QuadratureError
from csmres.model import ModelParams, branch_point_coupling, \
    derived_quantities
from csmres.wavefun import _gamma_coeffs, raw_psi

LN2 = math.log(2.0)


class TestGrids:
    def test_uniform_real_partition(self):
        grid = real_axis(0.5, 3.5, 6)
        assert grid.hermitian and grid.n_bins == 6
        assert np.allclose(grid.nodes, np.linspace(0.5, 3.5, 7))
        assert np.allclose(grid.widths, 0.5)

    def test_empty_partition_raises(self):
        p = ModelParams(lam=1.0, theta=0.3)
        with pytest.raises(EmptyRange):
            real_axis(0.5, 3.5, 0)
        with pytest.raises(EmptyRange):
            ep_ray(p.with_lam(0.5 + 0.01j), alphas=(0.0,))

    def test_ep_ray_substitution(self):
        # nodes k_bp + alpha' sqrt(lam - lam_bp), principal root:
        # offset 1e-4 e^{i pi/3} -> step 1e-2 e^{i pi/6}
        th = math.pi / 6
        p = ModelParams(lam=1.0, theta=th)
        lbp = branch_point_coupling(th)
        lam = lbp + 1e-4 * cmath.exp(1j * math.pi / 3)
        grid = ep_ray(p.with_lam(lam), alphas=(0.0, 1.0, 2.0))
        k_bp = cmath.exp(-1j * th)
        step = 1e-2 * cmath.exp(1j * math.pi / 6)
        for n, a in enumerate((0.0, 1.0, 2.0)):
            assert abs(grid.nodes[n] - (k_bp + a * step)) < 1e-14

    def test_grid_and_state_fields(self):
        # the coupling lives in ModelParams only; every state has all sides
        assert [f.name for f in fields(BinGrid)] == ["nodes", "hermitian"]
        assert [f.name for f in fields(BasisState)] == [
            "name", "energy", "right", "left", "h"]

    def test_alpha_ordering_enforced(self):
        with pytest.raises(ValueError):
            ep_ray(ModelParams(lam=0.5 + 0.01j, theta=0.3),
                   alphas=(1.0, 0.0))


class TestTailIntegral:
    def test_pure_exponential_closed_form(self):
        # resonance x resonance: the Abel-regularized -e^{qX}/q, q the sum
        left = TailTerm(coef=0.7 - 0.2j, rate=-0.2 + 0.1j)
        right = TailTerm(coef=-1.1 + 0.4j, rate=-0.3 + 0.2j)
        q = -0.5 + 0.3j
        expect = -left.coef * right.coef * cmath.exp(q * 8.0) / q
        assert abs(_tail_product(left, right, 8.0) - expect) < 1e-15

    # a bin term on [1, 1.5] with a 24-term Legendre series; a point term
    # of rate q meets it at z = -q/r: far off the segment, 0.01 off it, or
    # on it
    seg = (1.0 + 0.0j, 1.5 + 0.0j)
    coef = (0.5 + 0.3j) * (-0.4) ** np.arange(24) * (1.0 + 0.1j * np.arange(24))
    rate = 1j * cmath.exp(0.3j)

    @pytest.mark.parametrize("z", (-1.0 + 0.0j, 1.2 - 0.01j, 1.3 + 0.0j))
    def test_point_times_bin_matches_adaptive_quadrature(self, z):
        # -e^{qX}/r times the integral over the bin of phi(k)/(k - z),
        # phi = c(k) e^{rkX}, by scipy's adaptive quad in the segment
        # coordinate u; on the segment its Cauchy-weighted principal value
        # plus the Abel term -i pi sgn Im(r (kb - ka)) phi(z)
        x_cut = 10.0
        point = TailTerm(coef=0.8 - 0.6j, rate=-self.rate * z)
        bin_term = TailTerm(coef=self.coef, rate=self.rate, seg=self.seg)
        ka, kb = self.seg

        def phi(u):
            k = 0.5 * (ka + kb + (kb - ka) * u)
            return legval(u, self.coef) * cmath.exp(self.rate * k * x_cut)

        u_z = (2.0 * z - ka - kb) / (kb - ka)
        if z.imag == 0.0 and abs(u_z.real) < 1.0:
            parts = [quad(lambda u, f=f: f(phi(u)), -1.0, 1.0,
                          weight="cauchy", wvar=u_z.real, epsabs=1e-15,
                          epsrel=1e-15)[0] for f in (np.real, np.imag)]
            integral = complex(*parts) - 1j * math.pi * phi(u_z.real)
        else:
            parts = [quad(lambda u, f=f: f(phi(u) / (u - u_z)), -1.0, 1.0,
                          points=[u_z.real], limit=200, epsabs=1e-14,
                          epsrel=1e-13)[0] for f in (np.real, np.imag)]
            integral = complex(*parts)
        expect = -point.coef * cmath.exp(point.rate * x_cut) / self.rate \
            * integral
        for pair in ((point, bin_term), (bin_term, point)):
            got = _tail_product(*pair, x_cut)
            assert abs(got - expect) < 1e-13 * abs(expect)


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
        grid = real_axis(0.5, 3.5, 6)
        with caplog.at_level(logging.DEBUG, logger="csmres.binbasis"):
            st = binned_state(p, grid, 2, self.x)
        ref, ref_h = self.hermitian_refs(p)
        assert self.digits(st.right.values, ref) >= 12.0
        assert self.digits(st.h.values, ref_h) >= 12.0
        # the phase span 0.5 * 40 / 2 = 10 radians starts and settles at K33
        (msg,) = [r.getMessage() for r in caplog.records]
        assert msg.startswith("bin integral: K33/G16, 33 k-nodes")

    def test_hermitian_bin_with_complex_lam(self):
        # conj psi(k) is not psi(-k) here: x < 0 needs psi at -k itself
        p = ModelParams(lam=1.0 + 0.1j, theta=0.3)
        grid = real_axis(0.5, 3.5, 6)
        st = binned_state(p, grid, 2, self.x)
        ref, ref_h = self.hermitian_refs(p)
        assert self.digits(st.right.values, ref) >= 12.0
        assert self.digits(st.h.values, ref_h) >= 12.0

    def test_ep_ray_channel_bin(self, caplog):
        th = math.pi / 6
        lam = branch_point_coupling(th) + 1e-2
        p = ModelParams(lam=lam, theta=th)
        grid = ep_ray(p)
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
        assert self.digits(st.right.values, ref) >= 12.0
        assert self.digits(st.left.values, ref_left) >= 12.0
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
        grid = real_axis(0.5, 3.5, 6)
        assert self.psi_work(
            monkeypatch, lambda: binned_state(p, grid, 0, self.x)) == 33

    def test_ep_ray_bin_shares_one_ladder(self, monkeypatch):
        # K17 nodes at k and at -k carry the right state and its partner
        th = math.pi / 6
        lam = branch_point_coupling(th) + 1e-2
        p = ModelParams(lam=lam, theta=th)
        grid = ep_ray(p)
        assert self.psi_work(monkeypatch, lambda: binned_state(
            p, grid, 0, self.x, normalization="channel")) == 34


class TestGridSpan:
    lopsided = np.linspace(-30.0, 40.0, 701)

    def test_lopsided_grid_raises(self):
        p = ModelParams(lam=1.0, theta=0.4)
        grid = real_axis(1.0, 2.0, 2)
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
        grid = real_axis(1.0, 1.5, 1)
        st = binned_state(p, grid, 0, x)
        expect = plane_wave_bin(x - LN2, 1.0, 1.5) / math.sqrt(2.0 * math.pi)
        assert np.max(np.abs(st.right.values - expect)) < 1e-6

    def test_bad_index_and_normalization(self):
        p = ModelParams(lam=1.0, theta=0.3)
        x = np.linspace(-8.0, 8.0, 161)
        grid = real_axis(1.0, 2.0, 2)
        with pytest.raises(IndexError):
            binned_state(p, grid, 2, x)
        with pytest.raises(ValueError):
            binned_state(p, grid, 0, x, normalization="what")

    def test_unsettled_tail_series_raises(self, monkeypatch):
        # 2, 4 and then 8 nodes cannot resolve the coefficients of a bin
        monkeypatch.setattr(binbasis, "_TAIL_N", 2)
        p = ModelParams(lam=1.0, theta=0.3)
        grid = real_axis(1.0, 2.0, 2)
        with pytest.raises(QuadratureError, match="settle at 8 nodes"):
            binned_state(p, grid, 0, np.linspace(-8.0, 8.0, 161))

    def test_bin_energy_recorded(self):
        p = ModelParams(lam=1.0, theta=0.3)
        x = np.linspace(-8.0, 8.0, 161)
        grid = real_axis(1.0, 2.0, 2)
        st = binned_state(p, grid, 1, x)
        assert abs(st.energy - bin_energy(p, 1.5, 2.0)) < 1e-14


class TestHermitianIdentity:
    @pytest.fixture(autouse=True, scope="class")
    def six_bins(self, request):
        # built once: the tests only read them
        cls = request.cls
        cls.p = ModelParams(lam=1.0, theta=0.3)
        cls.x = spatial_grid(1.0)
        cls.grid = real_axis(0.5, 3.5, 6)
        cls.bins = [binned_state(cls.p, cls.grid, j, cls.x) for j in range(6)]

    def test_overlap_is_identity(self):
        s = overlap_matrix(self.bins, self.bins, self.x).matrix
        assert np.max(np.abs(s - np.eye(6))) < 1e-10

    def test_overlap_is_hermitian(self):
        s = overlap_matrix(self.bins, self.bins, self.x).matrix
        assert np.max(np.abs(s - s.conj().T)) < 1e-10

    def test_hamiltonian_is_diagonal_of_bin_energies(self):
        h = overlap_matrix(self.bins, self.bins, self.x, apply_h=True).matrix
        eps = np.array([b.energy for b in self.bins])
        assert np.max(np.abs(h - np.diag(eps))) < 1e-10

    def test_neighboring_bins_orthogonal(self):
        s01 = product_entry(self.bins[0], self.bins[1], self.x)
        assert abs(s01) < 1e-10

    def test_wide_bins(self):
        # the delta normalization's pole 0.5 below the axis is close to
        # these bins: their tail series need more than _TAIL_N terms
        grid = real_axis(0.5, 3.5, 2)
        bins = [binned_state(self.p, grid, j, self.x) for j in range(2)]
        s = overlap_matrix(bins, bins, self.x).matrix
        assert np.max(np.abs(s - np.eye(2))) < 1e-10
        assert max(len(b.right.plus[0].coef) for b in bins) > binbasis._TAIL_N


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
        grid = BinGrid(nodes=nodes, hermitian=False)
        bins = [binned_state(p, grid, j, x) for j in range(3)]
        s = overlap_matrix(bins, bins, x).matrix
        h = overlap_matrix(bins, bins, x, apply_h=True).matrix
        eps = np.array([b.energy for b in bins])
        assert np.max(np.abs(s - np.eye(3))) < 1e-9
        assert np.max(np.abs(h - np.diag(eps))) < 1e-9


class TestUnitDiagonal:
    def test_rescale_gives_unit_self_product(self):
        th = math.pi / 6
        lbp = branch_point_coupling(th)
        lam = lbp + 1e-3
        p = ModelParams(lam=lam, theta=th)
        x = spatial_grid(1.0)
        grid = ep_ray(p)
        st = binned_state(p, grid, 0, x, normalization="channel")
        un = unit_diagonal_state(st, x)
        assert abs(product_entry(un, un, x) - 1.0) < 1e-9
        # the H side is rescaled with the other two
        d = product_entry(st, st, x)
        h_st = product_entry(st, st, x, apply_h=True)
        h_un = product_entry(un, un, x, apply_h=True)
        assert abs(h_un - h_st / d) < 1e-12 * abs(h_st / d)


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

    @pytest.mark.parametrize("theta, lam", [
        (0.3, 1.0), (0.25, 0.8), (0.5, 1.8), (0.4, 1.3)])
    def test_cond_ignores_rounding_of_the_coefficients(self, monkeypatch,
                                                        theta, lam):
        # a relative change of 1e-15 in every continuum coefficient, bin
        # values and tails alike, stays a rounding-level change of cond
        p = ModelParams(lam=lam, theta=theta)
        lam_seq = [branch_point_coupling(theta) + 1e-4]
        (plain,) = degeneracy_diagnostics(p, lam_seq)
        original = binbasis._Continuum.coefficients

        def jittered(cont, ks):
            return original(cont, ks) \
                * (1.0 + 1e-15 * np.sin(37.0 * np.abs(ks) + 1j))

        monkeypatch.setattr(binbasis._Continuum, "coefficients", jittered)
        (moved,) = degeneracy_diagnostics(p, lam_seq)
        assert abs(moved.cond / plain.cond - 1.0) <= 1e-13

    def test_limit_exchange_inequality(self):
        th = math.pi / 6
        lbp = branch_point_coupling(th)
        p = ModelParams(lam=1.0, theta=th)
        interior, limits = limit_exchange_entries(
            p, [lbp + d for d in (1e-3, 1e-5)])
        assert all(v < 1e-10 for v in interior)
        assert all(v > 0.1 for v in limits)
        assert interior[1] < interior[0]


class TestResonanceState:
    def test_l2_normalization_unit_mass(self):
        p = ModelParams(lam=1.0, theta=0.4)
        x = spatial_grid(1.0)
        st = resonance_state(p, x, normalization="l2")
        q = st.right.plus[0].rate
        interior = float(simpson(np.abs(st.right.values) ** 2, x=x))
        tail = (abs(st.right.values[-1]) ** 2 + abs(st.right.values[0]) ** 2) \
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
        assert np.max(np.abs(st.h.values - st.energy * st.right.values)) == 0.0
