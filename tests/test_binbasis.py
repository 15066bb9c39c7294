"""Tests for momentum-bin states, overlap machinery, and EP diagnostics."""

import cmath
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import simpson

from csmres.binbasis import (
    BinGrid,
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
from csmres.errors import EmptyRange
from csmres.model import ModelParams, branch_point_coupling

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
