"""Tests for momentum-bin states, overlap machinery, and EP diagnostics."""

import cmath
import logging
import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss, legval, legvander
from scipy.integrate import quad, simpson

from csmres import binbasis, specfun, wavefun
from csmres.binbasis import (
    _GK_ORDERS,
    BasisState,
    BinGrid,
    TailTerm,
    _gk_integral,
    _kronrod_rule,
    _kronrod_series,
    _tail_products,
    binned_state,
    degeneracy_diagnostics,
    ep_ray,
    limit_exchange_entries,
    overlap_matrix,
    product_entry,
    real_axis,
    resonance_state,
    spatial_grid,
    unit_diagonal_state,
)
from csmres.errors import EmptyRange, QuadratureError
from csmres.model import ModelParams, bin_energy, branch_point_coupling, \
    potential_index, resonance_energy
from csmres.specfun import hyp2f1_grid
from csmres.wavefun import _gamma_coeffs, _s_factors, raw_psi

LN2 = math.log(2.0)


def plane_wave_bin(x: np.ndarray, ka: float, kb: float) -> np.ndarray:
    """Free-particle binned state by the direct integral, the free-limit
    oracle of ``binned_state``.

    (1/sqrt(dk)) (e^{i kb x} - e^{i ka x}) / (i x), with the x -> 0 limit
    sqrt(dk); falls off like 1/x.
    """
    x = np.asarray(x, dtype=float)
    dk = kb - ka
    out = np.empty(x.shape, dtype=complex)
    small = np.abs(x) < 1e-12
    xs = x[~small]
    out[~small] = (np.exp(1j * kb * xs) - np.exp(1j * ka * xs)) \
        / (1j * xs) / math.sqrt(dk)
    out[small] = math.sqrt(dk)
    return out


def cauchy_oracle(term: TailTerm, z: np.ndarray, x_cut: float) -> np.ndarray:
    """One bin term's Cauchy integrals, built for that term alone: the
    oracle of ``binbasis._cauchy``, whose kernel is shared by the terms of
    one segment and rate."""
    t, w, vander = binbasis._rule(binbasis._n_nodes(term, x_cut))
    ka, kb = term.seg
    rate = term.rate * x_cut
    c = vander[:, :len(term.coef)] @ term.coef
    phi = c * np.exp(rate * 0.5 * (ka + kb + (kb - ka) * t))
    u = (2.0 * z - ka - kb) / (kb - ka)
    kern = w / (t - u[:, None])
    out = kern @ phi
    near = len(t) * np.log(np.abs(u + np.sqrt(u - 1.0) * np.sqrt(u + 1.0))) \
        < 18.0
    un, kn = u[near], kern[near]
    log = np.log((un - 1.0) / (un + 1.0))
    on = (np.abs(un.imag) < 1e-9) & (np.abs(un.real) < 1.0)
    log[on] = log[on].real - 1j * math.pi * np.sign((rate * (kb - ka)).imag)
    mu = (-1.0) ** np.arange(len(t)) * np.sqrt((1.0 - t * t) / w)
    phi_z = (kn @ (mu * c)) / (kn @ mu) \
        * np.exp(rate * 0.5 * (ka + kb + (kb - ka) * un))
    out[near] += phi_z * (log - kn.sum(axis=1))
    return out


def tail_product_oracle(left: TailTerm, right: TailTerm,
                        x_cut: float) -> complex:
    """The tail product of one pair of terms, the oracle of
    ``binbasis._tail_products``."""
    if right.seg is None:
        left, right = right, left
    if right.seg is None:
        q = left.rate + right.rate
        return -left.coef * right.coef * cmath.exp(q * x_cut) / q
    ratio = -left.rate / right.rate
    ends = np.array(right.seg)
    if left.seg is None:
        amp, k = np.array([left.coef]), np.ones(1)
    else:
        ka, kb = left.seg
        meets = np.min(np.abs(np.subtract.outer(ratio * np.array(left.seg),
                                                ends))) < 1e-9 * abs(kb - ka)
        n = binbasis._n_nodes(left, x_cut)
        t, w, vander = binbasis._rule(
            max(n, binbasis._TANH_SINH_MIN) if meets else n, meets)
        k = 0.5 * (ka + kb + (kb - ka) * t)
        amp = 0.5 * (kb - ka) * w * (vander[:, :len(left.coef)] @ left.coef)
    z = ratio * k
    keep = np.min(np.abs(z[:, None] - ends), axis=1) > 1e-14 * np.abs(z)
    return -np.sum(amp[keep] * np.exp(left.rate * k[keep] * x_cut)
                   * cauchy_oracle(right, z[keep], x_cut)) / right.rate


def product_entry_oracle(left, right, space, apply_h=False) -> complex:
    """c-product pair by pair of tail terms, the oracle of the shared
    kernels of ``product_entry`` and ``overlap_matrix``: with ``apply_h``
    the product with H applied to the right state."""
    bra, ket = left.left, right.h if apply_h else right.right
    interior = complex(space.integral(bra.values * ket.values))
    tails = sum(tail_product_oracle(a, b, space.cut)
                for side_l, side_r in ((bra.plus, ket.plus),
                                       (bra.minus, ket.minus))
                for a in side_l for b in side_r)
    return interior + tails


class TestGrids:
    def test_uniform_real_partition(self):
        grid = real_axis(0.5, 3.5, 6)
        assert grid.hermitian and grid.n_bins == 6
        assert np.allclose(grid.nodes, np.linspace(0.5, 3.5, 7))
        assert np.allclose(np.diff(grid.nodes), 0.5)

    def test_empty_partition_raises(self):
        with pytest.raises(EmptyRange):
            real_axis(0.5, 3.5, 0)

    def test_ep_ray_substitution(self):
        # nodes k_bp + alpha' sqrt(lam - lam_bp), alpha' = -1, 0, 1,
        # principal root: offset 1e-4 e^{i pi/3} -> step 1e-2 e^{i pi/6}
        th = math.pi / 6
        p = ModelParams(lam=1.0, theta=th)
        lbp = branch_point_coupling(th)
        lam = lbp + 1e-4 * cmath.exp(1j * math.pi / 3)
        grid = ep_ray(p.with_lam(lam))
        assert not grid.hermitian and grid.n_bins == 2
        k_bp = cmath.exp(-1j * th)
        step = 1e-2 * cmath.exp(1j * math.pi / 6)
        for n, a in enumerate((-1.0, 0.0, 1.0)):
            assert abs(grid.nodes[n] - (k_bp + a * step)) < 1e-14

    @pytest.mark.parametrize("delta", [0.0, 1e-17])
    def test_ep_ray_of_zero_width_raises(self, delta):
        # at theta 0.3 lam_bp + 1e-17 rounds to lam_bp: the three nodes
        # coincide, and the bin energies would divide by zero
        th = 0.3
        p = ModelParams(lam=branch_point_coupling(th) + delta, theta=th)
        with pytest.raises(EmptyRange, match="zero width"):
            ep_ray(p)
        with pytest.raises(EmptyRange):
            degeneracy_diagnostics(p, [delta])

    def test_grid_and_state_fields(self):
        # the coupling lives in ModelParams only; every state has all sides
        assert [f.name for f in fields(BinGrid)] == ["nodes", "hermitian"]
        assert [f.name for f in fields(BasisState)] == ["right", "left", "h"]


class TestTailIntegral:
    def test_pure_exponential_closed_form(self):
        # resonance x resonance: the Abel-regularized -e^{qX}/q, q the sum
        left = TailTerm(coef=0.7 - 0.2j, rate=-0.2 + 0.1j)
        right = TailTerm(coef=-1.1 + 0.4j, rate=-0.3 + 0.2j)
        q = -0.5 + 0.3j
        expect = -left.coef * right.coef * cmath.exp(q * 8.0) / q
        assert abs(_tail_products(left, (right,), 8.0)[0] - expect) < 1e-15

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
        for bra, ket in ((point, bin_term), (bin_term, point)):
            got = _tail_products(bra, (ket,), x_cut)[0]
            assert abs(got - expect) < 1e-13 * abs(expect)


class TestTouchingBins:
    def test_products_match_a_fine_tanh_sinh_rule(self, monkeypatch):
        # the 12-term series of these EP-ray bins give tail rules of order
        # 16, at which the tanh-sinh rule of touching bins is off by 2e-11
        # in (b1 | b0), an entry of that size itself
        th = 0.5
        p = ModelParams(lam=branch_point_coupling(th) + 1e-2, theta=th)
        x = spatial_grid(1.0)
        grid = ep_ray(p)
        bins = [unit_diagonal_state(binned_state(
            p, grid, j, x, normalization="channel"), x) for j in range(2)]
        pairs = [(0, 1), (1, 0), (1, 1)]
        got = [product_entry(bins[i], bins[j], x) for i, j in pairs]
        monkeypatch.setattr(binbasis, "_TANH_SINH_MIN", 80)
        fine = [product_entry(bins[i], bins[j], x) for i, j in pairs]
        assert max(abs(a - b) for a, b in zip(got, fine)) < 1e-13


class TestSharedKernels:
    """S and H from the Cauchy kernels shared by a state's right and H
    sides, against the pair-by-pair products, bit for bit."""

    @staticmethod
    def assert_bits(states, space):
        s, h = overlap_matrix(states, states, space)
        for mat, apply_h in ((s, False), (h, True)):
            expect = np.array([[product_entry_oracle(a, b, space, apply_h)
                                for b in states] for a in states])
            assert mat.tobytes() == expect.tobytes()
        entries = np.array([[product_entry(a, b, space) for b in states]
                            for a in states])
        assert entries.tobytes() == s.tobytes()

    def test_golden_real_axis_bins(self):
        # the golden config's overlap: theta 0.3, lam 1, two bins on
        # [0.5, 3.5]
        p = ModelParams(lam=1.0, theta=0.3)
        space = spatial_grid(1.0)
        grid = real_axis(0.5, 3.5, 2)
        self.assert_bits([binned_state(p, grid, j, space) for j in range(2)],
                         space)

    @pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4])
    def test_resonance_and_ep_ray_bins(self, delta):
        # point x point, point x bin both ways, and bin x bin on the same
        # and on touching segments
        th = 0.3
        p = ModelParams(lam=1.0, theta=th)
        space = spatial_grid(1.0)
        res, bins = binbasis._ep_states(
            p, branch_point_coupling(th) + delta, space)
        self.assert_bits([res] + bins, space)


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
            return (np.exp(2000j * ks)[None, :, None],
                    np.ones((1, 1, len(ks))), np.ones((1, len(ks))))

        with caplog.at_level(logging.DEBUG, logger="csmres.binbasis"), \
                pytest.raises(QuadratureError):
            _gk_integral(fun, 0.0, 1.0, 1.0)
        assert seen == [2 * n + 1 for n in _GK_ORDERS]
        assert sum(seen) == ladder
        (msg,) = [r.getMessage() for r in caplog.records]
        assert msg.startswith(f"bin integral: K129/G64, {ladder} k-nodes")
        assert msg.endswith(", failed")


def _record_fields(msg):
    """The |K-G|/scale and series-tail figures of a bin-integral record."""
    return {name: float(value) for name, value in
            (f.rsplit(" ", 1) for f in msg.split(", ")[2:4])}


class TestKronrodSeries:
    @pytest.mark.parametrize("n, length", ((8, 12), (16, 24), (32, 48),
                                           (64, 96)))
    def test_series_length_is_even(self, n, length):
        # K17, K33, K65 and K129 give 12, 24, 48 and 96 coefficients.  The
        # length must be even: the tail rules add an even number to it, and
        # an odd Gauss rule has a node at the segment centre, where the
        # tanh-sinh rule of a same-bin product has one too, so the Cauchy
        # kernel 1/(t - u) would divide by zero there
        assert _kronrod_series(n).shape == (2 * n + 1, length)

    @pytest.mark.parametrize("n", _GK_ORDERS)
    def test_recovers_legendre_coefficients(self, n):
        # exact, up to rounding, for a series of degree below 3n/2
        coef = np.random.default_rng(n).normal(size=3 * n // 2)
        t, _ = _kronrod_rule(n)
        got = legval(t, coef) @ _kronrod_series(n)
        assert np.max(np.abs(got - coef)) < 1e-14 * np.sum(np.abs(coef))

    def test_unsettled_series_raises_within_the_ladder(self, caplog):
        # the integral settles at once; the series row never does
        def fun(ks):
            return (np.ones((1, len(ks), 1)), np.ones((1, 1, len(ks))),
                    np.exp(2000j * ks)[None, :])

        with caplog.at_level(logging.DEBUG, logger="csmres.binbasis"), \
                pytest.raises(QuadratureError, match="K129/G64"):
            _gk_integral(fun, 0.0, 1.0, 1.0)
        (msg,) = [r.getMessage() for r in caplog.records]
        assert msg.endswith(", failed")
        fields = _record_fields(msg)
        assert fields["|K-G|/scale"] <= binbasis._GL_TOL
        assert fields["series tail"] > binbasis._GL_TOL


class TestBinQuadrature:
    """binned_state against a plain leggauss(96) integral of raw_psi."""

    space = spatial_grid(1.0, 40.0, 801)
    x = space.x

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
        s = potential_index(p)

        def phi(ks):
            trans = np.array([_gamma_coeffs(k, s, 1.0, _s_factors(s))[1]
                              for k in ks])
            return raw_psi(ks, s, 1.0, 0.0, self.x) \
                / (math.sqrt(2.0 * math.pi) * trans[:, None])

        return (self.gl96(phi, 1.5, 2.0),
                self.gl96(lambda ks: 0.5 * ks[:, None] ** 2 * phi(ks),
                          1.5, 2.0))

    def test_hermitian_delta_bin(self, caplog):
        p = ModelParams(lam=1.0, theta=0.3)
        grid = real_axis(0.5, 3.5, 6)
        with caplog.at_level(logging.DEBUG, logger="csmres.binbasis"):
            st = binned_state(p, grid, 2, self.space)
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
        st = binned_state(p, grid, 2, self.space)
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
            st = binned_state(p, grid, 0, self.space,
                              normalization="channel")
        s = potential_index(p)
        s_bar = potential_index(p.with_lam(np.conj(lam)))
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

    space = spatial_grid()

    def test_spatial_grid_is_mirror_symmetric(self):
        x = self.space.x
        assert np.array_equal(x, -x[::-1])
        assert self.space.cut == 40.0
        # the half grid holds the distinct |x|, and ``at`` gathers it back
        assert len(self.space.y) == 4001
        assert np.array_equal(self.space.y[self.space.at], np.abs(x))
        # symmetrizing moves each linspace point by at most 1 ulp of X
        plain = np.linspace(-40.0, 40.0, 8001)
        assert np.max(np.abs(x - plain)) <= np.spacing(40.0)

    def psi_work(self, monkeypatch, build):
        # k-nodes per raw_psi call, and rows per 2F1 call inside it
        calls, rows = [], []

        def counted(k, s, beta, theta, x):
            calls.append((np.size(k), len(x)))
            return raw_psi(k, s, beta, theta, x)

        def counted_rows(a, b, c, u):
            rows.append((np.size(a), len(u)))
            return hyp2f1_grid(a, b, c, u)

        def counted_block(a, b, c, x, at):
            blocks.append(len(a))
            return series_sum(a, b, c, x, at)

        blocks, series_sum = [], specfun._series_sum
        monkeypatch.setattr(binbasis, "raw_psi", counted)
        monkeypatch.setattr(wavefun, "hyp2f1_grid", counted_rows)
        monkeypatch.setattr(specfun, "_series_sum", counted_block)
        build()
        # one 2F1 call per raw_psi call, its rows summed in blocks
        assert rows == calls
        assert max(blocks) == specfun._K_BLOCK
        assert {n for _, n in calls} == {4001}
        return sum(k for k, _ in calls)

    def test_hermitian_bin_evaluates_plus_k_only(self, monkeypatch):
        p = ModelParams(lam=1.0, theta=0.3)
        grid = real_axis(0.5, 3.5, 6)
        assert self.psi_work(
            monkeypatch, lambda: binned_state(p, grid, 0, self.space)) == 33

    def test_ep_ray_bin_shares_one_ladder(self, monkeypatch):
        # K17 nodes at k and at -k carry the right state and its partner
        th = math.pi / 6
        lam = branch_point_coupling(th) + 1e-2
        p = ModelParams(lam=lam, theta=th)
        grid = ep_ray(p)
        assert self.psi_work(monkeypatch, lambda: binned_state(
            p, grid, 0, self.space, normalization="channel")) == 34

    @staticmethod
    def coefficient_work(monkeypatch, build):
        # one gamma-ratio evaluation per k-value of the coefficients
        seen = []
        original = binbasis._gamma_coeffs

        def counted(k, s, beta, factors):
            seen.append(k)
            return original(k, s, beta, factors)

        monkeypatch.setattr(binbasis, "_gamma_coeffs", counted)
        build()
        return len(seen)

    def test_hermitian_bin_samples_coefficients_once(self, monkeypatch):
        # the K33 nodes give the quadrature weights and the tail series
        p = ModelParams(lam=1.0, theta=0.3)
        grid = real_axis(0.5, 3.5, 6)
        assert self.coefficient_work(
            monkeypatch, lambda: binned_state(p, grid, 0, self.space)) == 33

    def test_ep_ray_bin_samples_coefficients_once(self, monkeypatch):
        # K17 nodes at k and at -k: the right state's and the partner's
        th = math.pi / 6
        p = ModelParams(lam=branch_point_coupling(th) + 1e-2, theta=th)
        grid = ep_ray(p)
        assert self.coefficient_work(monkeypatch, lambda: binned_state(
            p, grid, 0, self.space, normalization="channel")) == 34


class TestSpatialGrid:
    def test_even_or_short_point_count_raises(self):
        # the Simpson rule pairs intervals, and both tails start at X > 0
        for n_points in (0, 1, 2, 8000):
            with pytest.raises(ValueError, match="odd n_points"):
                spatial_grid(1.0, 40.0, n_points)
        with pytest.raises(ValueError, match="x_max > 0"):
            spatial_grid(1.0, 0.0, 801)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), half=st.integers(1, 40),
           x_max=st.none() | st.floats(1e-3, 100.0),
           beta=st.floats(0.1, 10.0),
           complex_f=st.booleans())
    def test_integral_equals_scipy_bit_for_bit(self, data, half, x_max,
                                               beta, complex_f):
        space = spatial_grid(beta, x_max, 2 * half + 1)
        samples = st.lists(st.floats(-1e6, 1e6), min_size=len(space.x),
                           max_size=len(space.x))
        f = np.array(data.draw(samples))
        if complex_f:
            f = f + 1j * np.array(data.draw(samples))
        got, want = space.integral(f), simpson(f, x=space.x)
        assert got == want
        assert type(got) is type(want)


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
        space = spatial_grid(1.0, 8.0, 321)
        grid = real_axis(1.0, 1.5, 1)
        st = binned_state(p, grid, 0, space)
        expect = plane_wave_bin(space.x - LN2, 1.0, 1.5) \
            / math.sqrt(2.0 * math.pi)
        assert np.max(np.abs(st.right.values - expect)) < 1e-6

    def test_bad_index_and_normalization(self):
        p = ModelParams(lam=1.0, theta=0.3)
        x = spatial_grid(1.0, 8.0, 161)
        grid = real_axis(1.0, 2.0, 2)
        with pytest.raises(IndexError):
            binned_state(p, grid, 2, x)
        with pytest.raises(ValueError):
            binned_state(p, grid, 0, x, normalization="what")

    def test_unsettled_tail_series_raises(self, monkeypatch, caplog):
        # on a ladder cut to K17 the bin integral settles, but 12 terms
        # cannot resolve the coefficients of a bin of width 1
        monkeypatch.setattr(binbasis, "_GK_ORDERS", (8,))
        p = ModelParams(lam=1.0, theta=0.3)
        grid = real_axis(1.0, 2.0, 2)
        with caplog.at_level(logging.DEBUG, logger="csmres.binbasis"), \
                pytest.raises(QuadratureError, match="settle at K17/G8"):
            binned_state(p, grid, 0, spatial_grid(1.0, 8.0, 161))
        (msg,) = [r.getMessage() for r in caplog.records]
        fields = _record_fields(msg)
        assert fields["|K-G|/scale"] <= binbasis._GL_TOL
        assert fields["series tail"] > binbasis._GL_TOL

    def test_bin_energy_recorded(self):
        # the state stores no energy: H applied to it carries it, and its
        # H diagonal is the closed-form bin energy (8.5e-13 off)
        p = ModelParams(lam=1.0, theta=0.3)
        x = spatial_grid(1.0)
        grid = real_axis(1.0, 2.0, 2)
        st = binned_state(p, grid, 1, x)
        _, h = overlap_matrix([st], [st], x)
        assert abs(h[0, 0] - bin_energy(p, 1.5, 2.0)) < 1e-11


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
        s, _ = overlap_matrix(self.bins, self.bins, self.x)
        assert np.max(np.abs(s - np.eye(6))) < 1e-10

    def test_overlap_is_hermitian(self):
        s, _ = overlap_matrix(self.bins, self.bins, self.x)
        assert np.max(np.abs(s - s.conj().T)) < 1e-10

    def test_hamiltonian_is_diagonal_of_bin_energies(self):
        _, h = overlap_matrix(self.bins, self.bins, self.x)
        nodes = self.grid.nodes
        eps = np.array([bin_energy(self.p, *nodes[j:j + 2])
                        for j in range(6)])
        assert np.max(np.abs(h - np.diag(eps))) < 1e-10

    def test_neighboring_bins_orthogonal(self):
        s01 = product_entry(self.bins[0], self.bins[1], self.x)
        assert abs(s01) < 1e-10

    def test_wide_bins(self):
        # the delta normalization's pole 0.5 below the axis is close to
        # these bins: they settle at K65, whose tail series has 48 terms,
        # twice as many as the K33 series of the six default bins
        grid = real_axis(0.5, 3.5, 2)
        bins = [binned_state(self.p, grid, j, self.x) for j in range(2)]
        s, _ = overlap_matrix(bins, bins, self.x)
        assert np.max(np.abs(s - np.eye(2))) < 1e-10
        assert {len(b.right.plus[0].coef) for b in self.bins} == {24}
        assert {len(b.right.plus[0].coef) for b in bins} == {48}


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
        s, h = overlap_matrix(bins, bins, x)
        eps = np.array([bin_energy(p, *nodes[j:j + 2]) for j in range(3)])
        assert np.max(np.abs(s - np.eye(3))) < 1e-9
        assert np.max(np.abs(h - np.diag(eps))) < 1e-9
        expect = np.array([[product_entry_oracle(a, b, x, apply_h=True)
                            for b in bins] for a in bins])
        assert h.tobytes() == expect.tobytes()


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
        h_st, h_un = (overlap_matrix([b], [b], x)[1][0, 0]
                      for b in (st, un))
        assert abs(h_un - h_st / d) < 1e-12 * abs(h_st / d)
        assert h_un == product_entry_oracle(un, un, x, apply_h=True)


class TestDegeneracyDiagnostics:
    def test_sigma_min_collapses_toward_branch_point(self):
        p = ModelParams(lam=1.0, theta=math.pi / 6)
        pts = degeneracy_diagnostics(p, (1e-2, 1e-4, 1e-6))
        sig = [pt.sigma_min for pt in pts]
        assert sig[0] > sig[1] > sig[2]
        assert sig[0] / sig[2] > 1e3
        assert pts[2].cond > 1e4
        # the collapse tracks the coupling distance linearly
        for pt, d in zip(pts, (1e-2, 1e-4, 1e-6)):
            assert 0.3 * d < pt.sigma_min < 3.0 * d

    def test_resonance_diag_drives_the_collapse(self):
        # the oracle: the c-product matrix of the resonance with the
        # unit-diagonal EP-ray bins.  The bins are c-orthogonal to the
        # resonance, so its singular values are |(psi|psi)| and 1, and the
        # diagnostics read the first alone
        x = spatial_grid(1.0)
        deltas = (1e-2, 1e-3, 1e-4)
        for th in (0.2, 0.3, 0.6):
            lbp = branch_point_coupling(th)
            p = ModelParams(lam=1.0, theta=th)
            pts = degeneracy_diagnostics(p, deltas)
            for d, pt in zip(deltas, pts):
                res, bins = binbasis._ep_states(p, lbp + d, x)
                m, _ = overlap_matrix([res] + bins, [res] + bins, x)
                svals = np.linalg.svd(m, compute_uv=False)
                assert abs(svals[-1] - pt.sigma_min) <= 1e-12 * pt.sigma_min
                assert abs(svals[0] / svals[-1] - pt.cond) <= 1e-9 * pt.cond
                # bins stay unit-diagonal and c-orthogonal to the resonance
                assert np.all(np.abs(np.diag(m)[1:] - 1.0) < 1e-6)
                assert np.all(np.abs(m[0, 1:]) < 1e-9)
                assert np.all(np.abs(m[1:, 0]) < 1e-9)

    @pytest.mark.parametrize("theta, lam", [
        (0.3, 1.0), (0.25, 0.8), (0.5, 1.8), (0.4, 1.3)])
    def test_cond_ignores_rounding_of_the_coefficients(self, monkeypatch,
                                                        theta, lam):
        # a relative change of 1e-15 in every value of the resonance's
        # wave function stays a rounding-level change of cond; no
        # continuum coefficient enters
        p = ModelParams(lam=lam, theta=theta)
        (plain,) = degeneracy_diagnostics(p, [1e-4])
        original = binbasis.raw_psi, binbasis._gamma_coeffs
        coefficients = []

        def jittered(k, s, beta, th, x):
            return original[0](k, s, beta, th, x) \
                * (1.0 + 1e-15 * np.sin(37.0 * np.abs(x) + 1j))

        def counted(k, s, beta, factors):
            coefficients.append(k)
            return original[1](k, s, beta, factors)

        monkeypatch.setattr(binbasis, "raw_psi", jittered)
        monkeypatch.setattr(binbasis, "_gamma_coeffs", counted)
        (moved,) = degeneracy_diagnostics(p, [1e-4])
        assert moved.sigma_min != plain.sigma_min
        assert abs(moved.cond / plain.cond - 1.0) <= 1e-13
        assert coefficients == []

    def test_limit_exchange_inequality(self):
        p = ModelParams(lam=1.0, theta=math.pi / 6)
        interior, limits = limit_exchange_entries(p, (1e-3, 1e-5))
        assert all(v < 1e-10 for v in interior)
        assert all(v > 0.1 for v in limits)
        assert interior[1] < interior[0]

    def test_sigma_min_is_the_phase_rigidity(self):
        # the bins are c-orthogonal to the resonance, so the smallest
        # singular value is |(psi|psi)| of the L2-normalized resonance
        th = 0.3
        lbp = branch_point_coupling(th)
        p = ModelParams(lam=1.0, theta=th)
        deltas = (1e-1, 1e-2, 1e-3, 1e-4)
        pts = degeneracy_diagnostics(p, deltas)
        x = spatial_grid(p.beta)
        for d, pt in zip(deltas, pts):
            res = resonance_state(p.with_lam(lbp + d), x)
            rigidity = abs(product_entry(res, res, x))
            assert abs(rigidity - pt.sigma_min) <= 1e-12 * pt.sigma_min


class TestResonanceState:
    def test_l2_normalization_unit_mass(self):
        p = ModelParams(lam=1.0, theta=0.4)
        x = spatial_grid(1.0)
        st = resonance_state(p, x)
        q = st.right.plus[0].rate
        interior = float(simpson(np.abs(st.right.values) ** 2, x=x.x))
        tail = (abs(st.right.values[-1]) ** 2 + abs(st.right.values[0]) ** 2) \
            / (-2.0 * q.real)
        assert abs(interior + tail - 1.0) < 1e-9

    def test_cnorm_normalization_unit_self_product(self):
        p = ModelParams(lam=1.0, theta=0.4)
        x = spatial_grid(1.0)
        st = unit_diagonal_state(resonance_state(p, x), x)
        assert abs(product_entry(st, st, x) - 1.0) < 1e-6

    def test_h_values_are_energy_multiples(self):
        p = ModelParams(lam=1.0, theta=0.4)
        x = spatial_grid(1.0)
        st = resonance_state(p, x)
        e = resonance_energy(p, 0).energy
        assert np.max(np.abs(st.h.values - e * st.right.values)) == 0.0
