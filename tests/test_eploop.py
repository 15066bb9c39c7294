"""Tests for branch-point continuation, Puiseux fits, and loop verdicts."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csmres import eploop
from csmres.eploop import (
    LoopSpec,
    PuiseuxFit,
    _continued_roots,
    _loop_readout,
    _readout_zeta,
    _readouts,
    boundary_crossings,
    case_asymptotic_phase,
    fit_puiseux,
    run_berry_loop,
)
from csmres.errors import BranchCollision, EmptyRange, PreconditionViolation
from csmres.model import ModelParams, branch_point, branch_point_coupling

TH = math.pi / 6
LBP = branch_point_coupling(TH)
P = ModelParams(lam=1.0, theta=TH)


def circle(center, radius, n=257):
    phis = np.linspace(0.0, 2.0 * math.pi, n + 1)
    return center + radius * np.exp(1j * phis)


def nearest_root(target, prev):
    """Square root of target on the sheet continuous with prev."""
    c = cmath.sqrt(target)
    pick = c if abs(c - prev) <= abs(-c - prev) else -c
    if abs(c) > 0.0 and abs(pick - prev) > 0.9 * abs(c):
        raise BranchCollision(
            f"sheet continuation ambiguous: step {abs(pick - prev):.3e} "
            f"vs sheet separation {2.0 * abs(c):.3e}")
    return pick


def continued_roots_oracle(targets):
    """The root-by-root continuation: each root the one nearest its
    predecessor."""
    roots = np.empty(len(targets), dtype=complex)
    roots[0] = cmath.sqrt(targets[0])
    for j in range(1, len(targets)):
        roots[j] = nearest_root(targets[j], roots[j - 1])
    return roots


def outcome(continue_roots, targets):
    """The roots as bytes, or the BranchCollision message."""
    try:
        return continue_roots(targets).tobytes()
    except BranchCollision as exc:
        return str(exc)


def readout_oracle(zeta, k_bp, r, w):
    """The readout node by node, as the loop computed it before its array
    form: r and w numpy scalars, zeta and k_bp Python complex.

    Exact asymptotic binned value across the nodes k_bp -+ r,
    I = (e^{zeta k_up} - e^{zeta k_dn}) / (zeta sqrt(dk)) with the
    branch-continued root w = sqrt(dk), dk = 2 r.
    """
    k_dn = k_bp - r
    k_up = k_bp + r
    return (cmath.exp(zeta * k_up) - cmath.exp(zeta * k_dn)) / (zeta * w)


class TestContinuedRoots:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(scale=st.floats(-8.0, 2.0), alpha=st.floats(0.0, 2.0 * math.pi),
           ratio=st.floats(0.05, 3.0), turns=st.floats(0.2, 3.0),
           phi0=st.floats(0.0, 2.0 * math.pi), n=st.integers(2, 600))
    # enclosing (ratio > 1) and not, fine and too coarse to follow
    @example(scale=0.0, alpha=1.0, ratio=2.0, turns=2.0, phi0=0.5, n=400)
    @example(scale=-3.0, alpha=2.0, ratio=0.5, turns=1.0, phi0=0.0, n=64)
    @example(scale=0.0, alpha=1.0, ratio=2.0, turns=2.0, phi0=0.5, n=3)
    def test_matches_root_by_root_continuation(self, scale, alpha, ratio,
                                               turns, phi0, n):
        center = 10.0 ** scale * cmath.exp(1j * alpha)
        phis = phi0 + 2.0 * math.pi * turns * np.linspace(0.0, 1.0, n)
        targets = center + ratio * abs(center) * np.exp(1j * phis)
        assert outcome(_continued_roots, targets) \
            == outcome(continued_roots_oracle, targets)

    def test_path_ending_at_the_branch_point(self):
        # half a turn round the origin flips the principal root's sign, so
        # the continued sign is -1 when the path reaches the zero target
        targets = np.append(np.exp(1j * np.linspace(0.0, 1.5 * math.pi,
                                                    200)), 0.0)
        roots = _continued_roots(targets)
        assert roots.tobytes() == continued_roots_oracle(targets).tobytes()
        assert roots[-2] == -cmath.sqrt(targets[-2])


def taylor_half_radius_rel(theta):
    """Half the largest radius_rel the readout's Taylor-regime bound
    accepts at unit m, hbar and beta (``berry_config`` of
    tools/same_outputs.py)."""
    zeta = abs(10.0 * cmath.exp(1j * theta) - math.log(2.0))
    return 0.5 * (0.1 / zeta) ** 2 * 8.0 * math.sin(theta) ** 2


class TestArrayReadout:
    """The array readout has the bits of the node-by-node one."""

    # the berry cases of tools/same_outputs.py: the golden config (theta
    # 0.3, the default 4 x 256 loop), the benchmark config and the three
    # berry-only angles, of which 0.4 is the benchmark's
    @pytest.mark.parametrize("theta, radius_rel, n_steps", [
        (0.3, 1e-5, 256), (0.4, 1e-6, 1024),
        (0.06, taylor_half_radius_rel(0.06), 1024),
        (0.74, taylor_half_radius_rel(0.74), 1024)],
        ids=("golden", "bench", "theta0.06", "theta0.74"))
    def test_loop_nodes(self, theta, radius_rel, n_steps):
        p = ModelParams(lam=1.3, theta=theta)
        spec = LoopSpec(radius=radius_rel * branch_point_coupling(theta),
                        windings=4, n_steps=n_steps)
        trace, _ = run_berry_loop(p, spec)
        zeta = _readout_zeta(p, spec)
        _, _, rs, read = _loop_readout(p, spec, zeta, trace.phi[0],
                                       spec.windings)
        k_bp = branch_point(p)[2]
        expect = np.array([readout_oracle(zeta, k_bp, r, w) for r, w
                           in zip(rs, _continued_roots(2.0 * rs))])
        assert read.tobytes() == expect.tobytes()
        assert trace.readout.tobytes() == expect.tobytes()

    def test_random_nodes(self):
        # 20 x 5000 nodes: exponents zeta k with real parts in [-30, 30]
        # (the loop's stay near -ln 2 / 2) and imaginary parts up to 5e3
        # (theta 1e-3), |r| from 1e-300 to 0.1 and either sign of w
        rng = np.random.default_rng(18)
        for _ in range(20):
            k_bp = complex(rng.uniform(0.3, 500.0), -rng.uniform(0.05, 2.0))
            zeta = complex(rng.uniform(-30.0, 30.0),
                           rng.uniform(-5e3, 5e3)) / k_bp
            rs = 10.0 ** rng.uniform(-300.0, -1.0, 5000) \
                * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 5000))
            ws = np.sqrt(2.0 * rs) * rng.choice((-1.0, 1.0), 5000)
            expect = np.array([readout_oracle(zeta, k_bp, r, w)
                               for r, w in zip(rs, ws)])
            assert _readouts(zeta, k_bp, rs, ws).tobytes() \
                == expect.tobytes()


class TestTraceResonance:
    # the sheets E_bp +- alpha_e sqrt(lam - lam_bp) of the Berry loop,
    # continued by nearest-root selection along the coupling path
    def test_loop_not_enclosing_closes(self):
        rs = _continued_roots(circle(LBP + 0.01, 1e-3) - LBP)
        assert abs(rs[-1] - rs[0]) < 1e-10

    def test_enclosing_loop_swaps_sheets(self):
        spec = LoopSpec(radius=1e-5 * LBP, windings=1)
        trace, _ = run_berry_loop(P, spec)
        assert abs(trace.e_plus[-1] - trace.e_minus[0]) < 1e-12
        assert abs(trace.e_minus[-1] - trace.e_plus[0]) < 1e-12
        assert abs(trace.e_plus[-1] - trace.e_plus[0]) > 1e-3

    def test_double_loop_closes(self):
        spec = LoopSpec(radius=1e-5 * LBP, windings=2)
        trace, _ = run_berry_loop(P, spec)
        assert abs(trace.e_plus[-1] - trace.e_plus[0]) < 1e-8
        assert abs(trace.e_minus[-1] - trace.e_minus[0]) < 1e-8

    def test_coarse_path_raises(self):
        # two-point jump across the branch point is ambiguous
        with pytest.raises(BranchCollision):
            _continued_roots([1e-3, -1e-3 + 1e-9j])


class TestFitPuiseux:
    def test_exponent_and_alpha(self):
        fit = fit_puiseux(P)
        assert isinstance(fit, PuiseuxFit)
        assert 0.48 <= fit.exponent <= 0.52
        assert fit.residual < 1e-3
        expect = P.hbar**2 * cmath.exp(-1j * TH) / (2.0 * P.m)
        assert abs(fit.alpha - expect) < 0.01 * abs(expect)

    def test_window_doubling_stability(self, monkeypatch):
        # alpha does not depend on the fit window
        a1 = fit_puiseux(P).alpha
        monkeypatch.setattr(eploop, "_FIT_WINDOW", (2e-6, 2e-4))
        a2 = fit_puiseux(P).alpha
        assert abs(a2 - a1) < 0.01 * abs(a1)

    def test_three_angles(self):
        for th in (math.pi / 8, math.pi / 6, math.pi / 5):
            fit = fit_puiseux(ModelParams(lam=1.0, theta=th))
            assert 0.48 <= fit.exponent <= 0.52

    @pytest.mark.parametrize("theta", [0.3, 0.6])
    def test_bins_below_the_float_spacing_raise(self, theta):
        # hbar = 1e-30, m = 1000: lam_bp is about 1e-64, so every
        # k_bp + sqrt(t) rounds to k_bp and a bin energy would divide by 0
        p = ModelParams(lam=1.0, theta=theta, hbar=1e-30, m=1000.0)
        with pytest.raises(EmptyRange, match="zero width"):
            fit_puiseux(p)


class TestBoundaryCrossings:
    def test_two_crossings_per_turn(self):
        phis = boundary_crossings(P, 1e-5 * LBP)
        assert len(phis) == 2
        # crossings of the analytic resonance trajectory with the ray sit
        # opposite each other on the circle (up to O(R) curvature)
        assert abs(abs(phis[1] - phis[0]) - math.pi) < 1e-4

    def test_functional_vanishes_at_crossing(self):
        from csmres.wavefun import classification_functional
        for phi in boundary_crossings(P, 1e-5 * LBP):
            lam = LBP + 1e-5 * LBP * cmath.exp(1j * phi)
            assert abs(classification_functional(P, lam)) < 1e-12


class TestBerryLoop:
    def setup_method(self):
        self.spec = LoopSpec(radius=1e-5 * LBP, windings=4)
        self.trace, self.verdicts = run_berry_loop(P, self.spec)

    def test_monodromy_verdicts(self):
        v = self.verdicts
        assert abs(v["ratio_2pi"] - 1j) < 1e-3
        assert abs(v["overlap_4pi"] - (-1.0)) < 1e-3
        assert abs(v["overlap_8pi"] - 1.0) < 1e-3
        assert v["monodromy_order"] == 4

    def test_connection_factors_match_readout(self):
        assert self.verdicts["connection_consistency"] < 1e-3
        # one connection per 2 pi turn: the accumulated factor changes once
        acc = self.trace.accumulated
        assert np.count_nonzero(acc[1:] != acc[:-1]) == self.spec.windings

    def test_starts_on_boundary_and_alternates(self):
        assert self.trace.region[0] == "ScatteringBoundary"
        interior = [r for r in self.trace.region if r != "ScatteringBoundary"]
        flips = sum(1 for a, b in zip(interior, interior[1:]) if a != b)
        # two geometric crossings per 2 pi turn; the first and last touch
        # the boundary exactly at the loop endpoints
        assert flips == 2 * self.spec.windings - 1

    def test_unwrapped_phase_grows_linearly(self):
        ph = self.trace.unwrapped_phase
        total = ph[-1] - ph[0]
        # pi/2 per 2 pi turn
        expect = self.spec.windings * math.pi / 2.0
        assert abs(total - expect) < 1e-3

    def test_r_independence(self):
        for radius in (1e-6 * LBP, 1e-4 * LBP):
            _, v = run_berry_loop(P, LoopSpec(radius=radius, windings=4))
            assert abs(v["ratio_2pi"] - 1j) < 1e-3
            assert abs(v["overlap_4pi"] - (-1.0)) < 1e-3
            assert v["monodromy_order"] == 4

    def test_quarter_root_magnitude_scaling(self):
        spec16 = LoopSpec(radius=self.spec.radius / 16.0, windings=1,
                          start_phase=self.trace.phi[0])
        t16, _ = run_berry_loop(P, spec16)
        ratio = abs(self.trace.readout[0]) / abs(t16.readout[0])
        assert abs(ratio - 2.0) < 0.04

    def test_orientation_reversal_conjugates(self):
        spec = LoopSpec(radius=self.spec.radius, windings=4, orientation=-1)
        _, v = run_berry_loop(P, spec)
        assert abs(v["ratio_2pi"] - (-1j)) < 1e-3
        assert abs(v["overlap_4pi"] - (-1.0)) < 1e-3
        assert v["monodromy_order"] == 4

    def test_sheet_convention_swap_keeps_factor(self):
        # starting half a sheet later tracks the partner sheet; the loop
        # orientation is unchanged, so the per-2pi factor stays i
        spec = LoopSpec(radius=self.spec.radius, windings=4,
                        start_phase=self.trace.phi[0] + 2.0 * math.pi)
        _, v = run_berry_loop(P, spec)
        assert abs(v["ratio_2pi"] - 1j) < 1e-3

    def test_taylor_bound_enforced(self):
        with pytest.raises(PreconditionViolation):
            run_berry_loop(P, LoopSpec(radius=0.05, windings=1))

    def test_readout_below_the_float_spacing_raises(self):
        # hbar = 1e-30, m = 1000: r = sqrt(lam - lam_bp) is about 1e-34,
        # the nodes k_bp -+ r round to k_bp and every readout is 0, which
        # has no phase to track
        p = ModelParams(lam=1.0, theta=0.3, hbar=1e-30, m=1000.0)
        spec = LoopSpec(radius=1e-5 * branch_point(p)[0])
        with pytest.raises(EmptyRange, match="readout is 0 at 1025 of 1025"):
            run_berry_loop(p, spec)
        with pytest.raises(EmptyRange, match="readout is 0 at 257 of 257"):
            case_asymptotic_phase(1, p, spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LoopSpec(radius=-1.0)
        with pytest.raises(ValueError):
            LoopSpec(radius=1e-5, n_steps=16)


class TestStartPhase:
    @pytest.mark.parametrize("start, scans", [(None, 1), (1.0, 0)])
    def test_crossings_are_scanned_only_for_the_default_start(
            self, monkeypatch, start, scans):
        # an explicit start phase needs no scan of the coupling circle; the
        # default one takes one scan per loop
        import csmres.eploop as eploop

        calls = []
        original = eploop.boundary_crossings

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(eploop, "boundary_crossings", counting)
        spec = LoopSpec(radius=1e-5 * LBP, windings=1, start_phase=start)
        trace, _ = run_berry_loop(P, spec)
        assert len(calls) == scans
        case_asymptotic_phase(-1, P, spec)
        assert len(calls) == 2 * scans
        if start is not None:
            assert trace.phi[0] == start


class TestCaseAsymptoticPhase:
    def test_factor_is_i_both_directions(self):
        spec = LoopSpec(radius=1e-5 * LBP, windings=1)
        for direction in (1, -1):
            f = case_asymptotic_phase(direction, P, spec)
            assert abs(f - 1j) < 1e-3

    def test_plus_direction_is_the_berry_loop_ratio(self):
        for start in (None, 1.0):
            spec = LoopSpec(radius=1e-5 * LBP, windings=1, start_phase=start)
            _, verdicts = run_berry_loop(P, spec)
            assert case_asymptotic_phase(1, P, spec) == verdicts["ratio_2pi"]

    def test_invalid_direction(self):
        spec = LoopSpec(radius=1e-5 * LBP, windings=1)
        with pytest.raises(ValueError):
            case_asymptotic_phase(0, P, spec)
