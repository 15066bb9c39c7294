"""Tests for branch-point continuation, Puiseux coefficients, and loop
verdicts."""

import cmath
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csmres.eploop import (
    LoopSpec,
    _continued_roots,
    _loop_readout,
    _readout_zeta,
    _readouts,
    _sheet_slope,
    boundary_crossings,
    case_asymptotic_phase,
    run_berry_loop,
)
from csmres.errors import BranchCollision, EmptyRange, PreconditionViolation
from csmres.model import ModelParams, bin_energy, branch_point, \
    branch_point_coupling
from csmres.wavefun import classification_functional
from test_tools import load_same_outputs

TH = math.pi / 6
LBP = branch_point_coupling(TH)
P = ModelParams(lam=1.0, theta=TH)
EPS = np.finfo(float).eps


def circle(center, radius, n=257):
    phis = np.linspace(0.0, 2.0 * math.pi, n + 1)
    return center + radius * np.exp(1j * phis)


def nearest_root(target, prev):
    """Square root of target on the sheet continuous with prev, in numpy
    arithmetic on arrays of one."""
    c = np.sqrt(np.array([target]))
    pick = c if np.abs(c - prev)[0] <= np.abs(-c - prev)[0] else -c
    step, size = np.abs(pick - prev)[0], np.abs(c)[0]
    if size > 0.0 and step > 0.9 * size:
        raise BranchCollision(
            f"sheet continuation ambiguous: step {step:.3e} "
            f"vs sheet separation {2.0 * size:.3e}")
    return pick[0]


def continued_roots_oracle(targets):
    """The root-by-root continuation: each root the one nearest its
    predecessor."""
    roots = np.empty(len(targets), dtype=complex)
    roots[0] = np.sqrt(np.array([targets[0]]))[0]
    for j in range(1, len(targets)):
        roots[j] = nearest_root(targets[j], roots[j - 1])
    return roots


def assert_roots_of(roots, targets):
    """Each root is one of the two cmath square roots of its target, to
    within 2 ulp (numpy and cmath round sqrt differently on the imaginary
    axis)."""
    for root, target in zip(roots, targets):
        c = cmath.sqrt(target)
        assert min(abs(root - c), abs(root + c)) <= 2.0 * EPS * abs(c)


def outcome(continue_roots, targets):
    """The roots as bytes, or the BranchCollision message."""
    try:
        return continue_roots(targets).tobytes()
    except BranchCollision as exc:
        return str(exc)


def readout_oracle(zeta, k_bp, r, w):
    """The readout of one node, in numpy arithmetic on arrays of one.

    Exact asymptotic binned value across the nodes k_bp -+ r,
    I = (e^{zeta k_up} - e^{zeta k_dn}) / (zeta sqrt(dk)) with the
    branch-continued root w = sqrt(dk), dk = 2 r.
    """
    r, w = np.array([r]), np.array([w])
    return ((np.exp(zeta * (k_bp + r)) - np.exp(zeta * (k_bp - r)))
            / (zeta * w))[0]


def readout_reference(zeta, k_bp, r, w):
    """The readout of one node in CPython complex arithmetic, and the
    scale of its rounding: the exponents zeta k round to about
    |zeta k| ulp, and the two exponentials cancel, so an error is
    measured against (|zeta k| + 1) (|e^{zeta k_up}| + |e^{zeta k_dn}|)
    / |zeta w|."""
    up, dn = cmath.exp(zeta * (k_bp + r)), cmath.exp(zeta * (k_bp - r))
    scale = (abs(zeta) * (abs(k_bp) + abs(r)) + 1.0) * (abs(up) + abs(dn))
    return (up - dn) / (zeta * w), scale / abs(zeta * w)


def assert_readouts_near_reference(read, zeta, k_bp, rs, ws):
    """Every readout within 2 ulp of the scale of its CPython reference:
    over the 100 000 nodes of ``test_random_nodes`` the worst is 0.32."""
    for value, r, w in zip(read, rs, ws):
        expect, scale = readout_reference(zeta, k_bp, r, w)
        assert abs(value - expect) <= 2.0 * EPS * scale


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
        try:
            assert_roots_of(_continued_roots(targets), targets)
        except BranchCollision:
            pass

    def test_path_ending_at_the_branch_point(self):
        # half a turn round the origin flips the principal root's sign, so
        # the continued sign is -1 when the path reaches the zero target
        targets = np.append(np.exp(1j * np.linspace(0.0, 1.5 * math.pi,
                                                    200)), 0.0)
        roots = _continued_roots(targets)
        assert roots.tobytes() == continued_roots_oracle(targets).tobytes()
        assert roots[-2] == -np.sqrt(targets[-2])
        assert_roots_of(roots, targets)


def taylor_half_radius_rel(theta):
    """Half the largest radius_rel the readout's Taylor-regime bound
    accepts at unit m, hbar and beta (``berry_config`` of
    tools/same_outputs.py)."""
    zeta = abs(10.0 * cmath.exp(1j * theta) - math.log(2.0))
    return 0.5 * (0.1 / zeta) ** 2 * 8.0 * math.sin(theta) ** 2


class TestArrayReadout:
    """The array readout has the bits of the node-by-node one, and lies
    within rounding of the CPython form."""

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
        _, _, rs, read = _loop_readout(spec, zeta, trace.phi[0],
                                       spec.windings, branch_point(p))
        k_bp = branch_point(p)[2]
        expect = np.array([readout_oracle(zeta, k_bp, r, w) for r, w
                           in zip(rs, _continued_roots(2.0 * rs))])
        assert read.tobytes() == expect.tobytes()
        assert trace.readout.tobytes() == expect.tobytes()
        assert_readouts_near_reference(read, zeta, k_bp, rs,
                                       _continued_roots(2.0 * rs))

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
            read = _readouts(zeta, k_bp, rs, ws)
            assert read.tobytes() == expect.tobytes()
            assert_readouts_near_reference(read, zeta, k_bp, rs, ws)


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


class TestPuiseuxCoefficients:
    """The exact expansion E - E_bp = alpha sqrt(t) + (hbar^2 / 6m) t of the
    upper straddling bin's energy, whose coefficients ``csmres berry``
    writes."""

    UNITS = ({}, {"m": 2.0, "hbar": 0.7, "beta": 1.3})

    def test_alpha_is_the_closed_form_sheet_slope(self):
        # k_bp = beta e^{-i theta} / (2 sin theta), from E_bp =
        # lam_bp e^{-2 i theta}, independent of the resonance closed form
        for th in (math.pi / 8, math.pi / 6, math.pi / 5):
            for units in self.UNITS:
                p = ModelParams(lam=1.0, theta=th, **units)
                k_bp = p.beta * cmath.exp(-1j * th) / (2.0 * math.sin(th))
                expect = p.hbar ** 2 * k_bp / (2.0 * p.m)
                alpha = _sheet_slope(p, branch_point(p)[2])
                assert abs(alpha - expect) <= 8.0 * EPS * abs(expect)

    def test_expansion_is_the_cubic_bin_energy(self):
        # within rounding of the cubic's cancellation: kb^3 - ka^3 over
        # 3 (kb - ka) loses |k|^3 / |3 dk| ulp; the worst of these 150
        # bins is 0.62 of that scale
        for th in (math.pi / 8, math.pi / 6, math.pi / 5):
            for units in self.UNITS:
                p = ModelParams(lam=1.0, theta=th, **units)
                lam_bp, e_bp, k_bp = branch_point(p)
                alpha = _sheet_slope(p, k_bp)
                c = p.hbar ** 2 / (6.0 * p.m)
                for t in np.geomspace(1e-6, 1e-4, 25) * lam_bp:
                    d = math.sqrt(t)
                    scale = p.hbar ** 2 / (2.0 * p.m) * (
                        abs(k_bp + d) ** 3 + abs(k_bp) ** 3) / (3.0 * d)
                    err = bin_energy(p, k_bp, k_bp + d) - e_bp \
                        - (alpha * d + c * t)
                    assert abs(err) <= 4.0 * EPS * scale


def bench_berry_jobs(seeds):
    """(theta, lam, radius_rel) of the berry jobs of the benchmark's seeds
    (bench/jobs.py)."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import jobs
    finally:
        sys.path.pop(0)
    return [(c["theta"], c["lam"], c["berry"]["radius_rel"])
            for seed in seeds for c in
            (job["config"] for job in jobs.make_jobs("berry", seed))]


def circle_crossings_oracle(scalar_bisect, theta, radius_rel):
    """The two angles in [0, 2 pi), sorted, where the circle
    lam_bp (1 + radius_rel e^{i phi}) about the exact branch point meets
    the boundary Re[i k_0 e^{i theta}] = 0: scalar bisections of the
    functional at 50 digits, with k_0 taken, up to its factor beta/2 and
    its sign, as sqrt(g - 1) - i, on brackets of half-width 1 about
    -theta and pi - theta."""
    import mpmath as mp

    with mp.workdps(50):
        th = mp.mpf(theta)
        g_bp = 1 / mp.sin(th) ** 2

        def f(phi):
            x = mp.sqrt(g_bp - 1 + radius_rel * g_bp * mp.expj(phi)) - 1j
            return mp.re(1j * x * mp.expj(th))

        return sorted(
            scalar_bisect(f, centre - 1, centre + 1, mp.mpf(10) ** -45)
            % (2 * mp.pi) for centre in (-th, mp.pi - th))


def closure_cases():
    """(theta, radius_rel, windings, n_steps) of the berry jobs of the
    benchmark's seeds 1-3 and of the winding cases of
    ``tools/same_outputs.py``."""
    # the benchmark's loops are 4 x 1024 steps
    return [(theta, radius_rel, 4, 1024)
            for theta, _, radius_rel in bench_berry_jobs((1, 2, 3))] \
        + list(load_same_outputs().BERRY_WINDINGS.values())


class TestBoundaryCrossings:
    def test_two_crossings_per_turn(self):
        phis = boundary_crossings(P, 1e-5 * LBP)
        assert len(phis) == 2
        # crossings of the analytic resonance trajectory with the ray sit
        # opposite each other on the circle (up to O(R) curvature)
        assert abs(abs(phis[1] - phis[0]) - math.pi) < 1e-4

    def test_functional_vanishes_at_crossing(self):
        for phi in boundary_crossings(P, 1e-5 * LBP):
            lam = LBP + 1e-5 * LBP * cmath.exp(1j * phi)
            assert abs(classification_functional(P, lam)) < 1e-15 * P.beta

    @pytest.mark.parametrize("theta, lam, radius_rel",
                             bench_berry_jobs((1, 2, 3)))
    def test_crossings_are_the_scalar_bisections(self, scalar_bisect, theta,
                                                 lam, radius_rel):
        # the crossings of the circle about the exact lam_bp, bisected at
        # 50 digits: the closed form is within about an ulp of them
        p = ModelParams(lam=lam, theta=theta)
        got = boundary_crossings(p, radius_rel * branch_point_coupling(theta))
        expect = circle_crossings_oracle(scalar_bisect, theta, radius_rel)
        assert all(0.0 <= phi < 2.0 * math.pi for phi in got)
        assert max(abs(g - e) for g, e in zip(got, expect)) < 1e-15

    def test_functional_calls_per_search(self, monkeypatch):
        # the crossings are a closed form: no scan of the functional
        import csmres.wavefun as wavefun

        calls = []

        def counting(*args):
            calls.append(args)
            return classification_functional(*args)

        monkeypatch.setattr(wavefun, "classification_functional", counting)
        assert len(boundary_crossings(P, 1e-5 * LBP)) == 2
        assert len(calls) == 0

    def test_radius_from_lam_bp_on_raises(self):
        # a circle that encloses lam = 0 meets the boundary once
        with pytest.raises(PreconditionViolation, match="not below lam_bp"):
            boundary_crossings(P, LBP)


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
        # the next Puiseux order bounds the deviation (acceptance 6's
        # ``quarter_root_bound``): (5/16) |zeta|^2 R, with a 1% margin
        zeta = _readout_zeta(P, self.spec)
        assert abs(ratio - 2.0) <= 1.01 * 5.0 / 16.0 * abs(zeta) ** 2 \
            * self.spec.radius

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

    @pytest.mark.parametrize("beta", [1e-100, 1.0, 1e100])
    def test_start_reads_boundary_in_any_units(self, beta):
        # the functional scales with beta, and so does the band of
        # "ScatteringBoundary": every node reads the label it reads at
        # beta = 1
        p = ModelParams(lam=beta**2, theta=TH, beta=beta)
        trace, _ = run_berry_loop(
            p, LoopSpec(radius=1e-5 * branch_point(p)[0], windings=4))
        assert trace.region[0] == "ScatteringBoundary"
        assert trace.region == self.trace.region

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


class TestLoopClosure:
    @pytest.mark.parametrize("theta, radius_rel, windings, n_steps",
                             closure_cases())
    def test_turns_repeat_bit_for_bit(self, theta, radius_rel, windings,
                                      n_steps):
        # each turn revisits the first turn's couplings, so the sheets swap
        # exactly and the per-turn ratios are i^w to rounding
        p = ModelParams(lam=1.3, theta=theta)
        spec = LoopSpec(radius=radius_rel * branch_point_coupling(theta),
                        windings=windings, n_steps=n_steps)
        trace, _ = run_berry_loop(p, spec)
        n = n_steps
        assert trace.lam[n:].tobytes() == trace.lam[:-n].tobytes()
        assert trace.e_plus[n:].tobytes() == trace.e_minus[:-n].tobytes()
        read = trace.readout
        for wnd in range(1, windings + 1):
            assert abs(read[wnd * n] / read[0] - 1j ** wnd) <= 2.5e-16


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
