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
    _loop_readout,
    _readout_zeta,
    _readouts,
    _sheet_slope,
    boundary_crossings,
    case_asymptotic_phase,
    run_berry_loop,
)
from csmres.errors import EmptyRange, PreconditionViolation
from csmres.model import ModelParams, bin_energy, branch_point, \
    branch_point_coupling
from csmres.wavefun import classification_functional
from test_tools import load_same_outputs

TH = math.pi / 6
LBP = branch_point_coupling(TH)
P = ModelParams(lam=1.0, theta=TH)
EPS = np.finfo(float).eps


def readout_oracle(zeta, k_bp, r, w):
    """The readout of one node, in numpy arithmetic on arrays of one.

    Exact asymptotic binned value across the nodes k_bp -+ r,
    I = (e^{zeta k_up} - e^{zeta k_dn}) / (zeta sqrt(dk)) with the
    root w = sqrt(dk), dk = 2 r, on the loop's sheet.
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


def spacing_roots(spec, phi0, windings):
    """The node-spacing roots w = sqrt(2 r) of a loop from phi0, in closed
    form node by node, on arrays of one: at node j + t n_steps,
    sqrt(2 sqrt(R)) e^{i psi / 4}, psi = remainder(phi0, 2 pi) + dphi j,
    turned by (i orientation)^t."""
    q = 1j * spec.orientation
    ws = []
    for node in range(windings * spec.n_steps + 1):
        t, j = divmod(node, spec.n_steps)
        psi = math.remainder(phi0, 2.0 * math.pi) + spec.dphi * np.array([j])
        w = math.sqrt(2.0 * math.sqrt(spec.radius)) * np.exp(0.25j * psi)
        ws.append((w, q * w, -w, -q * w)[t % 4][0])
    return np.array(ws)


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
        ws = spacing_roots(spec, trace.phi[0], spec.windings)
        # w is a square root of 2 r, the principal one at node 0 (the
        # worst of these cases is 2.4 EPS |2 r|)
        assert np.all(np.abs(ws**2 - 2.0 * rs) <= 4.0 * EPS * np.abs(2.0 * rs))
        assert abs(ws[0] - np.sqrt(2.0 * rs[0])) <= 2.0 * EPS * abs(ws[0])
        expect = np.array([readout_oracle(zeta, k_bp, r, w) for r, w
                           in zip(rs, ws)])
        assert read.tobytes() == expect.tobytes()
        assert trace.readout.tobytes() == expect.tobytes()
        assert_readouts_near_reference(read, zeta, k_bp, rs, ws)

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
    # with r = sqrt(R) e^{i phi/2} on the loop's circle
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

    @pytest.mark.parametrize(
        "theta, radius_rel",
        [(theta, radius_rel)
         for theta, _, radius_rel in bench_berry_jobs((1, 2, 3))]
        + [(0.06, 0.95), (0.3, 0.95), (0.74, 0.95), (1e-3, 1e-5),
           (1e-3, 0.95)])
    def test_first_crossing_is_the_lower_one(self, theta, radius_rel):
        # the loop starts at the first crossing, which must be the one
        # where |E_0| < |E_bp|: judged at 50 digits, with E_0 up to its
        # factor (beta hbar)^2 / 8m as (sqrt(g - 1) - i)^2
        import mpmath as mp

        p = ModelParams(lam=1.3, theta=theta)
        phis = boundary_crossings(p, radius_rel * branch_point_coupling(theta))
        with mp.workdps(50):
            g_bp = 1 / mp.sin(mp.mpf(theta)) ** 2

            def modulus(g):
                return abs(mp.sqrt(g - 1) - 1j) ** 2

            lower, upper = (modulus(g_bp * (1 + radius_rel * mp.expj(phi)))
                            for phi in phis)
            assert lower < modulus(g_bp) < upper

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
        # a start phase a turn later names the same coupling, and the loop
        # starts on the principal root there as well; the orientation is
        # unchanged, so the per-2pi factor stays i
        spec = LoopSpec(radius=self.spec.radius, windings=4,
                        start_phase=self.trace.phi[0] + 2.0 * math.pi)
        trace, v = run_berry_loop(P, spec)
        assert abs(trace.e_plus[0] - self.trace.e_plus[0]) < 1e-13
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

    @pytest.mark.parametrize("radius_rel", [1e-14, 1e-15, 1e-16, 1e-17,
                                            1e-18])
    def test_tiny_radius_closes_or_is_refused(self, radius_rel):
        # a radius that rounds away at lam_bp is refused, and any other
        # loop closes: the roots do not depend on the rounded couplings
        for theta in np.linspace(0.02, 0.78, 39):
            p = ModelParams(lam=1.3, theta=theta)
            lam_bp = branch_point(p)[0]
            spec = LoopSpec(radius=radius_rel * lam_bp, windings=4,
                            n_steps=64)
            if lam_bp + spec.radius == lam_bp:
                with pytest.raises(EmptyRange, match="rounds away at lam_bp"):
                    run_berry_loop(p, spec)
            else:
                assert run_berry_loop(p, spec)[1]["monodromy_order"] == 4

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


class TestSheetEnergies:
    def test_within_4_ulp_of_the_oracle(self):
        # the berry-8windings case of tools/same_outputs.py, judged by its
        # oracle: E_pm against E_bp +- alpha sqrt(R) e^{i phi/2} at 40
        # digits, in ulps of |E_pm|
        same_outputs = load_same_outputs()
        theta, radius_rel, windings, n_steps = \
            same_outputs.BERRY_WINDINGS["berry-8windings"]
        p = ModelParams(lam=1.3, theta=theta)
        spec = LoopSpec(radius=radius_rel * branch_point(p)[0],
                        windings=windings, n_steps=n_steps)
        trace, _ = run_berry_loop(p, spec)
        cells = {}
        for row, phi in enumerate(trace.phi):
            cells[(row, "phi")] = repr(float(phi))
            for name, values in (("E_plus", trace.e_plus),
                                 ("E_minus", trace.e_minus)):
                cells[(row, "re_" + name)] = values[row].real
                cells[(row, "im_" + name)] = values[row].imag
        places = [place for place in cells if place[1] != "phi"]
        config = {"theta": theta, "berry": {"radius_rel": radius_rel}}
        targets = same_outputs.Oracle._berry_targets(
            Path("berry.csv"), config, cells, places, 1.0, 1.0, 1.0)
        assert len(targets) == same_outputs.ORACLE_SAMPLES
        assert max(abs(cells[place] - exact) / np.spacing(scale)
                   for place, (exact, scale) in targets.items()) <= 4.0


class TestStartPhase:
    @pytest.mark.parametrize("start, scans", [(None, 1), (1.0, 0)])
    def test_crossings_are_scanned_only_for_the_default_start(
            self, monkeypatch, start, scans):
        # an explicit start phase needs no boundary crossing; the default
        # one takes one ``boundary_crossings`` call per loop
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

    def test_no_pole_is_evaluated_given_the_branch_point(self, monkeypatch):
        # the start is the first crossing: no resonance energy is compared
        # along the circle
        import csmres.eploop as eploop
        import csmres.model as model

        branch = branch_point(P)
        calls = []
        original = model.resonance_energy

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(model, "resonance_energy", counting)
        monkeypatch.setattr(eploop, "resonance_energy", counting,
                            raising=False)
        run_berry_loop(P, LoopSpec(radius=1e-5 * LBP, windings=1), branch)
        assert calls == []


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
