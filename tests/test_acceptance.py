"""End-to-end acceptance checks at contract tolerances.

Each test prints a one-line verdict so the suite output doubles as an
acceptance report.
"""

import cmath
import math
import time

import numpy as np
from numpy.polynomial.legendre import leggauss

from csmres.binbasis import (
    bin_energy,
    binned_state,
    degeneracy_diagnostics,
    limit_exchange_entries,
    overlap_matrix,
    real_axis,
    spatial_grid,
)
from csmres.eploop import LoopSpec, case_asymptotic_phase, fit_puiseux, \
    run_berry_loop
from csmres.model import (
    ModelParams,
    branch_point_coupling,
    contact_coupling_root,
    critical_angle,
    lambda_window,
    resonance_energy,
)
from csmres.wavefun import RegionLabel, classify_region, find_resonance_k


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


class TestAcceptance1SpectrumOracle:
    def test_siegert_roots_match_closed_form(self):
        rng = np.random.default_rng(42)
        t0 = time.time()
        worst = 0.0
        for _ in range(50):
            beta = rng.uniform(0.5, 2.0)
            m = rng.uniform(0.5, 2.0)
            scale = beta**2 / (8.0 * m)
            lam = rng.uniform(1.5, 40.0) * scale
            p = ModelParams(lam=lam, theta=0.3, m=m, beta=beta)
            for n in (0, 1):
                pole = resonance_energy(p, n)
                k0 = pole.k * (1.0 + 1e-3 * (1.0 + 1.0j))
                k = find_resonance_k(p, k0)
                e = (p.hbar * k) ** 2 / (2.0 * m)
                diff = abs(e - pole.energy)
                # the root finder lands on the outgoing ladder; level
                # identity is fixed by the seed
                assert diff < 1e-8, (lam, beta, m, n, diff)
                worst = max(worst, diff)
        elapsed = time.time() - t0
        assert elapsed < 10.0
        report(1, f"50 random (lam, beta, m), n=0,1: worst |dE| = "
                  f"{worst:.2e} < 1e-8 in {elapsed:.2f} s")


class TestAcceptance2BranchPoint:
    def test_lambda_bp_and_reference_values(self):
        worst = 0.0
        for th in (math.pi / 8, math.pi / 6, math.pi / 5):
            closed = branch_point_coupling(th)
            numeric = contact_coupling_root(th, n=0)
            diff = abs(numeric - closed)
            assert diff < 1e-10
            worst = max(worst, diff)
        rb = lambda_window(math.pi / 6)
        assert abs(rb.E_bp - (0.25 - math.sqrt(3.0) / 4.0 * 1j)) < 1e-14
        assert abs(rb.k_bp - cmath.exp(-1j * math.pi / 6.0)) < 1e-14
        report(2, f"tan(2 theta) contact root vs closed form: worst "
                  f"{worst:.2e} < 1e-10; E_bp, k_bp verified at pi/6")


class TestAcceptance3BinIdentity:
    def test_hermitian_six_bins(self):
        p = ModelParams(lam=1.0, theta=0.3)
        x = spatial_grid(p.beta)
        grid = real_axis(0.5, 3.5, 6)
        bins = [binned_state(p, grid, j, x) for j in range(6)]
        s = overlap_matrix(bins, bins, x).matrix
        h = overlap_matrix(bins, bins, x, apply_h=True).matrix
        eps = np.array([b.energy for b in bins])
        s_err = float(np.max(np.abs(s - np.eye(6))))
        h_err = float(np.max(np.abs(h - np.diag(eps))))
        assert s_err < 1e-5
        assert h_err < 1e-5
        # cubic closed form against independent quadrature
        t, w = leggauss(24)
        for j in range(6):
            ka, kb = grid.nodes[j], grid.nodes[j + 1]
            ks = 0.5 * (ka + kb) + 0.5 * (kb - ka) * t
            quad = np.sum(w * ks**2 / 2.0) / 2.0
            assert abs(bin_energy(p, ka, kb) - quad) < 1e-12
        report(3, f"6 Hermitian bins: ||S-I|| = {s_err:.2e}, "
                  f"||H-diag|| = {h_err:.2e} (< 1e-5); cubic bin energies "
                  f"to 1e-12")


class TestAcceptance4SelfOrthogonality:
    def test_sigma_min_collapse_and_limit_exchange(self):
        th = math.pi / 6
        lbp = branch_point_coupling(th)
        p = ModelParams(lam=1.0, theta=th)
        deltas = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
        seq = [lbp + d for d in deltas]
        assert all(classify_region(p, lam) is RegionLabel.ConvergentA
                   for lam in seq)
        pts = degeneracy_diagnostics(p, seq)
        sig = [pt.sigma_min for pt in pts]
        assert all(a > b for a, b in zip(sig, sig[1:]))
        assert sig[0] / sig[-1] > 1e2
        interior, limits = limit_exchange_entries(p, seq)
        assert all(v < 1e-4 for v in interior)
        assert all(v > 0.1 for v in limits)
        report(4, f"sigma_min {sig[0]:.2e} -> {sig[-1]:.2e} "
                  f"({sig[0] / sig[-1]:.1e}x, strictly monotone); limit "
                  f"entries > 0.1, interior max {max(interior):.1e} < 1e-4")


class TestAcceptance5PuiseuxExponent:
    def test_exponent_three_angles(self):
        exps = []
        for th in (math.pi / 8, math.pi / 6, math.pi / 5):
            fit = fit_puiseux(ModelParams(lam=1.0, theta=th), (1e-6, 1e-4))
            assert 0.48 <= fit.exponent <= 0.52
            exps.append(fit.exponent)
        report(5, "fitted exponents " +
               ", ".join(f"{e:.4f}" for e in exps) + " all in [0.48, 0.52]")


class TestAcceptance6BerryMonodromy:
    def test_loop_verdicts(self):
        th = math.pi / 6
        lbp = branch_point_coupling(th)
        p = ModelParams(lam=1.0, theta=th)
        spec = LoopSpec(radius=1e-5 * lbp, windings=4)
        trace, v = run_berry_loop(p, spec)
        assert abs(v["overlap_4pi"] - (-1.0)) < 1e-3
        assert abs(v["overlap_8pi"] - 1.0) < 1e-3
        assert v["monodromy_order"] == 4
        f_plus = case_asymptotic_phase(1, p, spec)
        f_minus = case_asymptotic_phase(-1, p, spec)
        assert abs(f_plus - 1j) < 1e-3
        assert abs(f_minus - 1j) < 1e-3
        spec16 = LoopSpec(radius=spec.radius / 16.0, windings=1,
                          start_phase=trace.phi[0])
        t16, _ = run_berry_loop(p, spec16)
        ratio = abs(trace.readout[0]) / abs(t16.readout[0])
        assert abs(ratio - 2.0) < 0.04
        report(6, f"overlap(4pi) = {v['overlap_4pi']:.6f}, overlap(8pi) = "
                  f"{v['overlap_8pi']:.6f}, monodromy 4, per-2pi factor i "
                  f"both directions, R^(1/4) ratio {ratio:.4f}")


class TestAcceptance7RegionsAndResiduals:
    def test_region_flip_at_critical_angle(self):
        lam = 1.0
        th0 = critical_angle(ModelParams(lam=lam, theta=0.3), 0).raw
        above = ModelParams(lam=lam, theta=th0 + 1e-10)
        below = ModelParams(lam=lam, theta=th0 - 1e-10)
        assert classify_region(above) is RegionLabel.ConvergentA
        assert classify_region(below) is RegionLabel.DivergentB
        report(7, f"region flips within 1e-10 of theta_0 = {th0:.10f}")

    def test_emitted_wavefunctions_satisfy_ode(self, tmp_path):
        import json

        from csmres.cli import main

        worst = 0.0
        cases = [
            {"theta": 0.4, "lam": 1.0,
             "wavefunction": {"k": {"re": 1.3228756555322954,
                                    "im": -0.5}}},
            {"theta": 0.3, "lam": 2.0,
             "wavefunction": {"k": {"re": 1.1, "im": 0.05}}},
            {"theta": 0.6, "lam": 0.7,
             "wavefunction": {"k": {"re": 0.9, "im": -0.2}}},
        ]
        for i, cfg in enumerate(cases):
            cfg_path = tmp_path / f"c{i}.json"
            cfg_path.write_text(json.dumps(cfg))
            out = tmp_path / f"o{i}"
            assert main(["--config", str(cfg_path), "--out", str(out),
                         "wavefunction"]) == 0
            rows = (out / "wavefunction.csv").read_text().splitlines()[2:]
            data = np.array([[float(v) for v in r.split(",")] for r in rows])
            x = data[:, 0]
            psi = data[:, 1] + 1j * data[:, 2]
            k = complex(cfg["wavefunction"]["k"]["re"],
                        cfg["wavefunction"]["k"]["im"])
            th = cfg["theta"]
            h = x[1] - x[0]
            d2 = (-psi[4:] + 16 * psi[3:-1] - 30 * psi[2:-2]
                  + 16 * psi[1:-3] - psi[:-4]) / (12 * h * h)
            xp = x[2:-2] * cmath.exp(1j * th)
            res = -0.5 * cmath.exp(-2j * th) * d2 \
                + cfg["lam"] / np.cosh(xp) ** 2 * psi[2:-2] \
                - k**2 / 2.0 * psi[2:-2]
            rel = float(np.max(np.abs(res)) / np.max(np.abs(psi)))
            assert rel < 1e-6
            worst = max(worst, rel)
        report(7, f"emitted wave functions: worst relative ODE residual "
                  f"{worst:.2e} < 1e-6")
