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
    bin_energy,
    branch_point,
    branch_point_coupling,
    contact_coupling_root,
    critical_angle,
    resonance_energy,
)
from csmres.wavefun import classify_region, find_resonance_k


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


class TestAcceptance1SpectrumOracle:
    def test_siegert_roots_match_closed_form(self):
        # over 400 such draws (seeds 1-7 and 42) the worst |dE| is 1.8e-14
        # and the worst |dE| / |E_n| 1.5e-15 (``find_resonance_k``), so
        # 1e-12 and 1e-13 sit 55x and 66x above them
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
                assert diff < 1e-12, (lam, beta, m, n, diff)
                assert diff < 1e-13 * abs(pole.energy), (lam, beta, m, n)
                worst = max(worst, diff)
        elapsed = time.time() - t0
        assert elapsed < 10.0
        report(1, f"50 random (lam, beta, m), n=0,1: worst |dE| = "
                  f"{worst:.2e} < 1e-12 in {elapsed:.2f} s")


class TestAcceptance2BranchPoint:
    def test_lambda_bp_and_reference_values(self):
        worst = 0.0
        for th in (math.pi / 8, math.pi / 6, math.pi / 5):
            closed = branch_point_coupling(th)
            numeric = contact_coupling_root(th, n=0)
            diff = abs(numeric - closed)
            assert diff < 1e-10
            worst = max(worst, diff)
        _, e_bp, k_bp = branch_point(ModelParams(lam=1.0, theta=math.pi / 6))
        assert abs(e_bp - (0.25 - math.sqrt(3.0) / 4.0 * 1j)) < 1e-14
        assert abs(k_bp - cmath.exp(-1j * math.pi / 6.0)) < 1e-14
        report(2, f"tan(2 theta) contact root vs closed form: worst "
                  f"{worst:.2e} < 1e-10; E_bp, k_bp verified at pi/6")


class TestAcceptance3BinIdentity:
    def test_hermitian_six_bins(self):
        # ``overlap_matrix``: over lam 0.1-10 and k in [0.2, 5] the worst
        # entry errors are 6.6e-12 for S (lam 5) and 4.1e-11 for H (lam
        # 10), so 1e-10 and 5e-10 sit 15x and 12x above them
        p = ModelParams(lam=1.0, theta=0.3)
        x = spatial_grid(p.beta)
        grid = real_axis(0.5, 3.5, 6)
        s_err = h_err = 0.0
        for lam in (1.0, 10.0):
            bins = [binned_state(p.with_lam(lam), grid, j, x)
                    for j in range(6)]
            om = overlap_matrix(bins, bins, x)
            eps = np.array([b.energy for b in bins])
            s_err = max(s_err, float(np.max(np.abs(om.matrix - np.eye(6)))))
            h_err = max(h_err, float(np.max(np.abs(om.hamiltonian
                                                   - np.diag(eps)))))
        assert s_err < 1e-10
        assert h_err < 5e-10
        # cubic closed form against independent quadrature
        t, w = leggauss(24)
        for j in range(6):
            ka, kb = grid.nodes[j], grid.nodes[j + 1]
            ks = 0.5 * (ka + kb) + 0.5 * (kb - ka) * t
            quad = np.sum(w * ks**2 / 2.0) / 2.0
            assert abs(bin_energy(p, ka, kb) - quad) < 1e-12
        report(3, f"6 Hermitian bins at lam 1 and 10: ||S-I|| = "
                  f"{s_err:.2e} < 1e-10, ||H-diag|| = {h_err:.2e} < 5e-10; "
                  f"cubic bin energies to 1e-12")


class TestAcceptance4SelfOrthogonality:
    def test_sigma_min_collapse_and_limit_exchange(self):
        th = math.pi / 6
        lbp = branch_point_coupling(th)
        p = ModelParams(lam=1.0, theta=th)
        deltas = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
        seq = [lbp + d for d in deltas]
        assert all(classify_region(p, lam) == "ConvergentA"
                   for lam in seq)
        pts = degeneracy_diagnostics(p, seq)
        sig = [pt.sigma_min for pt in pts]
        assert all(a > b for a, b in zip(sig, sig[1:]))
        assert sig[0] / sig[-1] > 1e2
        interior, limits = limit_exchange_entries(p, seq)
        assert all(v < 1e-9 for v in interior)
        assert all(v > 0.1 for v in limits)
        report(4, f"sigma_min {sig[0]:.2e} -> {sig[-1]:.2e} "
                  f"({sig[0] / sig[-1]:.1e}x, strictly monotone); limit "
                  f"entries > 0.1, interior max {max(interior):.1e} < 1e-9")


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
        # the closed-form loop reads its 4 pi and 8 pi factors to about
        # 1e-15 (worst 7.2e-16 over these six points, about 1.6e-13 on the
        # benchmark's berry jobs), so 1e-11 catches a loss of four digits
        for th in (0.3, math.pi / 6, 0.7):
            for radius_rel in (1e-6, 1e-5):
                self.check_loop(th, radius_rel)

    def check_loop(self, th, radius_rel):
        lbp = branch_point_coupling(th)
        p = ModelParams(lam=1.0, theta=th)
        spec = LoopSpec(radius=radius_rel * lbp, windings=4)
        trace, v = run_berry_loop(p, spec)
        assert abs(v["overlap_4pi"] - (-1.0)) < 1e-11
        assert abs(v["overlap_8pi"] - 1.0) < 1e-11
        assert v["monodromy_order"] == 4
        f_plus = case_asymptotic_phase(1, p, spec)
        f_minus = case_asymptotic_phase(-1, p, spec)
        assert abs(f_plus - 1j) < 1e-11
        assert abs(f_minus - 1j) < 1e-11
        spec16 = LoopSpec(radius=spec.radius / 16.0, windings=1,
                          start_phase=trace.phi[0])
        t16, _ = run_berry_loop(p, spec16)
        ratio = abs(trace.readout[0]) / abs(t16.readout[0])
        assert abs(ratio - 2.0) < 0.04
        worst = max(abs(v["overlap_4pi"] + 1.0), abs(v["overlap_8pi"] - 1.0),
                    abs(f_plus - 1j), abs(f_minus - 1j))
        report(6, f"theta {th:.4f}, R/lam_bp {radius_rel:g}: 4pi and 8pi "
                  f"overlaps and the per-2pi factor i in both directions "
                  f"within {worst:.1e}, monodromy 4, R^(1/4) ratio "
                  f"{ratio:.4f}")


class TestAcceptance7RegionsAndResiduals:
    def test_region_flip_at_critical_angle(self):
        lam = 1.0
        th0 = critical_angle(ModelParams(lam=lam, theta=0.3), 0)
        above = ModelParams(lam=lam, theta=th0 + 1e-10)
        below = ModelParams(lam=lam, theta=th0 - 1e-10)
        assert classify_region(above) == "ConvergentA"
        assert classify_region(below) == "DivergentB"
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
