"""End-to-end acceptance checks at contract tolerances.

Each test prints a one-line verdict so the suite output doubles as an
acceptance report.
"""

import cmath
import math
import time

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.optimize import least_squares

from csmres.binbasis import (
    BinGrid,
    binned_state,
    degeneracy_diagnostics,
    limit_exchange_entries,
    overlap_matrix,
    real_axis,
    spatial_grid,
)
from csmres.eploop import LoopSpec, _readout_zeta, case_asymptotic_phase, \
    run_berry_loop
from csmres.model import (
    ModelParams,
    bin_energy,
    branch_point,
    branch_point_coupling,
    contact_coupling_root,
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
        # ``contact_coupling_root``: half its bisection tolerance, 5e-14,
        # plus rounding; 1.28e-14 at these angles, 3.2e-14 at theta 0.6
        worst = 0.0
        for th in (math.pi / 8, math.pi / 6, math.pi / 5):
            closed = branch_point_coupling(th)
            numeric = contact_coupling_root(th, n=0)
            diff = abs(numeric - closed)
            assert diff <= 5e-14 + 8.0 * math.ulp(closed)
            worst = max(worst, diff)
        _, e_bp, k_bp = branch_point(ModelParams(lam=1.0, theta=math.pi / 6))
        assert abs(e_bp - (0.25 - math.sqrt(3.0) / 4.0 * 1j)) < 1e-14
        assert abs(k_bp - cmath.exp(-1j * math.pi / 6.0)) < 1e-14
        report(2, f"tan(2 theta) contact root vs closed form: worst "
                  f"{worst:.2e} <= 5e-14 + 8 ulp; E_bp, k_bp verified at "
                  f"pi/6")


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
            s, h = overlap_matrix(bins, bins, x)
            eps = np.array([bin_energy(p, *grid.nodes[j:j + 2])
                            for j in range(6)])
            s_err = max(s_err, float(np.max(np.abs(s - np.eye(6)))))
            h_err = max(h_err, float(np.max(np.abs(h - np.diag(eps)))))
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
        pts = degeneracy_diagnostics(p, deltas)
        sig = [pt.sigma_min for pt in pts]
        assert all(a > b for a, b in zip(sig, sig[1:]))
        assert sig[0] / sig[-1] > 1e2
        interior, limits = limit_exchange_entries(p, deltas)
        assert all(v < 1e-9 for v in interior)
        assert all(v > 0.1 for v in limits)
        report(4, f"sigma_min {sig[0]:.2e} -> {sig[-1]:.2e} "
                  f"({sig[0] / sig[-1]:.1e}x, strictly monotone); limit "
                  f"entries > 0.1, interior max {max(interior):.1e} < 1e-9")


def straddling_quotients(p, ts):
    """H/S of the non-Hermitian, delta-normalized upper straddling bin
    [k_bp, k_bp + sqrt(t)] at each t, from ``overlap_matrix``."""
    _, _, k_bp = branch_point(p)
    space = spatial_grid(p.beta)
    quotients = []
    for t in ts:
        grid = BinGrid(nodes=np.array([k_bp, k_bp + math.sqrt(t)]),
                       hermitian=False)
        b = binned_state(p, grid, 0, space)
        s, h = overlap_matrix([b], [b], space)
        quotients.append(h[0, 0] / s[0, 0])
    return np.array(quotients)


def fit_power_and_linear(ts, y):
    """(p, a, b) of y = a t^p + b t, complex a and b, by least squares on
    the relative residuals, started at p = 0.4."""
    def residuals(x):
        r = ((x[1] + 1j * x[2]) * ts ** x[0] + (x[3] + 1j * x[4]) * ts
             - y) / np.abs(y)
        return np.concatenate([r.real, r.imag])

    a0 = y[0] / math.sqrt(ts[0])
    x = least_squares(residuals, [0.4, a0.real, a0.imag, 0.0, 0.0],
                      xtol=1e-15, ftol=1e-15, gtol=1e-15).x
    return x[0], x[1] + 1j * x[2], x[3] + 1j * x[4]


class TestAcceptance5PuiseuxExponent:
    def test_exponent_three_angles(self):
        # The numerical basis against the Puiseux branch
        # E - E_bp = alpha sqrt(t) + (hbar^2 / 6m) t, alpha = hbar^2 k_bp
        # / 2m, with k_bp = beta e^{-i theta} / (2 sin theta) in closed
        # form.  Measured worst over these four angles: |p - 1/2| 2.6e-13,
        # alpha 3.4e-12 and b 6.0e-10 relative, |H/S - bin_energy|
        # 6.0e-14 of |E_bp|; each bound sits 10x above.
        worst = np.zeros(4)
        for th in (0.2, 0.3, math.pi / 6, 0.6):
            p = ModelParams(lam=1.0, theta=th)
            lam_bp, e_bp, k_bp = branch_point(p)
            ts = np.geomspace(1e-6, 1e-4, 5) * lam_bp
            quotients = straddling_quotients(p, ts)
            cubic = np.array([bin_energy(p, k_bp, k_bp + math.sqrt(t))
                              for t in ts])
            power, a, b = fit_power_and_linear(ts, quotients - e_bp)
            k_closed = p.beta * cmath.exp(-1j * th) / (2.0 * math.sin(th))
            alpha = p.hbar ** 2 * k_closed / (2.0 * p.m)
            c = p.hbar ** 2 / (6.0 * p.m)
            errors = (abs(power - 0.5), abs(a - alpha) / abs(alpha),
                      abs(b - c) / c,
                      np.max(np.abs(quotients - cubic)) / abs(e_bp))
            assert errors[0] < 2.6e-12, (th, errors)
            assert errors[1] < 3.4e-11, (th, errors)
            assert errors[2] < 6.0e-9, (th, errors)
            assert errors[3] < 6.0e-13, (th, errors)
            worst = np.maximum(worst, errors)
        report(5, "H/S of straddling bins at four angles: fitted exponent "
                  f"1/2 within {worst[0]:.1e}, alpha and hbar^2/6m within "
                  f"{worst[1]:.1e} and {worst[2]:.1e} relative, H/S = "
                  f"bin_energy within {worst[3]:.1e} of |E_bp|")


def quarter_root_bound(zeta, radius):
    """Bound on |ratio - 2| of the R^{1/4} readout ratio at radii R and
    R/16, from the next Puiseux order.  The readout is proportional to
    sinh(zeta r) / sqrt(2 r), |r|^2 = R, so the ratio is
    2 (1 + (15/96) Re (zeta r)^2 + O(|zeta r|^4)), whose second term is
    at most (5/16) |zeta|^2 R.  The O(|zeta r|^4) remainder is below
    0.12 |zeta|^2 R of that term, 1.2e-3 under the Taylor-regime bound
    |zeta|^2 R < 0.01, so a 1% margin covers it.  At the six points of
    acceptance 6 the deviation reads 0.70-0.94 of the term."""
    return 1.01 * 5.0 / 16.0 * abs(zeta) ** 2 * radius


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
        bound = quarter_root_bound(_readout_zeta(p, spec), spec.radius)
        assert abs(ratio - 2.0) <= bound
        worst = max(abs(v["overlap_4pi"] + 1.0), abs(v["overlap_8pi"] - 1.0),
                    abs(f_plus - 1j), abs(f_minus - 1j))
        report(6, f"theta {th:.4f}, R/lam_bp {radius_rel:g}: 4pi and 8pi "
                  f"overlaps and the per-2pi factor i in both directions "
                  f"within {worst:.1e}, monodromy 4, R^(1/4) ratio - 2 = "
                  f"{ratio - 2.0:.2e} within {bound:.2e}")


class TestAcceptance7RegionsAndResiduals:
    def test_region_flip_at_critical_angle(self):
        lam = 1.0
        th0 = resonance_energy(ModelParams(lam=lam, theta=0.3),
                               0).critical_angle
        above = ModelParams(lam=lam, theta=th0 + 1e-10)
        below = ModelParams(lam=lam, theta=th0 - 1e-10)
        assert classify_region(above) == "ConvergentA"
        assert classify_region(below) == "DivergentB"
        report(7, f"region flips within 1e-10 of theta_0 = {th0:.10f}")

    def test_emitted_wavefunctions_satisfy_ode(self, tmp_path):
        # ``eval_wavefunction``: the worst residual of these three cases is
        # 4.3e-9 (theta 0.4), the truncation error of the difference rule,
        # so 5e-8 sits 11x above it
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
            assert rel < 5e-8
            worst = max(worst, rel)
        report(7, f"emitted wave functions: worst relative ODE residual "
                  f"{worst:.2e} < 5e-8")
