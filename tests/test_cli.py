"""Tests for the command-line layer: determinism, exit codes, formats."""

import json
import math

import pytest

from csmres.cli import main


def run(tmp_path, *argv):
    return main(["--out", str(tmp_path), *argv])


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestExitCodes:
    def test_success(self, tmp_path):
        assert run(tmp_path, "spectrum") == 0

    def test_config_error_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"theta": 2.0})
        assert main(["--config", cfg, "--out", str(tmp_path),
                     "spectrum"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "theta" in err["message"]

    def test_malformed_json_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["--config", str(bad), "--out", str(tmp_path),
                     "spectrum"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_numerical_failure_is_3(self, tmp_path, capsys):
        # a grid cutoff deep in the saturated-tanh regime underflows
        cfg = write_config(tmp_path, {"wavefunction": {"x_max": 500.0}})
        assert main(["--config", cfg, "--out", str(tmp_path),
                     "wavefunction"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SingularCoordinate"

    @pytest.mark.parametrize("command, payload", [
        ("spectrum", {"spectrum": {"n_max": "x"}}),
        ("regions", {"regions": {"n_points": "x"}}),
        ("regions", {"regions": [1]}),
        ("overlap", {"overlap": {"n_bins": "x"}}),
        ("berry", {"berry": {"windings": "x"}}),
        ("wavefunction", {"wavefunction": {"k": "x"}}),
        ("spectrum", {"units": [1.0]}),
        # integer keys reject fractional values instead of truncating them
        ("spectrum", {"spectrum": {"n_max": 1.9}}),
        ("regions", {"regions": {"n_points": 64.5}}),
        ("overlap", {"overlap": {"n_bins": 1.5}}),
        ("berry", {"berry": {"windings": 4.5}}),
        ("berry", {"berry": {"n_steps": 256.5}}),
        ("wavefunction", {"wavefunction": {"n_points": 2049.5}}),
        # json reads NaN and Infinity; non-finite numbers are rejected
        ("spectrum", {"lam": math.nan}),
        ("overlap", {"lam": math.nan}),
        ("wavefunction", {"lam": math.nan}),
        ("overlap", {"overlap": {"deltas": [math.nan]}}),
        ("overlap", {"overlap": {"k_max": math.inf}}),
        ("overlap", {"units": {"m": math.inf}}),
        ("wavefunction", {"wavefunction": {"x_max": -5.0}}),
    ])
    def test_malformed_block_is_2(self, tmp_path, capsys, command, payload):
        cfg = write_config(tmp_path, payload)
        assert main(["--config", cfg, "--out", str(tmp_path), command]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert not list(tmp_path.glob("*.csv"))

    def test_overflowing_number_is_2(self, tmp_path, capsys):
        # 1e400 parses to inf
        cfg = tmp_path / "config.json"
        cfg.write_text('{"lam": 1e400}')
        assert main(["--config", str(cfg), "--out", str(tmp_path),
                     "spectrum"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("k", [150.0, 300.0])
    def test_wavefunction_out_of_range_is_3(self, tmp_path, capsys, k):
        cfg = write_config(tmp_path, {"wavefunction": {"k": k,
                                                       "n_points": 65}})
        assert main(["--config", cfg, "--out", str(tmp_path),
                     "wavefunction"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "PreconditionViolation"
        assert "k = " in err["message"]
        assert not list(tmp_path.glob("*.csv"))

    def test_integral_float_is_accepted(self, tmp_path):
        cfg = write_config(tmp_path, {"spectrum": {"n_max": 2.0}})
        assert main(["--config", cfg, "--out", str(tmp_path),
                     "spectrum"]) == 0
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in lines[2:]] == ["0", "1", "2"]


class TestModuleEntryPoint:
    def test_python_m_csmres_help(self, fresh_python):
        done = fresh_python("-m", "csmres", "--help")
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: csmres")


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            assert main(["--out", str(out), "spectrum"]) == 0
            assert main(["--out", str(out), "regions"]) == 0
        for name in ("spectrum.csv", "spectrum.json", "regions.csv",
                     "regions.json"):
            b1 = (out1 / name).read_bytes()
            b2 = (out2 / name).read_bytes()
            assert b1 == b2 and len(b1) > 0


class TestFormats:
    def test_csv_only(self, tmp_path):
        assert run(tmp_path, "--format", "csv", "spectrum") == 0
        assert (tmp_path / "spectrum.csv").exists()
        assert not (tmp_path / "spectrum.json").exists()

    def test_json_only(self, tmp_path):
        assert run(tmp_path, "--format", "json", "spectrum") == 0
        assert (tmp_path / "spectrum.json").exists()
        assert not (tmp_path / "spectrum.csv").exists()

    def test_versioned_header(self, tmp_path):
        assert run(tmp_path, "spectrum") == 0
        first = (tmp_path / "spectrum.csv").read_text().splitlines()[0]
        assert first == "# csmres spectrum v1"


class TestSpectrumOutput:
    def test_reference_row(self, tmp_path):
        assert run(tmp_path, "spectrum") == 0
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        n, re_e, im_e, th0 = lines[2].split(",")
        assert n == "0"
        assert abs(float(re_e) - 0.75) < 1e-14
        assert abs(float(im_e) + math.sqrt(7.0) / 4.0) < 1e-14
        assert abs(float(th0) - 0.361367) < 1e-6

    def test_seventeen_digit_floats(self, tmp_path):
        assert run(tmp_path, "spectrum") == 0
        row = (tmp_path / "spectrum.csv").read_text().splitlines()[2]
        assert "0.75000000000000011" in row


class TestRegionsOutput:
    def test_pi_over_6_row(self, tmp_path):
        cfg = write_config(tmp_path, {
            "regions": {"theta_min": math.pi / 6, "theta_max": 0.6,
                        "n_points": 2}})
        assert main(["--config", cfg, "--out", str(tmp_path),
                     "regions"]) == 0
        lines = (tmp_path / "regions.csv").read_text().splitlines()
        _, l0m, l0p, l1m, l1p, lbp = (float(v) for v in lines[2].split(","))
        assert abs(l0p - 0.5) < 1e-14 and abs(lbp - 0.5) < 1e-14
        assert abs(l1p - 3.5) < 1e-12
        assert abs(l0m - 1.0 / 6.0) < 1e-14

    def test_curve_ordering(self, tmp_path):
        cfg = write_config(tmp_path, {
            "regions": {"theta_min": 0.05, "theta_max": 0.35,
                        "n_points": 30}})
        assert main(["--config", cfg, "--out", str(tmp_path),
                     "regions"]) == 0
        for line in (tmp_path / "regions.csv").read_text().splitlines()[2:]:
            _, _, l0p, _, l1p, _ = (float(v) for v in line.split(","))
            assert l0p < l1p


class TestBerryOutput:
    def test_verdicts_and_trace(self, tmp_path):
        cfg = write_config(tmp_path, {
            "theta": math.pi / 6,
            "berry": {"radius_rel": 1e-5, "windings": 4, "n_steps": 128}})
        assert main(["--config", cfg, "--out", str(tmp_path), "berry"]) == 0
        verdict = json.loads((tmp_path / "berry.json").read_text())
        assert verdict["monodromy_order"] == 4
        assert abs(float(verdict["overlap_4pi"]["re"]) + 1.0) < 1e-3
        assert abs(float(verdict["overlap_8pi"]["re"]) - 1.0) < 1e-3
        assert 0.48 <= float(verdict["exponent"]) <= 0.52
        lines = (tmp_path / "berry.csv").read_text().splitlines()
        assert lines[1].split(",")[0] == "phi"
        assert len(lines) == 2 + 4 * 128 + 1


class TestWavefunctionOutput:
    def test_dump_roundtrip(self, tmp_path):
        cfg = write_config(tmp_path, {
            "theta": 0.4,
            "wavefunction": {"k": {"re": 1.0, "im": -0.3}, "n_points": 201}})
        assert main(["--config", cfg, "--out", str(tmp_path),
                     "wavefunction"]) == 0
        lines = (tmp_path / "wavefunction.csv").read_text().splitlines()
        assert len(lines) == 2 + 201
        payload = json.loads((tmp_path / "wavefunction.json").read_text())
        assert float(payload["k"]["im"]) == -0.3
        assert len(payload["samples"]) == 201
