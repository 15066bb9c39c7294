"""Tests for the command-line layer: determinism, exit codes, formats."""

import cmath
import contextlib
import io
import json
import math
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csmres.cli import _MAX_BINS, _MAX_DELTAS, main


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
        # psi grows like e^{|k| |x| sin theta} at x < 0: at k = 5 a cutoff
        # of 500 takes it past the float range
        cfg = write_config(tmp_path, {"wavefunction": {
            "x_max": 500.0, "k": {"re": 5.0, "im": 0.0}}})
        assert main(["--config", cfg, "--out", str(tmp_path),
                     "wavefunction"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "PreconditionViolation"
        assert "not finite" in err["message"]

    def test_saturated_tanh_cutoff_is_0(self, tmp_path):
        # where e^{-2 beta |x| e^{i theta}} underflows, u = 0 and F = 1:
        # the plane wave alone, with no coordinate singularity
        cfg = write_config(tmp_path, {"wavefunction": {"x_max": 500.0}})
        assert main(["--config", cfg, "--out", str(tmp_path),
                     "wavefunction"]) == 0
        rows = np.loadtxt(tmp_path / "wavefunction.csv", delimiter=",",
                          skiprows=2)
        assert np.isfinite(rows).all()

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
        # a list is a JSON array of numbers, a complex value a number or an
        # object with only re and im; strings and booleans are not numbers
        ("overlap", {"overlap": {"deltas": "12"}}),
        ("overlap", {"overlap": {"deltas": [1e-2, "1e-3"]}}),
        ("spectrum", {"lam": {"re": 1.5, "img": 3}}),
        ("spectrum", {"lam": {"re": "1.5"}}),
        ("spectrum", {"lam": "2"}),
        ("spectrum", {"units": {"m": True}}),
        ("berry", {"berry": {"windings": True}}),
        ("wavefunction", {"wavefunction": {"x_max": "8"}}),
    ])
    def test_malformed_block_is_2(self, tmp_path, capsys, command, payload):
        cfg = write_config(tmp_path, payload)
        assert main(["--config", cfg, "--out", str(tmp_path), command]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("payload, key, allowed", [
        ({"lamda": 2.0}, "'lamda' in config", "berry, lam, overlap"),
        ({"berry": {"n_step": 10}}, "'n_step' in berry",
         "n_steps, radius_rel, windings"),
        ({"units": {"mass": 2}}, "'mass' in units", "beta, hbar, m"),
        ({"spectrum": {"nmax": 3}}, "'nmax' in spectrum", "n_max"),
        ({"regions": {"theta_min": 0.1, "npoints": 8}},
         "'npoints' in regions", "n_points, theta_max, theta_min"),
        ({"overlap": {"n_bin": 2}}, "'n_bin' in overlap",
         "deltas, k_max, k_min, n_bins"),
        ({"wavefunction": {"xmax": 8.0}}, "'xmax' in wavefunction",
         "k, n_points, x_max"),
    ])
    @pytest.mark.parametrize("command", ["berry", "spectrum"])
    def test_unknown_config_key_is_2(self, tmp_path, capsys, payload, key,
                                     allowed, command):
        # a misspelled key would leave its default in place; every block
        # present is checked, whichever command runs
        cfg = write_config(tmp_path, payload)
        assert main(["--config", cfg, "--out", str(tmp_path), command]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert f"unknown key {key}" in err["message"]
        assert allowed in err["message"]
        assert not list(tmp_path.glob("*.csv"))

    def test_block_of_another_command_must_be_an_object(self, tmp_path,
                                                         capsys):
        cfg = write_config(tmp_path, {"berry": [1]})
        assert main(["--config", cfg, "--out", str(tmp_path),
                     "spectrum"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigError",
                       "message": "berry must be a JSON object"}

    @pytest.mark.parametrize("command", ["spectrum", "regions"])
    def test_blocks_of_other_commands_are_accepted(self, tmp_path, command):
        # one config for several commands, as the benchmark's scan jobs
        # share theirs
        cfg = write_config(tmp_path, {
            "theta": 0.4, "lam": 1.3, "units": {"m": 1.0},
            "spectrum": {"n_max": 3}, "regions": {"n_points": 8},
            "overlap": {"n_bins": 2}, "berry": {"windings": 1},
            "wavefunction": {"k": {"re": 1.5, "im": -0.4}, "x_max": 20.0}})
        assert main(["--config", cfg, "--out", str(tmp_path), command]) == 0

    @pytest.mark.parametrize("payload, named", [
        ({"theta": 0.9}, "theta = 0.9"),
        ({"units": {"beta": -1}}, "beta = -1"),
    ])
    def test_model_params_out_of_range_is_2(self, tmp_path, capsys, payload,
                                            named):
        # ModelParams holds the one check, and its message names the value
        cfg = write_config(tmp_path, payload)
        assert main(["--config", cfg, "--out", str(tmp_path),
                     "spectrum"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert named in err["message"]

    @pytest.mark.parametrize("command", ["spectrum", "regions", "overlap",
                                         "berry", "wavefunction"])
    @pytest.mark.parametrize("units, named", [
        ({"beta": 1e-300}, "beta^2 = 0.0"),
        ({"beta": 1e300}, "beta^2 = inf"),
        ({"hbar": 1e200}, "hbar^2 = inf"),
        ({"beta": 1e200, "hbar": 1e-200}, "beta^2 = inf"),
    ])
    def test_units_outside_the_float_range_are_2(self, tmp_path, capsys,
                                                 command, units, named):
        # positive units whose squares underflow or overflow: the closed
        # forms would divide by zero or overflow
        cfg = write_config(tmp_path, {"units": units})
        assert main(["--config", cfg, "--out", str(tmp_path), command]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert named in err["message"]
        assert not list(tmp_path.glob("*.csv"))

    def test_overflowing_number_is_2(self, tmp_path, capsys):
        # 1e400 parses to inf
        cfg = tmp_path / "config.json"
        cfg.write_text('{"lam": 1e400}')
        assert main(["--config", str(cfg), "--out", str(tmp_path),
                     "spectrum"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("payload", [
        {"lam": 1e308},
        {"lam": -1000, "units": {"m": 1e300, "hbar": 1e-3}},
        {"lam": 1e300, "theta": 0.05, "units": {"hbar": 0.1, "beta": 1e-8}},
    ])
    def test_index_outside_the_float_range_is_3(self, tmp_path, capsys,
                                                payload):
        # finite couplings and units whose g = 8 m lam / (beta hbar)^2
        # overflows: the spectrum would be nan in every column
        cfg = write_config(tmp_path, payload)
        assert main(["--config", cfg, "--out", str(tmp_path),
                     "spectrum"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "PreconditionViolation"
        assert "g = 8 m lam / (beta hbar)^2 is not finite" in err["message"]
        assert not list(tmp_path.glob("*.csv"))

    def test_energy_outside_the_float_range_is_3(self, tmp_path, capsys):
        # g is finite, but E_n = (beta hbar)^2/8m [sqrt(g - 1) - i(2n + 1)]^2
        # overflows near n = 20 000 at beta = 1e150
        cfg = write_config(tmp_path, {"units": {"beta": 1e150},
                                      "spectrum": {"n_max": 20000}})
        assert main(["--config", cfg, "--out", str(tmp_path),
                     "spectrum"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "PreconditionViolation"
        assert "is not finite at g = " in err["message"]
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("k", [40.0, 100.0, 150.0])
    def test_wavefunction_at_large_k_is_0(self, tmp_path, psi_oracle, k):
        # theta 0.3 and lam 1 by default; the oracle's principal branches
        # hold while |x| sin(theta) < pi/2
        cfg = write_config(tmp_path, {"wavefunction": {"k": k,
                                                       "n_points": 65}})
        assert main(["--config", cfg, "--out", str(tmp_path),
                     "wavefunction"]) == 0
        lines = (tmp_path / "wavefunction.csv").read_text().splitlines()
        s = 0.5 * (-1.0 + cmath.sqrt(-7.0))
        checked = 0
        for x, re, im in (line.split(",") for line in lines[2:]):
            x = float(x)
            if abs(x) * math.sin(0.3) < math.pi / 2.0:
                ref = psi_oracle(x, complex(k), s, 0.3)
                assert abs(complex(float(re), float(im)) - ref) \
                    <= 1e-12 * abs(ref), x
                checked += 1
        assert checked == 29

    @pytest.mark.parametrize("k", [300.0])
    def test_wavefunction_out_of_range_is_3(self, tmp_path, capsys, k):
        cfg = write_config(tmp_path, {"wavefunction": {"k": k,
                                                       "n_points": 65}})
        assert main(["--config", cfg, "--out", str(tmp_path),
                     "wavefunction"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "PreconditionViolation"
        assert "k = " in err["message"]
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command, payload", [
        # the closed-form window bounds divide by an underflowed sin^2 or
        # overflow, or the berry loop's Taylor check refuses the angle
        ("regions", {"regions": {"theta_min": 1e-300, "n_points": 3}}),
        ("regions", {"regions": {"theta_min": 1e-160, "n_points": 3}}),
        ("regions", {"regions": {"theta_min": 1e-100, "n_points": 3}}),
        ("berry", {"theta": 1e-170}),
        ("berry", {"theta": 1e-158}),
        ("berry", {"theta": 1e-150}),
        # lambda_bp is so large that the gamma kernels leave the float range
        ("overlap", {"theta": 2e-3}),
        ("overlap", {"theta": 5e-4}),
    ])
    def test_out_of_float_range_is_3(self, tmp_path, capsys, command,
                                     payload):
        cfg = write_config(tmp_path, payload)
        assert main(["--config", cfg, "--out", str(tmp_path), command]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "PreconditionViolation"
        assert not list(tmp_path.glob("*.csv"))

    def test_overlap_fails_before_the_real_axis_bins(self, tmp_path, capsys,
                                                     monkeypatch):
        import csmres.binbasis as binbasis

        built = []
        original = binbasis.binned_state

        def counting(params, grid, n, x, *args, **kwargs):
            built.append(grid.hermitian)
            return original(params, grid, n, x, *args, **kwargs)

        monkeypatch.setattr(binbasis, "binned_state", counting)
        cfg = write_config(tmp_path, {"theta": 2e-3})
        assert main(["--config", cfg, "--out", str(tmp_path),
                     "overlap"]) == 3
        assert json.loads(capsys.readouterr().err)["error"] \
            == "PreconditionViolation"
        # the degeneracy step builds no bin of either kind
        assert built == []

    def test_overlap_delta_below_the_lam_resolution_is_3(self, tmp_path,
                                                         capsys):
        # lam_bp + 1e-17 rounds to lam_bp at theta 0.3: the resonance of
        # the degeneracy step would sit on the branch point
        cfg = write_config(tmp_path, {"overlap": {"deltas": [1e-17]}})
        start = time.perf_counter()
        assert main(["--config", cfg, "--out", str(tmp_path),
                     "overlap"]) == 3
        assert time.perf_counter() - start < 1.0
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "EmptyRange"
        assert not list(tmp_path.glob("*.csv"))

    def test_berry_loop_that_does_not_move_k_bp_is_3(self, tmp_path,
                                                      capsys):
        # hbar = 1e-30, m = 1000: the loop radius moves no readout node off
        # k_bp, so every readout is 0; refused before the phase tracking
        cfg = write_config(tmp_path, {"units": {"hbar": 1e-30, "m": 1000}})
        assert main(["--config", cfg, "--out", str(tmp_path), "berry"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "EmptyRange"
        assert "readout is 0 at 1025 of 1025 loop nodes" in err["message"]
        assert not list(tmp_path.glob("*.csv"))

    def test_wavefunction_at_zero_k_is_3(self, tmp_path, capsys):
        # the Jost pair is degenerate at k = 0, and the default grid has
        # points beyond the in-place band
        cfg = write_config(tmp_path, {"wavefunction": {"k": 0.0}})
        assert main(["--config", cfg, "--out", str(tmp_path),
                     "wavefunction"]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "PoleError"
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command, key", [
        ("spectrum", "n_max"),
        ("regions", "n_points"),
        ("overlap", "n_bins"),
        ("berry", "windings"),
        ("berry", "n_steps"),
        ("wavefunction", "n_points"),
    ])
    def test_oversized_count_is_2(self, tmp_path, capsys, command, key):
        # refused while the config is read: n_max 1e15 used to loop without
        # end, the others to die allocating their arrays
        cfg = write_config(tmp_path, {command: {key: 1e15}})
        assert main(["--config", cfg, "--out", str(tmp_path), command]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert f"{command}.{key}" in err["message"]
        assert not list(tmp_path.glob("*.csv"))

    def test_oversized_berry_loop_is_2(self, tmp_path, capsys):
        # each count is below the limit, their product of steps is not
        cfg = write_config(tmp_path, {"berry": {"windings": 2 ** 10,
                                                "n_steps": 2 ** 11}})
        assert main(["--config", cfg, "--out", str(tmp_path), "berry"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "berry.windings * berry.n_steps" in err["message"]

    @pytest.mark.parametrize("block, key", [
        ({"n_bins": _MAX_BINS + 1}, "overlap.n_bins"),
        ({"deltas": [1e-3] * (_MAX_DELTAS + 1)}, "overlap.deltas"),
    ])
    def test_oversized_overlap_is_2(self, tmp_path, capsys, block, key):
        # below the count ceiling, but hours of bins or deltas: refused
        # before any bin or diagnostic is built
        cfg = write_config(tmp_path, {"overlap": block})
        start = time.perf_counter()
        assert main(["--config", cfg, "--out", str(tmp_path),
                     "overlap"]) == 2
        assert time.perf_counter() - start < 1.0
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert key in err["message"]
        assert not list(tmp_path.glob("*.csv"))

    def test_integral_float_is_accepted(self, tmp_path):
        cfg = write_config(tmp_path, {"spectrum": {"n_max": 2.0}})
        assert main(["--config", cfg, "--out", str(tmp_path),
                     "spectrum"]) == 0
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in lines[2:]] == ["0", "1", "2"]


def _complex_config(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


# couplings: negative, with the reflectionless -1 and -3 (b = -s = -1, -2
# terminates the series), small, large, and complex
_COUPLINGS = st.one_of(
    st.sampled_from([-1.0, -3.0]),
    st.floats(-50.0, -1e-6),
    st.floats(0.0, 1e-3),
    st.floats(10.0, 1e4),
    st.builds(complex, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)))


def _wavefunction_run(lam: complex, theta: float, k: complex) -> tuple:
    """Exit code, written file names, CSV text and stderr of one
    ``csmres wavefunction`` on 65 points, with every warning an error."""
    config = {"lam": _complex_config(complex(lam)), "theta": theta,
              "wavefunction": {"k": _complex_config(k), "n_points": 65}}
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        code = main(["--config", str(path), "--out", tmp, "wavefunction"])
        written = sorted(p.name for p in Path(tmp).glob("wavefunction.*"))
        text = (Path(tmp) / "wavefunction.csv").read_text() \
            if code == 0 else ""
    return code, written, text, err.getvalue()


class TestWavefunctionProperty:
    """Every wavefunction config exits 0 with finite numbers, or exits 2 or
    3 with the error JSON; it never raises or warns."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(lam=_COUPLINGS, theta=st.floats(1e-3, math.pi / 4.0 - 1e-3),
           k_abs=st.floats(0.0, 400.0), k_arg=st.floats(-math.pi, math.pi))
    @example(lam=1.0, theta=0.3, k_abs=150.0, k_arg=0.0)
    @example(lam=1.0, theta=0.3, k_abs=abs(300 - 0.3j),
             k_arg=cmath.phase(300 - 0.3j))
    @example(lam=1.0, theta=0.3, k_abs=2.0, k_arg=-math.pi / 2.0)
    def test_exits_0_with_finite_numbers_or_typed(self, lam, theta, k_abs,
                                                 k_arg):
        code, written, text, err = _wavefunction_run(
            lam, theta, cmath.rect(k_abs, k_arg))
        if code == 0:
            assert written == ["wavefunction.csv", "wavefunction.json"]
            cells = [float(c) for line in text.splitlines()[2:]
                     for c in line.split(",")]
            assert len(cells) == 3 * 65 and all(map(math.isfinite, cells))
        else:
            assert code in (2, 3), code
            assert not written
            assert set(json.loads(err)) == {"error", "message"}

    @pytest.mark.parametrize("k, code, error", [
        # the series reach
        (150.0, 0, None),
        # Gamma(300i) leaves the float range
        (300 - 0.3j, 3, "PreconditionViolation"),
        # c = 1 - ik = -1 is a pole
        (-2j, 3, "PoleError"),
    ])
    def test_examples_exit_as_stated(self, k, code, error):
        done, _, _, err = _wavefunction_run(1.0, 0.3, k)
        assert done == code
        if error:
            assert json.loads(err)["error"] == error


class TestModuleEntryPoint:
    def test_python_m_csmres_help(self, fresh_python):
        done = fresh_python("-m", "csmres", "--help")
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: csmres")


class TestParserReuse:
    def test_calls_after_a_parse_error_write_fresh_process_bytes(
            self, tmp_path, capsys, fresh_python):
        # main builds its argument parser once per process: a call that
        # fails parsing, then a csv-only call and a default one write what
        # the same calls write each in a new interpreter
        cfg = write_config(tmp_path, {"theta": 0.4, "berry": {
            "radius_rel": 1e-6, "windings": 1, "n_steps": 64}})
        calls = (["--format", "xml", "berry"],
                 ["--config", cfg, "--format", "csv", "berry"],
                 ["--config", cfg, "berry"])
        here, fresh = tmp_path / "here", tmp_path / "fresh"
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(here / "0"), *calls[0]])
        assert exc.value.code == 2
        usage = capsys.readouterr().err
        assert usage.startswith("usage: csmres")
        for i, argv in enumerate(calls[1:], 1):
            assert main(["--out", str(here / str(i)), *argv]) == 0
        assert capsys.readouterr().err == ""
        for i, argv in enumerate(calls):
            done = fresh_python("-m", "csmres", "--out", str(fresh / str(i)),
                                *argv)
            assert (done.returncode, done.stderr) \
                == ((2, usage) if i == 0 else (0, ""))
        written = sorted(p.relative_to(here) for p in here.rglob("*.*"))
        assert [str(p) for p in written] == [
            "1/berry.csv", "2/berry.csv", "2/berry.json"]
        for name in written:
            assert (here / name).read_bytes() == (fresh / name).read_bytes()
        assert not (fresh / "0").exists()


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

    @pytest.mark.parametrize("payload, level", [
        ({"lam": 0.25}, 0),
        ({"lam": 1.25, "spectrum": {"n_max": 3}}, 1),
    ])
    def test_zero_real_part_is_quarter_pi(self, tmp_path, payload, level):
        # Re E_n = 0 exactly: theta_n = -arg(E_n)/2 = pi/4
        cfg = write_config(tmp_path, payload)
        assert main(["--config", cfg, "--out", str(tmp_path),
                     "spectrum"]) == 0
        rows = (tmp_path / "spectrum.csv").read_text().splitlines()[2:]
        n, re_e, _, theta_n = rows[level].split(",")
        assert (n, re_e, theta_n) == (str(level), "0", "0.78539816339744828")
        levels = json.loads((tmp_path / "spectrum.json").read_text())["levels"]
        assert levels[level]["theta_n"] == "0.78539816339744828"


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
        # the exact Puiseux coefficients of the straddling-bin energy, in
        # place of a fit: alpha = hbar^2 k_bp / 2m with k_bp = e^{-i theta}
        # / (2 sin theta) = e^{-i pi/6}, and hbar^2 / 6m
        alpha = complex(float(verdict["alpha"]["re"]),
                        float(verdict["alpha"]["im"]))
        assert abs(alpha - cmath.exp(-1j * math.pi / 6) / 2.0) < 1e-15
        assert float(verdict["t_coefficient"]) == 1.0 / 6.0
        assert "exponent" not in verdict and "fit_residual" not in verdict
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


# magnitudes from 1e-300 to 1e300 and everyday values, positive or of
# either sign
_POSITIVE = st.one_of(
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 9.99),
              st.integers(-300, 299)),
    st.floats(0.05, 5.0))
_MAGNITUDES = st.one_of(_POSITIVE, _POSITIVE.map(lambda v: -v))
_LAMBDAS = st.one_of(_MAGNITUDES,
                     st.builds(_complex_config,
                               st.builds(complex, _MAGNITUDES, _MAGNITUDES)))
# a config drawn from these keys; one in ten has a misspelled key
_CONFIGS = st.tuples(st.fixed_dictionaries({}, optional={
    "theta": st.one_of(st.floats(1e-3, math.pi / 4.0), _MAGNITUDES),
    "lam": _LAMBDAS,
    "units": st.fixed_dictionaries({}, optional={
        "m": _POSITIVE, "hbar": _POSITIVE, "beta": _POSITIVE}),
    "spectrum": st.fixed_dictionaries({}, optional={
        "n_max": st.integers(-1, 50)}),
    "regions": st.fixed_dictionaries({}, optional={
        "theta_min": st.floats(-0.1, 0.8), "theta_max": st.floats(0.0, 0.9),
        "n_points": st.integers(1, 70)}),
    "berry": st.fixed_dictionaries({}, optional={
        "radius_rel": _POSITIVE, "windings": st.integers(0, 2),
        "n_steps": st.integers(50, 80)}),
}), st.sampled_from((False,) * 9 + (True,))).map(
    lambda drawn: dict(drawn[0], lamda=1.0) if drawn[1] else drawn[0])


def _cli_run(command: str, config: dict) -> tuple:
    """Exit code, {file name: text} and stderr of one ``csmres`` run of
    ``command`` with every warning an error."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        code = main(["--config", str(path), "--out", tmp, command])
        written = {p.name: p.read_text() for p in Path(tmp).glob(
            f"{command}.*")}
    return code, written, err.getvalue()


def _numbers(text: str, suffix: str) -> list:
    """Every number of a written CSV or JSON file, as text."""
    if suffix == ".json":
        found = []

        def walk(value):
            if isinstance(value, dict):
                for item in value.values():
                    walk(item)
            elif isinstance(value, list):
                for item in value:
                    walk(item)
            else:
                found.append(str(value))
        walk(json.loads(text))
        return found
    return [cell for line in text.splitlines()[2:]
            for cell in line.split(",")]


class TestConfigProperty:
    """Every spectrum, regions and berry config exits 0 with finite
    numbers, or exits 2 or 3 with the error JSON; it never raises or
    warns, and each run takes well under a second."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(command=st.sampled_from(["spectrum", "regions", "berry"]),
           config=_CONFIGS)
    @example(command="spectrum", config={"lam": 1e308})
    @example(command="berry", config={"units": {"hbar": 1e-30, "m": 1000}})
    @example(command="spectrum", config={"units": {"beta": 1e150},
                                         "spectrum": {"n_max": 20000}})
    @example(command="regions", config={"regions": {"n_pionts": 8}})
    def test_exits_0_with_finite_numbers_or_typed(self, command, config):
        if command == "berry":
            # few loop steps keep the draw fast
            config = dict(config, berry=dict(
                {"windings": 1, "n_steps": 64}, **config.get("berry", {})))
        start = time.perf_counter()
        code, written, err = _cli_run(command, config)
        assert time.perf_counter() - start < 2.0
        if code == 0:
            assert sorted(written) == [f"{command}.csv", f"{command}.json"]
            for name, text in written.items():
                for cell in _numbers(text, Path(name).suffix):
                    assert cell.lower() not in ("nan", "inf", "-inf"), name
        else:
            assert code in (2, 3), code
            assert not written
            assert set(json.loads(err)) == {"error", "message"}
            if "lamda" in config or config.get("regions", {}).get(
                    "n_pionts"):
                assert json.loads(err)["error"] == "ConfigError"
