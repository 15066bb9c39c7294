"""Command-line front end and deterministic serialization layer.

Subcommands: ``spectrum`` (closed-form resonance ladder), ``regions``
(coupling-window curves on a theta grid), ``overlap`` (bin-basis overlap
and Hamiltonian matrices plus degeneracy diagnostics), ``berry``
(Puiseux fit and branch-point loop verdicts), and ``wavefunction``
(grid dump of the scaled solution).  All numbers are emitted with 17
significant digits; identical configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .errors import ConfigError, CsmError
from .model import (
    ModelParams,
    branch_point_coupling,
    critical_angle,
    lambda_window,
    resonance_energy,
)

_CSV_VERSION = "v1"


def _fmt(v) -> str:
    return f"{float(v):.17g}"


def _jnum(v):
    """JSON payload value with controlled 17-significant-digit text."""
    if isinstance(v, complex):
        return {"re": _fmt(v.real), "im": _fmt(v.imag)}
    if isinstance(v, float):
        return _fmt(v)
    return v


def _write_csv(path: str, workflow: str, header, rows) -> None:
    lines = [f"# csmres {workflow} {_CSV_VERSION}", ",".join(header)]
    for row in rows:
        lines.append(",".join(row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path: str, payload) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _finite(text: str) -> float:
    """A JSON number, or NaN/Infinity, that must be finite (1e400 is not)."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"config number {text} is not finite")
    return value


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_float=_finite, parse_constant=_finite)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _number(value):
    """A JSON number as given; strings and booleans are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    return value


def _real(value) -> float:
    return float(_number(value))


def _complex(value) -> complex:
    """A complex number given as {"re": .., "im": ..} or as a real."""
    if isinstance(value, dict):
        if not set(value) <= {"re", "im"}:
            raise ValueError(
                f"complex keys must be re and im, got {sorted(value)}")
        return complex(_real(value.get("re", 0.0)),
                       _real(value.get("im", 0.0)))
    return complex(_real(value), 0.0)


def _integer(value) -> int:
    """An integer; a float must be integral (3.0 is 3, 1.9 is an error)."""
    if isinstance(_number(value), float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _floats(value) -> list:
    """A JSON array of numbers."""
    if not isinstance(value, list):
        raise TypeError(f"{value!r} is not an array")
    return [_real(v) for v in value]


def _optional_float(value):
    return None if value is None else _real(value)


def _read_block(cfg: dict, name: str | None, **fields) -> list:
    """Values of ``fields`` (key=(convert, default)) from block ``name``.

    ``name`` None reads the top level of the config.  A block that is not
    a JSON object, or a value its converter rejects, is a ConfigError.
    """
    block = cfg if name is None else cfg.get(name, {})
    where = "config" if name is None else name
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object")
    values = []
    for key, (convert, default) in fields.items():
        try:
            values.append(convert(block.get(key, default)))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed {where}.{key}: {exc}") from exc
    return values


def _params_from(cfg: dict) -> ModelParams:
    m, hbar, beta = _read_block(cfg, "units", m=(_real, 1.0),
                                hbar=(_real, 1.0), beta=(_real, 1.0))
    theta, lam = _read_block(cfg, None, theta=(_real, 0.3),
                             lam=(_complex, 1.0))
    try:
        return ModelParams(lam=lam, theta=theta, m=m, hbar=hbar, beta=beta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _emit(out_dir: str, name: str, fmt: str, workflow: str, header, rows,
          payload) -> None:
    os.makedirs(out_dir, exist_ok=True)
    if fmt in ("csv", "both"):
        _write_csv(os.path.join(out_dir, f"{name}.csv"),
                   workflow, header, rows)
    if fmt in ("json", "both"):
        _write_json(os.path.join(out_dir, f"{name}.json"), payload)


def cmd_spectrum(cfg: dict, out_dir: str, fmt: str) -> None:
    params = _params_from(cfg)
    n_max, = _read_block(cfg, "spectrum", n_max=(_integer, 3))
    if n_max < 0:
        raise ConfigError("spectrum.n_max must be >= 0")
    rows = []
    entries = []
    for n in range(n_max + 1):
        pole = resonance_energy(params, n)
        ca = critical_angle(params, n)
        rows.append([str(n), _fmt(pole.energy.real), _fmt(pole.energy.imag),
                     _fmt(ca.corrected)])
        entries.append({"n": n, "energy": _jnum(pole.energy),
                        "k": _jnum(pole.k), "width": _jnum(pole.width),
                        "theta_n": _jnum(ca.corrected)})
    _emit(out_dir, "spectrum", fmt, "spectrum",
          ["n", "re_E", "im_E", "theta_n"], rows,
          {"workflow": "spectrum", "levels": entries})


def cmd_regions(cfg: dict, out_dir: str, fmt: str) -> None:
    params = _params_from(cfg)
    t_lo, t_hi, n_pts = _read_block(
        cfg, "regions", theta_min=(_real, 0.02),
        theta_max=(_real, math.pi / 4.0 - 1e-3), n_points=(_integer, 64))
    if not (0.0 < t_lo < t_hi < math.pi / 4.0):
        raise ConfigError("regions grid must satisfy 0 < min < max < pi/4")
    if n_pts < 2:
        raise ConfigError("regions.n_points must be >= 2")
    rows = []
    entries = []
    for th in np.linspace(t_lo, t_hi, n_pts):
        rb = lambda_window(float(th), params.m, params.hbar, params.beta)
        rows.append([_fmt(th), _fmt(rb.lambda0_minus), _fmt(rb.lambda0_plus),
                     _fmt(rb.lambda1_minus), _fmt(rb.lambda1_plus),
                     _fmt(rb.lambda_bp)])
        entries.append({"theta": _fmt(th), "l0m": _fmt(rb.lambda0_minus),
                        "l0p": _fmt(rb.lambda0_plus),
                        "l1m": _fmt(rb.lambda1_minus),
                        "l1p": _fmt(rb.lambda1_plus),
                        "lbp": _fmt(rb.lambda_bp)})
    _emit(out_dir, "regions", fmt, "regions",
          ["theta", "l0m", "l0p", "l1m", "l1p", "lbp"], rows,
          {"workflow": "regions", "curves": entries})


def _matrix_rows(om) -> list:
    rows = []
    for i, rl in enumerate(om.row_labels):
        for j, cl in enumerate(om.col_labels):
            z = om.matrix[i, j]
            rows.append([rl, cl, _fmt(z.real), _fmt(z.imag)])
    return rows


def cmd_overlap(cfg: dict, out_dir: str, fmt: str) -> None:
    from .binbasis import (binned_state, degeneracy_diagnostics,
                           overlap_matrix, real_axis, spatial_grid)

    params = _params_from(cfg)
    k_min, k_max, n_bins, deltas = _read_block(
        cfg, "overlap", k_min=(_real, 0.5), k_max=(_real, 3.5),
        n_bins=(_integer, 6), deltas=(_floats, [1e-2, 1e-3, 1e-4]))
    if k_min <= 0.0 or k_max <= k_min:
        raise ConfigError("overlap bins need 0 < k_min < k_max")
    if n_bins < 1:
        raise ConfigError("overlap.n_bins must be >= 1")
    if any(d <= 0.0 for d in deltas):
        raise ConfigError("overlap.deltas must be positive")

    # the degeneracy step first: it fails in milliseconds where the gamma
    # kernels leave the float range, before any bin is built
    lam_bp = branch_point_coupling(params.theta, params.m, params.hbar,
                                   params.beta)
    points = degeneracy_diagnostics(params, [lam_bp + d for d in deltas])

    x = spatial_grid(params.beta)
    grid = real_axis(k_min, k_max, n_bins)
    bins = [binned_state(params, grid, j, x) for j in range(n_bins)]
    s_mat = overlap_matrix(bins, bins, x)
    h_mat = overlap_matrix(bins, bins, x, apply_h=True)

    header = ["matrix", "row", "col", "re", "im"]
    rows = [["S"] + r for r in _matrix_rows(s_mat)] \
        + [["H"] + r for r in _matrix_rows(h_mat)]
    diag_rows = [[_fmt(d), _fmt(pt.sigma_min), _fmt(pt.cond)]
                 for d, pt in zip(deltas, points)]
    payload = {
        "workflow": "overlap",
        "overlap": [{"row": r[1], "col": r[2], "re": r[3], "im": r[4]}
                    for r in rows if r[0] == "S"],
        "hamiltonian": [{"row": r[1], "col": r[2], "re": r[3], "im": r[4]}
                        for r in rows if r[0] == "H"],
        "degeneracy": [{"delta": r[0], "sigma_min": r[1], "cond": r[2]}
                       for r in diag_rows],
    }
    _emit(out_dir, "overlap", fmt, "overlap", header, rows, payload)
    if fmt in ("csv", "both"):
        _write_csv(os.path.join(out_dir, "degeneracy.csv"), "degeneracy",
                   ["delta", "sigma_min", "cond"], diag_rows)


def cmd_berry(cfg: dict, out_dir: str, fmt: str) -> None:
    from .eploop import LoopSpec, fit_puiseux, run_berry_loop

    params = _params_from(cfg)
    radius_rel, windings, n_steps = _read_block(
        cfg, "berry", radius_rel=(_real, 1e-5), windings=(_integer, 4),
        n_steps=(_integer, 256))
    lam_bp = branch_point_coupling(params.theta, params.m, params.hbar,
                                   params.beta)
    try:
        spec = LoopSpec(radius=radius_rel * lam_bp, windings=windings,
                        n_steps=n_steps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    # the loop first: its Taylor-regime check rejects the angles at which
    # the Puiseux fit's sample energies overflow
    trace, verdicts = run_berry_loop(params, spec)
    fit = fit_puiseux(params)

    header = ["phi", "re_lambda", "im_lambda", "re_E_plus", "im_E_plus",
              "re_E_minus", "im_E_minus", "region", "re_factor", "im_factor",
              "unwrapped_phase"]
    rows = []
    for j in range(len(trace.phi)):
        rows.append([
            _fmt(trace.phi[j]),
            _fmt(trace.lam[j].real), _fmt(trace.lam[j].imag),
            _fmt(trace.e_plus[j].real), _fmt(trace.e_plus[j].imag),
            _fmt(trace.e_minus[j].real), _fmt(trace.e_minus[j].imag),
            trace.region[j],
            _fmt(trace.accumulated[j].real), _fmt(trace.accumulated[j].imag),
            _fmt(trace.unwrapped_phase[j]),
        ])
    payload = {
        "workflow": "berry",
        "exponent": _jnum(fit.exponent),
        "alpha": _jnum(fit.alpha),
        "fit_residual": _jnum(fit.residual),
        "ratio_2pi": _jnum(verdicts["ratio_2pi"]),
        "overlap_4pi": _jnum(verdicts["overlap_4pi"]),
        "overlap_8pi": _jnum(verdicts["overlap_8pi"]),
        "monodromy_order": verdicts["monodromy_order"],
        "connection_consistency": _jnum(verdicts["connection_consistency"]),
    }
    _emit(out_dir, "berry", fmt, "berry", header, rows, payload)


def cmd_wavefunction(cfg: dict, out_dir: str, fmt: str) -> None:
    from .wavefun import default_grid, eval_wavefunction

    params = _params_from(cfg)
    k, x_max, n_points = _read_block(
        cfg, "wavefunction", k=(_complex, 1.0), x_max=(_optional_float, None),
        n_points=(_integer, 2049))
    if n_points < 5:
        raise ConfigError("wavefunction.n_points must be >= 5")
    if x_max is not None and not x_max > 0.0:
        raise ConfigError("wavefunction.x_max must be > 0")
    grid = default_grid(params.beta, x_max, n_points)
    field = eval_wavefunction(params, k, grid)
    rows = [[_fmt(xv), _fmt(pv.real), _fmt(pv.imag)]
            for xv, pv in zip(field.grid, field.values)]
    payload = {
        "workflow": "wavefunction",
        "k": _jnum(k),
        "lam": _jnum(complex(params.lam)),
        "theta": _jnum(params.theta),
        "tail_plus": _jnum(field.tail[0]),
        "tail_minus": _jnum(field.tail[1]),
        "samples": [{"x": r[0], "re": r[1], "im": r[2]} for r in rows],
    }
    _emit(out_dir, "wavefunction", fmt, "wavefunction",
          ["x", "re_psi", "im_psi"], rows, payload)


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "regions": cmd_regions,
    "overlap": cmd_overlap,
    "berry": cmd_berry,
    "wavefunction": cmd_wavefunction,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csmres",
        description="Resonance, exceptional-point, and Berry-phase toolkit "
                    "for the scaled sech-squared barrier.")
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--format", choices=("csv", "json", "both"),
                        default="both", help="output format")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        _COMMANDS[args.command](cfg, args.out, args.format)
    except ConfigError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr)
        sys.stderr.write("\n")
        return 2
    except CsmError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr)
        sys.stderr.write("\n")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
