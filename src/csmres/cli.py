"""Command-line front end and deterministic serialization layer.

Subcommands: ``spectrum`` (closed-form resonance ladder), ``regions``
(coupling-window curves on a theta grid), ``overlap`` (bin-basis overlap
and Hamiltonian matrices, rows and columns labelled ``bin[j]``, plus the
resonance's phase rigidity at the configured offsets from the branch
point), ``berry``
(Puiseux fit and branch-point loop verdicts), and ``wavefunction``
(grid dump of the scaled solution).  Identical configs produce
byte-identical files.

Serialization: every number is written with 17 significant digits by
``%.17g``, one format per table column (one C-level ``%`` operation over
the whole column), and the CSV and JSON files of a table are written from
that same text.  The berry table's eight loop columns (re and im of the
coupling, of both sheet energies and of the running factor) are
formatted together, once per distinct bit pattern (``_repeated_texts``):
a loop of several windings revisits its couplings, swaps its sheets
after each turn and multiplies its factor by i, so a 4-winding loop's
32 776 cells hold about 8 800 patterns.  Every other column goes through
``_texts``, whose values (grid points, wave functions, phases) do not
repeat, so sorting them for repeats would only add cost.  A CSV file
joins its rows in blocks of at most ``_CSV_BLOCK`` rows, each row the
comma join of its cells; a JSON file is filled by one ``%`` template per
table.  A JSON file holds exactly the bytes of the stdlib's
``json.dump(payload, indent=2, sort_keys=True)`` plus a newline, where
each number is a string of its 17-digit text, each complex number an
object {"im", "re"}, and labels are escaped as ``ensure_ascii`` does.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii as _escape

import numpy as np

from .errors import ConfigError, CsmError
from .model import (
    ModelParams,
    branch_point_coupling,
    lambda_window,
    resonance_energy,
)

_CSV_VERSION = "v1"

# Largest count (grid points, bins, levels, loop steps) a config may ask
# for: far above every benchmark size (16 385 grid points, 4 x 1024 loop
# steps), and refused before any array of that length is allocated.
_MAX_COUNT = 2 ** 20
# Largest overlap sizes: the S and H matrices grow with the square of the
# bin count, and _MAX_BINS keeps one default-grid overlap run to about a
# minute; every delta is one resonance state and its c-norm, about 3 ms,
# so _MAX_DELTAS of them take about a second.
_MAX_BINS = 144
_MAX_DELTAS = 256
# CSV rows per write: the text of one block at a time, not of the whole
# table, so that writing a 16 385-row table adds little to the peak memory
_CSV_BLOCK = 2048


def _texts(values) -> list:
    """The 17-significant-digit text of each real value, from one format."""
    values = np.asarray(values, dtype=float).ravel().tolist()
    return (("%.17g\n" * len(values)) % tuple(values)).split("\n")[:-1]


def _repeated_texts(*columns) -> list:
    """``_texts`` of each of several equal-length real columns whose cells
    take few distinct bit patterns among them all, each pattern formatted
    once.  Bits, not values: -0.0 and 0.0 differ."""
    cells = np.asarray(columns, dtype=float)
    bits, at = np.unique(cells.view(np.int64).ravel(), return_inverse=True)
    texts = np.asarray(_texts(bits.view(float)), dtype=object)
    return texts[at].reshape(cells.shape).tolist()


def _parts(values) -> dict:
    """Text columns ``re`` and ``im`` of complex values."""
    values = np.asarray(values, dtype=complex)
    return {"re": _texts(values.real), "im": _texts(values.imag)}


class _Json(list):
    """A column whose cells are JSON text already (escaped labels,
    integers); a plain list column holds number text, which JSON quotes."""


class _Records(dict):
    """A JSON array of records: record i holds cell i of each column.

    A field is a column, or a dict of fields (a nested object).
    """


def _fill(template: str, columns: list, sep: str = "") -> str:
    """One copy of ``template`` per row of ``columns``, joined by ``sep``,
    its ``%s`` placeholders filled from the row's cells in order."""
    rows = sep.join([template] * len(columns[0]))
    return rows % tuple(chain.from_iterable(zip(*columns)))


def _record(fields: dict, ind: str) -> tuple:
    """The template of one record at indent ``ind`` and its columns in
    placeholder order."""
    lines, columns = [], []
    for key in sorted(fields):
        value = fields[key]
        if isinstance(value, dict):
            text, nested = _record(value, ind + "  ")
            columns += nested
        else:
            text = "%s" if isinstance(value, _Json) else '"%s"'
            columns.append(value)
        # the key is template text, where a literal % is written %%
        lines.append(f"{ind}  {_escape(key).replace('%', '%%')}: {text}")
    return "{\n" + ",\n".join(lines) + f"\n{ind}}}", columns


def _encode(value, ind: str, out: list) -> None:
    """Append the JSON text of ``value`` at indent ``ind`` to ``out``.

    A float is written as the string of its 17-digit text and a complex
    number as {"re": .., "im": ..}; otherwise the text is that of
    ``json.dump(value, indent=2, sort_keys=True)``.
    """
    if isinstance(value, _Records):
        template, columns = _record(value, ind + "  ")
        records = _fill(template, columns, f",\n{ind}  ")
        out.append(f"[\n{ind}  {records}\n{ind}]" if records else "[]")
    elif isinstance(value, complex):
        _encode({"re": value.real, "im": value.imag}, ind, out)
    elif isinstance(value, float):
        out.append('"%s"' % _texts([value])[0])
    elif isinstance(value, (dict, list)) and value:
        is_dict = isinstance(value, dict)
        items = ([(_escape(key) + ": ", value[key]) for key in sorted(value)]
                 if is_dict else [("", item) for item in value])
        out.append("{" if is_dict else "[")
        for i, (head, item) in enumerate(items):
            out.append(("\n" if i == 0 else ",\n") + ind + "  " + head)
            _encode(item, ind + "  ", out)
        out.append("\n" + ind + ("}" if is_dict else "]"))
    else:
        out.append(json.dumps(value))


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
    if value > _MAX_COUNT:
        raise ValueError(f"{value!r} is above the limit {_MAX_COUNT}")
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


def _emit(out_dir: str, name: str, fmt: str, columns: dict,
          payload=None) -> None:
    """Write ``name``.csv from the text ``columns`` and, given a payload,
    ``name``.json."""
    os.makedirs(out_dir, exist_ok=True)
    if fmt in ("csv", "both"):
        cells = list(columns.values())
        with open(os.path.join(out_dir, f"{name}.csv"), "w", newline="") as fh:
            fh.write(f"# csmres {name} {_CSV_VERSION}\n{','.join(columns)}\n")
            for i in range(0, len(cells[0]), _CSV_BLOCK):
                rows = zip(*(column[i:i + _CSV_BLOCK] for column in cells))
                fh.write("\n".join(map(",".join, rows)) + "\n")
    if payload is not None and fmt in ("json", "both"):
        out = []
        _encode(payload, "", out)
        with open(os.path.join(out_dir, f"{name}.json"), "w",
                  newline="") as fh:
            fh.writelines(out + ["\n"])


def cmd_spectrum(cfg: dict, out_dir: str, fmt: str) -> None:
    params = _params_from(cfg)
    n_max, = _read_block(cfg, "spectrum", n_max=(_integer, 3))
    if n_max < 0:
        raise ConfigError("spectrum.n_max must be >= 0")
    levels = range(n_max + 1)
    poles = [resonance_energy(params, n) for n in levels]
    energy = _parts([pole.energy for pole in poles])
    theta_n = _texts([pole.critical_angle for pole in poles])
    ns = _Json(map(str, levels))
    _emit(out_dir, "spectrum", fmt,
          {"n": ns, "re_E": energy["re"], "im_E": energy["im"],
           "theta_n": theta_n},
          {"workflow": "spectrum", "levels": _Records(
              n=ns, energy=energy, k=_parts([pole.k for pole in poles]),
              width=_texts([pole.width for pole in poles]),
              theta_n=theta_n)})


def cmd_regions(cfg: dict, out_dir: str, fmt: str) -> None:
    params = _params_from(cfg)
    t_lo, t_hi, n_pts = _read_block(
        cfg, "regions", theta_min=(_real, 0.02),
        theta_max=(_real, math.pi / 4.0 - 1e-3), n_points=(_integer, 64))
    if not (0.0 < t_lo < t_hi < math.pi / 4.0):
        raise ConfigError("regions grid must satisfy 0 < min < max < pi/4")
    if n_pts < 2:
        raise ConfigError("regions.n_points must be >= 2")
    thetas = np.linspace(t_lo, t_hi, n_pts)
    bounds = [lambda_window(float(th), params.m, params.hbar, params.beta)
              for th in thetas]
    values = [thetas] + [[getattr(b, field) for b in bounds] for field in (
        "lambda0_minus", "lambda0_plus", "lambda1_minus", "lambda1_plus",
        "lambda0_plus")]
    columns = dict(zip(("theta", "l0m", "l0p", "l1m", "l1p", "lbp"),
                       map(_texts, values)))
    _emit(out_dir, "regions", fmt, columns,
          {"workflow": "regions", "curves": _Records(columns)})


def _entries(labels: list, matrix) -> dict:
    """Row-major columns row, col, re and im of the square ``matrix``,
    whose rows and columns are both labelled ``labels``."""
    n = len(labels)
    return {"row": [label for label in labels for _ in range(n)],
            "col": labels * n, **_parts(matrix)}


def _labelled(entries: dict) -> _Records:
    """JSON records of matrix entries, with the labels escaped."""
    return _Records(entries, row=_Json(map(_escape, entries["row"])),
                    col=_Json(map(_escape, entries["col"])))


def cmd_overlap(cfg: dict, out_dir: str, fmt: str) -> None:
    from .binbasis import (binned_state, degeneracy_diagnostics,
                           overlap_matrix, real_axis, spatial_grid)

    params = _params_from(cfg)
    k_min, k_max, n_bins, deltas = _read_block(
        cfg, "overlap", k_min=(_real, 0.5), k_max=(_real, 3.5),
        n_bins=(_integer, 6), deltas=(_floats, [1e-2, 1e-3, 1e-4]))
    if k_min <= 0.0 or k_max <= k_min:
        raise ConfigError("overlap bins need 0 < k_min < k_max")
    if not 1 <= n_bins <= _MAX_BINS:
        raise ConfigError(f"overlap.n_bins must be in [1, {_MAX_BINS}]")
    if len(deltas) > _MAX_DELTAS:
        raise ConfigError(
            f"overlap.deltas must hold at most {_MAX_DELTAS} values")
    if any(d <= 0.0 for d in deltas):
        raise ConfigError("overlap.deltas must be positive")

    # the degeneracy step first: it builds no bin, and it fails in
    # milliseconds where the gamma kernels leave the float range, before
    # the real-axis bins are built
    points = degeneracy_diagnostics(params, deltas)

    x = spatial_grid(params.beta)
    grid = real_axis(k_min, k_max, n_bins)
    bins = [binned_state(params, grid, j, x) for j in range(n_bins)]
    labels = [f"bin[{j}]" for j in range(n_bins)]
    s, h = (_entries(labels, m) for m in overlap_matrix(bins, bins, x))

    columns = {"matrix": ["S"] * len(s["re"]) + ["H"] * len(h["re"])}
    columns.update((key, s[key] + h[key]) for key in s)
    diag = {"delta": _texts(deltas),
            "sigma_min": _texts([pt.sigma_min for pt in points]),
            "cond": _texts([pt.cond for pt in points])}
    _emit(out_dir, "overlap", fmt, columns,
          {"workflow": "overlap", "overlap": _labelled(s),
           "hamiltonian": _labelled(h), "degeneracy": _Records(diag)})
    _emit(out_dir, "degeneracy", fmt, diag)


def cmd_berry(cfg: dict, out_dir: str, fmt: str) -> None:
    from .eploop import LoopSpec, fit_puiseux, run_berry_loop

    params = _params_from(cfg)
    radius_rel, windings, n_steps = _read_block(
        cfg, "berry", radius_rel=(_real, 1e-5), windings=(_integer, 4),
        n_steps=(_integer, 256))
    if windings * n_steps > _MAX_COUNT:
        raise ConfigError(
            f"berry.windings * berry.n_steps must be <= {_MAX_COUNT}")
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

    # values that repeat across windings and sheets: formatted together
    loop = (trace.lam, trace.e_plus, trace.e_minus, trace.accumulated)
    re_lam, im_lam, re_plus, im_plus, re_minus, im_minus, re_factor, \
        im_factor = _repeated_texts(*chain.from_iterable(
            (values.real, values.imag) for values in loop))
    columns = {
        "phi": _texts(trace.phi), "re_lambda": re_lam, "im_lambda": im_lam,
        "re_E_plus": re_plus, "im_E_plus": im_plus, "re_E_minus": re_minus,
        "im_E_minus": im_minus, "region": trace.region,
        "re_factor": re_factor, "im_factor": im_factor,
        "unwrapped_phase": _texts(trace.unwrapped_phase)}
    _emit(out_dir, "berry", fmt, columns,
          {"workflow": "berry", "exponent": fit.exponent, "alpha": fit.alpha,
           "fit_residual": fit.residual, **verdicts})


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
    x, psi = _texts(field.grid), _parts(field.values)
    _emit(out_dir, "wavefunction", fmt,
          {"x": x, "re_psi": psi["re"], "im_psi": psi["im"]},
          {"workflow": "wavefunction", "k": k, "lam": complex(params.lam),
           "theta": params.theta, "tail_plus": field.tail[0],
           "tail_minus": field.tail[1], "samples": _Records(x=x, **psi)})


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "regions": cmd_regions,
    "overlap": cmd_overlap,
    "berry": cmd_berry,
    "wavefunction": cmd_wavefunction,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by every
    ``main`` call: parsing leaves it unchanged."""
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
