"""Check that two source trees write the same bytes in every CLI workflow.

Usage, from the repository root:

    python tools/same_outputs.py OLD_SRC NEW_SRC

Each SRC is the directory that holds the ``csmres`` package (``src`` of a
checkout).  For each tree a fresh interpreter, with only that SRC on
``PYTHONPATH``, runs all five workflows twice: with the golden config of
``tests/data/golden`` and with a config of the benchmark's sizes (6 bins
and 3 deltas, a 4 x 1024-step loop, a 16 385-point wave function).  It
also runs ``berry`` alone at three more angles (``BERRY_THETAS``) and at
both ends of the benchmark's ``radius_rel`` range at theta 0.4
(``BERRY_RADII``), since the bisected boundary crossings that fix the
loop's start depend on the angle and the radius down to the last bits,
and at both ends of the berry table's pooling by winding
(``BERRY_WINDINGS``): one winding of 1 024 steps, whose cells repeat
little, 8 windings of the minimum 64 steps, whose cells mostly repeat,
and 3 windings of 100 steps, an odd number of turns of a period that is
not a power of two.  It runs ``wavefunction`` and ``overlap`` alone at
the ends of the benchmark's angle ranges (``WAVEFUNCTION_THETAS``,
``OVERLAP_THETAS``), ``wavefunction`` alone at 4 096 points, an exact
multiple of the writer's row block, at 2 049, one row past a block,
where the writer's second block begins, at 255, 256 and 257, either side
of the fewest values the digit kernel formats, and at the minimum 5,
below one block (``WAVEFUNCTION_SIZES``; the benchmark's 16 385 ends in
a block of one row), ``overlap`` with no deltas, whose
``degeneracy.csv`` is a table of no rows (``EMPTY_TABLE_CONFIG``), and
``spectrum``, ``regions`` and ``berry`` with m, hbar and beta other than
1 (``UNITS_CONFIG``), which every other case leaves at 1, and with beta
and lambda so far from 1 that their cells take exponents of three
digits, such as -7.0710678118654751e-101 and 3.1254167000021161e+202
(``EXPONENT_CONFIGS``).  Every written file is then compared byte for
byte.
For each file that differs it prints the first differing byte, then the
cells that differ: a CSV file's cells by row and column, a JSON file's
leaf values by their key path (each number is a leaf string).  It counts
the differing cells that hold numbers on both sides and gives the
largest relative change among them, |new - old| / max(|old|, |new|), with
the cell where it occurs; it counts the other differing cells, and names
the JSON keys written by one side only.  Exits 1 if any file differs,
else exits 0.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("spectrum", "regions", "overlap", "berry", "wavefunction")
GOLDEN_CONFIG = (Path(__file__).resolve().parents[1] / "tests" / "data"
                 / "golden" / "config.json")
BENCH_CONFIG = {
    "theta": 0.4, "lam": 1.3,
    "spectrum": {"n_max": 3},
    "regions": {"n_points": 64},
    "overlap": {"k_min": 0.5, "k_max": 3.5, "n_bins": 6,
                "deltas": [1e-2, 1e-3, 1e-4]},
    "berry": {"radius_rel": 1e-6, "windings": 4, "n_steps": 1024},
    "wavefunction": {"k": {"re": 1.5, "im": -0.4}, "x_max": 20.0,
                     "n_points": 16385},
}
# Angles of the berry-only cases, spread over (0, pi/4).
BERRY_THETAS = (0.06, 0.4, 0.74)
# radius_rel of the berry-only cases at theta 0.4: the benchmark's
# smallest, and its largest, where the Taylor-regime cap is above it.
BERRY_RADII = (3e-7, 1e-5)
# Berry-only loops at both ends of the pooling by winding, and between:
# case -> (theta, radius_rel, windings, n_steps).
BERRY_WINDINGS = {"berry-1winding": (0.4, 1e-6, 1, 1024),
                  "berry-8windings": (0.06, 1e-7, 8, 64),
                  "berry-3windings": (0.74, 1e-6, 3, 100)}
# Angles of the wavefunction-only cases, the ends of the benchmark's scan
# range: the band of x < 0 points summed in place and the mirrored points
# differ from theta 0.4.  The k is a Gamow-type one from inside its box.
WAVEFUNCTION_THETAS = (0.06, 0.74)
WAVEFUNCTION_K = {"re": 1.5, "im": -0.9}
# Point counts of the wavefunction-only cases at the writer's block edges:
# two whole blocks of 2 048 rows, one row past a block, either side of the
# digit kernel's floor of 256 values, and fewer rows than one block.
WAVEFUNCTION_SIZES = (4096, 2049, 255, 256, 257, 5)
# Angles of the overlap-only cases, the ends of the benchmark's range.
OVERLAP_THETAS = (0.2, 0.6)
# An overlap at golden size with no deltas: a header-only degeneracy table.
EMPTY_TABLE_CONFIG = {"overlap": {"n_bins": 2, "deltas": []}}
# Units other than 1, for the workflows whose closed forms carry them.
UNITS_CONFIG = {"theta": 0.35, "lam": 0.9,
                "units": {"m": 2.0, "hbar": 0.7, "beta": 1.3}}
# Scales whose numbers are written with exponents of three digits, of
# both signs: case -> config.
EXPONENT_CONFIGS = {"beta1e-100": {"units": {"beta": 1e-100}},
                    "lam1e200": {"lam": 1e200, "units": {"beta": 1e100}}}


def berry_config(theta: float) -> dict:
    """A 4 x 1024-step loop at ``theta`` (unit m, hbar, beta), its radius
    half the largest the readout's Taylor-regime bound accepts:
    |zeta| sqrt(R) < 0.1 with |zeta| = |10 e^{i theta} - ln 2| and
    R = radius_rel lam_bp, lam_bp = 1 / (8 sin^2 theta)."""
    lam_bp = 1.0 / (8.0 * math.sin(theta) ** 2)
    zeta = abs(10.0 * cmath.exp(1j * theta) - math.log(2.0))
    return {"theta": theta, "lam": 1.3,
            "berry": {"radius_rel": 0.5 * (0.1 / zeta) ** 2 / lam_bp,
                      "windings": 4, "n_steps": 1024}}


# runs in the fresh interpreter: argv is SRC, then (config, out, commands)
# triples, the commands joined by commas
_CHILD = """
import sys
from pathlib import Path
import csmres
from csmres.cli import main
src, *runs = sys.argv[1:]
if Path(src).resolve() not in Path(csmres.__file__).resolve().parents:
    sys.exit(f"csmres imported from {csmres.__file__}, not from {src}")
for config, out, commands in zip(runs[::3], runs[1::3], runs[2::3]):
    for command in commands.split(","):
        code = main(["--config", config, "--out", f"{out}/{command}", command])
        if code:
            sys.exit(f"{command} with {config} exited {code}")
"""


def write_outputs(src: Path, configs: dict, out: Path) -> None:
    """Run the workflows of each case from ``src`` into ``out/<case>``;
    ``configs`` maps a case to its (config path, commands)."""
    runs = []
    for case, (config, commands) in configs.items():
        runs += [str(config), str(out / case), ",".join(commands)]
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", _CHILD, str(src), *runs], env=env,
                   check=True)


def first_difference(old: bytes, new: bytes) -> int | None:
    """Offset of the first byte where the two differ, None if equal."""
    if old == new:
        return None
    return next((i for i, (a, b) in enumerate(zip(old, new)) if a != b),
                min(len(old), len(new)))


def cells(name: Path, data: bytes) -> dict:
    """The cells of a written file by place: (row, column name) of a CSV
    file below its header lines, the key path of each leaf of a JSON
    file."""
    text = data.decode()
    if name.suffix != ".json":
        header, *rows = (line.split(",") for line in text.splitlines()[1:])
        return {(i, column): cell for i, row in enumerate(rows)
                for column, cell in zip(header, row)}
    leaves = {}

    def walk(value, path):
        if isinstance(value, (dict, list)):
            items = value.items() if isinstance(value, dict) \
                else enumerate(value)
            for key, item in items:
                walk(item, path + (key,))
        else:
            leaves[path] = value

    walk(json.loads(text), ())
    return leaves


def _number(value):
    """The float a cell holds, or None if it holds no finite number."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        return None
    return number if math.isfinite(number) else None


def cell_changes(name: Path, old: bytes, new: bytes) -> list:
    """Lines that say how the cells of two versions of a file differ."""
    a, b = cells(name, old), cells(name, new)
    changed = [place for place in a.keys() & b.keys() if a[place] != b[place]]
    numeric = []
    for place in changed:
        x, y = _number(a[place]), _number(b[place])
        if x is not None and y is not None:
            # 0 where the text differs but not the value, as -0 and 0
            rel = abs(y - x) / max(abs(x), abs(y)) if x != y else 0.0
            numeric.append((rel, place))
    lines = [f"  {len(numeric)} numeric cells differ"]
    if numeric:
        rel, place = max(numeric, key=lambda item: (item[0], str(item[1])))
        lines[0] += (f", largest relative change {rel:.2e} at {place}: "
                     f"{a[place]} -> {b[place]}")
    if len(changed) > len(numeric):
        lines.append(f"  {len(changed) - len(numeric)} other cells differ")
    for side, only in (("old", a.keys() - b.keys()),
                       ("new", b.keys() - a.keys())):
        if only and name.suffix == ".json":
            lines.append(f"  keys in {side} only: " + ", ".join(
                sorted(".".join(map(str, path)) for path in only)))
        elif only:
            lines.append(f"  {len(only)} cells in {side} only")
    return lines


def compare(old_dir: Path, new_dir: Path) -> int:
    """Print every file that is missing on one side or differs; the count."""
    old = {p.relative_to(old_dir) for p in old_dir.rglob("*") if p.is_file()}
    new = {p.relative_to(new_dir) for p in new_dir.rglob("*") if p.is_file()}
    bad = 0
    for name in sorted(old ^ new):
        print(f"{name}: written by {'old' if name in old else 'new'} only")
        bad += 1
    for name in sorted(old & new):
        a, b = (old_dir / name).read_bytes(), (new_dir / name).read_bytes()
        at = first_difference(a, b)
        if at is not None:
            print(f"{name}: first difference at byte {at}: "
                  f"old {a[at:at + 40]!r}, new {b[at:at + 40]!r}")
            print("\n".join(cell_changes(name, a, b)))
            bad += 1
    print(f"{len(old | new)} files compared, {bad} differ")
    return bad


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old_src, new_src = (Path(a).resolve() for a in argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        configs = {"golden": (GOLDEN_CONFIG, COMMANDS)}
        cases = {"bench": (BENCH_CONFIG, COMMANDS)}
        cases.update((f"berry-theta{theta}", (berry_config(theta), ["berry"]))
                     for theta in BERRY_THETAS)
        cases.update((f"berry-radius{radius_rel}", (
            {"theta": 0.4, "lam": 1.3, "berry": dict(
                BENCH_CONFIG["berry"], radius_rel=radius_rel)}, ["berry"]))
            for radius_rel in BERRY_RADII)
        cases.update((case, ({"theta": theta, "lam": 1.3, "berry": {
            "radius_rel": radius_rel, "windings": windings,
            "n_steps": n_steps}}, ["berry"]))
            for case, (theta, radius_rel, windings, n_steps)
            in BERRY_WINDINGS.items())
        for theta in WAVEFUNCTION_THETAS:
            block = dict(BENCH_CONFIG["wavefunction"], k=WAVEFUNCTION_K)
            cases[f"wavefunction-theta{theta}"] = (
                {"theta": theta, "lam": 1.3, "wavefunction": block},
                ["wavefunction"])
        cases.update((f"wavefunction-n{n_points}", (
            {"theta": 0.4, "lam": 1.3, "wavefunction": dict(
                BENCH_CONFIG["wavefunction"], n_points=n_points)},
            ["wavefunction"])) for n_points in WAVEFUNCTION_SIZES)
        cases.update((f"overlap-theta{theta}", (
            {"theta": theta, "lam": 1.3, "overlap": BENCH_CONFIG["overlap"]},
            ["overlap"])) for theta in OVERLAP_THETAS)
        cases["overlap-nodeltas"] = (EMPTY_TABLE_CONFIG, ["overlap"])
        cases["units"] = (UNITS_CONFIG, ["spectrum", "regions", "berry"])
        cases.update((case, (config, ["spectrum", "regions", "berry"]))
                     for case, config in EXPONENT_CONFIGS.items())
        for case, (config, commands) in cases.items():
            path = work / f"{case}-config.json"
            path.write_text(json.dumps(config))
            configs[case] = (path, commands)
        write_outputs(old_src, configs, work / "old")
        write_outputs(new_src, configs, work / "new")
        return 1 if compare(work / "old", work / "new") else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
