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

It also judges the differing numbers by accuracy.  For at most
``ORACLE_SAMPLES`` differing numeric cells of each file, spread evenly
over them, it gives the old and the new error in ulps against an
independent value, and counts the cells where the new error is larger
("new worse"), the same to the ulp ("equal") or smaller ("better"):

* psi in ``wavefunction.*``, by mpmath (``bench/checks.py::psi_oracle``,
  imported by path), at the points with |x| sin(theta) < pi/2, where its
  principal branches hold, and only for unit m, hbar and beta and real
  lambda; an error is in ulps of |psi| at the point;
* S and H of the Hermitian bins in ``overlap.*``, against S = I and
  H = diag(E_bin), E_bin = (hbar^2/2m)(k_b^3 - k_a^3)/(3 (k_b - k_a)) on
  the bin edges; an error is in ulps of 1 for S and of E_bin of the
  entry's row for H;
* E_n, k_n, the width and theta_n in ``spectrum.*``, and the coupling
  bounds at each written theta in ``regions.*``, by their closed forms
  in mpmath at 40 digits, with the config's lambda and units; an error
  is in ulps of the modulus of the complex value (or of the value);
* in ``berry.*``, at 40 digits with the config's theta, units and
  radius_rel, on the circle lambda_bp + R e^{i phi} about the exact
  lambda_bp, R = radius_rel lambda_bp: the ``phi`` of row 0 against the
  boundary crossing where |E_0| < |E_bp|, found by mpmath's root finder
  on Im[(sqrt(g - 1) - i) e^{i theta}] = 0; lambda against
  lambda_bp + R e^{i phi} at the row's phi; E_plus and E_minus against
  E_bp +- alpha r with r = sqrt(R) e^{i phi/2} on the sheet of the
  principal root at row 0; ``alpha`` = hbar^2 k_bp / 2m and
  ``t_coefficient`` = hbar^2 / 6m; ``ratio_2pi``, ``overlap_4pi`` and
  ``overlap_8pi`` against i, -1 and 1.  An error is in ulps of the
  modulus of the complex value (or of the value).

Other cells, such as those of ``degeneracy.csv``, the theta column of
``regions.*`` or the region and unwrapped phase of ``berry.csv``, are
not judged.  A
summary over all files ends the report.
"""

from __future__ import annotations

import cmath
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

COMMANDS = ("spectrum", "regions", "overlap", "berry", "wavefunction")
ROOT = Path(__file__).resolve().parents[1]
GOLDEN_CONFIG = ROOT / "tests" / "data" / "golden" / "config.json"
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


# differing numeric cells judged per file by the oracle
ORACLE_SAMPLES = 300
# the CLI's default bin range, angle and loop radius, for configs that
# leave them out
_K_RANGE = (0.5, 3.5)
_THETA = 0.3
_RADIUS_REL = 1e-5


def _evenly(items: list, n: int) -> list:
    """At most n of the items, spread evenly over them."""
    if len(items) <= n:
        return items
    return [items[i] for i in np.linspace(0, len(items) - 1, n).astype(int)]


class Oracle:
    """Independent values of the cells of the written files.

    ``configs`` maps each case to its config; ``out`` is the directory
    that holds the cases, whose ``wavefunction.json`` gives the k, lambda
    and theta of a wave function."""

    def __init__(self, configs: dict, out: Path):
        self.configs, self.out = configs, out
        self._psi = {}
        spec = importlib.util.spec_from_file_location(
            "bench_checks", ROOT / "bench" / "checks.py")
        self.checks = importlib.util.module_from_spec(spec)
        # its dataclass looks its module up while the module runs
        sys.modules[spec.name] = self.checks
        spec.loader.exec_module(self.checks)

    def targets(self, name: Path, cells: dict, places: list) -> tuple:
        """The kind of file ``name`` (a path below ``out``), "psi",
        "basis", "spectrum", "regions", "berry" or None where nothing is
        judged,
        and the (exact value, scale) of at most ORACLE_SAMPLES of
        ``places``, spread evenly over those the oracle can judge."""
        config = self.configs.get(name.parts[0], {})
        units = config.get("units", {})
        if name.stem == "wavefunction" and not units:
            return "psi", self._psi_targets(name, cells, places)
        if name.stem == "overlap":
            hbar2_m = units.get("hbar", 1.0) ** 2 / units.get("m", 1.0)
            return "basis", self._basis_targets(
                name, config.get("overlap", {}), cells, places, hbar2_m)
        closed = {"spectrum": self._spectrum_targets,
                  "regions": self._regions_targets,
                  "berry": self._berry_targets}.get(name.stem)
        if closed:
            m, hbar, beta = (float(units.get(key, 1.0))
                             for key in ("m", "hbar", "beta"))
            return name.stem, closed(name, config, cells, places, m, hbar,
                                     beta)
        return None, {}

    @staticmethod
    def _berry_targets(name, config, cells, places, m, hbar,
                       beta) -> dict:
        """On the circle lam_bp + R e^{i phi}, lam_bp = u0 / (2 sin^2
        theta), u0 = (beta hbar)^2 / 4m, R = radius_rel lam_bp: the start
        phi_0, the couplings, E_bp +- alpha r with E_bp = (beta hbar)^2/8m
        (c - i)^2, c = cot theta, k_bp = (beta/2)(c - i),
        alpha = hbar^2 k_bp / 2m, and the verdicts, at 40 digits."""
        import mpmath as mp

        found = {}
        with mp.workdps(40):
            theta = mp.mpf(config.get("theta", _THETA))
            rel = mp.mpf(config.get("berry", {}).get("radius_rel",
                                                     _RADIUS_REL))
            m, hbar, beta = map(mp.mpf, (m, hbar, beta))
            g_bp = 1 / mp.sin(theta) ** 2
            x_bp = mp.cot(theta) - 1j
            lam_bp = (beta * hbar) ** 2 / (8 * m) * g_bp
            radius = rel * lam_bp

            def x(phi):
                # k_0 = (beta/2) x up to its sign, E_0 = (beta hbar)^2/8m x^2
                return mp.sqrt(g_bp - 1 + rel * g_bp * mp.expj(phi)) - 1j

            # the boundary Re[i k_0 e^{i theta}] = 0 meets the circle near
            # -theta and pi - theta; the start is where |E_0| < |E_bp|
            phi0 = next(phi for phi in (
                mp.findroot(lambda phi: mp.im(x(phi) * mp.expj(theta)),
                            guess) % (2 * mp.pi)
                for guess in (-theta, mp.pi - theta))
                if abs(x(phi)) < abs(x_bp))
            e_bp = (beta * hbar) ** 2 / (8 * m) * x_bp ** 2
            alpha = hbar ** 2 * (beta / 2 * x_bp) / (2 * m)
            # r at row 0 is the principal root of R e^{i phi_0}
            sheet = 1 if phi0 <= mp.pi else -1
            verdicts = {"ratio_2pi": 1j, "overlap_4pi": -1, "overlap_8pi": 1,
                        "alpha": alpha, "t_coefficient": hbar ** 2 / (6 * m)}
            for place in _evenly(places, ORACLE_SAMPLES):
                # (row, "re_E_plus") of the CSV, ("alpha", "re") of the JSON
                if name.suffix == ".json":
                    value = verdicts.get(place[0])
                    part = place[1] if len(place) > 1 else None
                elif place[1] == "phi":
                    value = phi0 if place[0] == 0 else None
                    part = None
                else:
                    phi = mp.mpf(cells[(place[0], "phi")])
                    r = sheet * mp.sqrt(radius) * mp.expj(phi / 2)
                    part, _, column = place[1].partition("_")
                    value = {"lambda": lam_bp + radius * mp.expj(phi),
                             "E_plus": e_bp + alpha * r,
                             "E_minus": e_bp - alpha * r}.get(column)
                if value is None:
                    continue
                value = mp.mpc(value)
                exact = value if part is None else \
                    (value.real if part == "re" else value.imag)
                found[place] = (float(mp.re(exact)), float(abs(value)))
        return found

    @staticmethod
    def _spectrum_targets(name, config, cells, places, m, hbar,
                          beta) -> dict:
        """E_n = (hbar beta)^2/8m [sqrt(g-1) - i(2n+1)]^2,
        g = 8 m lam/(beta hbar)^2, k_n = sqrt(2 m E_n)/hbar, the width
        -2 Im E_n and theta_n = -arg(E_n)/2, at 40 digits."""
        import mpmath as mp

        lam = config.get("lam", 1.0)
        lam = complex(lam["re"], lam["im"]) if isinstance(lam, dict) \
            else complex(lam)
        found = {}
        with mp.workdps(40):
            m, hbar, beta = map(mp.mpf, (m, hbar, beta))
            g = 8 * m * mp.mpc(lam) / (beta * hbar) ** 2
            for place in _evenly(places, ORACLE_SAMPLES):
                # (row, "re_E") of the CSV, ("levels", i, "energy", "re")
                # of the JSON
                if name.suffix == ".csv":
                    n = int(cells[(place[0], "n")])
                    field, part = {"re_E": ("energy", "re"),
                                   "im_E": ("energy", "im")}.get(
                        place[1], (place[1], None))
                else:
                    n = int(cells[("levels", place[1], "n")])
                    field = place[2]
                    part = place[3] if len(place) > 3 else None
                energy = (hbar * beta) ** 2 / (8 * m) \
                    * (mp.sqrt(g - 1) - 1j * (2 * n + 1)) ** 2
                value = {"energy": energy,
                         "k": mp.sqrt(2 * m * energy) / hbar,
                         "width": -2 * energy.imag,
                         "theta_n": -mp.arg(energy) / 2}.get(field)
                if value is None:
                    continue
                exact = value if part is None else \
                    (value.real if part == "re" else value.imag)
                found[place] = (float(exact), float(abs(value)))
        return found

    @staticmethod
    def _regions_targets(name, config, cells, places, m, hbar,
                         beta) -> dict:
        """At the written theta, with u0 = (beta hbar)^2/4m and
        t = tan 2 theta: l0m = u0/(2 cos^2 theta), l0p = lbp =
        u0/(2 sin^2 theta), l1m and l1p = u0 [h -+ sqrt(h^2 - q)] with
        h = (9 + 5 t^2)/t^2 and q = (9 + 25 t^2)/t^2, at 40 digits."""
        import mpmath as mp

        found = {}
        with mp.workdps(40):
            u0 = (mp.mpf(beta) * hbar) ** 2 / (4 * mp.mpf(m))
            for place in _evenly(places, ORACLE_SAMPLES):
                # (row, "l0m") of the CSV, ("curves", i, "l0m") of the
                # JSON: theta is in the same row
                theta = mp.mpf(cells[place[:-1] + ("theta",)])
                t2 = mp.tan(2 * theta) ** 2
                head, q = (9 + 5 * t2) / t2, (9 + 25 * t2) / t2
                value = {"l0m": u0 / (2 * mp.cos(theta) ** 2),
                         "l0p": u0 / (2 * mp.sin(theta) ** 2),
                         "lbp": u0 / (2 * mp.sin(theta) ** 2),
                         "l1m": u0 * (head - mp.sqrt(head ** 2 - q)),
                         "l1p": u0 * (head + mp.sqrt(head ** 2 - q))}.get(
                             place[-1])
                if value is not None:
                    found[place] = (float(value), float(abs(value)))
        return found

    def _psi_targets(self, name, cells, places) -> dict:
        written = json.loads(
            (self.out / name.parent / "wavefunction.json").read_text())
        k, lam = (complex(float(written[key]["re"]), float(written[key]["im"]))
                  for key in ("k", "lam"))
        if lam.imag:
            return {}
        theta = float(written["theta"])
        valid = []
        for place in places:
            # (row, "re_psi") of the CSV, ("samples", row, "re") of the JSON
            if name.suffix == ".csv":
                x_place = (place[0], "x")
                part = {"re_psi": "re", "im_psi": "im"}.get(place[1])
            else:
                x_place = ("samples", place[1], "x")
                part = place[2] if place[0] == "samples" else None
            x = float(cells[x_place]) if part else math.inf
            if abs(x) * math.sin(theta) < math.pi / 2.0:
                valid.append((place, x, part))
        found = {}
        for place, x, part in _evenly(valid, ORACLE_SAMPLES):
            key = (name.parts[0], x)
            if key not in self._psi:
                self._psi[key] = self.checks.psi_oracle(
                    x, k, lam.real, theta)
            psi = self._psi[key]
            found[place] = (psi.real if part == "re" else psi.imag, abs(psi))
        return found

    def _basis_targets(self, name, block, cells, places, hbar2_m) -> dict:
        n = len({cell for place, cell in cells.items()
                 if place[-1] in ("row", "col")})
        k = np.linspace(block.get("k_min", _K_RANGE[0]),
                        block.get("k_max", _K_RANGE[1]), n + 1)
        e_bin = 0.5 * hbar2_m * (k[1:] ** 3 - k[:-1] ** 3) \
            / (3.0 * (k[1:] - k[:-1]))
        found = {}
        # (row, "re") of the CSV, ("overlap", entry, "re") of the JSON
        for place in _evenly([place for place in places
                              if place[-1] in ("re", "im")], ORACLE_SAMPLES):
            entry = place[:-1]
            if name.suffix == ".csv":
                matrix = cells[(place[0], "matrix")]
            else:
                matrix = {"overlap": "S", "hamiltonian": "H"}[place[0]]
            i, j = (int(cells[entry + (key,)][4:-1]) for key in ("row", "col"))
            diagonal = i == j and place[-1] == "re"
            if matrix == "S":
                found[place] = (1.0 if diagonal else 0.0, 1.0)
            else:
                found[place] = (e_bin[i] if diagonal else 0.0, e_bin[i])
        return found


def _spread(errors: list) -> str:
    """Median and maximum of (ulps, scale) errors, with the relative
    errors."""
    ulps = np.array([e for e, _ in errors])
    rel = np.array([e * np.spacing(s) / s for e, s in errors])
    return (f"median {np.median(ulps):.3g} ulp ({np.median(rel):.2g}), "
            f"max {ulps.max():.3g} ulp ({rel.max():.2g})")


def _verdict_lines(judged: dict, indent: str) -> list:
    return [f"new worse {judged['worse']}, equal {judged['equal']}, "
            f"better {judged['better']}",
            f"{indent}old {_spread(judged['old'])}",
            f"{indent}new {_spread(judged['new'])}"]


def _judged() -> dict:
    return {"old": [], "new": [], "worse": 0, "equal": 0, "better": 0}


def oracle_lines(name: Path, a: dict, b: dict, changed: list,
                 oracle: Oracle, tally: dict) -> list:
    """How the differing numeric cells ``changed`` of file ``name`` fare
    against the oracle, in ulps of each target's scale; adds the judged
    cells to ``tally`` under the file's kind.  The new error is worse,
    equal or better where, rounded to whole ulps, it is above, at or below
    the old one."""
    kind, targets = oracle.targets(name, b, changed)
    if not targets:
        return []
    judged = _judged()
    for place, (exact, scale) in targets.items():
        ulp = np.spacing(abs(scale))
        old = abs(float(a[place]) - exact) / ulp
        new = abs(float(b[place]) - exact) / ulp
        judged["old"].append((old, abs(scale)))
        judged["new"].append((new, abs(scale)))
        diff = round(new) - round(old)
        judged["worse" if diff > 0 else "better" if diff < 0
               else "equal"] += 1
    whole = tally.setdefault(kind, _judged())
    for key, value in judged.items():
        whole[key] += value
    first, *rest = _verdict_lines(judged, "    ")
    return [f"  oracle ({kind}): {len(targets)} cells judged; {first}", *rest]


def cell_changes(name: Path, old: bytes, new: bytes, oracle: Oracle,
                 tally: dict) -> list:
    """Lines that say how the cells of two versions of a file differ,
    and how the differing numbers fare against ``oracle``."""
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
    if numeric:
        places = sorted((place for _, place in numeric), key=str)
        lines += oracle_lines(name, a, b, places, oracle, tally)
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


def compare(old_dir: Path, new_dir: Path, configs: dict | None = None) -> int:
    """Print every file that is missing on one side or differs; the count.
    The differing numbers of each file are judged by an ``Oracle`` over
    ``configs``, case -> config (the cases of ``new_dir``), and the
    verdicts are summed up at the end."""
    oracle = Oracle(configs or {}, new_dir)
    tally = {}
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
            print("\n".join(cell_changes(name, a, b, oracle, tally)))
            bad += 1
    print(f"{len(old | new)} files compared, {bad} differ")
    for kind, judged in sorted(tally.items()):
        first, *rest = _verdict_lines(judged, "  ")
        print(f"oracle ({kind}), {len(judged['new'])} cells in all: {first}")
        print("\n".join(rest))
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
        return 1 if compare(work / "old", work / "new", {
            case: json.loads(Path(path).read_text())
            for case, (path, _) in configs.items()}) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
