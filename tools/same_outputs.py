"""Check that two source trees write the same bytes in every CLI workflow.

Usage, from the repository root:

    python tools/same_outputs.py OLD_SRC NEW_SRC

Each SRC is the directory that holds the ``csmres`` package (``src`` of a
checkout).  For each tree a fresh interpreter, with only that SRC on
``PYTHONPATH``, runs all five workflows twice: with the golden config of
``tests/data/golden`` and with a config of the benchmark's sizes (6 bins
and 3 deltas, a 4 x 1024-step loop, a 16 385-point wave function).  Every
written file is then compared byte for byte.  Prints the first differing
byte of each file that differs and exits 1 if any does, else exits 0.
"""

from __future__ import annotations

import json
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

# runs in the fresh interpreter: argv is SRC, then (config, out) pairs
_CHILD = """
import sys
from pathlib import Path
import csmres
from csmres.cli import main
src, *runs = sys.argv[1:]
if Path(src).resolve() not in Path(csmres.__file__).resolve().parents:
    sys.exit(f"csmres imported from {csmres.__file__}, not from {src}")
for config, out in zip(runs[::2], runs[1::2]):
    for command in COMMANDS:
        code = main(["--config", config, "--out", f"{out}/{command}", command])
        if code:
            sys.exit(f"{command} with {config} exited {code}")
""".replace("COMMANDS", repr(COMMANDS))


def write_outputs(src: Path, configs: dict, out: Path) -> None:
    """Run every workflow from ``src`` once per config into ``out/<case>``."""
    runs = []
    for case, config in configs.items():
        runs += [str(config), str(out / case)]
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", _CHILD, str(src), *runs], env=env,
                   check=True)


def first_difference(old: bytes, new: bytes) -> int | None:
    """Offset of the first byte where the two differ, None if equal."""
    if old == new:
        return None
    return next((i for i, (a, b) in enumerate(zip(old, new)) if a != b),
                min(len(old), len(new)))


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
        bench = work / "bench-config.json"
        bench.write_text(json.dumps(BENCH_CONFIG))
        configs = {"golden": GOLDEN_CONFIG, "bench": bench}
        write_outputs(old_src, configs, work / "old")
        write_outputs(new_src, configs, work / "new")
        return 1 if compare(work / "old", work / "new") else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
