"""Tests for the repository's command-line tools under ``tools/``."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def code_lines(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py"), *args],
        capture_output=True, text=True, timeout=60, cwd=ROOT)


def test_code_lines_counts_each_path():
    done = code_lines("src/csmres/errors.py", "tools")
    assert done.returncode == 0, done.stderr
    counts = [line.split("\t") for line in done.stdout.splitlines()]
    assert [path for _, path in counts] == ["src/csmres/errors.py", "tools"]
    assert all(int(n) > 0 for n, _ in counts)


def test_code_lines_missing_path_prints_usage():
    done = code_lines("src/csmres", "no/such/path")
    assert done.returncode == 2
    assert done.stdout == ""
    assert "no/such/path" in done.stderr and "usage:" in done.stderr
    assert "Traceback" not in done.stderr


def load_same_outputs():
    spec = importlib.util.spec_from_file_location(
        "same_outputs", ROOT / "tools" / "same_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_outputs_counts_the_differing_cells(tmp_path, capsys):
    # the second CSV row moves one number by 2e-10 and one by half, relabels
    # a region and flips a signed zero; the JSON moves one number, further
    # from the closed-form alpha, and drops a key
    same_outputs = load_same_outputs()
    old, new = tmp_path / "old", tmp_path / "new"
    for side, (cells, extra) in {
            old: (("1", "-0.5", "ConvergentA", "-0"),
                  '"exponent": "0.5", '),
            new: (("1.0000000002", "-1", "DivergentB", "0"), "")}.items():
        (side / "case").mkdir(parents=True)
        (side / "case" / "berry.csv").write_text(
            "# csmres berry v1\nphi,re,region,im\n0,2,ScatteringBoundary,0\n"
            + ",".join(cells) + "\n")
        (side / "case" / "berry.json").write_text(
            '{"alpha": {"im": "%s", "re": "3"}, %s"monodromy_order": 4}\n'
            % (cells[1], extra))
        (side / "case" / "same.csv").write_text("# csmres same v1\nx\n1\n")
    assert same_outputs.compare(old, new) == 2
    report = capsys.readouterr().out.splitlines()
    assert report[0].startswith("case/berry.csv: first difference at byte")
    assert report[1] == (
        "  3 numeric cells differ, largest relative change 5.00e-01 at "
        "(1, 're'): -0.5 -> -1")
    assert report[2] == "  1 other cells differ"
    assert report[3].startswith("case/berry.json: first difference at byte")
    assert report[4] == (
        "  1 numeric cells differ, largest relative change 5.00e-01 at "
        "('alpha', 'im'): -0.5 -> -1")
    assert report[5] == ("  oracle (berry): 1 cells judged; new worse 1, "
                         "equal 0, better 0")
    assert report[8] == "  keys in old only: exponent"
    assert report[9] == "3 files compared, 2 differ"


def test_oracle_finds_a_moved_cell_worse(tmp_path, capsys):
    # one psi cell at x = 0 and the first diagonal S entry of copies of
    # the goldens move by 1e-12 relative: both are judged new worse
    same_outputs = load_same_outputs()
    golden = ROOT / "tests" / "data" / "golden"
    old, new = tmp_path / "old", tmp_path / "new"
    moved = {"wavefunction.csv": "0,", "overlap.csv": "S,bin[0],bin[0],"}
    for side in (old, new):
        for command, names in (("wavefunction", ("wavefunction.csv",
                                                 "wavefunction.json")),
                               ("overlap", ("overlap.csv",))):
            (side / "golden" / command).mkdir(parents=True, exist_ok=True)
            for name in names:
                text = (golden / name).read_text()
                if side is new and name in moved:
                    head = moved[name]
                    start = text.index("\n" + head) + 1 + len(head)
                    end = text.index(",", start)
                    value = float(text[start:end]) * (1.0 + 1e-12)
                    text = text[:start] + "%.17g" % value + text[end:]
                (side / "golden" / command / name).write_text(text)
    config = json.loads((golden / "config.json").read_text())
    assert same_outputs.compare(old, new, {"golden": config}) == 2
    report = capsys.readouterr().out.splitlines()
    for kind in ("basis", "psi"):
        assert f"  oracle ({kind}): 1 cells judged; new worse 1, equal 0, " \
            "better 0" in report
        assert f"oracle ({kind}), 1 cells in all: new worse 1, equal 0, " \
            "better 0" in report


def test_oracle_judges_spectrum_and_regions_cells(tmp_path, capsys):
    # one E_n cell of spectrum.csv and one bound of regions.csv in copies
    # of the goldens move by 1e-12 relative: both are judged new worse
    same_outputs = load_same_outputs()
    golden = ROOT / "tests" / "data" / "golden"
    old, new = tmp_path / "old", tmp_path / "new"
    moved = {"spectrum.csv": "1,", "regions.csv": "0.02,"}
    for side in (old, new):
        for name, head in moved.items():
            command = name.split(".")[0]
            (side / "golden" / command).mkdir(parents=True)
            text = (golden / name).read_text()
            if side is new:
                start = text.index("\n" + head) + 1 + len(head)
                end = text.index(",", start)
                value = float(text[start:end]) * (1.0 + 1e-12)
                text = text[:start] + "%.17g" % value + text[end:]
            (side / "golden" / command / name).write_text(text)
    config = json.loads((golden / "config.json").read_text())
    assert same_outputs.compare(old, new, {"golden": config}) == 2
    report = capsys.readouterr().out.splitlines()
    for kind in ("regions", "spectrum"):
        assert f"  oracle ({kind}): 1 cells judged; new worse 1, equal 0, " \
            "better 0" in report
        assert f"oracle ({kind}), 1 cells in all: new worse 1, equal 0, " \
            "better 0" in report


@pytest.mark.parametrize("name, row, column", [
    ("berry.csv", 0, "phi"), ("berry.csv", 300, "re_lambda"),
    ("berry.csv", 700, "re_E_minus"), ("berry.json", None, "alpha")])
def test_oracle_judges_berry_cells(tmp_path, capsys, name, row, column):
    # one cell of a copy of a berry golden moves by 1e-12 relative: the
    # start against the crossing, a coupling against the circle, an energy
    # against the sheet, alpha against its closed form, all new worse
    same_outputs = load_same_outputs()
    golden = ROOT / "tests" / "data" / "golden"
    old, new = tmp_path / "old", tmp_path / "new"
    text = (golden / name).read_text()
    if name.endswith(".csv"):
        lines = text.splitlines(keepends=True)
        header = lines[1].rstrip("\n").split(",")
        cells = lines[2 + row].split(",")
        at = header.index(column)
        cells[at] = "%.17g" % (float(cells[at]) * (1.0 + 1e-12))
        lines[2 + row] = ",".join(cells)
        moved = "".join(lines)
    else:
        value = json.loads(text)[column]["re"]
        moved = text.replace(f'"{value}"', '"%.17g"' % (
            float(value) * (1.0 + 1e-12)))
    for side, content in ((old, text), (new, moved)):
        (side / "golden" / "berry").mkdir(parents=True)
        (side / "golden" / "berry" / name).write_text(content)
    config = json.loads((golden / "config.json").read_text())
    assert same_outputs.compare(old, new, {"golden": config}) == 1
    report = capsys.readouterr().out.splitlines()
    assert "  oracle (berry): 1 cells judged; new worse 1, equal 0, " \
        "better 0" in report
