"""Tests for the repository's command-line tools under ``tools/``."""

import subprocess
import sys
from pathlib import Path

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
