"""Byte-for-byte regression of all five CLI workflows.

``tests/data/golden`` holds the files each workflow wrote for the small
config stored next to them (overlap with two real-axis bins and one delta,
defaults elsewhere).  Any change to a printed digit fails here.  With
``--format csv`` or ``--format json`` a workflow writes only the files of
that kind, each with the same bytes.
"""

import json
from pathlib import Path

import pytest

from csmres.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
COMMANDS = ("spectrum", "regions", "overlap", "berry", "wavefunction")
OUTPUTS = {
    "spectrum": ("spectrum.csv", "spectrum.json"),
    "regions": ("regions.csv", "regions.json"),
    "overlap": ("overlap.csv", "overlap.json", "degeneracy.csv"),
    "berry": ("berry.csv", "berry.json"),
    "wavefunction": ("wavefunction.csv", "wavefunction.json"),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_output_matches_golden_bytes(tmp_path, command):
    for fmt in ("both", "csv", "json"):
        out = tmp_path / fmt
        assert main(["--config", str(GOLDEN / "config.json"),
                     "--out", str(out), "--format", fmt, command]) == 0
        expected = sorted(name for name in OUTPUTS[command]
                          if fmt == "both" or name.endswith("." + fmt))
        assert sorted(p.name for p in out.iterdir()) == expected, fmt
        for name in expected:
            assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), \
                (fmt, name)


def test_workflows_need_no_scipy(tmp_path, fresh_python):
    # scipy is a test oracle only: with it blocked, every workflow still
    # writes the golden bytes
    code = ("import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from csmres.cli import main\n"
            "config, out, commands = json.loads(sys.argv[1])\n"
            "for command in commands:\n"
            "    code = main(['--config', config, '--out', out + '/' + command,\n"
            "                 command])\n"
            "    assert code == 0, command\n")
    args = json.dumps([str(GOLDEN / "config.json"), str(tmp_path), COMMANDS])
    done = fresh_python("-c", code, args)
    assert done.returncode == 0, done.stderr
    for command in COMMANDS:
        for name in OUTPUTS[command]:
            assert (tmp_path / command / name).read_bytes() \
                == (GOLDEN / name).read_bytes(), name
