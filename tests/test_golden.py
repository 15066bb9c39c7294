"""Byte-for-byte regression of all five CLI workflows.

``tests/data/golden`` holds the files each workflow wrote for the small
config stored next to them (overlap with two real-axis bins and one delta,
defaults elsewhere).  Any change to a printed digit fails here.
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
    assert main(["--config", str(GOLDEN / "config.json"),
                 "--out", str(tmp_path), command]) == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(OUTPUTS[command])
    for name in OUTPUTS[command]:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), \
            name


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
