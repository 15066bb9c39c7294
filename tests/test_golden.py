"""Byte-for-byte regression of all five CLI workflows.

``tests/data/golden`` holds the files each workflow wrote for the small
config stored next to them (overlap with two real-axis bins and one delta,
defaults elsewhere).  Any change to a printed digit fails here.
"""

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
