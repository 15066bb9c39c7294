"""Byte-for-byte regression of all five CLI workflows.

``tests/data/golden`` holds the files each workflow wrote for the small
config stored next to them (overlap with two real-axis bins and one delta,
defaults elsewhere).  Any change to a printed digit fails here.  With
``--format csv`` or ``--format json`` a workflow writes only the files of
that kind, each with the same bytes.
"""

import json
from pathlib import Path

import numpy as np
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
# Complex pairs (a, b), as float.hex of re and im, and the bits of their
# array product a * b on the build that wrote the goldens: numpy's complex
# multiply loop there fuses each part's product and sum (FMA), so each of
# these rounds otherwise than CPython's a * b
FUSED_PRODUCTS = (
    (("0x1.4123854d5e24ep+0", "0x1.6bc7983cc7cc4p+0"),
     ("0x1.56dcaccafb54cp-3", "-0x1.217605ed025b2p-1"),
     ("0x1.036d4d900a7a2p+0", "-0x1.e29f315c4dbbcp-2")),
    (("0x1.bbe9b2fc55592p-1", "-0x1.c0aac46189ed4p-1"),
     ("0x1.c2b49dcdf2973p-2", "0x1.d6e1b6ad1ebafp-2"),
     ("0x1.91b3c657d5b61p-1", "0x1.a9db9eeb68e08p-7")),
    (("0x1.508f6cd236c35p+0", "0x1.db9dd832227f6p-1"),
     ("-0x1.a4e096f0322a4p-3", "0x1.360e91e95963ap-2"),
     ("-0x1.1a57b1ff192a9p-1", "0x1.a8498e46f7d9bp-3")),
)


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


def test_array_product_is_the_loop_the_goldens_assume():
    # the berry sheet energies and readouts and the spectrum's complex
    # square are array products, so their golden bytes hold for a numpy
    # build whose complex multiply loop rounds as the one that wrote them
    a, b, fused = (np.array([complex(*map(float.fromhex, pair[i]))
                             for pair in FUSED_PRODUCTS]) for i in range(3))
    assert all(complex(x) * complex(y) != z
               for x, y, z in zip(a, b, fused))
    product = np.multiply(a, b)
    assert product.tolist() == fused.tolist(), (
        "this numpy build's complex multiply loop is not the fused (FMA) "
        "one that tests/data/golden/berry.* and spectrum.* were captured "
        "with: their last bits would differ")
