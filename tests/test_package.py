"""Tests for the package surface: lazy re-exports, a scipy-free import
path and the README's library examples."""

import re
import sys
from pathlib import Path

import numpy as np
import pytest

import csmres


@pytest.mark.parametrize("module", ["csmres", "csmres.cli", "csmres.binbasis",
                                    "csmres.eploop", "csmres.wavefun"])
def test_import_does_not_load_scipy(fresh_python, module):
    done = fresh_python("-c", f"import sys, {module}; "
                        "print('scipy' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_berry_does_not_load_binbasis(fresh_python, tmp_path):
    # the Puiseux fit needs only the closed-form bin energy of ``model``
    config = Path(__file__).parent / "data" / "golden" / "config.json"
    done = fresh_python(
        "-c", "import sys; from csmres.cli import main; "
        f"code = main(['--config', {str(config)!r}, '--out', "
        f"{str(tmp_path)!r}, 'berry']); "
        "print(code, 'csmres.binbasis' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0 False"


def test_every_export_is_its_home_modules_object():
    assert len(set(csmres.__all__)) == len(csmres.__all__)
    for name in csmres.__all__:
        obj = getattr(csmres, name)
        assert obj.__module__.startswith("csmres.")
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from csmres import *", namespace)
    assert set(csmres.__all__) <= set(namespace)
    assert set(csmres.__all__) <= set(dir(csmres))


def test_layer_modules_are_attributes(fresh_python):
    done = fresh_python("-c", "import csmres; print(csmres.binbasis.__name__)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "csmres.binbasis"


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        csmres.no_such_name


def test_readme_library_examples_run():
    # the README's python blocks, in order and in one namespace, as a
    # reader would paste them: a changed signature or field fails here
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(),
                        re.DOTALL | re.MULTILINE)
    assert blocks
    ns = {}
    for block in blocks:
        exec(compile(block, str(readme), "exec"), ns)
    # what the examples' comments state
    assert ns["verdicts"]["monodromy_order"] == 4
    assert abs(ns["verdicts"]["overlap_4pi"] + 1.0) < 1e-12
    assert np.max(np.abs(ns["s"] - np.eye(6))) < 1e-11
    assert np.max(np.abs(ns["h"] - np.diag(ns["energies"]))) < 1e-11
