"""Shared fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import csmres


@pytest.fixture
def fresh_python():
    """Run ``python *args`` in a new interpreter that imports the csmres
    imported here, installed or not; returns the completed process."""
    src = str(Path(csmres.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))

    def run(*args):
        return subprocess.run([sys.executable, *args], env=env,
                              capture_output=True, text=True, timeout=120)

    return run
