"""Shared fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import csmres
from csmres.errors import NonConvergence, PreconditionViolation


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


def _scalar_bisect(fun, a, b, tol=1e-10):
    """Zero of ``fun`` on [a, b] by bisection with one call per halving:
    the loop ``model._bisect_zeros`` replaces, kept as its oracle."""
    fa, fb = fun(a), fun(b)
    if (fa < 0.0) == (fb < 0.0):
        raise PreconditionViolation(
            f"no sign change on [{a}, {b}]: f = {fa}, {fb}")
    for _ in range(200):
        m = 0.5 * (a + b)
        if b - a < tol or not a < m < b:
            return m
        fm = fun(m)
        if (fa < 0.0) == (fm < 0.0):
            a, fa = m, fm
        else:
            b = m
    raise NonConvergence("bisection", {"a": a, "b": b, "tol": tol})


@pytest.fixture(scope="session")
def scalar_bisect():
    """The scalar bisection oracle, ``scalar_bisect(fun, a, b, tol)``."""
    return _scalar_bisect
