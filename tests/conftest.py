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


def _psi_oracle(x: float, k: complex, s: complex, theta: float) -> complex:
    """Scaled solution (beta = 1) by mpmath on principal branches, in the
    form before Euler's transformation:
    (1 - xi^2)^{-ik/2} F(-ik - s, -ik + s + 1; 1 - ik; u).

    50 digits keep 1 - u exact to double precision out to |x| = 40.
    Principal branches agree with the continued ones while
    |x| sin(theta) < pi/2, where tanh(x e^{i theta}) has no pole.
    """
    import mpmath as mp

    with mp.workdps(50):
        k = mp.mpc(k.real, k.imag)
        s = mp.mpc(s.real, s.imag)
        z = mp.mpf(x) * mp.expj(mp.mpf(theta))
        u = 1 / (1 + mp.exp(2 * z))
        pref = mp.exp(-0.5j * k * (mp.log(4) + mp.log(u) + mp.log(1 - u)))
        kb = 1j * k
        return complex(pref * mp.hyp2f1(-kb - s, -kb + s + 1, -kb + 1, u))


@pytest.fixture(scope="session")
def psi_oracle():
    """The mpmath wave function, ``psi_oracle(x, k, s, theta)``."""
    return _psi_oracle
