"""No runtime module imports scipy; the routines that replaced it match it.

``import insidermc`` and every subcommand run on numpy and the standard
library alone. scipy remains a test-only dependency, used here to check the
three routines it used to provide, each within a stated tolerance (they
differ from scipy in the last bits, an intended change of output):

* the logistic family's ``functionals._expit``, numpy's 1 / (1 + exp(-x))
  written into its argument, against ``scipy.special.expit``;
* ``analytics.norm_cdf``, on ``math.erfc``, against ``scipy.special.erfc``;
* ``analytics._hermgauss``, Newton's method on the Hermite recurrence,
  against ``scipy.special.roots_hermite``.

The Gauss-Hermite rule is also checked for exactness without scipy.
"""
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erfc, expit, roots_hermite

import insidermc
from insidermc import analytics, logistic
from insidermc.analytics import norm_cdf
from insidermc.functionals import _expit


def _run_in_fresh_process(argvs: list[list[str]]) -> set[str]:
    """Run each CLI argv through ``cli.main`` in a new interpreter; its loaded modules."""
    script = (
        "import contextlib, io, json, sys\n"
        "import insidermc, insidermc.cli\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = insidermc.cli.main(argv)\n"
        "    assert code == 0, (argv, code)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = os.environ | {"PYTHONPATH": str(Path(insidermc.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def _scipy_modules(modules: set[str]) -> list[str]:
    return [m for m in modules if m == "scipy" or m.startswith("scipy.")]


def test_ladders_load_neither_scipy_nor_a_process_pool():
    modules = _run_in_fresh_process([
        ["converge", "--paths", "100", "--n-list", "4,8,16", "--seed", "1"],
        ["conjecture", "--paths", "100", "--n-list", "4,8", "--seed", "1"],
    ])
    assert "insidermc.cli" in modules
    assert not _scipy_modules(modules)
    # the pool is imported only when more than one worker runs
    assert "concurrent.futures" not in modules


def test_no_subcommand_loads_scipy():
    modules = _run_in_fresh_process([
        ["expect", "--seed", "1"],
        ["expect", "--mc", "--paths", "1000", "--seed", "1"],
        ["jump", "--paths", "2000", "--steps", "16", "--seed", "1"],
        ["ordering-sweep", "--sets", "20", "--seed", "1"],
        ["converge", "--paths", "50", "--n-list", "4,8,16", "--seed", "1"],
        ["conjecture", "--paths", "100", "--n-list", "4,8", "--seed", "1"],
    ])
    assert not _scipy_modules(modules)


def test_no_module_imports_scipy():
    package = Path(insidermc.__file__).parent
    for source in package.glob("*.py"):
        assert not re.search(r"^\s*(from|import)\s+scipy\b", source.read_text(), re.M), source


X = np.concatenate([
    np.linspace(-60.0, 60.0, 24001),
    np.random.default_rng(14).standard_normal(4000) * 5.0,
    [-745.0, -40.0, -1e-300, -0.0, 0.0, 5e-324, 1e-8, 37.0, 710.0],
])


def _sigmoid(x) -> np.ndarray:
    """``_expit`` on a copy of x, since it writes into its argument."""
    return _expit(np.array(x, dtype=float))


def test_logistic_matches_scipy_expit():
    c = logistic(2.0)
    assert c.fn is _expit
    # exp(745) overflows to inf without a warning, and the sigmoid reads 0
    assert _sigmoid(-745.0) == 0.0
    np.testing.assert_allclose(_sigmoid(X), expit(X), rtol=2e-15, atol=0.0)
    assert np.array_equal(c.evaluate(X), 2.0 * _sigmoid(X))
    scale = np.linspace(0.5, 3.0, X.size)
    assert np.array_equal(logistic(scale).evaluate(X), scale * _sigmoid(X))


def test_logistic_derivative_is_p_times_one_minus_p():
    p = _sigmoid(X)
    assert np.array_equal(logistic(2.0).derivative().evaluate(X), 2.0 * (p * (1.0 - p)))
    assert np.array_equal(logistic(1.0).derivative().evaluate(X), 1.0 * (p * (1.0 - p)))


def test_norm_cdf_matches_scipy_erfc():
    got = np.array([norm_cdf(float(x)) for x in X])
    want = 0.5 * erfc(-X / math.sqrt(2.0))
    # below x = -37 both fall into subnormals, where math.erfc keeps digits scipy rounds to 0
    normal = want >= 1e-300
    np.testing.assert_allclose(got[normal], want[normal], rtol=1e-13, atol=0.0)
    assert np.all(got[~normal] < 1e-300)


@pytest.mark.parametrize("n", [32, 64, 128, 256, 512, 1024, 2048, 4096])
def test_hermite_nodes_are_scipy_roots_hermite(n):
    x, w = analytics._hermgauss(n)
    want_x, want_w = roots_hermite(n)
    # absolute below 1, relative above
    assert np.all(np.abs(x - want_x) <= 1e-13 * np.maximum(1.0, np.abs(want_x)))
    # the outer weights underflow in both; compare where scipy's is a normal float
    normal = want_w >= 1e-300
    np.testing.assert_allclose(w[normal], want_w[normal], rtol=1e-10, atol=0.0)
    assert np.all(w[~normal] < 1e-299)


@pytest.mark.parametrize("n", [32, 64, 128, 256, 512, 1024, 2048, 4096])
def test_hermite_rule_is_exact(n):
    x, w = analytics._hermgauss(n)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0.0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert np.all(np.isfinite(w)) and np.all(w >= 0.0)
    root_pi = math.sqrt(math.pi)
    assert math.isclose(np.sum(w), root_pi, rel_tol=1e-13)
    assert math.isclose(w @ np.square(x), root_pi / 2.0, rel_tol=1e-13)
    # the integral of e^{5x} e^{-x^2} is sqrt(pi) e^{25/4}
    assert math.isclose(w @ np.exp(5.0 * x), root_pi * math.exp(6.25), rel_tol=1e-13)
