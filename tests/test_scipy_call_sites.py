"""scipy is imported only where it is called, and each call site keeps its routine.

``import insidermc`` loads numpy but no scipy: the Gauss-Hermite nodes, the
normal CDF and the logistic family import ``scipy.special`` on first use, so
``converge`` and ``conjecture`` never load it. The floats must not move, so
the lazy call sites are pinned bit for bit against the scipy routines they
call: ``math.erfc`` and a numpy ``1 / (1 + exp(-x))`` differ from them in
the last bits, and the latter changes the pinned output digests.
"""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erfc, expit, roots_hermite

import insidermc
from insidermc import analytics, logistic
from insidermc.analytics import norm_cdf


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


def test_ladders_load_neither_scipy_nor_a_process_pool():
    modules = _run_in_fresh_process([
        ["converge", "--paths", "100", "--n-list", "4,8,16", "--seed", "1"],
        ["conjecture", "--paths", "100", "--n-list", "4,8", "--seed", "1"],
    ])
    assert "insidermc.cli" in modules
    assert not [m for m in modules if m == "scipy" or m.startswith("scipy.")]
    # the pool is imported only when more than one worker runs
    assert "concurrent.futures" not in modules


def test_expect_loads_scipy_special_on_first_use():
    modules = _run_in_fresh_process([["expect", "--seed", "1"]])
    assert "scipy.special" in modules


X = np.concatenate([
    np.linspace(-60.0, 60.0, 24001),
    np.random.default_rng(14).standard_normal(4000) * 5.0,
    [-745.0, -40.0, -1e-300, -0.0, 0.0, 5e-324, 1e-8, 37.0, 710.0],
])


def test_logistic_is_scipy_expit_bit_for_bit():
    c = logistic(2.0)
    assert c.fn is expit
    assert np.array_equal(c.evaluate(X), 2.0 * expit(X))
    scale = np.linspace(0.5, 3.0, X.size)
    assert np.array_equal(logistic(scale).evaluate(X), scale * expit(X))


def test_logistic_derivative_is_p_times_one_minus_p():
    p = expit(X)
    assert np.array_equal(logistic(2.0).derivative().evaluate(X), 2.0 * (p * (1.0 - p)))
    assert np.array_equal(logistic(1.0).derivative().evaluate(X), 1.0 * (p * (1.0 - p)))


def test_norm_cdf_is_scipy_erfc_bit_for_bit():
    got = np.array([norm_cdf(float(x)) for x in X])
    assert np.array_equal(got, 0.5 * erfc(-X / math.sqrt(2.0)))


@pytest.mark.parametrize("n", [256, 512, 1024, 2048, 4096])
def test_hermite_nodes_are_scipy_roots_hermite(n):
    x, w = analytics._hermgauss(n)
    want_x, want_w = roots_hermite(n)
    assert np.array_equal(x, want_x)
    assert np.array_equal(w, want_w)
