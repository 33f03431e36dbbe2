"""The shared level kernels against the one-case kernels they generalize.

``scheme_wealths`` builds the Euler factors g and their running product once
for several schemes; ``_one_scheme_reference`` is the one-scheme kernel it
replaced, written out, which built them per scheme and filled every stack
level's ratios before dividing. ``ak_residuals`` builds the residual's
shared arguments once for several functionals; one call per functional is
its reference. Each comparison is bit for bit.
"""
from dataclasses import dataclass

import numpy as np
import pytest

from insidermc import (
    Honest,
    Interpretation,
    MarketParams,
    PartialTrust,
    TerminalFunctional,
    TimeGrid,
    arctangent,
    logistic,
    stock_functional,
)
from insidermc.integrators import (
    _MAX_CORRECTION_LEVELS,
    _correction_stack,
    ak_residuals,
    scheme_stack,
    scheme_starts,
    scheme_wealths,
)
from insidermc.market import FullInformation
from insidermc.paths import sample_block

HS = Interpretation.HITSUDA_SKOROKHOD
RV = Interpretation.FORWARD
ITO = Interpretation.ITO

BASELINE = MarketParams(wealth=1.0, rho=0.02, mu=0.05, sigma=0.2, horizon=1.0)
# T = 1.3 makes dt no power of two, so any regrouping of sigma * dt changes bits
ODD = MarketParams(wealth=1.0, rho=0.02, mu=0.05, sigma=0.7, horizon=1.3)


@dataclass(frozen=True)
class _Exponential(TerminalFunctional):
    """x -> scale * exp(rate * x). Every derivative is again of this family, so
    the correction stack runs to its depth limit through every level's recursion."""

    scale: float
    rate: float

    def evaluate(self, x):
        return self.scale * np.exp(self.rate * np.asarray(x, dtype=float))

    def derivative(self):
        return _Exponential(self.scale * self.rate, self.rate)


def _one_scheme_reference(c, params, grid, w, interp):
    """The one-scheme kernel as it stood before the shared one, written out."""
    if interp in (ITO, RV):
        levels = [c]
    elif interp is HS:
        levels = _correction_stack(c)
    else:
        raise ValueError(f"no direct scheme implements {interp.value}")
    dt = grid.dt
    sigma = params.sigma
    g = np.diff(w, axis=-1)
    g *= sigma
    g += 1.0 + params.mu * dt
    b_t = w[..., -1:]
    start = [np.asarray(lvl.evaluate(b_t), dtype=float) for lvl in levels]
    samples = np.empty(w.shape)
    samples[..., :1] = start[0]
    ratios = samples[..., 1:]
    ratios[...] = start[-1]
    left = np.empty_like(g)
    for k in range(len(levels) - 2, -1, -1):
        left[..., :1] = start[k + 1]
        left[..., 1:] = ratios[..., :-1]
        np.divide(left, g, out=ratios)
        np.cumsum(ratios, axis=-1, out=ratios)
        ratios *= sigma * dt
        np.subtract(start[k], ratios, out=ratios)
    ratios *= np.cumprod(g, axis=-1, out=g)
    return samples


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _functionals(params):
    return {
        "honest": stock_functional(Honest(0.4, 0.6), params),  # a one-level stack
        "partial-trust": stock_functional(PartialTrust(), params),  # two levels
        "logistic": logistic(params.wealth),
        "arctangent": arctangent(params.wealth),
        "exponential": _Exponential(0.8, 0.5),
    }


def _block(params, steps):
    grid = TimeGrid(params.horizon, steps)
    return grid, sample_block(grid, 29, 4, 4 + (2 if steps > 1024 else 40))


def test_the_stacks_cover_one_two_and_the_deepest_level_count():
    depths = {name: len(scheme_stack(c, HS)) for name, c in _functionals(BASELINE).items()}
    assert depths == {
        "honest": 1, "partial-trust": 2, "logistic": 2, "arctangent": 2,
        "exponential": _MAX_CORRECTION_LEVELS,
    }


@pytest.mark.parametrize("params", [BASELINE, ODD], ids=["T=1", "T=1.3"])
@pytest.mark.parametrize("steps", [4, 256, 16384])
def test_shared_scheme_kernel_equals_the_one_scheme_kernel(params, steps):
    grid, w = _block(params, steps)
    cases = [(c, interp) for c in _functionals(params).values() for interp in (RV, HS)]
    stacks = [scheme_stack(c, interp) for c, interp in cases]
    shared = scheme_wealths(params, grid, w, scheme_starts(stacks, w[:, -1:]))
    assert len(shared) == len(cases)
    for wealth, (c, interp) in zip(shared, cases):
        reference = _one_scheme_reference(c, params, grid, w, interp)
        assert np.isfinite(reference).all()
        assert _same_bits(wealth, reference)
        starts = scheme_starts([scheme_stack(c, interp)], w[:, -1:])
        assert _same_bits(scheme_wealths(params, grid, w, starts)[0], reference)
        # one path along a single node axis, as the per-path calls pass it
        row_starts = scheme_starts([scheme_stack(c, interp)], w[1, -1:])
        assert _same_bits(
            scheme_wealths(params, grid, w[1], row_starts)[0],
            _one_scheme_reference(c, params, grid, w[1], interp),
        )


@pytest.mark.parametrize("params", [BASELINE, ODD], ids=["T=1", "T=1.3"])
@pytest.mark.parametrize("steps", [4, 256, 16384])
def test_multi_functional_residuals_equal_one_call_per_functional(params, steps):
    grid, w = _block(params, steps)
    functionals = [
        stock_functional(FullInformation(), params), *_functionals(params).values()
    ]
    for t in (None, grid.nodes[steps // 2]):
        shared = ak_residuals(functionals, params, grid, w, t)
        assert len(shared) == len(functionals)
        for residual, c in zip(shared, functionals):
            (single,) = ak_residuals([c], params, grid, w, t)
            assert residual.shape == (w.shape[0],)
            assert _same_bits(residual, single)
