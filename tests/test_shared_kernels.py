"""The shared level kernels against the one-case kernels they generalize.

``scheme_wealths`` builds the Euler factors g and their running product once
for several schemes; ``_one_scheme_reference`` is the one-scheme kernel it
replaced, written out, which built them per scheme and filled every stack
level's ratios before dividing. ``ak_residuals`` builds the residual's
shared arguments once for several functionals; one call per functional is
its reference. A kernel that reuses a workspace left dirty by a larger call
must return what a call with no workspace returns. A call on a ladder of grid
levels must return, level by level, what a call on each level alone returns.
Each comparison is bit for bit.
"""
from dataclasses import dataclass

import numpy as np
import pytest

from insidermc import (
    Honest,
    Interpretation,
    MarketParams,
    PartialTrust,
    Smooth,
    TerminalFunctional,
    TimeGrid,
    arctangent,
    conjecture_report,
    logistic,
    stock_functional,
)
from insidermc import functionals, integrators
from insidermc.integrators import (
    _MAX_CORRECTION_LEVELS,
    Workspace,
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

    def evaluate(self, x, out=None):
        return np.multiply(self.scale, np.exp(self.rate * np.asarray(x, dtype=float)), out=out)

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
    shared = scheme_wealths(params, [grid], w, stacks)
    assert len(shared) == len(cases)
    for wealth, (c, interp) in zip(shared, cases):
        reference = _one_scheme_reference(c, params, grid, w, interp)
        assert np.isfinite(reference).all()
        assert _same_bits(wealth, reference)
        stack = scheme_stack(c, interp)
        assert _same_bits(scheme_wealths(params, [grid], w, [stack])[0], reference)
        # one path along a single node axis, as the per-path calls pass it
        assert _same_bits(
            scheme_wealths(params, [grid], w[1], [stack])[0],
            _one_scheme_reference(c, params, grid, w[1], interp),
        )


@pytest.mark.parametrize("params", [BASELINE, ODD], ids=["T=1", "T=1.3"])
@pytest.mark.parametrize("steps", [4, 256, 16384])
def test_multi_functional_residuals_equal_one_call_per_functional(params, steps):
    grid, w = _block(params, steps)
    functionals = [
        stock_functional(FullInformation(), params), *_functionals(params).values()
    ]
    shared = ak_residuals(functionals, params, [grid], w)
    assert shared.shape == (len(functionals), 1, w.shape[0])
    for residual, c in zip(shared, functionals):
        (single,) = ak_residuals([c], params, [grid], w)
        assert _same_bits(residual, single)


def _coarse_short(params, w, factor, rows):
    """The first ``rows`` paths of block ``w`` on the grid ``factor`` times coarser."""
    return TimeGrid(params.horizon, (w.shape[1] - 1) // factor), w[:rows, ::factor]


@pytest.mark.parametrize("params", [BASELINE, ODD], ids=["T=1", "T=1.3"])
def test_scheme_wealths_on_a_reused_workspace_equal_a_fresh_call(params):
    grid, w = _block(params, 256)
    cases = [(c, interp) for c in _functionals(params).values() for interp in (RV, HS)]
    stacks = [scheme_stack(c, interp) for c, interp in cases]
    work = Workspace(w.size)
    # the second call reads a shorter block at a coarser level, over what the first left
    for g, block in ((grid, w), _coarse_short(params, w, 4, w.shape[0] - 7)):
        reused = scheme_wealths(params, [g], block, stacks, work)
        fresh = scheme_wealths(params, [g], block, stacks)
        assert len(reused) == len(cases)
        for a, b in zip(reused, fresh):
            assert np.isfinite(b).all()
            assert _same_bits(a, b)


@pytest.mark.parametrize("params", [BASELINE, ODD], ids=["T=1", "T=1.3"])
def test_ak_residuals_on_a_reused_workspace_equal_a_fresh_call(params):
    grid, w = _block(params, 256)
    functionals = [
        stock_functional(FullInformation(), params), stock_functional(PartialTrust(), params)
    ]
    work = Workspace(w.size)
    for g, block in ((grid, w), _coarse_short(params, w, 4, w.shape[0] - 7)):
        reused = ak_residuals(functionals, params, [g], block, work)
        fresh = ak_residuals(functionals, params, [g], block)
        assert _same_bits(reused, fresh)


def test_workspace_hands_out_contiguous_prefixes_and_refuses_overflow():
    work = Workspace(12)
    a = work.take("a", (3, 4))
    a[...] = np.arange(12.0).reshape(3, 4)
    b = work.take("a", (2, 3))
    assert b.flags.c_contiguous and np.shares_memory(a, b)
    assert np.array_equal(b.ravel(), np.arange(6.0))
    assert not np.shares_memory(a, work.take("b", (12,)))
    with pytest.raises(ValueError, match="13 values exceed"):
        work.take("a", (13,))


def _logistic_stack(scale):
    """The logistic C, C' and C'': a three-level correction stack.

    ``scheme_stack`` stops a Smooth C at C', so no CLI run reaches the
    scheme's shift between stack levels with a smooth C; this stack does.
    """

    def second(z):
        p = 1.0 / (1.0 + np.exp(-z))
        return p * (1.0 - p) * (1.0 - 2.0 * p)

    c = logistic(scale)
    return [c, c.derivative(), Smooth(scale, second)]


def _ladder_cases(params):
    """Stacks of one, two, three and the deepest level count, both schemes of each C."""
    c = stock_functional(PartialTrust(), params)
    return [
        scheme_stack(stock_functional(Honest(0.4, 0.6), params), HS),
        scheme_stack(c, RV),
        scheme_stack(c, HS),
        _logistic_stack(params.wealth),
        scheme_stack(_Exponential(0.8, 0.5), HS),
    ]


@pytest.mark.parametrize("params", [BASELINE, ODD], ids=["T=1", "T=1.3"])
@pytest.mark.parametrize("steps,rows,ladder", [
    (16384, 1, (256, 512, 1024, 2048, 4096, 8192, 16384)),  # converge's default ladder
    (256, 40, (4, 16, 64, 256)),  # a multi-row block
    (256, 7, (8, 256)),  # levels that skip, none of them the paths' own
])
def test_a_ladder_of_levels_equals_one_call_per_level(params, steps, rows, ladder):
    grid = TimeGrid(params.horizon, steps)
    w = sample_block(grid, 31, 9, 9 + rows)
    stacks = _ladder_cases(params)
    assert [len(stack) for stack in stacks] == [1, 1, 2, 3, _MAX_CORRECTION_LEVELS]
    grids = [TimeGrid(params.horizon, n) for n in ladder]
    laid = scheme_wealths(params, grids, w, stacks)
    firsts = np.cumsum([0] + [n + 1 for n in ladder])
    for samples in laid:
        assert samples.shape == (rows, firsts[-1])
    for j, g in enumerate(grids):
        alone = scheme_wealths(params, [g], w[:, :: steps // g.steps], stacks)
        for samples, reference in zip(laid, alone):
            assert np.isfinite(reference).all()
            assert _same_bits(samples[:, firsts[j] : firsts[j + 1]], reference)


@pytest.mark.parametrize("params", [BASELINE, ODD], ids=["T=1", "T=1.3"])
def test_a_ladder_of_residual_levels_equals_one_call_per_level(params):
    grid, w = _block(params, 256)
    functionals_ = [stock_functional(FullInformation(), params), *_functionals(params).values()]
    ladder = [TimeGrid(params.horizon, n) for n in (4, 16, 64)]
    laid = ak_residuals(functionals_, params, ladder, w)
    for residual, c in zip(laid, functionals_):
        assert residual.shape == (len(ladder), w.shape[0])
        for j, g in enumerate(ladder):
            (alone,) = ak_residuals([c], params, [g], w[:, :: 256 // g.steps])[:, 0]
            assert _same_bits(residual[j], alone)


def test_a_level_that_is_no_stride_of_the_paths_is_refused():
    grid, w = _block(BASELINE, 256)
    stacks = [[stock_functional(PartialTrust(), BASELINE)]]
    with pytest.raises(ValueError, match="a 96-step level is no stride of 256-step paths"):
        scheme_wealths(BASELINE, [TimeGrid(1.0, 96)], w, stacks)


def _count_checks(monkeypatch):
    """Record the shape of every argument checked for finiteness."""
    checked = []
    check = functionals._require_finite

    def counting(x):
        checked.append(np.shape(x))
        check(x)

    monkeypatch.setattr(functionals, "_require_finite", counting)
    monkeypatch.setattr(integrators, "_require_finite", counting, raising=False)
    return checked


def test_each_conjecture_level_checks_each_shared_argument_once(monkeypatch):
    # 100 paths of 8 steps are one block; at each level y + x - sigma s has the
    # shape of the level's steps, and B_T - sigma t that of the finest nodes
    checked = _count_checks(monkeypatch)
    conjecture_report(BASELINE, 100, (4, 8), 3)
    assert checked.count((100, 4)) == 1
    assert checked.count((100, 8)) == 1
    assert checked.count((100, 9)) == 1
    assert len(checked) == 3


def test_scheme_starts_check_b_t_once_and_evaluate_a_shared_c_once(monkeypatch):
    c = stock_functional(PartialTrust(), BASELINE)
    stacks = [scheme_stack(c, RV), scheme_stack(c, HS)]
    assert stacks[0][0] is stacks[1][0]
    b_t = sample_block(TimeGrid(1.0, 4), 3, 0, 6)[:, -1:]
    reference = [[np.asarray(level.evaluate(b_t), dtype=float) for level in s] for s in stacks]
    checked = _count_checks(monkeypatch)
    evaluated = []
    evaluate = type(c).evaluate_finite

    def counting(f, x, out=None):
        evaluated.append(f)
        return evaluate(f, x, out)

    monkeypatch.setattr(type(c), "evaluate_finite", counting)
    starts = scheme_starts(stacks, b_t)
    assert checked == [(6, 1)]
    assert evaluated == [c, c.derivative()]
    assert all(_same_bits(a, b) for s, r in zip(starts, reference) for a, b in zip(s, r))
