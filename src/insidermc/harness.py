"""Monte Carlo engine: expectation estimates, scheme convergence, flip probing, residual evidence.

Sampling is partitioned by path index, and every sample is a pure function
of the seed and the path index, so estimates are identical for any worker
count. Each estimator draws only what it reads: ``estimate_expectations``,
which evaluates the exact solution and its tilted form, and
``discontinuity_probe`` read B_T alone and draw it directly
(``sample_terminal``); the grid ladders need whole paths (``sample_block``),
and read each coarser level as a strided view of a block's finest paths.
Every estimate is evaluated over blocks of contiguous path indices with
array kernels on a trailing node axis, and each block is drawn once for all
the estimators that read it: ``estimate_expectations`` evaluates several
``(strategy, interpretation)`` cases and ``convergence_studies`` several
schemes on the same draw; a one-case caller passes one case. Each block of a
ladder is one kernel call for all its levels and all its schemes or groups.
``scheme_terminals`` lays the levels end to end along the node axis and runs
each stage once for all of them: the Euler factors g = sigma dW +
(1 + mu dt), with 1 + mu dt a per-node column, and the Hitsuda-Skorokhod
divide; only the products of g and the Hitsuda-Skorokhod sums stay one call
per level. It forms each scheme's wealth at each level's last node alone,
the one value ``converge`` reports: the product of g is a multiply
reduction, the sum that the wealth reads is a subtract reduction, and
Hitsuda-Skorokhod scales, subtracts and multiplies at that node only. The
schemes share g and its products, and ``scheme_terminals`` evaluates their
start values once per block from the block's B_T, which every level shares.
``ak_residuals`` builds the growth factor, B_T - sigma t and both groups'
exact solutions once per block, at the finest level, and reads each coarser
level as a strided view; each level builds the integrand's arguments once
for both groups. An argument that several functionals read is checked for
finiteness once. A ladder fails when a value it reports is non-finite, a
scheme's terminal wealth or a residual; a node value that no kernel forms
cannot fail, so a scheme counts at most one non-finite value per path and
level. Every reported value is checked: a block whose values sum to a finite
number has finite values only, and only a block whose sum is not finite is
counted value by value. A ladder reports its first failure scheme by scheme,
then level by level (``convergence_studies``), or level by level, then group
by group (``conjecture_report``). Workers return per-path values, which are
reduced in index order; a reduction that overflows is a numerical failure
too.

README's "Ladder cost per stage" times each ladder stage per path. Its
first three stages are the bit-identical floor: the Philox stream fixes the
normals, and the running sums and the products are sequential loops whose
order fixes the floats. A sum or product whose partial values no kernel
reads is a sequential reduction, which writes only its last value.

A ladder block holds as many paths as 32768 values hold, and at least two
(``_block_rows``), so the per-block costs (a generator's set-up, the start
values, about 30 kernel calls and two finiteness sums) are shared by two
paths or more even at 16384 steps.

Each ladder chunk allocates its working set once (``_ladder_blocks``): one
array for a block's finest paths, into which every block is drawn, and one
kernel ``Workspace`` sized from the block's rows (per row, the finest
nodes, or for ``converge`` every level's nodes end to end), into which
``scheme_terminals`` and ``ak_residuals`` write every node-sized array, a
shorter block or a coarser level into a prefix of each buffer. Freed and
reallocated per block and level, these arrays outgrew malloc's trim
threshold, so their pages went back to the OS and were faulted in again on
the next block: with glibc on Linux x86-64, about 42500 minor faults per
round of the benchmark's ladder workload, against about 800 with the
workspace.

``discontinuity_probe`` locates each path's flip by bisection over the node
index (``first_flip``), so its cost grows with log2(steps), not steps: at the
documented defaults (1e5 paths, 1024 steps) it takes 5-9 ms in-process on a
2-core Xeon, a third of it drawing B_T, against 0.22-0.42 s for a
node-by-node scan of every state (the ranges span the machine's speed drift).
"""
from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .analytics import jump_probability
from .functionals import TerminalFunctional
from .integrators import (
    ANTICIPATING,
    Interpretation,
    Workspace,
    ak_residuals,
    check_ito,
    exact_wealths,
    first_flip,
    growth_factor,
    scheme_stack,
    scheme_terminals,
)
from .market import (
    FullInformation,
    MarketParams,
    PartialTrust,
    Strategy,
    initial_allocation,
    stock_functional,
)
from .paths import _BLOCK_VALUES, TimeGrid, sample_block, sample_terminal

DEFAULT_PATHS = 100_000
DEFAULT_STEPS = 1024
DEFAULT_SEED = 20240101

_QUANTILES = (0.10, 0.25, 0.50, 0.75, 0.90)


class NumericalError(RuntimeError):
    """A sampling run produced non-finite values."""


@dataclass(frozen=True)
class RowHealth:
    """What one row of per-path values says about its mean as an estimate.

    ``largest_share`` is max|x| / sum|x| and ``effective_size`` Kish's
    (sum|x|)^2 / sum x^2, both 0 for a row of zeros. The row is
    ``degenerate`` when its stderr is 0, one value carries most of the sum
    of |x|, or a heavy tail leaves it an effective size below 1 % of its values
    (Kish, *Survey Sampling*, 1965; Owen, *Monte Carlo theory, methods and
    examples*, 2013, ch. 9): its stderr then says nothing about its mean's error.
    """

    largest_share: float
    effective_size: float
    non_finite: int
    zeros: int
    degenerate: bool


def row_health(rows: np.ndarray) -> list[tuple[float, float, RowHealth]]:
    """``(mean, stderr, health)`` of each row of a (row, path) array.

    Rows are reduced in groups of at most ``_BLOCK_VALUES`` values, which
    bounds the temporaries; ``np.mean`` and ``np.std(ddof=1)`` along a row
    give the floats of a call on that row alone.
    """
    n = rows.shape[1]
    step = max(1, _BLOCK_VALUES // n)
    least = 0.01 * n  # the 1 % floor on the effective size
    reduced = []
    for lo in range(0, len(rows), step):
        group = rows[lo : lo + step]
        # overflow and non-finite values show as inf/nan, which callers report
        with np.errstate(over="ignore", invalid="ignore"):
            mean = np.mean(group, axis=1)
            stderr = np.std(group, axis=1, ddof=1) / math.sqrt(n)
            size = np.abs(group)
            total = np.sum(size, axis=1)
            # sum x^2 from the moments, (n - 1) s^2 + n mean^2, both terms nonnegative
            squares = (n - 1) * n * stderr * stderr + n * mean * mean
            largest = np.max(size, axis=1)
            share = np.divide(largest, total, out=np.zeros(len(total)), where=total > 0)
            ess = np.divide(total * total, squares, out=np.zeros(len(total)), where=squares > 0)
        # counted only where there is something to count: a finite sum of |x|
        # has finite terms only, and a positive least |x| no zeros
        non_finite = zeros = np.zeros(len(group), dtype=int)
        if not np.isfinite(total).all():
            non_finite = n - np.count_nonzero(np.isfinite(group), axis=1)
        if not np.min(size) > 0.0:
            zeros = n - np.count_nonzero(group, axis=1)
        health = zip(share.tolist(), ess.tolist(), non_finite.tolist(), zeros.tolist())
        for m, se, (s, e, bad, zero) in zip(mean.tolist(), stderr.tolist(), health):
            reduced.append((m, se, RowHealth(s, e, bad, zero, se == 0.0 or s > 0.5 or e < least)))
    return reduced


@dataclass(frozen=True)
class MCReport:
    """Summary of one Monte Carlo estimate.

    ``health`` is the ``row_health`` of the per-path values that carry the
    path weight: a plain sample's stock leg C E(T), whose growth factor can
    underflow or carry the sum while the bond leg hides it, or a tilted
    sample itself, whose weight e^{mu T} is a constant.
    """

    estimate: float
    stderr: float
    ci_low: float
    ci_high: float
    n_paths: int
    grid_steps: int
    seed: int
    elapsed_seconds: float
    health: RowHealth

    @property
    def degenerate(self) -> bool:
        return self.health.degenerate


def _block_rows(grid: TimeGrid) -> int:
    """Paths per ladder block: as many as ``_BLOCK_VALUES`` values hold, at least two.

    ``_BLOCK_VALUES`` (256 KiB of float64) is large enough to amortize the
    per-call overhead and small enough to stay in cache and add no memory
    peak. A path of 16384 or more steps holds more than half of it, and its
    block holds two paths, so each per-block cost is shared by two paths.
    """
    return max(2, _BLOCK_VALUES // (grid.steps + 1))


def _blocks(grid: TimeGrid, start: int, stop: int):
    """Contiguous index ranges of ``_block_rows(grid)`` paths each, the last one shorter."""
    rows = _block_rows(grid)
    for lo in range(start, stop, rows):
        yield lo, min(lo + rows, stop)


def _ladder_blocks(grid: TimeGrid, seed: int, start: int, stop: int, width: int):
    """``(lo, hi, paths, work)`` per block of ``_blocks``: the block's paths on
    ``grid`` and a kernel workspace of ``width`` values per row, both
    allocated once.

    Every block is drawn into the same array, and the ladder's kernels write
    into the same workspace, a shorter block into a prefix of it; so a chunk
    makes its node-sized allocations once, not per block and level.
    """
    rows = min(_block_rows(grid), stop - start)
    buffer = np.empty((rows, grid.steps + 1))
    work = Workspace(rows * width)
    for lo, hi in _blocks(grid, start, stop):
        yield lo, hi, sample_block(grid, seed, lo, hi, out=buffer[: hi - lo]), work


def _non_finite(values: np.ndarray) -> int:
    return values.size - int(np.count_nonzero(np.isfinite(values)))


def _check_finite(bad: int, what: str) -> None:
    if bad:
        raise NumericalError(f"{bad} {what} values are non-finite")


def _terminal_chunk(args) -> np.ndarray:
    """Per-path values of paths start..stop-1, one row each: every estimator's
    sample, then every plain estimator's stock leg.

    An estimator is a ``(strategy, interpretation, tilted)`` triple. Each
    sample is the stock leg plus the bond leg (M - C(B_T)) e^{rho T} (an
    honest split's fixed bond0 e^{rho T}). The plain stock leg is the exact
    solution C(B_T - shift) E(T); the tilted one is e^{mu T} C(B_T) for the
    anticipating legs and e^{mu T} C(B_T + sigma T) for the forward leg. The
    growth factor E(T), e^{rho T} and e^{mu T} are built once per block,
    C(B_T) and the bond leg once per strategy.
    """
    estimators, params, grid, seed, start, stop = args
    plain = [k for k, (_, _, tilted) in enumerate(estimators) if not tilted]
    out = np.empty((len(estimators) + len(plain), stop - start))
    # the exact terminal wealth reads the path only through B_T, at the last node T
    node = np.array([grid.horizon])
    shift = params.sigma * node
    bond_rate, stock_rate = np.exp(params.rho * node), np.exp(params.mu * node)
    b_t = sample_terminal(seed, grid.horizon, start, stop)[:, None]
    # a block's arrays, about eight of them, together take one block of memory
    step = _BLOCK_VALUES // 8
    for lo in range(0, stop - start, step):
        b = b_t[lo : lo + step]
        rows = out[:, lo : lo + len(b), None]
        legs = {}
        # overflow shows as inf/nan, which estimate_expectations reports
        with np.errstate(over="ignore", invalid="ignore"):
            growth = growth_factor(params, node, b)
            for k, (strategy, interp, tilted) in enumerate(estimators):
                if strategy not in legs:
                    c_b, bond0 = initial_allocation(strategy, params, b)
                    legs[strategy] = stock_functional(strategy, params), c_b, bond0 * bond_rate
                c, c_b, bond = legs[strategy]
                if interp in ANTICIPATING:
                    stock = c_b * stock_rate if tilted else c.evaluate(b - shift) * growth
                else:
                    stock = c.evaluate(b + shift) * stock_rate if tilted else c_b * growth
                np.add(stock, bond, out=rows[k])
                if not tilted:
                    rows[len(estimators) + plain.index(k)] = stock
    return out


def _map_chunks(fn, args: tuple, n_paths: int, workers: int) -> list:
    """Run ``fn(args + (start, stop))`` over contiguous index ranges, in index order."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1:
        return [fn(args + (0, n_paths))]
    # past n_paths chunks the extra ones are empty, so the partition stops there
    bounds = np.linspace(0, n_paths, min(workers, n_paths) + 1, dtype=int)
    jobs = [args + (int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    import os
    from concurrent.futures import ProcessPoolExecutor  # only a multi-worker run needs them

    # a fork pool starts every process at its first submit; the partition fixes the results
    with ProcessPoolExecutor(max_workers=min(len(jobs), os.cpu_count() or 1)) as pool:
        return list(pool.map(fn, jobs))


def estimate_expectations(
    cases: Sequence[tuple],
    params: MarketParams,
    n_paths: int,
    grid: TimeGrid,
    seed: int,
    workers: int = 1,
) -> list[MCReport]:
    """Average terminal total wealth over paths 0..n_paths-1, one report per case.

    A case is ``(strategy, interpretation)`` for the plain estimator, whose
    sample is the per-path closed-form solution (testing the expectation
    formulas), or ``(strategy, interpretation, True)`` for the tilted one.
    Under Q, Y = B_T + sigma T ~ N(sigma T, T), and the growth factor times
    dP/dQ is exactly e^{mu T}, so the stock leg's expectation is
    e^{mu T} E[C(Y - shift)], shift sigma T for the anticipating legs and 0
    for the forward leg (Glasserman, *Monte Carlo Methods in Financial
    Engineering*, 2003, section 4.6); the tilted sample reads Y off the same
    draw of B_T and adds the bond leg of that draw, so it is one number per
    path and its stderr is honest. Every case is evaluated on each sampled
    block, so B_T is drawn once for all of them; the anticipating cases of
    one strategy and estimator share one row, so HS and AK are identical to
    the bit. ``grid`` sets only the horizon, and ``grid.steps`` does not
    change the estimate. Path indices are split into contiguous chunks per
    worker and re-assembled in order, so the reports do not depend on
    ``workers``. Every report carries the wall time of the whole shared run
    and its health (see ``MCReport``).
    """
    if n_paths < 100:
        raise ValueError(f"need at least 100 paths, got {n_paths}")
    # an anticipating case reads the row of the first one of its strategy and estimator
    keys = [
        (strategy, Interpretation.AYED_KUO if interp in ANTICIPATING else interp, any(tilted))
        for strategy, interp, *tilted in cases
    ]
    estimators = tuple(dict.fromkeys(keys))
    # a case that cannot run is rejected before anything is drawn
    for strategy, interp, _ in estimators:
        check_ito([stock_functional(strategy, params)], interp)
    start = time.perf_counter()
    chunks = _map_chunks(_terminal_chunk, (estimators, params, grid, seed), n_paths, workers)
    reduced = row_health(chunks[0] if len(chunks) == 1 else np.concatenate(chunks, axis=1))
    rows = [estimators.index(key) for key in keys]
    for k in rows:
        if reduced[k][2].non_finite:
            raise NumericalError(
                f"{reduced[k][2].non_finite} of {n_paths} terminal samples are non-finite"
            )
    moments = [reduced[k][:2] for k in rows]
    # finite samples can still sum past the float range
    _check_finite(_non_finite(np.array(moments)), "estimate and stderr")
    # a plain estimate's health is its stock leg's: the rows after the samples, in order
    stock_legs = iter(reduced[len(estimators) :])
    health = [
        reduced[k][2] if tilted else next(stock_legs)[2]
        for k, (_, _, tilted) in enumerate(estimators)
    ]
    elapsed = time.perf_counter() - start
    return [
        MCReport(
            estimate=estimate,
            stderr=stderr,
            ci_low=estimate - 1.96 * stderr,
            ci_high=estimate + 1.96 * stderr,
            n_paths=n_paths,
            grid_steps=grid.steps,
            seed=seed,
            elapsed_seconds=elapsed,
            health=health[k],
        )
        for k, (estimate, stderr) in zip(rows, moments)
    ]


def _check_step_ladder(n_list: tuple[int, ...], minimum: int) -> None:
    if len(n_list) < minimum:
        raise ValueError(f"need at least {minimum} grid sizes, got {len(n_list)}")
    for n in n_list:
        if n < 1 or n & (n - 1):
            raise ValueError(f"grid sizes must be powers of two, got {n}")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"grid sizes must be strictly increasing, got {n_list}")


def _fit_decay(n_values: np.ndarray, errors: np.ndarray, drop_first: bool) -> float:
    # least squares on log2/log2; the coarsest grid sits in the pre-asymptotic
    # regime, so scheme-order fits drop it
    lo = 1 if drop_first and len(n_values) > 2 else 0
    with np.errstate(divide="ignore"):  # a zero error makes the slope NaN; callers flag it
        slope = np.polyfit(np.log2(n_values[lo:]), np.log2(errors[lo:]), 1)[0]
    return float(-slope)


@dataclass(frozen=True)
class ConvergenceTable:
    """Mean absolute terminal error of a scheme against the exact solution."""

    rows: tuple[tuple[int, float], ...]
    slope: float
    interpretation: Interpretation
    n_paths: int
    seed: int


def _exact_references(c, params, targets, b_t, node, bounds) -> dict:
    """The exact terminal wealth at ``b_t`` of each target, one call per target.

    If a value is non-finite, raises for the first block of ``bounds`` (row
    ranges of ``b_t``) that holds one, and within it the first target, with
    that block's count: the message a check after each block would give.
    """
    exact = {}
    for target in dict.fromkeys(targets):
        with np.errstate(over="ignore", invalid="ignore"):
            (exact[target],) = exact_wealths([c], params, node, b_t, target)
    if any(_non_finite(values) for values in exact.values()):
        for lo, hi in bounds:
            for values in exact.values():
                _check_finite(_non_finite(values[lo:hi]), "exact wealth")
    return exact


def _convergence_chunk(args) -> np.ndarray:
    """Absolute terminal errors of paths start..stop-1, shaped (path, scheme, level).

    The scheme values are written block by block, every level of a block in
    one ``scheme_terminals`` call; the exact references depend on B_T alone
    and are evaluated once for the chunk, after the blocks. A block whose
    values sum to a finite number has finite values only; the others are
    counted per (scheme, level).
    """
    c, stacks, targets, params, n_list, seed, start, stop = args
    fine_grid = TimeGrid(params.horizon, n_list[-1])
    grids = [TimeGrid(params.horizon, n) for n in n_list]
    # the kernel lays every level's nodes end to end
    width = sum(n + 1 for n in n_list)
    errors = np.empty((stop - start, len(stacks), len(n_list)))
    b_t = np.empty((stop - start, 1))
    bounds = []
    for lo, hi, w, work in _ladder_blocks(fine_grid, seed, start, stop, width):
        rows = slice(lo - start, hi - start)
        bounds.append((rows.start, rows.stop))
        b_t[rows] = w[:, -1:]
        with np.errstate(over="ignore", invalid="ignore"):
            terminals = scheme_terminals(params, grids, w, stacks, work)
            finite = np.isfinite(np.sum(terminals))
        errors[rows] = np.moveaxis(terminals, -1, 0)
        if not finite:
            bad = np.array([[_non_finite(level) for level in scheme] for scheme in terminals])
            # a finite sum can overflow. A non-finite exact wealth in this block or
            # an earlier one is reported first, then the first scheme failure in
            # (scheme, level) order, as when each scheme ran its own ladder
            if bad.any():
                _exact_references(
                    c, params, targets, b_t[: rows.stop], fine_grid.nodes[-1:], bounds
                )
                for count in bad.flat:
                    _check_finite(int(count), "scheme wealth")
    exact = _exact_references(c, params, targets, b_t, fine_grid.nodes[-1:], bounds)
    for i, target in enumerate(targets):
        errors[:, i] -= exact[target]
    return np.abs(errors, out=errors)


def convergence_studies(
    strategy: Strategy,
    params: MarketParams,
    interps: Sequence[Interpretation],
    n_list: tuple[int, ...],
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> list[ConvergenceTable]:
    """Scheme-vs-exact terminal error over a ladder of grid sizes, one table per scheme.

    Coarser grids are restrictions of one fine path per sample, so every
    level and every scheme sees the same Brownian motion and the same exact
    reference value, which depends on B_T alone; the fine paths are drawn
    once for all interpretations, and each level builds the Euler factors
    once for all schemes. Workers return per-path errors, which are summed
    here in index order, so the tables do not depend on ``workers``.
    """
    _check_step_ladder(n_list, minimum=3)
    if n_paths < 1:
        raise ValueError(f"need at least 1 path, got {n_paths}")
    interps = tuple(interps)
    c = stock_functional(strategy, params)
    # a scheme that cannot run is rejected before anything is drawn
    stacks = [scheme_stack(c, interp) for interp in interps]
    # the solution each scheme approximates
    targets = [
        Interpretation.HITSUDA_SKOROKHOD
        if interp is Interpretation.HITSUDA_SKOROKHOD
        else Interpretation.FORWARD
        for interp in interps
    ]
    chunks = _map_chunks(
        _convergence_chunk, (c, stacks, targets, params, tuple(n_list), seed), n_paths, workers
    )
    totals = np.zeros((len(interps), len(n_list)))
    # row by row in index order: the sequential sum, not numpy's pairwise one
    with np.errstate(over="ignore"):
        for errors in chunks:
            for row in errors:
                totals += row
    # finite errors can still sum past the float range
    _check_finite(_non_finite(totals), "error total")
    tables = []
    for interp, total in zip(interps, totals):
        errors = total / n_paths
        slope = _fit_decay(np.asarray(n_list, dtype=float), errors, drop_first=True)
        rows = tuple((n, float(err)) for n, err in zip(n_list, errors))
        tables.append(ConvergenceTable(
            rows=rows, slope=slope, interpretation=interp, n_paths=n_paths, seed=seed
        ))
    return tables


@dataclass(frozen=True)
class JumpReport:
    """Empirical flip statistics for the bet-everything indicator solution."""

    frequency: float
    stderr: float
    closed_form: float
    n_flips: int
    n_paths: int
    grid_steps: int
    seed: int
    mean_flip_time: float | None
    rv_flips: int

    @property
    def degenerate(self) -> bool:
        """No path flipped, or every path did: the binomial stderr is 0 and checks nothing."""
        return self.stderr == 0.0

    @property
    def within_tolerance(self) -> bool:
        if self.degenerate:
            return False
        return bool(abs(self.frequency - self.closed_form) <= 4.0 * self.stderr)


def _flip_chunk(args) -> tuple[np.ndarray, int]:
    params, grid, seed, start, stop = args
    c = stock_functional(FullInformation(), params)
    nodes = grid.nodes
    b_t = sample_terminal(seed, grid.horizon, start, stop)[:, None]
    flip_times = []
    rv_flips = 0
    # first_flip reads O(rows) states, so chunks are sized by terminal values
    # alone. Half a block, with each leg's arrays dropped before the next leg
    # runs, keeps the memory a chunk frees below malloc's trim threshold, so a
    # repeated round reuses the heap instead of faulting it back in
    step = _BLOCK_VALUES // 2
    for lo in range(0, stop - start, step):
        chunk = b_t[lo : lo + step]
        flipped, times = first_flip(c, params, nodes, chunk, Interpretation.AYED_KUO)
        flip_times.append(times[flipped])
        del flipped, times
        rv_flipped = first_flip(c, params, nodes, chunk, Interpretation.FORWARD)[0]
        rv_flips += int(np.count_nonzero(rv_flipped))
    return np.concatenate(flip_times), rv_flips


def discontinuity_probe(
    params: MarketParams, n_paths: int, grid: TimeGrid, seed: int, workers: int = 1
) -> JumpReport:
    """Count on/off flips of the indicator solution across sampled paths.

    The anticipating solution flips exactly when B_T lands in the window
    (z, z + sigma T]; the forward solution keeps its time-0 state, so its
    flip count must be zero on every path. B_T is drawn directly, so
    ``grid`` sets only the nodes at which the on/off state is read (the
    flip-time grid). Workers take contiguous index ranges, so the report
    does not depend on ``workers``.
    """
    if n_paths < 1000:
        raise ValueError(f"need at least 1000 paths, got {n_paths}")
    chunks = _map_chunks(_flip_chunk, (params, grid, seed), n_paths, workers)
    flip_times = np.concatenate([times for times, _ in chunks])
    flips = int(flip_times.size)
    frequency = flips / n_paths
    stderr = math.sqrt(frequency * (1.0 - frequency) / n_paths)
    return JumpReport(
        frequency=frequency,
        stderr=stderr,
        closed_form=jump_probability(params),
        n_flips=flips,
        n_paths=n_paths,
        grid_steps=grid.steps,
        seed=seed,
        mean_flip_time=float(np.mean(flip_times)) if flips else None,
        rv_flips=sum(rv for _, rv in chunks),
    )


@dataclass(frozen=True)
class ResidualQuantiles:
    group: str
    steps: int
    q10: float
    q25: float
    q50: float
    q75: float
    q90: float


@dataclass(frozen=True)
class ConjectureReport:
    """Residual-size evidence for the indicator candidate solution.

    This is numerical EVIDENCE about an open question, never a proof; there
    is deliberately no pass/fail bar on the candidate rows. The affine
    control group has a known solution and must show shrinking residuals.
    """

    rows: tuple[ResidualQuantiles, ...]
    candidate_verdict: str
    control_verdict: str
    n_paths: int
    seed: int
    label: str = field(default="evidence")


def _trend_verdict(n_list: tuple[int, ...], medians: np.ndarray) -> str:
    decay = _fit_decay(np.asarray(n_list, dtype=float), np.maximum(medians, 1e-300), False)
    if decay >= 0.25:
        return "shrinking"
    if decay <= 0.05:
        return "not-shrinking"
    return "inconclusive"


def _conjecture_groups(params: MarketParams) -> dict[str, TerminalFunctional]:
    return {
        "indicator-candidate": stock_functional(FullInformation(), params),
        "affine-control": stock_functional(PartialTrust(), params),
    }


def _residual_chunk(args) -> np.ndarray:
    """Absolute residuals of paths start..stop-1, shaped (group, level, path).

    Every block is one ``ak_residuals`` call for all its levels. A block whose
    residuals sum to a finite number has finite ones only; the others are
    counted level by level, then group by group.
    """
    params, n_list, seed, start, stop = args
    groups = _conjecture_groups(params)
    functionals = list(groups.values())
    fine_grid = TimeGrid(params.horizon, n_list[-1])
    grids = [TimeGrid(params.horizon, n) for n in n_list]
    residuals = np.empty((len(groups), len(n_list), stop - start))
    for lo, hi, w, work in _ladder_blocks(fine_grid, seed, start, stop, fine_grid.steps + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            values = ak_residuals(functionals, params, grids, w, work)
            finite = np.isfinite(np.sum(values))
        if not finite:
            for j in range(len(grids)):
                for name, group in zip(groups, values[:, j]):
                    _check_finite(_non_finite(group), f"{name} residual")
        np.abs(values, out=residuals[:, :, lo - start : hi - start])
    return residuals


def conjecture_report(
    params: MarketParams, n_paths: int, n_list: tuple[int, ...], seed: int, workers: int = 1
) -> ConjectureReport:
    """Integral-form residuals of the translated-indicator candidate across grids.

    Runs the affine partial-trust functional through the same pipeline as a
    control group with a known solution; each level builds the residual's
    shared arguments once for both groups. Workers return per-path
    residuals, placed here in index order, so the report does not depend on
    ``workers``.
    """
    if n_paths < 100:
        raise ValueError(f"need at least 100 paths, got {n_paths}")
    _check_step_ladder(n_list, minimum=2)
    chunks = _map_chunks(_residual_chunk, (params, tuple(n_list), seed), n_paths, workers)
    residuals = dict(zip(_conjecture_groups(params), np.concatenate(chunks, axis=-1)))
    rows = []
    verdicts = {}
    for name, block in residuals.items():
        for j, n in enumerate(n_list):
            qs = np.quantile(block[j], _QUANTILES)
            rows.append(ResidualQuantiles(name, n, *(float(q) for q in qs)))
        verdicts[name] = _trend_verdict(n_list, np.median(block, axis=1))
    return ConjectureReport(
        rows=tuple(rows),
        candidate_verdict=verdicts["indicator-candidate"],
        control_verdict=verdicts["affine-control"],
        n_paths=n_paths,
        seed=seed,
    )
