"""Monte Carlo engine: expectation estimates, scheme convergence, flip probing, residual evidence.

Sampling is partitioned by path index, and every sample is a pure function
of the seed and the path index, so estimates are identical for any worker
count. Each estimator draws only what it reads: ``estimate_expectations``,
which evaluates the exact solution, and ``discontinuity_probe`` read B_T
alone and draw it directly (``sample_terminal``); the grid ladders need whole
paths (``sample_block``), and read each coarser level as a strided view of a
block's finest paths. Every estimate is evaluated over blocks of contiguous
path indices with array kernels on a trailing node axis, and each block is
drawn once for all the estimators that read it: ``estimate_expectations``
evaluates several ``(strategy, interpretation)`` cases and
``convergence_studies`` several schemes on the same draw; a one-case caller
passes one case. Each grid level is one kernel call for all its schemes or
groups: the schemes share one Euler factor g and one cumprod(g) per level
(``scheme_wealths``), and start from values read once per block, since
every level of a block shares B_T; the two residual groups share the
residual's arguments per level (``ak_residuals``). Every node is checked
for finiteness; a ladder reports its first failure scheme by scheme, then
level by level (``convergence_studies``), or level by level, then group by
group (``conjecture_report``). Workers return per-path values, which are
reduced in index order; a reduction that overflows is a numerical failure
too.

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .analytics import jump_probability
from .functionals import TerminalFunctional
from .integrators import (
    Interpretation,
    ak_residuals,
    exact_wealths,
    first_flip,
    scheme_stack,
    scheme_starts,
    scheme_wealths,
)
from .market import (
    FullInformation,
    MarketParams,
    PartialTrust,
    Strategy,
    stock_functional,
    wealth_at,
)
from .paths import _BLOCK_VALUES, TimeGrid, sample_block, sample_terminal

DEFAULT_PATHS = 100_000
DEFAULT_STEPS = 1024
DEFAULT_SEED = 20240101

_QUANTILES = (0.10, 0.25, 0.50, 0.75, 0.90)


class NumericalError(RuntimeError):
    """A sampling run produced non-finite values."""


@dataclass(frozen=True)
class MCReport:
    """Summary of one Monte Carlo estimate."""

    estimate: float
    stderr: float
    ci_low: float
    ci_high: float
    n_paths: int
    grid_steps: int
    seed: int
    elapsed_seconds: float


def _blocks(grid: TimeGrid, start: int, stop: int):
    """Contiguous index ranges of at most ``_BLOCK_VALUES`` path values each.

    ``_BLOCK_VALUES`` (256 KiB of float64) is large enough to amortize the
    per-call overhead and small enough to stay in cache and add no memory peak.
    """
    rows = max(1, _BLOCK_VALUES // (grid.steps + 1))
    for lo in range(start, stop, rows):
        yield lo, min(lo + rows, stop)


def _non_finite(values: np.ndarray) -> int:
    return values.size - int(np.count_nonzero(np.isfinite(values)))


def _check_finite(bad: int, what: str) -> None:
    if bad:
        raise NumericalError(f"{bad} {what} values are non-finite")


def _terminal_chunk(args) -> np.ndarray:
    cases, params, grid, seed, start, stop = args
    out = np.empty((len(cases), stop - start))
    # the exact terminal wealth reads the path only through B_T
    terminal_node = grid.nodes[-1:]
    b_t = sample_terminal(seed, grid.horizon, start, stop)[:, None]
    for lo in range(0, stop - start, _BLOCK_VALUES):
        hi = lo + _BLOCK_VALUES
        for row, (strategy, interp) in zip(out, cases):
            # overflow shows as inf/nan, which estimate_expectations reports
            with np.errstate(over="ignore", invalid="ignore"):
                row[lo:hi] = wealth_at(strategy, params, terminal_node, b_t[lo:hi], interp)[:, 0]
    return out


def _map_chunks(fn, args: tuple, n_paths: int, workers: int) -> list:
    """Run ``fn(args + (start, stop))`` over contiguous index ranges, in index order."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1:
        return [fn(args + (0, n_paths))]
    bounds = np.linspace(0, n_paths, workers + 1, dtype=int)
    jobs = [args + (int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def estimate_expectations(
    cases: Sequence[tuple[Strategy, Interpretation]],
    params: MarketParams,
    n_paths: int,
    grid: TimeGrid,
    seed: int,
    workers: int = 1,
) -> list[MCReport]:
    """Average terminal total wealth over paths 0..n_paths-1, one report per case.

    Each case is a ``(strategy, interpretation)`` pair; every case is
    evaluated on each sampled block, so the paths are drawn once for all of
    them. Each sample is the per-path closed-form solution (testing the
    expectation formulas) on B_T drawn directly, so ``grid`` sets only the
    horizon and ``grid.steps`` does not change the estimate. Path indices
    are split into contiguous chunks per worker and re-assembled in order,
    so the estimates do not depend on ``workers``. Every report carries the
    wall time of the whole shared run.
    """
    if n_paths < 100:
        raise ValueError(f"need at least 100 paths, got {n_paths}")
    cases = tuple(cases)
    start = time.perf_counter()
    values = np.concatenate(
        _map_chunks(_terminal_chunk, (cases, params, grid, seed), n_paths, workers), axis=1
    )
    for row in values:
        bad = int(np.count_nonzero(~np.isfinite(row)))
        if bad:
            raise NumericalError(f"{bad} of {n_paths} terminal samples are non-finite")
    with np.errstate(over="ignore"):
        moments = [
            (float(np.mean(row)), float(np.std(row, ddof=1) / math.sqrt(n_paths)))
            for row in values
        ]
    # finite samples can still sum past the float range
    _check_finite(_non_finite(np.array(moments)), "estimate and stderr")
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
        )
        for estimate, stderr in moments
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


def _convergence_chunk(args) -> np.ndarray:
    """Absolute terminal errors of paths start..stop-1, shaped (path, scheme, level)."""
    c, stacks, targets, params, n_list, seed, start, stop = args
    n_max = n_list[-1]
    fine_grid = TimeGrid(params.horizon, n_max)
    grids = [TimeGrid(params.horizon, n) for n in n_list]
    errors = np.empty((stop - start, len(stacks), len(n_list)))
    for lo, hi in _blocks(fine_grid, start, stop):
        w = sample_block(fine_grid, seed, lo, hi)
        b_t = w[:, -1:]
        exact = {}
        for target in dict.fromkeys(targets):
            with np.errstate(over="ignore", invalid="ignore"):
                (exact[target],) = exact_wealths([c], params, fine_grid.nodes[-1:], b_t, target)
            _check_finite(_non_finite(exact[target]), "exact wealth")
        with np.errstate(over="ignore", invalid="ignore"):
            # every level of the block shares B_T, so the start values too
            starts = scheme_starts(stacks, b_t)
        approx = np.empty((hi - lo, len(stacks), len(n_list)))
        bad = np.zeros((len(stacks), len(n_list)), dtype=int)
        for j, g in enumerate(grids):
            with np.errstate(over="ignore", invalid="ignore"):
                wealths = scheme_wealths(params, g, w[:, :: n_max // g.steps], starts)
            for i, samples in enumerate(wealths):
                bad[i, j] = _non_finite(samples)
                approx[:, i, j] = samples[:, -1]
        # the first failure in (scheme, level) order, as when each scheme ran its own ladder
        for count in bad.flat:
            _check_finite(int(count), "scheme wealth")
        for i, target in enumerate(targets):
            errors[lo - start : hi - start, i] = np.abs(approx[:, i] - exact[target])
    return errors


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
    # first_flip reads O(rows) states, so chunks are sized by terminal values alone
    for lo in range(0, stop - start, _BLOCK_VALUES):
        chunk = b_t[lo : lo + _BLOCK_VALUES]
        flipped, times = first_flip(c, params, nodes, chunk, Interpretation.AYED_KUO)
        flip_times.append(times[flipped])
        rv_flipped, _ = first_flip(c, params, nodes, chunk, Interpretation.FORWARD)
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
    """Absolute residuals of paths start..stop-1, shaped (group, level, path)."""
    params, n_list, seed, start, stop = args
    groups = _conjecture_groups(params)
    functionals = list(groups.values())
    n_max = n_list[-1]
    fine_grid = TimeGrid(params.horizon, n_max)
    grids = [TimeGrid(params.horizon, n) for n in n_list]
    residuals = np.empty((len(groups), len(n_list), stop - start))
    for lo, hi in _blocks(fine_grid, start, stop):
        w = sample_block(fine_grid, seed, lo, hi)
        for j, g in enumerate(grids):
            with np.errstate(over="ignore", invalid="ignore"):
                values = ak_residuals(functionals, params, g, w[:, :: n_max // g.steps])
            for name, group, out in zip(groups, values, residuals):
                _check_finite(_non_finite(group), f"{name} residual")
                out[j, lo - start : hi - start] = np.abs(group)
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
