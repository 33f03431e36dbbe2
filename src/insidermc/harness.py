"""Monte Carlo engine: expectation estimates, scheme convergence, flip probing, residual evidence.

Sampling is partitioned by path index, and every sample is a pure function
of the seed and the path index, so estimates are identical for any worker
count. Each estimator draws only what it reads: the exact mode of
``estimate_expectations`` and ``discontinuity_probe`` read B_T alone and
draw it directly (``sample_terminal``); the scheme mode and the grid ladders
need whole paths (``sample_block``), and read each coarser level as a strided
view of a block's finest paths. Every estimate is evaluated over blocks of
contiguous path indices with array kernels on a trailing node axis, and each
block is drawn once for all the estimators that read it:
``estimate_expectations`` evaluates several ``(strategy, interpretation)``
cases and ``convergence_studies`` several schemes on the same draw;
``estimate_expectation`` and ``convergence_study`` are their one-case calls.
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
    exact_wealth,
    first_flip,
    growth_factor,
    scheme_wealth,
)
from .market import (
    FullInformation,
    MarketParams,
    PartialTrust,
    Strategy,
    initial_allocation,
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

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "stderr": self.stderr,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "n_paths": self.n_paths,
            "grid_steps": self.grid_steps,
            "seed": self.seed,
            "elapsed_seconds": self.elapsed_seconds,
        }


def _blocks(grid: TimeGrid, start: int, stop: int):
    """Contiguous index ranges of at most ``_BLOCK_VALUES`` path values each.

    ``_BLOCK_VALUES`` (256 KiB of float64) is large enough to amortize the
    per-call overhead and small enough to stay in cache and add no memory peak.
    """
    rows = max(1, _BLOCK_VALUES // (grid.steps + 1))
    for lo in range(start, stop, rows):
        yield lo, min(lo + rows, stop)


def _check_finite(values: np.ndarray, what: str) -> None:
    finite = np.isfinite(values)
    if not finite.all():
        bad = finite.size - np.count_nonzero(finite)
        raise NumericalError(f"{bad} {what} values are non-finite")


def _scheme_wealth(
    c: TerminalFunctional,
    params: MarketParams,
    grid: TimeGrid,
    w: np.ndarray,
    interp: Interpretation,
) -> np.ndarray:
    """``scheme_wealth`` of a block of paths; every node must stay finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        samples = scheme_wealth(c, params, grid, w, interp)
    _check_finite(samples, "scheme wealth")
    return samples


def _terminal_chunk(args) -> np.ndarray:
    cases, params, grid, seed, use_exact, start, stop = args
    out = np.empty((len(cases), stop - start))
    if use_exact:
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
    functionals = [stock_functional(strategy, params) for strategy, _ in cases]
    bond_growth = math.exp(params.rho * params.horizon)
    for lo, hi in _blocks(grid, start, stop):
        w = sample_block(grid, seed, lo, hi)
        for row, (strategy, interp), c in zip(out, cases, functionals):
            stock = _scheme_wealth(c, params, grid, w, interp)[:, -1]
            _, bond0 = initial_allocation(strategy, params, w[:, -1])
            row[lo - start : hi - start] = stock + bond0 * bond_growth
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
    use_exact: bool = True,
    workers: int = 1,
) -> list[MCReport]:
    """Average terminal total wealth over paths 0..n_paths-1, one report per case.

    Each case is a ``(strategy, interpretation)`` pair; every case is
    evaluated on each sampled block, so the paths are drawn once for all of
    them. ``use_exact`` evaluates the per-path closed-form solution (testing
    the expectation formulas) on B_T drawn directly, so ``grid`` sets only
    the horizon and ``grid.steps`` does not change the estimate; otherwise
    the discrete scheme runs on whole paths (testing the scheme). Path
    indices are split into contiguous chunks per worker and re-assembled in
    order, so the estimates do not depend on ``workers``. Every report
    carries the wall time of the whole shared run.
    """
    if n_paths < 100:
        raise ValueError(f"need at least 100 paths, got {n_paths}")
    cases = tuple(cases)
    start = time.perf_counter()
    values = np.concatenate(
        _map_chunks(
            _terminal_chunk, (cases, params, grid, seed, use_exact), n_paths, workers
        ),
        axis=1,
    )
    for row in values:
        bad = int(np.count_nonzero(~np.isfinite(row)))
        if bad:
            raise NumericalError(f"{bad} of {n_paths} terminal samples are non-finite")
    moments = [
        (float(np.mean(row)), float(np.std(row, ddof=1) / math.sqrt(n_paths))) for row in values
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
        )
        for estimate, stderr in moments
    ]


def estimate_expectation(
    strategy: Strategy,
    params: MarketParams,
    interp: Interpretation,
    n_paths: int,
    grid: TimeGrid,
    seed: int,
    use_exact: bool = True,
    workers: int = 1,
) -> MCReport:
    """The one-case call of ``estimate_expectations``."""
    return estimate_expectations(
        [(strategy, interp)], params, n_paths, grid, seed, use_exact, workers
    )[0]


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

    def csv_rows(self) -> list[tuple[str, str, str]]:
        return [(str(n), repr(err), repr(self.slope)) for n, err in self.rows]


def convergence_studies(
    strategy: Strategy,
    params: MarketParams,
    interps: Sequence[Interpretation],
    n_list: tuple[int, ...],
    n_paths: int,
    seed: int,
) -> list[ConvergenceTable]:
    """Scheme-vs-exact terminal error over a ladder of grid sizes, one table per scheme.

    Coarser grids are restrictions of one fine path per sample, so every
    level and every scheme sees the same Brownian motion and the same exact
    reference value, which depends on B_T alone; the fine paths are drawn
    once for all interpretations.
    """
    _check_step_ladder(n_list, minimum=3)
    if n_paths < 1:
        raise ValueError(f"need at least 1 path, got {n_paths}")
    interps = tuple(interps)
    c = stock_functional(strategy, params)
    # the solution each scheme approximates
    targets = [
        Interpretation.HITSUDA_SKOROKHOD
        if interp is Interpretation.HITSUDA_SKOROKHOD
        else Interpretation.FORWARD
        for interp in interps
    ]
    n_max = n_list[-1]
    fine_grid = TimeGrid(params.horizon, n_max)
    grids = [TimeGrid(params.horizon, n) for n in n_list]
    totals = np.zeros((len(targets), len(n_list)))
    for lo, hi in _blocks(fine_grid, 0, n_paths):
        w = sample_block(fine_grid, seed, lo, hi)
        exact = {}
        for target in dict.fromkeys(targets):
            with np.errstate(over="ignore", invalid="ignore"):
                exact[target] = exact_wealth(c, params, fine_grid.nodes[-1:], w[:, -1:], target)
            _check_finite(exact[target], "exact wealth")
        for total, interp, target in zip(totals, interps, targets):
            approx = np.column_stack([
                _scheme_wealth(c, params, g, w[:, :: n_max // g.steps], interp)[:, -1]
                for g in grids
            ])
            # row by row in index order: the sequential sum, not numpy's pairwise one
            for row in np.abs(approx - exact[target]):
                total += row
    tables = []
    for interp, total in zip(interps, totals):
        errors = total / n_paths
        slope = _fit_decay(np.asarray(n_list, dtype=float), errors, drop_first=True)
        rows = tuple((n, float(err)) for n, err in zip(n_list, errors))
        tables.append(ConvergenceTable(
            rows=rows, slope=slope, interpretation=interp, n_paths=n_paths, seed=seed
        ))
    return tables


def convergence_study(
    strategy: Strategy,
    params: MarketParams,
    interp: Interpretation,
    n_list: tuple[int, ...],
    n_paths: int,
    seed: int,
) -> ConvergenceTable:
    """The one-scheme call of ``convergence_studies``."""
    return convergence_studies(strategy, params, (interp,), n_list, n_paths, seed)[0]


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
    def within_tolerance(self) -> bool:
        if self.stderr == 0.0:
            return bool(self.frequency == self.closed_form)
        return bool(abs(self.frequency - self.closed_form) <= 4.0 * self.stderr)

    def to_dict(self) -> dict:
        return {
            "frequency": self.frequency,
            "stderr": self.stderr,
            "closed_form": self.closed_form,
            "n_flips": self.n_flips,
            "n_paths": self.n_paths,
            "grid_steps": self.grid_steps,
            "seed": self.seed,
            "mean_flip_time": self.mean_flip_time,
            "rv_flips": self.rv_flips,
            "within_tolerance": self.within_tolerance,
        }


def _flip_chunk(args) -> tuple[np.ndarray, int]:
    params, grid, seed, start, stop = args
    c = stock_functional(FullInformation(), params)
    nodes = grid.nodes
    b_t = sample_terminal(seed, grid.horizon, start, stop)[:, None]
    flip_times = []
    rv_flips = 0
    # at most _BLOCK_VALUES node states at once
    for lo, hi in _blocks(grid, 0, stop - start):
        flipped, times = first_flip(c, params, nodes, b_t[lo:hi], Interpretation.AYED_KUO)
        flip_times.append(times[flipped])
        rv_flipped, _ = first_flip(c, params, nodes, b_t[lo:hi], Interpretation.FORWARD)
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

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "candidate_verdict": self.candidate_verdict,
            "control_verdict": self.control_verdict,
            "n_paths": self.n_paths,
            "seed": self.seed,
            "rows": [vars(r) for r in self.rows],
        }


def _trend_verdict(n_list: tuple[int, ...], medians: np.ndarray) -> str:
    decay = _fit_decay(np.asarray(n_list, dtype=float), np.maximum(medians, 1e-300), False)
    if decay >= 0.25:
        return "shrinking"
    if decay <= 0.05:
        return "not-shrinking"
    return "inconclusive"


def conjecture_report(
    params: MarketParams, n_paths: int, n_list: tuple[int, ...], seed: int
) -> ConjectureReport:
    """Integral-form residuals of the translated-indicator candidate across grids.

    Runs the affine partial-trust functional through the same pipeline as a
    control group with a known solution.
    """
    if n_paths < 100:
        raise ValueError(f"need at least 100 paths, got {n_paths}")
    _check_step_ladder(n_list, minimum=2)
    groups = {
        "indicator-candidate": stock_functional(FullInformation(), params),
        "affine-control": stock_functional(PartialTrust(), params),
    }
    n_max = n_list[-1]
    fine_grid = TimeGrid(params.horizon, n_max)
    grids = [TimeGrid(params.horizon, n) for n in n_list]
    residuals = {
        name: np.empty((len(n_list), n_paths)) for name in groups
    }
    for lo, hi in _blocks(fine_grid, 0, n_paths):
        w = sample_block(fine_grid, seed, lo, hi)
        for j, g in enumerate(grids):
            coarse = w[:, :: n_max // g.steps]
            with np.errstate(over="ignore", invalid="ignore"):
                # E(t) on this level, shared by both groups
                growth = growth_factor(params, g.nodes, coarse)
                for name, c in groups.items():
                    values = ak_residuals(c, params, g, coarse, growth=growth)
                    _check_finite(values, f"{name} residual")
                    residuals[name][j, lo:hi] = np.abs(values)
    rows = []
    verdicts = {}
    for name in groups:
        block = residuals[name]
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
