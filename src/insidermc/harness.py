"""Monte Carlo engine: expectation estimates, scheme convergence, flip probing, residual evidence.

Sampling is partitioned by path index, and every path is a pure function of
(seed, path_index, grid), so estimates are identical for any worker count.
Every estimate is evaluated over blocks of contiguous path indices with array
kernels on a trailing node axis; the grid ladders read each coarser level as
a strided view of the block's finest paths.
"""
from __future__ import annotations

import math
import time
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
from .paths import TimeGrid, sample_block

DEFAULT_PATHS = 100_000
DEFAULT_STEPS = 1024
DEFAULT_SEED = 20240101

_QUANTILES = (0.10, 0.25, 0.50, 0.75, 0.90)

# Path values per sampled block (256 KiB of float64): large enough to amortize
# the per-call overhead, small enough to stay in cache and add no memory peak.
_BLOCK_VALUES = 1 << 15


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
    nonfinite: int = 0

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
            "nonfinite": self.nonfinite,
        }


def _blocks(grid: TimeGrid, start: int, stop: int):
    """Contiguous index ranges of at most ``_BLOCK_VALUES`` path values each."""
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
    strategy, params, interp, grid, seed, use_exact, start, stop = args
    out = np.empty(stop - start)
    terminal_node = grid.nodes[-1:]
    c = stock_functional(strategy, params)
    bond_growth = math.exp(params.rho * params.horizon)
    for lo, hi in _blocks(grid, start, stop):
        w = sample_block(grid, seed, lo, hi)
        if use_exact:
            # overflow shows as inf/nan, which estimate_expectation reports
            with np.errstate(over="ignore", invalid="ignore"):
                terminal = wealth_at(strategy, params, terminal_node, w[:, -1:], interp)[:, 0]
        else:
            stock = _scheme_wealth(c, params, grid, w, interp)[:, -1]
            _, bond0 = initial_allocation(strategy, params, w[:, -1])
            terminal = stock + bond0 * bond_growth
        out[lo - start : hi - start] = terminal
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
    """Average terminal total wealth over paths 0..n_paths-1.

    ``use_exact`` evaluates the per-path closed-form solution (testing the
    expectation formulas); otherwise the discrete scheme runs (testing the
    scheme). Path indices are split into contiguous chunks per worker and
    re-assembled in order, so the estimate does not depend on ``workers``.
    """
    if n_paths < 100:
        raise ValueError(f"need at least 100 paths, got {n_paths}")
    start = time.perf_counter()
    values = np.concatenate(
        _map_chunks(
            _terminal_chunk,
            (strategy, params, interp, grid, seed, use_exact),
            n_paths,
            workers,
        )
    )
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise NumericalError(f"{bad} of {n_paths} terminal samples are non-finite")
    estimate = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(n_paths))
    elapsed = time.perf_counter() - start
    return MCReport(
        estimate=estimate,
        stderr=stderr,
        ci_low=estimate - 1.96 * stderr,
        ci_high=estimate + 1.96 * stderr,
        n_paths=n_paths,
        grid_steps=grid.steps,
        seed=seed,
        elapsed_seconds=elapsed,
    )


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


def convergence_study(
    strategy: Strategy,
    params: MarketParams,
    interp: Interpretation,
    n_list: tuple[int, ...],
    n_paths: int,
    seed: int,
) -> ConvergenceTable:
    """Scheme-vs-exact terminal error over a ladder of grid sizes.

    Coarser grids are restrictions of one fine path per sample, so every
    level sees the same Brownian motion and the same exact reference value,
    which depends on B_T alone.
    """
    _check_step_ladder(n_list, minimum=3)
    c = stock_functional(strategy, params)
    exact_interp = (
        Interpretation.HITSUDA_SKOROKHOD
        if interp is Interpretation.HITSUDA_SKOROKHOD
        else Interpretation.FORWARD
    )
    n_max = n_list[-1]
    fine_grid = TimeGrid(params.horizon, n_max)
    grids = [TimeGrid(params.horizon, n) for n in n_list]
    totals = np.zeros(len(n_list))
    for lo, hi in _blocks(fine_grid, 0, n_paths):
        w = sample_block(fine_grid, seed, lo, hi)
        with np.errstate(over="ignore", invalid="ignore"):
            exact = exact_wealth(c, params, fine_grid.nodes[-1:], w[:, -1:], exact_interp)
        _check_finite(exact, "exact wealth")
        approx = np.column_stack([
            _scheme_wealth(c, params, g, w[:, :: n_max // g.steps], interp)[:, -1]
            for g in grids
        ])
        # row by row in index order: the sequential sum, not numpy's pairwise one
        for row in np.abs(approx - exact):
            totals += row
    errors = totals / n_paths
    slope = _fit_decay(np.asarray(n_list, dtype=float), errors, drop_first=True)
    rows = tuple((n, float(err)) for n, err in zip(n_list, errors))
    return ConvergenceTable(
        rows=rows, slope=slope, interpretation=interp, n_paths=n_paths, seed=seed
    )


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
    flip_times = []
    rv_flips = 0
    for lo, hi in _blocks(grid, start, stop):
        b_t = sample_block(grid, seed, lo, hi)[:, -1:]
        flipped, times = first_flip(c, params, nodes, b_t, Interpretation.AYED_KUO)
        flip_times.append(times[flipped])
        rv_flipped, _ = first_flip(c, params, nodes, b_t, Interpretation.FORWARD)
        rv_flips += int(np.count_nonzero(rv_flipped))
    return np.concatenate(flip_times), rv_flips


def discontinuity_probe(
    params: MarketParams, n_paths: int, grid: TimeGrid, seed: int, workers: int = 1
) -> JumpReport:
    """Count on/off flips of the indicator solution across sampled paths.

    The anticipating solution flips exactly when B_T lands in the window
    (z, z + sigma T]; the forward solution keeps its time-0 state, so its
    flip count must be zero on every path. Workers take contiguous index
    ranges, so the report does not depend on ``workers``.
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
            for name, c in groups.items():
                with np.errstate(over="ignore", invalid="ignore"):
                    values = ak_residuals(c, params, g, coarse)
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
