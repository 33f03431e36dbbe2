"""The block-wise Monte Carlo engine against the per-path code it replaced.

The reference loops below draw one path at a time with ``generate_path`` and
evaluate it with the per-path ``total_wealth`` and ``detect_indicator_flip``;
the block engine must reproduce them bit for bit, for any worker count.
"""
import math

import numpy as np
import pytest

from insidermc import (
    FullInformation,
    Honest,
    Interpretation,
    MarketParams,
    PartialTrust,
    TimeGrid,
    detect_indicator_flip,
    discontinuity_probe,
    estimate_expectation,
    generate_path,
    stock_functional,
    total_wealth,
)
from insidermc.harness import _BLOCK_VALUES, _blocks
from insidermc.paths import sample_block

BASELINE = MarketParams(wealth=1.0, rho=0.02, mu=0.05, sigma=0.2, horizon=1.0)
WIDE = MarketParams(wealth=1.0, rho=0.02, mu=0.05, sigma=1.0, horizon=2.0)  # ~23 % flip
AK = Interpretation.AYED_KUO
RV = Interpretation.FORWARD

CASES = (
    ("honest", Honest(0.0, 1.0), Interpretation.ITO),
    ("hs", PartialTrust(), Interpretation.HITSUDA_SKOROKHOD),
    ("ak", PartialTrust(), AK),
    ("rv", PartialTrust(), RV),
)


def _reference_expectation(strategy, params, interp, n_paths, grid, seed):
    values = np.array([
        total_wealth(strategy, params, generate_path(grid, seed, idx), interp).terminal
        for idx in range(n_paths)
    ])
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(n_paths))


def _reference_probe(params, n_paths, grid, seed):
    c = stock_functional(FullInformation(), params)
    flip_times = []
    rv_flips = 0
    for idx in range(n_paths):
        path = generate_path(grid, seed, idx)
        flipped, t_est = detect_indicator_flip(c, params, path, AK)
        if flipped:
            flip_times.append(t_est)
        rv_flips += int(detect_indicator_flip(c, params, path, RV)[0])
    mean_time = float(np.mean(flip_times)) if flip_times else None
    return len(flip_times), mean_time, rv_flips


@pytest.mark.parametrize("steps", [8, 64, 1024])
def test_block_rows_equal_generate_path(steps):
    grid = TimeGrid(1.3, steps)
    rows = _BLOCK_VALUES // (steps + 1)
    start, stop = 5, 5 + rows + 3  # more rows than one harness block
    block = sample_block(grid, 17, start, stop)
    assert block.shape == (stop - start, steps + 1)
    reference = np.stack([generate_path(grid, 17, idx).values for idx in range(start, stop)])
    assert np.array_equal(block, reference)
    spans = list(_blocks(grid, start, stop))
    assert len(spans) == 2
    pieces = np.concatenate([sample_block(grid, 17, lo, hi) for lo, hi in spans])
    assert np.array_equal(pieces, block)


def test_sample_block_rejects_bad_ranges_and_seeds():
    grid = TimeGrid(1.0, 4)
    assert sample_block(grid, 1, 3, 3).shape == (0, 5)
    for start, stop in ((-1, 2), (4, 3)):
        with pytest.raises(ValueError):
            sample_block(grid, 1, start, stop)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            sample_block(grid, seed, 0, 2)
        with pytest.raises(ValueError):
            generate_path(grid, seed, 0)
    top = sample_block(grid, 2**64 - 1, 0, 1)
    assert np.array_equal(top[0], generate_path(grid, 2**64 - 1, 0).values)


@pytest.mark.parametrize("seed", [3, 20240101])
@pytest.mark.parametrize("steps,n_paths", [(64, 1200), (1024, 100)])
def test_expectation_matches_per_path_reference(seed, steps, n_paths):
    grid = TimeGrid(1.0, steps)
    for _, strategy, interp in CASES:
        report = estimate_expectation(strategy, BASELINE, interp, n_paths, grid, seed)
        estimate, stderr = _reference_expectation(strategy, BASELINE, interp, n_paths, grid, seed)
        assert report.estimate == estimate
        assert report.stderr == stderr


@pytest.mark.parametrize("seed", [3, 20240101])
@pytest.mark.parametrize("params,grid", [(BASELINE, TimeGrid(1.0, 64)), (WIDE, TimeGrid(2.0, 32))])
def test_probe_matches_per_path_reference(seed, params, grid):
    report = discontinuity_probe(params, 2000, grid, seed)
    n_flips, mean_time, rv_flips = _reference_probe(params, 2000, grid, seed)
    assert report.n_flips == n_flips > 0
    assert report.mean_flip_time == mean_time
    assert report.rv_flips == rv_flips == 0


def test_outputs_equal_values_recorded_from_the_per_path_sampler():
    # recorded with the per-path sampler and kernels the block engine replaced;
    # the references above share the new kernels, these pin the stream contract
    path = generate_path(TimeGrid(1.3, 5), 20240101, 3)  # sqrt(dt) is not a power of two
    assert path.values.tolist() == [
        0.0, 0.1804078727956246, 0.8981426719323746, 0.9353200186244972, 1.4544068715473242,
        0.5338411231558293,
    ]
    report = discontinuity_probe(BASELINE, 2000, TimeGrid(1.0, 64), 3)
    assert (report.n_flips, report.mean_flip_time) == (156, 0.4735576923076923)
    recorded = {
        "honest": (1.0502496997272746, 0.005874227852064208),
        "hs": (0.988620493100118, 0.02731352946857363),
        "ak": (0.988620493100118, 0.02731352946857363),
        "rv": (1.6887869595849678, 0.028825586863960116),
    }
    for label, strategy, interp in CASES:
        r = estimate_expectation(strategy, BASELINE, interp, 1200, TimeGrid(1.0, 64), 3)
        assert (r.estimate, r.stderr) == recorded[label]


def test_worker_count_does_not_change_the_bits():
    grid = TimeGrid(1.0, 64)
    for _, strategy, interp in CASES:
        serial = estimate_expectation(strategy, BASELINE, interp, 1500, grid, 8, workers=1)
        parallel = estimate_expectation(strategy, BASELINE, interp, 1500, grid, 8, workers=2)
        assert (serial.estimate, serial.stderr) == (parallel.estimate, parallel.stderr)
    serial = discontinuity_probe(WIDE, 3000, TimeGrid(2.0, 32), 8, workers=1)
    parallel = discontinuity_probe(WIDE, 3000, TimeGrid(2.0, 32), 8, workers=2)
    assert serial == parallel
    with pytest.raises(ValueError):
        discontinuity_probe(WIDE, 3000, TimeGrid(2.0, 32), 8, workers=0)
