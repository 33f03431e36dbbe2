import math

import numpy as np
import pytest
from scipy import stats

from insidermc import TimeGrid, generate_path
from insidermc.paths import sample_block


def test_grid_nodes_uniform_and_anchored():
    grid = TimeGrid(2.5, 7)
    nodes = grid.nodes
    assert nodes[0] == 0.0
    assert nodes[-1] == 2.5
    assert np.all(np.diff(nodes) > 0)
    assert np.allclose(np.diff(nodes), grid.dt, rtol=1e-13, atol=0.0)


def test_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    with pytest.raises(ValueError):
        TimeGrid(float("nan"), 4)
    with pytest.raises(ValueError):
        TimeGrid(float("inf"), 4)
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 4)


def test_index_of_rejects_off_grid_times():
    grid = TimeGrid(1.0, 8)
    assert grid.index_of(0.375) == 3
    with pytest.raises(ValueError):
        grid.index_of(0.3)
    with pytest.raises(ValueError):
        grid.index_of(1.2)


def test_single_step_path_is_standard_normal():
    grid = TimeGrid(1.0, 1)
    vals = sample_block(grid, 99, 0, 4000)[:, -1]
    assert vals.shape == (4000,)
    assert abs(vals.mean()) < 4.0 / math.sqrt(4000)
    assert abs(vals.var(ddof=1) - 1.0) < 0.1


def test_terminal_moments_follow_the_law_of_large_numbers():
    horizon, n_paths = 2.0, 100_000
    grid = TimeGrid(horizon, 4)
    vals = sample_block(grid, 31, 0, n_paths)[:, -1]
    assert abs(vals.mean()) < 4.0 * math.sqrt(horizon / n_paths)
    assert abs(vals.var(ddof=1) - horizon) < 0.05 * horizon


def test_path_starts_at_zero_and_is_reproducible():
    grid = TimeGrid(1.0, 64)
    a = generate_path(grid, 42, 7)
    b = generate_path(grid, 42, 7)
    assert a[0] == 0.0
    assert np.array_equal(a, b)
    c = generate_path(grid, 42, 8)
    assert not np.array_equal(a, c)
    d = generate_path(grid, 43, 7)
    assert not np.array_equal(a, d)


def test_negative_path_index_rejected():
    with pytest.raises(ValueError):
        generate_path(TimeGrid(1.0, 4), 1, -1)


def test_increment_normality_kolmogorov_smirnov():
    # fixed node, many paths: increments must look N(0, sqrt(dt))
    grid = TimeGrid(1.0, 8)
    n_paths = 10_000
    w = sample_block(grid, 5150, 0, n_paths)
    incs = w[:, 4] - w[:, 3]
    p = stats.kstest(incs, "norm", args=(0.0, math.sqrt(grid.dt))).pvalue
    assert p > 0.01


def test_shifted_terminal_feeds_the_translated_initial_condition():
    # evaluating data at the terminal value shifted by the Girsanov drift
    # sigma * t is the same as evaluating the translated data at the original
    # terminal: the two routes to the anticipating solution factor agree
    from insidermc import Indicator

    sigma = 0.25
    b_t = float(generate_path(TimeGrid(1.0, 8), 21, 3)[-1])
    c = Indicator(2.0, -0.05)
    for t in (0.125, 0.5, 1.0):
        assert c.evaluate(b_t - sigma * t) == c.translate(sigma * t).evaluate(b_t)


def test_sample_block_into_a_dirty_buffer_equals_a_fresh_draw():
    grid = TimeGrid(1.3, 64)
    fresh = sample_block(grid, 17, 5, 12)
    buffer = np.full((7, 65), np.nan)
    assert sample_block(grid, 17, 5, 12, out=buffer) is buffer
    assert np.array_equal(buffer, fresh)
    # a leading slice of a larger buffer, as a ladder's last block uses it
    larger = np.full((9, 65), np.nan)
    assert np.array_equal(sample_block(grid, 17, 8, 12, out=larger[:4]), fresh[3:])
    with pytest.raises(ValueError, match="out must have shape"):
        sample_block(grid, 17, 5, 12, out=larger)
