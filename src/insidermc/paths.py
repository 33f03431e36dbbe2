"""Reproducible Brownian samples from counter-based Philox streams.

Two streams are keyed here, and only here; both make every sample a pure
function of the seed and the path index, so any worker layout reproduces
the same numbers bit for bit.

* Whole paths (``sample_block``): path ``i`` on a grid is a pure function of
  ``(seed, i, grid)``; the pair ``(seed, i)`` keys its own Philox stream, so
  distinct indices give independent paths. One path is a one-row block, and
  ``generate_path`` returns that row; a coarser grid level of a block is the
  strided view ``values[..., ::factor]``, which shares B_T with the fine path.
* Terminal values (``sample_terminal``): B_T of path ``i`` is element
  ``i mod _BLOCK_VALUES`` of the standard normals drawn from the Philox key
  ``(seed, i // _BLOCK_VALUES)``, times sqrt(T). It does not depend on any
  grid. Estimators that read only B_T use it.

The two streams share one key space (terminal key block ``k`` is whole-path
key ``k``), so no estimator mixes them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_UINT64 = (1 << 64) - 1

# Normals per key block of the terminal stream; the harness also evaluates at
# most this many path values at once.
_BLOCK_VALUES = 1 << 15


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = i * horizon / steps on [0, horizon]."""

    horizon: float
    steps: int

    def __post_init__(self) -> None:
        if not (isinstance(self.horizon, (int, float)) and math.isfinite(self.horizon)):
            raise ValueError(f"horizon must be finite, got {self.horizon!r}")
        if self.horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @cached_property
    def nodes(self) -> np.ndarray:
        # cached per instance (grids are immutable and shared across paths);
        # frozen out so a stray caller cannot corrupt the shared array
        nodes = np.linspace(0.0, self.horizon, self.steps + 1)
        nodes.setflags(write=False)
        return nodes

    def index_of(self, t: float) -> int:
        """Node index of t. Rejects times that do not sit on a grid node."""
        i = int(round(t / self.dt))
        if not 0 <= i <= self.steps or not math.isclose(
            i * self.dt, t, rel_tol=1e-9, abs_tol=1e-12 * self.horizon
        ):
            raise ValueError(f"t={t} is not a node of grid(horizon={self.horizon}, steps={self.steps})")
        return i


def check_seed(seed: int) -> None:
    """Reject seeds that do not fit the unsigned 64-bit Philox key word."""
    if not 0 <= seed <= _UINT64:
        raise ValueError(f"seed must be in [0, 2**64 - 1], got {seed}")


def _check_range(seed: int, start: int, stop: int) -> None:
    check_seed(seed)
    if not 0 <= start <= stop <= _UINT64 + 1:
        raise ValueError(f"path indices must satisfy 0 <= start <= stop, got [{start}, {stop})")


def sample_terminal(seed: int, horizon: float, start: int, stop: int) -> np.ndarray:
    """B_T ~ N(0, horizon) of paths start..stop-1, drawn directly.

    Path index ``i`` reads element ``i mod _BLOCK_VALUES`` of
    ``standard_normal`` from the Philox key ``(seed, i // _BLOCK_VALUES)``.
    A range that starts inside a key block draws that block's prefix and
    drops it, so every worker layout reads the same values; the rest is
    drawn straight into the output.
    """
    _check_range(seed, start, stop)
    out = np.empty(stop - start)
    lo = start
    while lo < stop:
        block, offset = divmod(lo, _BLOCK_VALUES)
        hi = min(stop, (block + 1) * _BLOCK_VALUES)
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, block], dtype=np.uint64)))
        rng.standard_normal(offset)  # the prefix before path lo, dropped
        rng.standard_normal(out=out[lo - start : hi - start])
        lo = hi
    out *= math.sqrt(horizon)
    return out


def sample_block(
    grid: TimeGrid, seed: int, start: int, stop: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Brownian values of paths start..stop-1, one row per path index.

    Row k is path ``start + k``, bit for bit the same in any range that holds it.
    One Philox generator serves the whole block: each further row resets its
    key to ``(seed, index)``, its counter and its buffer, which restarts the
    stream exactly as a fresh generator would. The running sum is a
    sequential accumulation along each row (``np.sum`` would sum pairwise),
    so B_T matches the one-row case bit for bit. ``out``, of shape
    ``(stop - start, steps + 1)`` with C-contiguous rows, receives the values
    and is returned; whatever it held is overwritten.
    """
    _check_range(seed, start, stop)
    shape = (stop - start, grid.steps + 1)
    values = np.empty(shape) if out is None else out
    if values.shape != shape:
        raise ValueError(f"out must have shape {shape}, got {values.shape}")
    values[:, 0] = 0.0
    if stop == start:
        return values
    bit_generator = np.random.Philox(key=np.array([seed, start], dtype=np.uint64))
    rng = np.random.Generator(bit_generator)
    rng.standard_normal(out=values[0, 1:])
    if stop - start > 1:
        state = bit_generator.state
        key, counter = state["state"]["key"], state["state"]["counter"]
        for k in range(1, stop - start):
            key[1] = start + k
            counter[:] = 0
            state.update(buffer_pos=4, has_uint32=0, uinteger=0)
            bit_generator.state = state
            rng.standard_normal(out=values[k, 1:])
    increments = values[:, 1:]
    increments *= math.sqrt(grid.dt)
    np.add.accumulate(increments, axis=1, out=increments)
    return values


def generate_path(grid: TimeGrid, seed: int, path_index: int = 0) -> np.ndarray:
    """The Brownian values of one path on ``grid``: the one-row block of ``path_index``."""
    return sample_block(grid, seed, path_index, path_index + 1)[0]
