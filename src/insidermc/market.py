"""Market model: parameters, trader strategies, and wealth assembly.

``MarketParams`` holds one parameter set, or a block of sets as columns (a
float field applies to every set); ``random_param_sets`` draws a block, and
``threshold`` and ``stock_functional`` read its columns with one-set bits.

Three strategies set the time-0 split of the wealth M between bond and stock:

* ``Honest`` uses a fixed split chosen without terminal knowledge.
* ``PartialTrust`` tilts the split linearly in the terminal Brownian value,
  with equal bond/stock amounts when the two assets would end at par and a
  zero bond leg when the terminal value matches the all-stock average.
* ``FullInformation`` puts everything on whichever asset ends ahead.

The bond compounds at the bond rate rho for every strategy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .functionals import Affine, ArrayLike, Indicator, TerminalFunctional
from .integrators import Interpretation, exact_wealths


@dataclass(frozen=True)
class MarketParams:
    """Model constants: wealth M, rates rho < mu, volatility sigma, horizon T, each a float or,
    for a block of sets, a 1-D float array with one entry per set (``block[i]`` is set i).
    A block supports neither ``==`` nor ``hash``: both treat its columns as scalars."""

    wealth: float
    rho: float
    mu: float
    sigma: float
    horizon: float

    def __post_init__(self) -> None:
        values = vars(self)
        if any(isinstance(value, np.ndarray) for value in values.values()):
            # a block, checked as columns: its first failing set raises as a set of floats
            ok = self.mu > self.rho
            for value in values.values():
                ok = ok & np.isfinite(value) & (value > 0.0)
            if not np.all(ok):
                self[int(np.argmin(ok))]
            return
        for name, value in values.items():
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if value <= 0.0:
                raise ValueError(f"{name} must be positive, got {value}")
        if not self.mu > self.rho:
            raise ValueError(
                f"stock rate must exceed bond rate, got mu={self.mu} <= rho={self.rho}"
            )

    def __len__(self) -> int:
        """The number of sets: 1 for a set of floats."""
        return np.broadcast(*vars(self).values()).size

    def __getitem__(self, i: int) -> "MarketParams":
        """Set ``i`` as a ``MarketParams`` of floats."""
        return MarketParams(*(np.broadcast_to(v, len(self))[i].item() for v in vars(self).values()))


@dataclass(frozen=True)
class Honest:
    """Fixed nonnegative split (bond0, stock0); no terminal information used."""

    bond0: float
    stock0: float


@dataclass(frozen=True)
class PartialTrust:
    """Insider who tilts the initial split linearly in B_T; may borrow."""


@dataclass(frozen=True)
class FullInformation:
    """Insider who bets all wealth on the asset that ends ahead; no borrowing."""


Strategy = Union[Honest, PartialTrust, FullInformation]


def _libm(f: Callable[..., float], x: ArrayLike, *args: float) -> ArrayLike:
    """``f(x, *args)`` for a float or for each value of a column: per-set ``math.exp`` and
    ``pow(x, 2)`` keep libm's bits, which ``np.exp`` and ``x * x`` need not match."""
    if isinstance(x, np.ndarray):
        return np.array([f(v, *args) for v in x.tolist()])
    return f(x, *args)


def _column(x: ArrayLike) -> ArrayLike:
    """A per-set coefficient as a column against the node axis; a float as it is."""
    return x[:, None] if isinstance(x, np.ndarray) else x


def threshold(params: MarketParams) -> ArrayLike:
    """Terminal level z above which the stock beats the bond: (rho - mu + sigma^2/2) T / sigma."""
    return (params.rho - params.mu + 0.5 * _libm(pow, params.sigma, 2)) * params.horizon / params.sigma


def _check_honest(strategy: Honest, params: MarketParams) -> None:
    if strategy.bond0 < 0.0 or strategy.stock0 < 0.0:
        raise ValueError("honest trader cannot hold negative positions")
    total = strategy.bond0 + strategy.stock0
    if not math.isclose(total, params.wealth, rel_tol=1e-9, abs_tol=1e-12):
        raise ValueError(
            f"honest split must sum to total wealth: {strategy.bond0} + {strategy.stock0} != {params.wealth}"
        )


def stock_functional(strategy: Strategy, params: MarketParams) -> TerminalFunctional:
    """Initial stock position as a functional of B_T; a block's insider coefficients are columns."""
    if isinstance(strategy, Honest):
        _check_honest(strategy, params)
        return Affine(strategy.stock0, 0.0)
    if isinstance(strategy, PartialTrust):
        denom = 2.0 * (params.mu - params.rho) * params.horizon
        slope = params.wealth * params.sigma / denom
        intercept = params.wealth - slope * (params.sigma * params.horizon / 2.0)
        return Affine(_column(intercept), _column(slope))
    if isinstance(strategy, FullInformation):
        return Indicator(_column(params.wealth), _column(threshold(params)))
    raise TypeError(f"unknown strategy {strategy!r}")


def initial_allocation(
    strategy: Strategy, params: MarketParams, b_t: ArrayLike
) -> tuple[ArrayLike, ArrayLike]:
    """Time-0 (stock, bond) amounts for a realized terminal value ``b_t``.

    ``b_t`` may be one value or an array of them. The two legs always sum to
    the total wealth; insiders may hold a negative bond leg (borrowing), the
    honest trader may not.
    """
    if isinstance(strategy, Honest):
        _check_honest(strategy, params)
        return strategy.stock0, strategy.bond0
    stock0 = stock_functional(strategy, params).evaluate(b_t)
    return stock0, params.wealth - stock0


def wealth_at(
    strategy: Strategy,
    params: MarketParams,
    nodes: np.ndarray,
    w: np.ndarray,
    interp: Interpretation,
) -> np.ndarray:
    """Exact total wealth at ``nodes`` along the trailing axis of ``w`` (see ``exact_wealths``)."""
    (stock,) = exact_wealths([stock_functional(strategy, params)], params, nodes, w, interp)
    _, bond0 = initial_allocation(strategy, params, w[..., -1:])
    return stock + bond0 * np.exp(params.rho * nodes)


def _sweep_set(u, wealth: float) -> MarketParams:
    """The set, or block, that the uniforms ``u`` of (rho, mu, sigma, horizon) give."""
    rho = 0.001 + (0.199 - 0.001) * u[0]
    low = rho + 1e-3
    mu = low + (0.2 - low) * u[1]
    sigma = 0.01 + (3.0 - 0.01) * u[2]
    horizon = 0.1 + (5.0 - 0.1) * u[3]
    return MarketParams(wealth=wealth, rho=rho, mu=mu, sigma=sigma, horizon=horizon)


def random_param_sets(rng: np.random.Generator, n: int, wealth: float = 1.0) -> MarketParams:
    """Draw ``n`` valid parameter sets, one block, from the benchmark sweep ranges in one call.

    rho, mu in [0.001, 0.2] with mu - rho >= 1e-3 (keeps sigma^2/(4(mu-rho))
    bounded so closed forms and quadrature stay comparable in float64),
    sigma in [0.01, 3], horizon in [0.1, 5]. Row i of one ``rng.random((n, 4))``
    gives set i its (rho, mu, sigma, horizon), each as ``low + (high - low) * u``,
    the formula of ``Generator.uniform``, with mu's range per row; the block's
    wealth is the float ``wealth``. The sets, and the generator's state after
    them, are bit for bit those of one ``rng.uniform(low, high)`` call per
    value, set after set.
    """
    return _sweep_set(rng.random((n, 4)).T, wealth)


def random_params(rng: np.random.Generator, wealth: float = 1.0) -> MarketParams:
    """Draw one valid parameter set from the benchmark sweep ranges: the one-set
    case of ``random_param_sets``, which gives the ranges, in floats."""
    return _sweep_set(rng.random(4).tolist(), wealth)
