"""Market model: parameters, trader strategies, and wealth assembly.

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
from typing import Union

import numpy as np

from .functionals import Affine, ArrayLike, Indicator, TerminalFunctional
from .integrators import Interpretation, exact_wealths


@dataclass(frozen=True)
class MarketParams:
    """Model constants: wealth M, rates rho < mu, volatility sigma, horizon T."""

    wealth: float
    rho: float
    mu: float
    sigma: float
    horizon: float

    def __post_init__(self) -> None:
        for name in ("wealth", "rho", "mu", "sigma", "horizon"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if value <= 0.0:
                raise ValueError(f"{name} must be positive, got {value}")
        if not self.mu > self.rho:
            raise ValueError(
                f"stock rate must exceed bond rate, got mu={self.mu} <= rho={self.rho}"
            )


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


def threshold(params: MarketParams) -> float:
    """Terminal level z above which the stock beats the bond: (rho - mu + sigma^2/2) T / sigma."""
    return (params.rho - params.mu + 0.5 * params.sigma**2) * params.horizon / params.sigma


def _check_honest(strategy: Honest, params: MarketParams) -> None:
    if strategy.bond0 < 0.0 or strategy.stock0 < 0.0:
        raise ValueError("honest trader cannot hold negative positions")
    total = strategy.bond0 + strategy.stock0
    if not math.isclose(total, params.wealth, rel_tol=1e-9, abs_tol=1e-12):
        raise ValueError(
            f"honest split must sum to total wealth: {strategy.bond0} + {strategy.stock0} != {params.wealth}"
        )


def stock_functional(strategy: Strategy, params: MarketParams) -> TerminalFunctional:
    """Initial stock position as a functional of the terminal value B_T."""
    if isinstance(strategy, Honest):
        _check_honest(strategy, params)
        return Affine(strategy.stock0, 0.0)
    if isinstance(strategy, PartialTrust):
        denom = 2.0 * (params.mu - params.rho) * params.horizon
        slope = params.wealth * params.sigma / denom
        intercept = params.wealth - slope * (params.sigma * params.horizon / 2.0)
        return Affine(intercept, slope)
    if isinstance(strategy, FullInformation):
        return Indicator(params.wealth, threshold(params))
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


def random_param_sets(
    rng: np.random.Generator, n: int, wealth: float = 1.0
) -> list[MarketParams]:
    """Draw ``n`` valid parameter sets from the benchmark sweep ranges in one generator call.

    rho, mu in [0.001, 0.2] with mu - rho >= 1e-3 (keeps sigma^2/(4(mu-rho))
    bounded so closed forms and quadrature stay comparable in float64),
    sigma in [0.01, 3], horizon in [0.1, 5]. Row i of one ``rng.random((n, 4))``
    gives set i its (rho, mu, sigma, horizon), each as ``low + (high - low) * u``,
    the formula of ``Generator.uniform``, with mu's range per row. The sets, and
    the generator's state after them, are bit for bit those of one
    ``rng.uniform(low, high)`` call per value, set after set.
    """
    u = rng.random((n, 4))
    rho = 0.001 + (0.199 - 0.001) * u[:, 0]
    low = rho + 1e-3
    mu = low + (0.2 - low) * u[:, 1]
    sigma = 0.01 + (3.0 - 0.01) * u[:, 2]
    horizon = 0.1 + (5.0 - 0.1) * u[:, 3]
    return [
        MarketParams(wealth=wealth, rho=r, mu=m, sigma=s, horizon=t)
        for r, m, s, t in zip(rho.tolist(), mu.tolist(), sigma.tolist(), horizon.tolist())
    ]


def random_params(rng: np.random.Generator, wealth: float = 1.0) -> MarketParams:
    """Draw one valid parameter set from the benchmark sweep ranges: the one-set
    case of ``random_param_sets``, which gives the ranges."""
    (params,) = random_param_sets(rng, 1, wealth)
    return params
