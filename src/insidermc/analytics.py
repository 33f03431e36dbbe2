"""Closed-form expectations, a Gauss-Hermite oracle, ordering verdicts, and the flip probability.

All terminal-wealth expectations reduce to the single coefficient
A = sigma^2 / (4 (mu - rho)):

* honest split (m0, m1):        m0 e^{rho T} + m1 e^{mu T}
* partial-trust, anticipating:  M (A e^{rho T} + (1 - A) e^{mu T})
* partial-trust, forward:       M (A e^{rho T} + (1 + A) e^{mu T})

The quadrature oracle never touches that algebra: it integrates the
translated functional numerically against the Gaussian terminal law.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import erfc, roots_hermite

from .functionals import (
    Affine,
    Indicator,
    MonotoneSmooth,
    MonotonicityError,
    TerminalFunctional,
)
from .integrators import ANTICIPATING, Interpretation
from .market import MarketParams, PartialTrust, stock_functional, threshold

CSV_HEADER = ("rho", "mu", "sigma", "T", "M", "E_I", "E_HS", "E_AK", "E_RV", "method")

_QUAD_START = 256
_QUAD_MAX = 4096
_QUAD_RTOL = 1e-8


class QuadratureError(RuntimeError):
    """Node doubling failed to stabilize the quadrature value."""


def norm_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * erfc(-x / math.sqrt(2.0))


def expected_honest(params: MarketParams, bond0: float, stock0: float) -> float:
    """Expected terminal wealth of a fixed split: bond0 e^{rho T} + stock0 e^{mu T}."""
    if bond0 < 0.0 or stock0 < 0.0:
        raise ValueError("honest trader cannot hold negative positions")
    if not math.isclose(bond0 + stock0, params.wealth, rel_tol=1e-9, abs_tol=1e-12):
        raise ValueError(f"split must sum to total wealth {params.wealth}")
    t = params.horizon
    return bond0 * math.exp(params.rho * t) + stock0 * math.exp(params.mu * t)


def expected_honest_max(params: MarketParams) -> float:
    """Maximal honest expectation, attained by the all-stock split."""
    return expected_honest(params, 0.0, params.wealth)


def expected_insider(params: MarketParams, interp: Interpretation) -> float:
    """Closed-form expected terminal wealth of the partial-trust insider."""
    if interp is Interpretation.ITO:
        raise ValueError("the insider initial condition is not Ito-integrable")
    a = params.sigma**2 / (4.0 * (params.mu - params.rho))
    t = params.horizon
    bond = a * math.exp(params.rho * t)
    tilt = -a if interp in ANTICIPATING else a
    return params.wealth * (bond + (1.0 + tilt) * math.exp(params.mu * t))


@lru_cache(maxsize=None)
def _hermgauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    # numpy's hermgauss overflows past a few hundred nodes; scipy's
    # Golub-Welsch/asymptotic routine stays finite up to the cap
    return roots_hermite(n)


def _tilted_gauss_hermite(
    c: TerminalFunctional, shift: float, params: MarketParams, nodes: int
) -> float:
    # Absorb the exponential growth factor into the Gaussian measure
    # (complete the square): the integrand becomes C evaluated under an
    # N(sigma T, T) law times e^{mu T}, which keeps every quadrature term at
    # the scale of the answer instead of cancelling across e^{sigma B_T}.
    x, w = _hermgauss(nodes)
    t = params.horizon
    args = math.sqrt(2.0 * t) * x + params.sigma * t - shift
    values = np.asarray(c.evaluate(args), dtype=float)
    return math.exp(params.mu * t) / math.sqrt(math.pi) * float(w @ values)


def quadrature_expectation(
    c: TerminalFunctional, shift: float, params: MarketParams
) -> float:
    """Numerical oracle for E[C(B_T - shift) exp((mu - sigma^2/2) T + sigma B_T)].

    shift = 0 gives the forward stock leg, shift = sigma*T the anticipating
    one. Indicator functionals use the exact normal-CDF reduction instead of
    node sums, which would ring at the discontinuity.
    """
    t = params.horizon
    if isinstance(c, Indicator):
        arg = (params.sigma * t - c.threshold - shift) / math.sqrt(t)
        return c.scale * math.exp(params.mu * t) * norm_cdf(arg)
    scale_hint = abs(float(np.asarray(c.evaluate(params.sigma * t - shift)))) * math.exp(
        params.mu * t
    )
    previous = _tilted_gauss_hermite(c, shift, params, _QUAD_START)
    nodes = 2 * _QUAD_START
    while nodes <= _QUAD_MAX:
        value = _tilted_gauss_hermite(c, shift, params, nodes)
        tol = _QUAD_RTOL * max(abs(value), abs(previous), scale_hint, np.finfo(float).tiny)
        if abs(value - previous) <= tol:
            return value
        previous = value
        nodes *= 2
    raise QuadratureError(
        f"no convergence up to {_QUAD_MAX} nodes (last change {abs(value - previous):.3e})"
    )


def insider_bond_leg(params: MarketParams) -> float:
    """Expected bond leg of the partial-trust insider, M A e^{rho T} (exact)."""
    a = params.sigma**2 / (4.0 * (params.mu - params.rho))
    return params.wealth * a * math.exp(params.rho * params.horizon)


@dataclass(frozen=True)
class OrderingVerdict:
    """The four expected wealths and the chain verdicts between them."""

    honest: float
    hs: float
    ak: float
    rv: float
    hs_equals_ak: bool
    ak_below_honest: bool
    honest_below_rv: bool

    @property
    def all_hold(self) -> bool:
        return self.hs_equals_ak and self.ak_below_honest and self.honest_below_rv


def verify_ordering(params: MarketParams) -> OrderingVerdict:
    """Evaluate the expectation chain HS = AK < honest < forward."""
    honest = expected_honest_max(params)
    hs = expected_insider(params, Interpretation.HITSUDA_SKOROKHOD)
    ak = expected_insider(params, Interpretation.AYED_KUO)
    rv = expected_insider(params, Interpretation.FORWARD)
    return OrderingVerdict(
        honest=honest,
        hs=hs,
        ak=ak,
        rv=rv,
        hs_equals_ak=hs == ak,
        ak_below_honest=ak < honest,
        honest_below_rv=honest < rv,
    )


def ordering_monotone(
    c: TerminalFunctional, params: MarketParams
) -> tuple[float, float]:
    """Stock-leg expectations (anticipating, forward) for increasing C.

    The translated initial condition can only lose ground pointwise, so the
    first entry is strictly below the second for any nonconstant increasing
    continuous C.
    """
    if isinstance(c, Indicator):
        raise MonotonicityError("indicator functionals are not continuous")
    if isinstance(c, Affine):
        if not c.b > 0.0:
            raise MonotonicityError("affine functional must have positive slope")
    elif isinstance(c, MonotoneSmooth):
        c.validate_monotone(params.horizon)
    else:
        raise MonotonicityError(f"{type(c).__name__} carries no monotonicity contract")
    e_anticipating = quadrature_expectation(c, params.sigma * params.horizon, params)
    e_forward = quadrature_expectation(c, 0.0, params)
    return e_anticipating, e_forward


def jump_probability(params: MarketParams) -> float:
    """Probability that the translated indicator leg flips somewhere in (0, T].

    Equals P(z < B_T < z + sigma T) for the betting threshold z.
    """
    z = threshold(params)
    sqrt_t = math.sqrt(params.horizon)
    return float(norm_cdf((z + params.sigma * params.horizon) / sqrt_t) - norm_cdf(z / sqrt_t))


@dataclass(frozen=True)
class WealthTable:
    """One row of per-interpretation expected terminal wealth."""

    params: MarketParams
    method: str
    honest: float
    hs: float
    ak: float
    rv: float

    def cells(self) -> dict[str, float | str]:
        """The row's value in each ``CSV_HEADER`` column."""
        p = self.params
        values = (p.rho, p.mu, p.sigma, p.horizon, p.wealth, self.honest, self.hs, self.ak,
                  self.rv, self.method)
        return dict(zip(CSV_HEADER, values))


def closed_form_table(params: MarketParams) -> WealthTable:
    return WealthTable(
        params=params,
        method="closed-form",
        honest=expected_honest_max(params),
        hs=expected_insider(params, Interpretation.HITSUDA_SKOROKHOD),
        ak=expected_insider(params, Interpretation.AYED_KUO),
        rv=expected_insider(params, Interpretation.FORWARD),
    )


def quadrature_table(params: MarketParams) -> WealthTable:
    """Oracle row: stock legs by quadrature, insider bond leg in closed form."""
    c = stock_functional(PartialTrust(), params)
    bond = insider_bond_leg(params)
    shift = params.sigma * params.horizon
    anticipating = bond + quadrature_expectation(c, shift, params)
    forward = bond + quadrature_expectation(c, 0.0, params)
    honest = quadrature_expectation(Affine(params.wealth, 0.0), 0.0, params)
    return WealthTable(
        params=params,
        method="quadrature",
        honest=honest,
        hs=anticipating,
        ak=anticipating,
        rv=forward,
    )


def render_tables(tables: list[WealthTable]) -> str:
    """Fixed-width terminal rendering of wealth table rows, one space between cells."""
    widths = (8, 8, 8, 6, 8, 14, 14, 14, 14, 12)
    precisions = (".4f", ".4f", ".4f", ".2f", ".4f", ".6f", ".6f", ".6f", ".6f", "")
    header = " ".join(name.ljust(w) for name, w in zip(CSV_HEADER, widths))
    lines = [header, "-" * len(header)]
    for table in tables:
        cells = zip(table.cells().values(), widths, precisions)
        lines.append(" ".join(format(value, f"<{w}{prec}") for value, w, prec in cells))
    return "\n".join(lines)
