"""Closed-form expectations, a Gauss-Hermite oracle, ordering verdicts, and the flip probability.

All terminal-wealth expectations reduce to the single coefficient
A = sigma^2 / (4 (mu - rho)):

* honest split (m0, m1):        m0 e^{rho T} + m1 e^{mu T}
* partial-trust, anticipating:  M (A e^{rho T} + (1 - A) e^{mu T})
* partial-trust, forward:       M (A e^{rho T} + (1 + A) e^{mu T})

The quadrature oracle never touches that algebra: it integrates the
translated functional numerically against the Gaussian terminal law. It
works on a block of parameter sets at once (``quadrature_expectations``):
one node grid per node count, with the functional's per-set coefficients as
column arrays, while each set still doubles its own node count until its own
value is stable. ``ordering_monotone_block`` likewise probes a block of
horizons for monotonicity at once. The one-set calls
``quadrature_expectation`` and ``ordering_monotone`` return the same floats.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
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


def quadrature_expectations(
    c: TerminalFunctional, shifts: Sequence[float], params_seq: Sequence[MarketParams]
) -> list[float]:
    """``quadrature_expectation`` of each (shift, params) pair, on one node grid per node count.

    ``c`` may hold one coefficient per set as a column array (``Affine`` and
    ``Smooth`` broadcast them against the node axis). Every set doubles its
    node count until its own value is stable, exactly as a lone call would,
    and gets the same float. A set that does not converge raises
    ``QuadratureError`` naming the first such set, in ``params_seq`` order.
    """
    if isinstance(c, Indicator):
        return [
            float(c.scale * math.exp(p.mu * p.horizon)
                  * norm_cdf((p.sigma * p.horizon - c.threshold - s) / math.sqrt(p.horizon)))
            for s, p in zip(shifts, params_seq)
        ]
    # Absorb the exponential growth factor into the Gaussian measure
    # (complete the square): the integrand becomes C evaluated under an
    # N(sigma T, T) law times e^{mu T}, which keeps every quadrature term at
    # the scale of the answer instead of cancelling across e^{sigma B_T}.
    # The per-set factors stay in libm (math.exp), which np.exp need not match.
    growth = [math.exp(p.mu * p.horizon) for p in params_seq]
    factor = [g / math.sqrt(math.pi) for g in growth]
    # sqrt(2T), sigma T and the shift of each set, as columns against the node axis
    root, drift, shift = np.array([
        [math.sqrt(2.0 * p.horizon) for p in params_seq],
        [p.sigma * p.horizon for p in params_seq],
        shifts,
    ], dtype=float)[:, :, None]
    hint = [abs(h) * g for h, g in zip(np.ravel(c.evaluate(drift - shift)).tolist(), growth)]

    def tilted(nodes: int, rows: list[int]) -> dict[int, float]:
        # every set of the block is evaluated; only the sets still doubling are summed
        x, w = _hermgauss(nodes)
        values = np.asarray(c.evaluate(root * x + drift - shift), dtype=float)
        return {i: factor[i] * float(w @ values[i]) for i in rows}

    tiny = np.finfo(float).tiny
    result: dict[int, float] = {}
    change: dict[int, float] = {}
    active = list(range(len(params_seq)))
    previous = tilted(_QUAD_START, active)
    nodes = 2 * _QUAD_START
    while active and nodes <= _QUAD_MAX:
        value = tilted(nodes, active)
        for i in active:
            change[i] = abs(value[i] - previous[i])
            if change[i] <= _QUAD_RTOL * max(abs(value[i]), abs(previous[i]), hint[i], tiny):
                result[i] = value[i]
        active = [i for i in active if i not in result]
        previous = value
        nodes *= 2
    if active:
        i = active[0]
        raise QuadratureError(
            f"no convergence up to {_QUAD_MAX} nodes for {params_seq[i]} "
            f"(last change {change.get(i, math.nan):.3e})"
        )
    return [result[i] for i in range(len(params_seq))]


def quadrature_expectation(
    c: TerminalFunctional, shift: float, params: MarketParams
) -> float:
    """Numerical oracle for E[C(B_T - shift) exp((mu - sigma^2/2) T + sigma B_T)].

    shift = 0 gives the forward stock leg, shift = sigma*T the anticipating
    one. Indicator functionals use the exact normal-CDF reduction instead of
    node sums, which would ring at the discontinuity. The one-set call of
    ``quadrature_expectations``.
    """
    return quadrature_expectations(c, (shift,), (params,))[0]


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


def ordering_monotone_block(
    c: TerminalFunctional, params_seq: Sequence[MarketParams]
) -> tuple[list[float], list[float]]:
    """Stock-leg expectations (anticipating, forward) of each set, for increasing C.

    The translated initial condition can only lose ground pointwise, so each
    anticipating entry is strictly below its forward entry for any
    nonconstant increasing continuous C. ``c`` may hold one coefficient per
    set as a column array, as in ``quadrature_expectations``; the monotonicity
    contract is checked for every set before any quadrature runs.
    """
    if isinstance(c, Indicator):
        raise MonotonicityError("indicator functionals are not continuous")
    if isinstance(c, Affine):
        if not np.all(c.b > 0.0):
            raise MonotonicityError("affine functional must have positive slope")
    elif isinstance(c, MonotoneSmooth):
        c.validate_monotone(np.array([p.horizon for p in params_seq]))
    else:
        raise MonotonicityError(f"{type(c).__name__} carries no monotonicity contract")
    shifts = [p.sigma * p.horizon for p in params_seq]
    e_anticipating = quadrature_expectations(c, shifts, params_seq)
    e_forward = quadrature_expectations(c, [0.0] * len(params_seq), params_seq)
    return e_anticipating, e_forward


def ordering_monotone(
    c: TerminalFunctional, params: MarketParams
) -> tuple[float, float]:
    """Stock-leg expectations (anticipating, forward) for increasing C.

    The one-set call of ``ordering_monotone_block``: the first entry is
    strictly below the second for any nonconstant increasing continuous C.
    """
    (e_anticipating,), (e_forward,) = ordering_monotone_block(c, (params,))
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
    # both stock legs in one kernel call: shift sigma T (anticipating), then 0 (forward)
    legs = quadrature_expectations(c, (params.sigma * params.horizon, 0.0), (params, params))
    anticipating, forward = (bond + leg for leg in legs)
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
