"""Closed-form expectations, a Gauss-Hermite oracle, ordering verdicts, and the flip probability.

All terminal-wealth expectations reduce to the single coefficient
A = sigma^2 / (4 (mu - rho)):

* honest split (m0, m1):        m0 e^{rho T} + m1 e^{mu T}
* partial-trust, anticipating:  M (A e^{rho T} + (1 - A) e^{mu T})
* partial-trust, forward:       M (A e^{rho T} + (1 + A) e^{mu T})

``closed_form_table`` evaluates the last three (the honest one at the
all-stock split) from one A, e^{rho T} and e^{mu T}; ``expected_insider``
and ``expected_honest_max`` read their values from it. Each, and
``insider_bond_leg`` and ``jump_probability``, takes one set or a parameter
block (``MarketParams`` columns) and gives one value per set, the floats of
one-set calls. The chain verdicts are properties of any ``WealthTable``.

The quadrature oracle never touches that algebra: it integrates the
translated functional numerically against the Gaussian terminal law. It
works on a parameter block at once (``quadrature_expectations``): one node
grid per node count, with the functional's per-set coefficients as column
arrays, while each set doubles its own node count from 32 until its own
value is stable: two changes in a row within tolerance, or one from 512
nodes on. A set gets the same float in any block, a block of one included.
Only the sets still doubling are evaluated, in row chunks of at most
``_CHUNK_VALUES`` values, so the kernel bounds its own memory for any block
size, and each chunk's node sums take one stacked matmul.
``ordering_monotone_block`` checks a smooth family's monotonicity with one
probe of its shape over the block's widest window and one array check of
its per-set scales, and takes both stock legs in one kernel call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass, replace
from functools import lru_cache

import numpy as np

from .functionals import (
    Affine,
    ArrayLike,
    Indicator,
    MonotoneSmooth,
    MonotonicityError,
    TerminalFunctional,
)
from .integrators import ANTICIPATING, Interpretation
from .market import Honest, MarketParams, PartialTrust, _check_honest, _libm, stock_functional, threshold
from .paths import _BLOCK_VALUES

CSV_HEADER = ("rho", "mu", "sigma", "T", "M", "E_I", "E_HS", "E_AK", "E_RV", "method")

_QUAD_START = 32
_QUAD_MAX = 4096
# from this rule on, one agreement settles a set; below it, two in a row must
_QUAD_TRUSTED = 512
_QUAD_RTOL = 1e-8
# values per evaluation: half a path block stays in cache and reads faster than a whole one
_CHUNK_VALUES = _BLOCK_VALUES // 2
# probe points of the monotonicity check, one probe per family and block
_PROBE_POINTS = 1000


class QuadratureError(RuntimeError):
    """Node doubling failed to stabilize the quadrature value."""


def norm_cdf(x: ArrayLike) -> ArrayLike:
    """Standard normal CDF via the complementary error function, per value of a column."""
    return 0.5 * _libm(math.erfc, -x / math.sqrt(2.0))


def expected_honest(params: MarketParams, bond0: float, stock0: float) -> float:
    """Expected terminal wealth of a fixed split: bond0 e^{rho T} + stock0 e^{mu T}."""
    _check_honest(Honest(bond0, stock0), params)
    t = params.horizon
    return bond0 * math.exp(params.rho * t) + stock0 * math.exp(params.mu * t)


def expected_honest_max(params: MarketParams) -> float:
    """Maximal honest expectation, attained by the all-stock split; read from
    ``closed_form_table``."""
    return closed_form_table(params).honest


def expected_insider(params: MarketParams, interp: Interpretation) -> float:
    """Closed-form expected terminal wealth of the partial-trust insider; read from
    ``closed_form_table``."""
    if interp is Interpretation.ITO:
        raise ValueError("the insider initial condition is not Ito-integrable")
    table = closed_form_table(params)
    return table.ak if interp in ANTICIPATING else table.rv


def _hermite_step(x: np.ndarray, n: int, logs: np.ndarray | None = None) -> np.ndarray:
    """The Newton step h_n(x) / h_n'(x) of the degree-n Hermite polynomial, at each x.

    Runs the ratio recurrence q_1 = x, q_k = x - ((k - 1)/2) / q_{k-1} of the
    monic polynomials, q_k = h_k / h_{k-1}; the step is q_n / n, since
    h_n' = n h_{n-1}. r_k = q_k sqrt(2/k) is the ratio p_k / p_{k-1} of the
    orthonormal polynomials, and ``logs``, when given, receives the sum of
    log|r_k| over k < n, which is log|p_{n-1}(x) / p_0|.
    """
    q = x.copy()
    for k in range(2, n + 1):
        if logs is not None:
            logs += np.log(np.abs(q) * math.sqrt(2.0 / (k - 1)))
        np.divide(0.5 * (k - 1), q, out=q)
        np.subtract(x, q, out=q)
    q /= n
    return q


@lru_cache(maxsize=None)
def _hermgauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes, ascending, and weights for the weight e^{-x^2}, for even n.

    numpy's hermgauss overflows to NaN past a few hundred nodes, so the
    nodes come from Newton's method on the three-term recurrence (Golub &
    Welsch 1969; Townsend, Trogdon & Olver 2016), all positive nodes at once.
    The k-th largest starts from the WKB guess sqrt(2n + 1) cos(theta), with
    theta - sin(theta) cos(theta) = t = pi (4k - 1) / (4n + 2) solved by
    Newton from cbrt(1.5 t) (from theta = t it diverges). The weight
    1 / (n p_{n-1}(x)^2) is taken in log form on one last pass, so nothing
    overflows; a weight below the smallest float is 0.
    """
    k = np.arange(1, n // 2 + 1)
    t = math.pi * (4 * k - 1) / (4 * n + 2)
    theta = np.cbrt(1.5 * t)
    for _ in range(6):
        theta -= (theta - np.sin(theta) * np.cos(theta) - t) / (2.0 * np.square(np.sin(theta)))
    x = math.sqrt(2 * n + 1) * np.cos(theta)
    # Newton converges quadratically: after a step of at most 1e-9 (4 or 5
    # passes) the nodes are within rounding, and one last pass takes the
    # weights there and applies its own, smaller step to the nodes
    for _ in range(10):
        step = _hermite_step(x, n)
        x -= step
        if np.max(np.abs(step)) <= 1e-9:
            break
    logs = np.zeros_like(x)
    x -= _hermite_step(x, n, logs)
    w = np.exp(0.5 * math.log(math.pi) - math.log(n) - 2.0 * logs)
    # mirror the positive half, descending, into ascending order
    x = np.concatenate([-x, x[::-1]])
    w = np.concatenate([w, w[::-1]])
    # as scipy does, scale the weights to integrate 1 exactly: this cancels
    # the error the weights share, about 2e-15 at 512 nodes
    w *= math.sqrt(math.pi) / np.sum(w)
    return x, w


def _take(c: TerminalFunctional, rows) -> TerminalFunctional:
    """``c`` with each per-set column coefficient cut to ``rows`` (an index array or slice)."""
    if not is_dataclass(c):
        return c
    cut = {
        f.name: v[rows] for f in fields(c)
        if isinstance(v := getattr(c, f.name), np.ndarray) and v.ndim == 2
    }
    return replace(c, **cut) if cut else c


def _row_dots(values: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``[w @ row for row in values]`` in one call, bit for bit.

    The stacked matmul takes one dot product per row, as ``w @ row`` does;
    the plain matrix-vector product ``values @ w`` sums in another order and
    differs in the last bits.
    """
    return np.matmul(values[:, None, :], w)[:, 0]


def _node_sums(
    c: TerminalFunctional, columns: np.ndarray, nodes: int, magnitudes: np.ndarray | None = None
) -> np.ndarray:
    """Gauss-Hermite sums of C at sqrt(2T) x + sigma T - shift, one per row of ``columns``.

    Evaluates in row chunks of at most ``_CHUNK_VALUES`` values; the sums of
    |C| go into ``magnitudes`` when given.
    """
    x, w = _hermgauss(nodes)
    rows = columns.shape[1]
    step = max(1, _CHUNK_VALUES // nodes)
    sums = np.empty(rows)
    # the argument root * x + drift - shift, built in one buffer in that order
    buffer = np.empty((min(step, rows), nodes))
    for lo in range(0, rows, step):
        chunk = slice(lo, lo + step)
        root, drift, shift = columns[:, chunk]
        arg = np.multiply(root, x, out=buffer[: root.shape[0]])
        arg += drift
        arg -= shift
        # a chunk of every row needs no row selection (the one-set path)
        part = c if step >= rows else _take(c, chunk)
        # C is evaluated in place: a second chunk-sized array freed on every
        # chunk can be trimmed from the top of the heap and faulted back in
        sums[chunk] = _row_dots(values := part.evaluate(arg, out=arg), w)
        if magnitudes is not None:
            magnitudes[chunk] = _row_dots(np.abs(values, out=values), w)
    return sums


def quadrature_expectations(c: TerminalFunctional, shifts, params: MarketParams) -> list[float]:
    """Numerical oracle for E[C(B_T - shift) exp((mu - sigma^2/2) T + sigma B_T)], per value.

    One value per entry of ``shifts`` broadcast against the parameter block's
    columns, in C order: shifts of shape (2, n) against n sets give two legs
    per set, and three against one set give three. shift = 0 gives the
    forward stock leg, shift = sigma*T the anticipating one. Indicator
    functionals use the exact normal-CDF reduction instead of node sums,
    which would ring at the discontinuity. ``c`` may hold one coefficient per
    value as a column array (``Affine`` and ``Smooth`` broadcast them against
    the node axis). Every value doubles its node count from ``_QUAD_START``
    until it is stable, exactly as a one-value call would, and gets the same
    float. It settles at the first rule whose change from the rule before is
    within tolerance, if the change before that was too or the rule has at
    least ``_QUAD_TRUSTED`` nodes. Only the values still doubling are
    evaluated, in row chunks of at most ``_CHUNK_VALUES`` values. A value
    that does not converge raises ``QuadratureError`` naming its set.
    """
    # rows e^{mu T} (libm, not np.exp), T, sigma T and the shift; one entry per value
    growth, drift = _libm(math.exp, params.mu * params.horizon), params.sigma * params.horizon
    table = np.empty((4, *np.broadcast(growth, drift, shifts).shape))
    table[0], table[1], table[2], table[3] = growth, params.horizon, drift, shifts
    growth, horizon, drift, shifts = table = table.reshape(4, -1)
    if isinstance(c, Indicator):
        arg = (drift - np.ravel(c.threshold) - shifts) / np.sqrt(horizon)
        return (np.ravel(c.scale) * growth * norm_cdf(arg)).tolist()
    n = growth.size
    # Absorb the exponential growth factor into the Gaussian measure
    # (complete the square): the integrand becomes C evaluated under an
    # N(sigma T, T) law times e^{mu T}, which keeps every quadrature term at
    # the scale of the answer instead of cancelling across e^{sigma B_T}.
    # Rows: sqrt(2T), sigma T and the shift, as columns against the node axis.
    np.sqrt(2.0 * horizon, out=horizon)
    columns = table[1:, :, None]
    hint = np.abs(np.ravel(c.evaluate(columns[1] - columns[2]))) * growth
    # The per-set state of the sets still doubling, compacted as sets settle.
    # A set's change agrees when it is at most RTOL * max(|value|, |previous|,
    # hint, mass, tiny), mass the first rule's sum of |C| times the factor: the
    # scale of a 0 value (the anticipating leg at A = 1). RTOL * max is the max
    # of the scaled terms, bit for bit, so the floor (the last three) is scaled once.
    # A set settles on two agreements in a row, or on one from _QUAD_TRUSTED
    # nodes on: a single agreement at a low node count can still be 8e-8 off.
    index = np.arange(n)
    factor = growth / math.sqrt(math.pi)
    mass = np.empty(n)
    previous = factor * _node_sums(c, columns, _QUAD_START, mass)
    floor = _QUAD_RTOL * np.fmax(np.fmax(hint, factor * mass), np.finfo(float).tiny)
    agreed = np.zeros(n, dtype=bool)
    moved = np.full(n, math.nan)
    result = np.empty(n)
    nodes = 2 * _QUAD_START
    while index.size and nodes <= _QUAD_MAX:
        value = factor * _node_sums(c, columns, nodes)
        moved = np.abs(value - previous)
        # a set still doubling is written over when it settles
        result[index] = value
        agrees = moved <= np.maximum(_QUAD_RTOL * np.maximum(np.abs(value), np.abs(previous)), floor)
        keep = ~(agrees & (agreed | (nodes >= _QUAD_TRUSTED)))
        previous, agreed = value, agrees
        # a pass that settles no set keeps every row as it is
        if not keep.all():
            index = index[keep]
            if index.size:
                factor, floor, previous, agreed, moved = (
                    v[keep] for v in (factor, floor, previous, agreed, moved)
                )
                columns, c = columns[:, keep], _take(c, keep)
        nodes *= 2
    if index.size:
        raise QuadratureError(
            f"no convergence up to {_QUAD_MAX} nodes for {params[index[0] % len(params)]} "
            f"(last change {moved[0]:.3e})"
        )
    return result.tolist()


def insider_bond_leg(params: MarketParams) -> float:
    """Expected bond leg of the partial-trust insider, M A e^{rho T} (exact)."""
    a = _libm(pow, params.sigma, 2) / (4.0 * (params.mu - params.rho))
    return params.wealth * a * _libm(math.exp, params.rho * params.horizon)


def ordering_monotone_block(
    c: TerminalFunctional, params: MarketParams
) -> tuple[list[float], list[float]]:
    """Stock-leg expectations (anticipating, forward) of each set of ``params``, for increasing C.

    The translated initial condition can only lose ground pointwise, so each
    anticipating entry is strictly below its forward entry for any
    nonconstant increasing continuous C. ``c`` may hold one coefficient per
    set as a column array, as in ``quadrature_expectations``. The monotonicity
    contract is checked for every set before any quadrature runs, for a
    ``MonotoneSmooth`` by one probe of its shape over the widest window.
    """
    n = len(params)
    if isinstance(c, Indicator):
        raise MonotonicityError("indicator functionals are not continuous")
    if isinstance(c, Affine):
        if not np.all(c.b > 0.0):
            raise MonotonicityError("affine functional must have positive slope")
    elif isinstance(c, MonotoneSmooth):
        # one shape times per-set scales: probe the shape once, on the widest window. A
        # scale keeps or (if negative) reverses the probe's order, so only a scale that does
        # not rise end to end fails, and the first such one is probed for its message
        horizon = float(np.max(params.horizon))
        ys = replace(c, scale=1.0).validate_monotone(horizon, _PROBE_POINTS)
        scale = np.ravel(c.scale)
        rises = scale * ys[..., -1] > scale * ys[..., 0]
        if not rises.all():
            replace(c, scale=scale[np.argmin(rises)]).validate_monotone(horizon, _PROBE_POINTS)
    else:
        raise MonotonicityError(f"{type(c).__name__} carries no monotonicity contract")
    # both legs in one kernel call: shift sigma T (anticipating), then 0 (forward)
    drift = params.sigma * params.horizon
    shifts = np.array([drift, np.zeros_like(drift)])
    legs = quadrature_expectations(_take(c, np.tile(np.arange(n), 2)), shifts, params)
    return legs[:n], legs[n:]


def jump_probability(params: MarketParams) -> float:
    """Probability that the translated indicator leg flips somewhere in (0, T].

    Equals P(z < B_T < z + sigma T) for the betting threshold z.
    """
    z = threshold(params)
    sqrt_t = _libm(math.sqrt, params.horizon)
    return norm_cdf((z + params.sigma * params.horizon) / sqrt_t) - norm_cdf(z / sqrt_t)


@dataclass(frozen=True)
class WealthTable:
    """One row of per-interpretation expected terminal wealth, or a column per field for a block.

    The chain HS = AK < honest < forward is read off the row: each verdict is
    a bool for one set and a bool array with one entry per set for a block.
    """

    params: MarketParams
    method: str
    honest: float
    hs: float
    ak: float
    rv: float

    @property
    def hs_equals_ak(self) -> bool:
        return self.hs == self.ak

    @property
    def ak_below_honest(self) -> bool:
        return self.ak < self.honest

    @property
    def honest_below_rv(self) -> bool:
        return self.honest < self.rv

    @property
    def all_hold(self) -> bool:
        return self.hs_equals_ak & self.ak_below_honest & self.honest_below_rv

    def cells(self) -> dict[str, float | str]:
        """The row's value in each ``CSV_HEADER`` column."""
        p = self.params
        values = (p.rho, p.mu, p.sigma, p.horizon, p.wealth, self.honest, self.hs, self.ak,
                  self.rv, self.method)
        return dict(zip(CSV_HEADER, values))


def closed_form_table(params: MarketParams) -> WealthTable:
    """The four expected wealths in closed form (see the module docstring), with
    A, e^{rho T} and e^{mu T} computed once; HS and AK share one value."""
    a = _libm(pow, params.sigma, 2) / (4.0 * (params.mu - params.rho))
    t = params.horizon
    bond = a * _libm(math.exp, params.rho * t)
    growth = _libm(math.exp, params.mu * t)
    anticipating = params.wealth * (bond + (1.0 - a) * growth)
    forward = params.wealth * (bond + (1.0 + a) * growth)
    honest = params.wealth * growth
    return WealthTable(params, "closed-form", honest, anticipating, anticipating, forward)


def quadrature_table(params: MarketParams) -> WealthTable:
    """Oracle row of one set: stock legs by quadrature, insider bond leg in closed form."""
    if any(np.ndim(v) for v in vars(params).values()):
        raise ValueError("quadrature_table takes one parameter set, not a block")
    c = stock_functional(PartialTrust(), params)
    bond = insider_bond_leg(params)
    # one kernel call, one row per leg: the affine stock leg at shift sigma T
    # (anticipating) and 0 (forward), then the all-stock honest leg, the constant M
    legs = Affine(np.array([[c.a], [c.a], [params.wealth]]), np.array([[c.b], [c.b], [0.0]]))
    shifts = (params.sigma * params.horizon, 0.0, 0.0)
    *stock, honest = quadrature_expectations(legs, shifts, params)
    anticipating, forward = (bond + leg for leg in stock)
    return WealthTable(params, "quadrature", honest, anticipating, anticipating, forward)


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
