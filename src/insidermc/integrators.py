"""Schemes and exact evaluators for dS = mu S dt + sigma S dB with terminal-value data.

Four readings of the noise term are supported. For an initial condition
C(B_T) the exact per-path solutions are

* forward (and Ito, when C is constant):  S(t) = C(B_T) * E(t),
* Ayed-Kuo and Hitsuda-Skorokhod:         S(t) = C(B_T - sigma t) * E(t),

with E(t) = exp((mu - sigma^2/2) t + sigma B_t). The two anticipating
variants share one code path, so their outputs are identical to the bit.

Discrete primitives: a left-point forward Riemann sum, the mixed-endpoint
sum that evaluates adapted factors at the left node and future factors at
the right node, and the divergence-type integral obtained from the forward
sum by subtracting the Malliavin trace term.

The exact solution, the two schemes and the mixed-endpoint residual are array
kernels (``exact_wealth``, ``scheme_wealth``, ``ak_residuals``) over a
trailing node axis; the per-path functions are their one-row calls.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Union

import numpy as np

from .functionals import (
    Indicator,
    NonDifferentiableError,
    ProductIntegrand,
    TerminalFunctional,
    malliavin_trace_partial,
)
from .paths import BrownianPath, TimeGrid

if TYPE_CHECKING:
    from .market import MarketParams

Integrand = Union[ProductIntegrand, Callable]

_MAX_CORRECTION_LEVELS = 8


class Interpretation(enum.Enum):
    """Which stochastic integral the noise term denotes."""

    ITO = "ito"
    FORWARD = "forward"
    AYED_KUO = "ayed-kuo"
    HITSUDA_SKOROKHOD = "hitsuda-skorokhod"


ANTICIPATING = (Interpretation.AYED_KUO, Interpretation.HITSUDA_SKOROKHOD)


@dataclass(frozen=True)
class WealthProcess:
    """Per-node samples of one wealth trajectory plus its provenance."""

    grid: TimeGrid
    samples: np.ndarray
    interpretation: Interpretation
    seed: int
    path_index: int

    def __post_init__(self) -> None:
        if self.samples.shape != (self.grid.steps + 1,):
            raise ValueError(
                f"samples must have shape ({self.grid.steps + 1},), got {self.samples.shape}"
            )
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("wealth samples must be finite")
        self.samples.setflags(write=False)

    @classmethod
    def of_path(
        cls, path: BrownianPath, samples: np.ndarray, interp: Interpretation
    ) -> "WealthProcess":
        """Samples along ``path``, carrying its grid and RNG provenance."""
        return cls(path.grid, samples, interp, path.seed, path.path_index)

    @property
    def terminal(self) -> float:
        return float(self.samples[-1])


def growth_factor(params: "MarketParams", nodes: np.ndarray, w: np.ndarray) -> np.ndarray:
    """E(t) = exp((mu - sigma^2/2) t + sigma B_t) along the trailing node axis of w."""
    return np.exp((params.mu - 0.5 * params.sigma**2) * nodes + params.sigma * w)


def exact_wealth(
    c: TerminalFunctional,
    params: "MarketParams",
    nodes: np.ndarray,
    w: np.ndarray,
    interp: Interpretation,
    growth: np.ndarray | None = None,
) -> np.ndarray:
    """Closed-form solution at ``nodes`` for Brownian values ``w`` at those nodes.

    ``w`` holds one path or a block of paths along leading axes. Its last
    node must be the horizon, so ``w[..., -1:]`` is B_T; passing only the
    last node gives the terminal wealth alone. The anticipating variants
    evaluate the translated functional C(. - sigma t) at B_T node by node;
    the forward variant keeps C(B_T) frozen. Ito is only defined for
    deterministic C. ``growth`` is ``growth_factor(params, nodes, w)``, for a
    caller that already holds it.
    """
    if interp is Interpretation.ITO and not c.is_deterministic:
        raise ValueError("Ito interpretation requires a deterministic initial condition")
    b_t = w[..., -1:]
    if interp in ANTICIPATING:
        initial = c.evaluate(b_t - params.sigma * nodes)
    else:
        initial = c.evaluate(b_t)
    if growth is None:
        growth = growth_factor(params, nodes, w)
    return np.asarray(initial * growth, dtype=float)


def exact_solution(
    c: TerminalFunctional,
    params: "MarketParams",
    path: BrownianPath,
    interp: Interpretation,
) -> WealthProcess:
    """Closed-form per-path solution under the chosen interpretation (see ``exact_wealth``)."""
    samples = exact_wealth(c, params, path.grid.nodes, path.values, interp)
    return WealthProcess.of_path(path, samples, interp)


def euler_forward(
    c: TerminalFunctional, params: "MarketParams", path: BrownianPath
) -> WealthProcess:
    """Left-point Euler scheme for the forward equation, S_0 = C(B_T)."""
    interp = Interpretation.FORWARD
    samples = scheme_wealth(c, params, path.grid, path.values, interp)
    return WealthProcess.of_path(path, samples, interp)


def ak_integral(u: Integrand, path: BrownianPath, t: float) -> float:
    """Mixed-endpoint Riemann sum over [0, t].

    Each term is u(t_{i-1}, W_{i-1}, B_T - W_i) * (W_i - W_{i-1}): the time
    and running-value arguments sit at the left node, the future-increment
    argument at the right node. With no future dependence this is the plain
    Ito left-point sum.
    """
    i = path.grid.index_of(t)
    if i == 0:
        return 0.0
    return float(_mixed_endpoint_sum(u, path.grid.nodes, path.values, i))


def _mixed_endpoint_sum(u: Integrand, nodes: np.ndarray, w: np.ndarray, i: int) -> np.ndarray:
    """The ``ak_integral`` sum over the first i steps, along the trailing node axis of w."""
    x = w[..., :i]
    y = w[..., -1:] - w[..., 1 : i + 1]
    dw = np.diff(w[..., : i + 1], axis=-1)
    return np.sum(u(nodes[:i], x, y) * dw, axis=-1)


def forward_integral(u: Integrand, path: BrownianPath, t: float) -> float:
    """Left-point Riemann sum over [0, t]: all arguments at the left node."""
    i = path.grid.index_of(t)
    if i == 0:
        return 0.0
    w = path.values
    s = path.grid.nodes[:i]
    x = w[:i]
    y = path.terminal - w[:i]
    dw = np.diff(w[: i + 1])
    return float(np.sum(u(s, x, y) * dw))


def skorokhod_integral(u: ProductIntegrand, path: BrownianPath, t: float) -> float:
    """Divergence-type integral: forward sum minus the Malliavin trace term."""
    i = path.grid.index_of(t)
    if i == 0:
        return 0.0
    w = path.values
    s = path.grid.nodes[:i]
    x = w[:i]
    y = path.terminal - w[:i]
    trace = np.broadcast_to(
        np.asarray(malliavin_trace_partial(u, s, x, y), dtype=float), s.shape
    )
    return forward_integral(u, path, t) - path.grid.dt * float(np.sum(trace))


def solution_integrand(
    c: TerminalFunctional, params: "MarketParams"
) -> Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """The anticipating exact solution as a two-argument integrand.

    Written in the adapted/future split (s, x=B_s, y=B_T-B_s):
    Phi(s, x, y) = C(y + x - sigma s) * exp((mu - sigma^2/2) s + sigma x).
    """
    mu, sigma = params.mu, params.sigma

    def phi(s, x, y):
        return c.evaluate(y + x - sigma * s) * np.exp((mu - 0.5 * sigma**2) * s + sigma * x)

    return phi


def ak_residual(
    c: TerminalFunctional, params: "MarketParams", path: BrownianPath, t: float | None = None
) -> float:
    """Defect of the anticipating exact solution in the mixed-endpoint integral form.

    R = S(t) - S(0) - mu * sum S(t_{i-1}) dt - sigma * (mixed-endpoint sum of S).
    For smooth C the residual vanishes with the mesh; for indicator C its
    behavior is the numerical evidence the open solution question turns on.
    """
    return float(ak_residuals(c, params, path.grid, path.values, t))


def ak_residuals(
    c: TerminalFunctional,
    params: "MarketParams",
    grid: TimeGrid,
    w: np.ndarray,
    t: float | None = None,
    growth: np.ndarray | None = None,
) -> np.ndarray:
    """``ak_residual`` over [0, t] for every path along the leading axes of ``w``.

    E(t) is evaluated once and read both by the exact solution and, at the
    left nodes, by the integrand of ``solution_integrand``; ``growth`` passes
    in ``growth_factor(params, grid.nodes, w)`` when functionals share a block.
    """
    i = grid.steps if t is None else grid.index_of(t)
    if growth is None:
        growth = growth_factor(params, grid.nodes, w)
    samples = exact_wealth(c, params, grid.nodes, w, Interpretation.AYED_KUO, growth)
    drift = params.mu * grid.dt * np.sum(samples[..., :i], axis=-1)

    def phi(s, x, y):
        return c.evaluate(y + x - params.sigma * s) * growth[..., :i]

    stochastic = _mixed_endpoint_sum(phi, grid.nodes, w, i)
    return samples[..., i] - samples[..., 0] - drift - params.sigma * stochastic


def _correction_stack(c: TerminalFunctional) -> list[TerminalFunctional]:
    """C and its derivatives, stopping at zero or at the last available level.

    The first derivative is mandatory (the per-step drift correction needs
    it); deeper levels refine the correction's own dynamics and are optional.
    For affine C the stack terminates exactly.
    """
    levels = [c]
    nxt = c.derivative()  # propagate NonDifferentiableError for indicator C
    while not nxt.is_zero and len(levels) < _MAX_CORRECTION_LEVELS:
        levels.append(nxt)
        try:
            nxt = nxt.derivative()
        except NonDifferentiableError:
            break
    return levels


def scheme_wealth(
    c: TerminalFunctional,
    params: "MarketParams",
    grid: TimeGrid,
    w: np.ndarray,
    interp: Interpretation,
) -> np.ndarray:
    """Discrete stock wealth at the nodes of ``grid`` for Brownian values ``w``.

    ``w`` holds one path or a block of paths along leading axes. Forward and
    Ito run the left-point Euler scheme S_m = C(B_T) * g_1 * ... * g_m with
    g_k = 1 + mu dt + sigma dW_k. Hitsuda-Skorokhod adds the per-step
    Malliavin drift correction: each stack level k holds the k-th derivative
    process started at C^(k)(B_T) and is corrected by sigma * dt times the
    level below it; level 0 is the wealth. With a vanishing first derivative
    the stack has one level and the scheme is plain Euler, bit for bit.
    """
    if interp in (Interpretation.ITO, Interpretation.FORWARD):
        levels = [c]
    elif interp is Interpretation.HITSUDA_SKOROKHOD:
        levels = _correction_stack(c)
    else:
        raise ValueError(f"no direct scheme implements {interp.value}")
    dt = grid.dt
    sigma = params.sigma
    g = np.diff(w, axis=-1)
    g *= sigma
    g += 1.0 + params.mu * dt
    b_t = w[..., -1:]
    start = [np.asarray(lvl.evaluate(b_t), dtype=float) for lvl in levels]

    # Work in ratios r_m = S_m / prod(g_1..g_m), held in samples[..., 1:]; the
    # correction recursion is then r_m = r_{m-1} - sigma*dt * r^below_{m-1} / g_m,
    # which cumsum solves. The in-place steps keep every product's operands.
    samples = np.empty(w.shape)
    samples[..., :1] = start[0]
    ratios = samples[..., 1:]
    ratios[...] = start[-1]
    left = np.empty_like(g)
    for k in range(len(levels) - 2, -1, -1):
        left[..., :1] = start[k + 1]
        left[..., 1:] = ratios[..., :-1]
        np.divide(left, g, out=ratios)
        np.cumsum(ratios, axis=-1, out=ratios)
        ratios *= sigma * dt
        np.subtract(start[k], ratios, out=ratios)
    ratios *= np.cumprod(g, axis=-1, out=g)
    return samples


def skorokhod_via_correction(
    c: TerminalFunctional, params: "MarketParams", path: BrownianPath
) -> WealthProcess:
    """Forward Euler with the per-step Malliavin drift correction (see ``scheme_wealth``)."""
    interp = Interpretation.HITSUDA_SKOROKHOD
    samples = scheme_wealth(c, params, path.grid, path.values, interp)
    return WealthProcess.of_path(path, samples, interp)


def first_flip(
    c: Indicator,
    params: "MarketParams",
    nodes: np.ndarray,
    b_t: np.ndarray,
    interp: Interpretation,
) -> tuple[np.ndarray, np.ndarray]:
    """Whether the indicator leg flips on/off along the grid, and when.

    ``b_t`` holds terminal values with a trailing axis of length one; the
    on/off state is taken at every node along that axis. The flip time is
    the midpoint of the first bracketing interval, NaN where there is none.
    """
    if interp in ANTICIPATING:
        factor = np.greater(b_t - params.sigma * nodes, c.threshold)
    else:
        # the forward state is C(B_T) at every node: compare once, then broadcast
        factor = np.broadcast_to(np.greater(b_t, c.threshold), b_t.shape[:-1] + nodes.shape)
    changes = factor[..., 1:] != factor[..., :-1]
    flipped = changes.any(axis=-1)
    i = changes.argmax(axis=-1)
    return flipped, np.where(flipped, 0.5 * (nodes[i] + nodes[i + 1]), np.nan)


def detect_indicator_flip(
    c: Indicator,
    params: "MarketParams",
    path: BrownianPath,
    interp: Interpretation = Interpretation.AYED_KUO,
) -> tuple[bool, float | None]:
    """Locate the on/off flip of the indicator leg along the grid.

    Returns (flipped, estimated flip time); the estimate is the midpoint of
    the bracketing interval. The flip is a functional-form event, so the
    detector looks at the indicator factor rather than the wealth samples.
    """
    flipped, t = first_flip(c, params, path.grid.nodes, path.values[-1:], interp)
    return (True, float(t)) if flipped else (False, None)
