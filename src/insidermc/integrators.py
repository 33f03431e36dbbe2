"""Schemes and exact evaluators for dS = mu S dt + sigma S dB with terminal-value data.

Four readings of the noise term are supported. For an initial condition
C(B_T) the exact per-path solutions are

* forward (and Ito, when C is constant):  S(t) = C(B_T) * E(t),
* Ayed-Kuo and Hitsuda-Skorokhod:         S(t) = C(B_T - sigma t) * E(t),

with E(t) = exp((mu - sigma^2/2) t + sigma B_t). The two anticipating
variants share one code path, so their outputs are identical to the bit.

Discrete primitives: one Riemann-sum kernel reads the time and running-value
arguments of an integrand at the left node and its future argument at the
left node (the forward sum) or at the right node (the mixed-endpoint sum),
over a block of paths along a trailing node axis; the divergence-type
integral ``skorokhod_integral`` is the forward sum minus dt times the
Malliavin trace sum, one value per path of the block.

The exact solution, the two schemes and the mixed-endpoint residual are array
kernels (``exact_wealths``, ``scheme_terminals``, ``ak_residuals``) over a
trailing node axis. Each takes several functionals or schemes at once and
builds what they share once: the growth factor and C's argument, the Euler
factors g, their product and the schemes' start values, and the residual's
integrand arguments. A one-case caller passes a one-element sequence, and
one path is a one-row block. Each kernel takes every node-sized array from a
``Workspace``; a caller that evaluates block after block passes one
workspace to every call, and a call without one gets its own.

``scheme_terminals`` and ``ak_residuals`` take a ladder of grid levels, each
read off the finest paths ``w`` as the strided view ``w[..., ::factor]``;
one grid is a ladder of one level. The schemes lay the levels end to end
along the node axis and run each stage once for all of them; only the
products and sums stay one call per level. They return each scheme's
wealth at each level's last node only: a level's product of g is a
multiply reduction, the sequential loop whose result is the last value of
``np.cumprod`` bit for bit, so the forward scheme forms no node-sized
wealth. Hitsuda-Skorokhod forms the running sums of its deeper stack
levels, which the level below reads node by node, but its wealth level
reads only the last value of its sum, a sequential subtract reduction over
negated terms, and it scales, subtracts and multiplies only at each
level's last node. The residual builds the growth factor and the exact
solutions once, at the finest level, and reads each coarser level as a
strided view of them: power-of-two levels share their nodes bit for bit. An
argument that several functionals read is checked for finiteness once, and
each functional is then evaluated by ``evaluate_finite``.
"""
from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from typing import TYPE_CHECKING, Callable

import numpy as np

from .functionals import (
    Indicator,
    NonDifferentiableError,
    ProductIntegrand,
    TerminalFunctional,
    _require_finite,
    malliavin_trace_partial,
)
from .paths import TimeGrid

if TYPE_CHECKING:
    from .market import MarketParams

_MAX_CORRECTION_LEVELS = 8


class Interpretation(enum.Enum):
    """Which stochastic integral the noise term denotes."""

    ITO = "ito"
    FORWARD = "forward"
    AYED_KUO = "ayed-kuo"
    HITSUDA_SKOROKHOD = "hitsuda-skorokhod"


ANTICIPATING = (Interpretation.AYED_KUO, Interpretation.HITSUDA_SKOROKHOD)


class Workspace:
    """Named float64 arrays reused from one kernel call to the next.

    Each name holds one buffer of ``size`` values, allocated on its first
    use; ``take`` returns its leading values as a C-contiguous array of the
    given shape, so a coarser grid level uses a prefix of a finer level's
    buffer and every array has the layout a fresh one would. What a kernel
    returns from the workspace is valid until the workspace serves its next
    call. ``constant`` keeps what a kernel builds once for every call with
    the same key, such as a ladder's layout and per-node step constants.
    """

    def __init__(self, size: int):
        self.size = size
        self._buffers: dict[str, np.ndarray] = {}
        self._constants: dict = {}

    def constant(self, key, build: Callable):
        """``build()``, called on the first request for ``key`` and kept."""
        value = self._constants.get(key)
        if value is None:
            value = self._constants[key] = build()
        return value

    def take(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        n = math.prod(shape)
        if n > self.size:
            raise ValueError(f"{name}: {n} values exceed the workspace's {self.size}")
        buffer = self._buffers.get(name)
        if buffer is None:
            buffer = self._buffers[name] = np.empty(self.size)
        return buffer[:n].reshape(shape)


def growth_factor(
    params: "MarketParams", nodes: np.ndarray, w: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """E(t) = exp((mu - sigma^2/2) t + sigma B_t) along the trailing node axis of w."""
    if out is None:
        out = np.empty(np.broadcast(nodes, w).shape)
    # IEEE addition commutes: adding the drift term to sigma B_t is the formula's sum, bit for bit
    np.multiply(params.sigma, w, out=out)
    out += (params.mu - 0.5 * params.sigma**2) * nodes
    return np.exp(out, out=out)


def check_ito(cs: Sequence[TerminalFunctional], interp: Interpretation) -> None:
    """Ito is only defined for a deterministic initial condition."""
    if interp is Interpretation.ITO and not all(c.is_deterministic for c in cs):
        raise ValueError("Ito interpretation requires a deterministic initial condition")


def exact_wealths(
    cs: Sequence[TerminalFunctional],
    params: "MarketParams",
    nodes: np.ndarray,
    w: np.ndarray,
    interp: Interpretation,
    growth: np.ndarray | None = None,
    work: Workspace | None = None,
) -> list[np.ndarray]:
    """Closed-form solution at ``nodes`` of each functional in ``cs``, for Brownian values ``w``.

    ``w`` holds one path or a block of paths along leading axes. Its last
    node must be the horizon, so ``w[..., -1:]`` is B_T; passing only the
    last node gives the terminal wealth alone. The anticipating variants
    evaluate the translated functional C(. - sigma t) at B_T node by node;
    the forward variant keeps C(B_T) frozen. Ito is only defined for
    deterministic C. C's argument and the growth factor are built once for
    all functionals; ``growth`` passes in ``growth_factor(params, nodes, w)``
    for a caller that already holds it. The arrays are taken from ``work``.
    """
    check_ito(cs, interp)
    shape = np.broadcast(nodes, w).shape
    if work is None:
        work = Workspace(math.prod(shape))
    if growth is None:
        growth = growth_factor(params, nodes, w, work.take("growth", shape))
    argument = w[..., -1:]
    if interp in ANTICIPATING:
        # held in the last functional's buffer, which evaluate then writes over in place
        last = work.take(f"exact{len(cs) - 1}", shape)
        argument = np.subtract(argument, params.sigma * nodes, out=last)
    # every functional reads this argument, so it is checked once
    _require_finite(argument)
    wealths = []
    for k, c in enumerate(cs):
        samples = c.evaluate_finite(argument, out=work.take(f"exact{k}", shape))
        samples *= growth
        wealths.append(samples)
    return wealths


def _riemann_sums(
    terms: Callable,
    nodes: np.ndarray,
    w: np.ndarray,
    i: int,
    right: bool,
    work: Workspace | None = None,
) -> list[np.ndarray]:
    """Riemann sums over the first i steps, along the trailing node axis of w.

    Each term is u(t_{k-1}, W_{k-1}, B_T - W_j) * (W_k - W_{k-1}), with the
    future argument read at the right node (j = k) or at the left node
    (j = k - 1). With no future dependence both are the Ito left-point sum.
    The arguments are built once, in ``work``; ``terms(s, x, y, dw)`` yields
    the terms u * dw of each integrand u on them, one sum per integrand.
    """
    shape = w.shape[:-1] + (i,)
    if work is None:
        work = Workspace(math.prod(shape))
    x = w[..., :i]
    y = np.subtract(w[..., -1:], w[..., 1 : i + 1] if right else x, out=work.take("y", shape))
    # np.diff, written into the workspace
    dw = np.subtract(w[..., 1 : i + 1], x, out=work.take("dw", shape))
    return [np.sum(t, axis=-1) for t in terms(nodes[:i], x, y, dw)]


def skorokhod_integral(
    u: ProductIntegrand, grid: TimeGrid, w: np.ndarray, t: float
) -> np.ndarray:
    """Divergence-type integral over [0, t] of each path of ``w``, whose trailing
    axis holds the nodes of ``grid``: the forward sum minus dt times the sum of
    the Malliavin trace at the left nodes."""
    if w.shape[-1] != grid.steps + 1:
        raise ValueError(f"paths of {w.shape[-1]} nodes do not lie on a {grid.steps}-step grid")

    def terms(s, x, y, dw):
        return [u(s, x, y) * dw, np.broadcast_to(malliavin_trace_partial(u, s, x, y), dw.shape)]

    forward, trace = _riemann_sums(terms, grid.nodes, w, grid.index_of(t), right=False)
    return forward - grid.dt * trace


def _levels(grids: Sequence[TimeGrid], w: np.ndarray) -> list[tuple[TimeGrid, int]]:
    """Each grid level with the stride that reads it off the paths ``w``."""
    steps = w.shape[-1] - 1
    levels = []
    for grid in grids:
        if steps % grid.steps:
            raise ValueError(f"a {grid.steps}-step level is no stride of {steps}-step paths")
        levels.append((grid, steps // grid.steps))
    return levels


def ak_residuals(
    cs: Sequence[TerminalFunctional],
    params: "MarketParams",
    grids: Sequence[TimeGrid],
    w: np.ndarray,
    work: Workspace | None = None,
) -> np.ndarray:
    """Defect of the anticipating exact solution in the mixed-endpoint integral form.

    R = S(T) - S(0) - mu * sum S(t_{i-1}) dt - sigma * (mixed-endpoint sum of S)
    over the whole grid, for each functional in ``cs``, each grid level in
    ``grids`` and every path of ``w``, as an array shaped (functional, level)
    plus the leading shape of ``w``. For smooth C the residual vanishes with
    the mesh; for indicator C its behavior is the numerical evidence the open
    solution question turns on. The functionals share what does not depend
    on them: E(t), read both by the exact solution and, at the left nodes, by
    the integrand Phi(s, x, y) = C(y + x - sigma s) E(s); the exact solution's
    argument B_T - sigma t; Phi's argument y + x - sigma s; and the
    increments. Each shared argument is checked for finiteness once. Every
    node-sized array is taken from ``work``.

    ``grids`` is a ladder of power-of-two grid levels whose steps divide
    those of ``w``. E(t) and the exact solutions are built once, at the
    finest level, and every coarser level reads them as strided views.
    """
    levels = _levels(grids, w)
    fine, stride = max(levels, key=lambda level: level[0].steps)
    v = w[..., ::stride]
    if work is None:
        work = Workspace(v.size)
    growth = growth_factor(params, fine.nodes, v, work.take("growth", v.shape))
    exact = exact_wealths(cs, params, fine.nodes, v, Interpretation.AYED_KUO, growth, work)

    def terms(s, x, y, dw):
        # nothing reads y after z, so z is written over it
        z = np.add(y, x, out=y)
        z -= params.sigma * s
        _require_finite(z)
        phi = work.take("phi", z.shape)
        for c in cs:
            # each term Phi * dw is summed before the next is written over it
            c.evaluate_finite(z, out=phi)
            phi *= left_growth
            phi *= dw
            yield phi

    residuals = np.empty((len(cs), len(levels)) + w.shape[:-1])
    for j, (grid, factor) in enumerate(levels):
        # linspace nodes of power-of-two grids coincide: fine node k * step is level node k
        step = factor // stride
        left_growth = growth[..., :-1:step]
        coarse = w[..., ::factor]
        stochastic = _riemann_sums(terms, grid.nodes, coarse, grid.steps, right=True, work=work)
        for k, (fine_samples, mixed) in enumerate(zip(exact, stochastic)):
            samples = fine_samples[..., ::step]
            drift = params.mu * grid.dt * np.sum(samples[..., :-1], axis=-1)
            residuals[k, j] = samples[..., -1] - samples[..., 0] - drift - params.sigma * mixed
    return residuals


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


def scheme_stack(c: TerminalFunctional, interp: Interpretation) -> list[TerminalFunctional]:
    """The functionals whose values at B_T start each level of a scheme, level 0 (C) first.

    Forward and Ito run the plain Euler scheme on C alone; Hitsuda-Skorokhod
    adds the correction stack of C's derivatives.
    """
    if interp in (Interpretation.ITO, Interpretation.FORWARD):
        return [c]
    if interp is Interpretation.HITSUDA_SKOROKHOD:
        return _correction_stack(c)
    raise ValueError(f"no direct scheme implements {interp.value}")


def scheme_starts(
    stacks: Sequence[Sequence[TerminalFunctional]], b_t: np.ndarray
) -> list[list[np.ndarray]]:
    """Each stack's level values at the terminal values ``b_t`` (trailing axis of length one).

    They depend on the path only through B_T, which every coarser view of a
    path shares, so one evaluation serves every level of a grid ladder.
    ``b_t`` is checked for finiteness once, and a functional that several
    stacks hold (the C that starts both the forward and the corrected
    stack) is evaluated once.
    """
    _require_finite(b_t)
    values: dict[int, np.ndarray] = {}
    for stack in stacks:
        for level in stack:
            if id(level) not in values:
                values[id(level)] = np.asarray(level.evaluate_finite(b_t), dtype=float)
    return [[values[id(level)] for level in stack] for stack in stacks]


def _level_columns(levels: list[tuple[TimeGrid, int]], params: "MarketParams"):
    """Where each level lies along the node axis of the end-to-end layout,
    and the per-node columns of its step constants.

    Returns each level's columns, the first column of each level, the Euler
    constant 1 + mu dt of each node's level (1 at a level's first node, which
    makes that node's Euler factor 1) and sigma * dt of each node's level.
    """
    widths = [grid.steps + 1 for grid, _ in levels]
    firsts = np.cumsum([0] + widths[:-1])
    spans = [slice(first, first + width) for first, width in zip(firsts.tolist(), widths)]
    euler = np.repeat([1.0 + params.mu * grid.dt for grid, _ in levels], widths)
    euler[firsts] = 1.0
    scale = np.repeat([params.sigma * grid.dt for grid, _ in levels], widths)
    return spans, firsts, euler, scale


def scheme_terminals(
    params: "MarketParams",
    grids: Sequence[TimeGrid],
    w: np.ndarray,
    stacks: Sequence[Sequence[TerminalFunctional]],
    work: Workspace | None = None,
) -> np.ndarray:
    """Discrete stock wealth of each scheme at the last node of each of ``grids``.

    ``w`` holds one path or a block of paths along leading axes; each of
    ``stacks`` is a ``scheme_stack``, whose levels start at their
    ``scheme_starts`` values on the B_T of ``w``. Returns an array shaped
    (scheme, level) plus the leading shape of ``w``. Every scheme is the
    left-point Euler scheme S_m = S_0 * g_1 * ... * g_m with
    g_k = 1 + mu dt + sigma dW_k, so ``g`` and each level's product of it
    are built once for all of them. Hitsuda-Skorokhod adds the per-step
    Malliavin drift correction: each stack level k holds the k-th derivative
    process started at C^(k)(B_T) and is corrected by sigma * dt times the
    level below it; level 0 is the wealth. With a vanishing first derivative
    the stack has one level and the scheme is plain Euler, bit for bit.
    Every node-sized array is taken from ``work``.

    ``grids`` is a ladder of grid levels whose steps divide those of ``w``:
    level j reads ``w[..., ::factor]`` and takes the steps_j + 1 columns of
    the node-sized arrays that follow the columns of the levels before it.
    Each stage runs once for all levels; only the products and sums run
    once per level. A level's product is a multiply reduction, a sequential
    loop, so it is the last value of the running product g_1, g_1 g_2, ...
    bit for bit; the sum of stack level 0 is a subtract reduction, the last
    value of its running sum bit for bit; and the wealth is formed at the
    last node only: every value is that of the scheme run node by node on
    that level alone, at its last node. The levels share B_T, so the start
    values are evaluated once for all of them.
    """
    levels = _levels(grids, w)
    starts = scheme_starts(stacks, w[..., -1:])
    shape = w.shape[:-1] + (sum(grid.steps + 1 for grid, _ in levels),)
    if work is None:
        work = Workspace(math.prod(shape))
    key = (tuple((grid.dt, factor) for grid, factor in levels), params.mu, params.sigma)
    spans, firsts, euler, scale = work.constant(key, lambda: _level_columns(levels, params))
    g = work.take("g", shape)
    for span, (_, factor) in zip(spans, levels):
        # np.diff of the level, written into the workspace
        np.subtract(w[..., factor::factor], w[..., :-1:factor], out=g[..., span][..., 1:])
    # g at each level's first node is sigma * 0 + 1, so it adds a factor 1 to
    # the product, which is g_1 * ... * g_m as over the steps alone
    g[..., firsts] = 0.0
    g *= params.sigma
    g += euler
    terminals = np.empty((len(stacks), len(levels)) + w.shape[:-1])
    # the same array with the level axis last, as the node axis is
    laid = np.moveaxis(terminals, 1, -1)
    products = np.empty(laid.shape[1:])
    for j, span in enumerate(spans):
        np.multiply.reduce(g[..., span], axis=-1, out=products[..., j])
    ends = [span.stop - 1 for span in spans]
    for values, start in zip(laid, starts):
        if len(start) == 1:
            np.multiply(start[0], products, out=values)
            continue
        # Work in ratios r_m = S_m / prod(g_1..g_m); the correction recursion is
        # then r_m = r_{m-1} - sigma*dt * r^below_{m-1} / g_m, a running sum.
        # The top level's ratios are its constant start over g. A level's first
        # column holds -0.0 before each sum, which adds it to nothing. The
        # in-place steps keep every product's operands. The wealth reads only
        # the last value of level 0's sum, so its terms are divided negated,
        # (-a) / g being -(a / g) exactly, and summed by a subtract reduction:
        # -0.0 - (-y_1) - (-y_2) ... is the running sum's sequential loop, as
        # IEEE defines a - (-b) as a + b, and only add reductions go pairwise.
        samples = work.take("samples", shape)
        np.divide(-start[-1] if len(start) == 2 else start[-1], g, out=samples)
        left = work.take("left", shape) if len(start) > 2 else None
        for k in range(len(start) - 2, 0, -1):
            samples[..., firsts] = -0.0
            # the ufunc behind np.cumsum, called without its wrapper
            for span in spans:
                np.add.accumulate(samples[..., span], axis=-1, out=samples[..., span])
            samples *= scale
            np.subtract(start[k], samples, out=samples)
            # step m of the level below reads this level's ratio at step m - 1,
            # start[k] at step 1: one shift by a column, each level's first
            # column holding start[k], negated where the level below is level 0
            samples[..., firsts] = start[k]
            shift = np.negative if k == 1 else np.positive
            shift(samples[..., :-1], out=left[..., 1:])
            left[..., :1] = shift(start[k])
            np.divide(left, g, out=samples)
        samples[..., firsts] = -0.0
        for j, span in enumerate(spans):
            np.subtract.reduce(samples[..., span], axis=-1, out=values[..., j])
        # the wealth's scale, subtraction and product, at each level's last node
        values *= scale[ends]
        np.subtract(start[0], values, out=values)
        values *= products
    return terminals


def first_flip(
    c: Indicator,
    params: "MarketParams",
    nodes: np.ndarray,
    b_t: np.ndarray,
    interp: Interpretation,
) -> tuple[np.ndarray, np.ndarray]:
    """Whether the indicator leg flips on/off along the grid, and when.

    ``b_t`` holds terminal values with a trailing axis of length one. The
    on/off state at node k is ``B_T - s * t_k > z``, with s = sigma for the
    anticipating variants and s = 0 for the forward one, whose state C(B_T)
    is frozen. The flip time is the midpoint of the bracketing interval, NaN
    where there is none.

    With s >= 0 (``MarketParams`` enforces sigma > 0) and nondecreasing
    ``nodes``, fl(s * t_k) is nondecreasing in k and fl(B_T - y) is
    nonincreasing in y, so the state can only go from on to off, at most
    once. A path therefore flipped exactly when its states at the first and
    last node differ, and the flipped rows bisect the node index in
    ceil(log2(steps)) rounds, reading the state only at the gathered index.
    The result equals a node-by-node scan bit for bit, in O(rows) memory.
    """
    slope = params.sigma if interp in ANTICIPATING else 0.0

    def state(b, t):
        return np.greater(b - slope * t, c.threshold)

    x = b_t[..., 0]
    flipped = state(x, nodes[0]) != state(x, nodes[-1])
    rows = np.flatnonzero(flipped)
    y = x.reshape(-1)[rows]
    # state(lo) is on and state(hi) is off on every flipped row
    lo = np.zeros(rows.size, dtype=np.intp)
    hi = np.full(rows.size, nodes.size - 1)
    # with no flipped row (the forward leg never has one) there is nothing to bisect
    for _ in range((nodes.size - 2).bit_length() if rows.size else 0):
        mid = (lo + hi) >> 1
        on = state(y, nodes[mid])
        np.copyto(lo, mid, where=on)
        np.copyto(hi, mid, where=~on)
    times = np.full(x.shape, np.nan)
    times.reshape(-1)[rows] = 0.5 * (nodes[lo] + nodes[lo + 1])
    return flipped, times
