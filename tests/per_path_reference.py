"""Per-path references that the tests share and the package does not ship."""
import numpy as np

from insidermc import Interpretation, initial_allocation, stock_functional
from insidermc.integrators import _correction_stack, exact_wealths


def wealth_at(strategy, params, nodes, w, interp):
    """Exact total wealth at ``nodes`` along the trailing axis of ``w``: the stock leg
    of ``exact_wealths`` plus the time-0 bond leg compounded at the bond rate."""
    (stock,) = exact_wealths([stock_functional(strategy, params)], params, nodes, w, interp)
    _, bond0 = initial_allocation(strategy, params, w[..., -1:])
    return stock + bond0 * np.exp(params.rho * nodes)


def scheme_at_nodes(c, params, grid, w, interp):
    """The scheme that ``interp`` runs, S_0 = C(B_T), at every node of ``grid``
    along the trailing axis of ``w``, one scheme at a time.

    Forward and Ito run plain Euler, Hitsuda-Skorokhod the Malliavin-corrected
    scheme, here with every stack level's ratios filled before dividing and
    the wealth formed at every node by ``np.cumprod``. ``scheme_terminals``
    must return its last column bit for bit.
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
