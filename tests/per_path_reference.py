"""Per-path references that the tests share and the package does not ship."""
import numpy as np

from insidermc import initial_allocation, stock_functional
from insidermc.integrators import exact_wealths


def wealth_at(strategy, params, nodes, w, interp):
    """Exact total wealth at ``nodes`` along the trailing axis of ``w``: the stock leg
    of ``exact_wealths`` plus the time-0 bond leg compounded at the bond rate."""
    (stock,) = exact_wealths([stock_functional(strategy, params)], params, nodes, w, interp)
    _, bond0 = initial_allocation(strategy, params, w[..., -1:])
    return stock + bond0 * np.exp(params.rho * nodes)
