"""Reference figures for bench/README.md; printed as markdown, not gated.

Run from the repository root (about a minute):

    python3 bench/reference.py

It prints µs per call of each layer's hot function at 8, 64, 1024 and 16384
steps, the cost of one Gauss-Hermite pass at 256 to 4096 nodes, and the wall
time of `expect --mc` at `--workers 1` and `--workers 2`.
"""
from __future__ import annotations

import contextlib
import io
import statistics
import sys
import time
import timeit
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from insidermc import analytics, cli, integrators, market, paths  # noqa: E402
from insidermc.integrators import Interpretation  # noqa: E402

STEPS = (8, 64, 1024, 16384)
NODES = (256, 512, 1024, 2048, 4096)
WORKER_PATHS = 20000  # paths of the --workers 1 against --workers 2 comparison
PARAMS = market.MarketParams(wealth=1.0, rho=0.02, mu=0.05, sigma=0.2, horizon=1.0)


def us_per_call(fn, budget_s: float = 0.2) -> float:
    """Median of five timings of ``fn()``, each about ``budget_s / 5`` long."""
    fn()  # warm caches (grid nodes, Hermite roots)
    number = max(1, int(budget_s / 5 / max(timeit.timeit(fn, number=1), 1e-7)))
    return statistics.median(timeit.repeat(fn, number=number, repeat=5)) / number * 1e6


def layer_table() -> None:
    affine = market.stock_functional(market.PartialTrust(), PARAMS)
    indicator = market.stock_functional(market.FullInformation(), PARAMS)
    ak = Interpretation.AYED_KUO
    rows = {}
    for n in STEPS:
        grid = paths.TimeGrid(1.0, n)
        path = paths.generate_path(grid, 1, 0)
        cases = {
            "paths.generate_path": lambda: paths.generate_path(grid, 1, 0),
            "paths.coarsen (factor 2)": lambda: paths.coarsen(path, 2),
            "integrators.exact_solution": lambda: integrators.exact_solution(affine, PARAMS, path, ak),
            "integrators.euler_forward": lambda: integrators.euler_forward(affine, PARAMS, path),
            "integrators.skorokhod_via_correction":
                lambda: integrators.skorokhod_via_correction(affine, PARAMS, path),
            "integrators.ak_residual": lambda: integrators.ak_residual(affine, PARAMS, path),
            "integrators.detect_indicator_flip":
                lambda: integrators.detect_indicator_flip(indicator, PARAMS, path),
            "market.total_wealth":
                lambda: market.total_wealth(market.PartialTrust(), PARAMS, path, ak),
        }
        for name, fn in cases.items():
            rows.setdefault(name, []).append(us_per_call(fn))
    print("| function | " + " | ".join(f"{n} steps" for n in STEPS) + " |")
    print("| --- |" + " ---: |" * len(STEPS))
    for name, values in rows.items():
        print(f"| `{name}` | " + " | ".join(f"{v:.1f}" for v in values) + " |")


def quadrature_table() -> None:
    affine = market.stock_functional(market.PartialTrust(), PARAMS)
    shift = PARAMS.sigma * PARAMS.horizon
    print("| nodes | µs per Gauss-Hermite pass |")
    print("| ---: | ---: |")
    for nodes in NODES:
        # the private per-pass routine: quadrature_expectation doubles nodes through it
        cost = us_per_call(lambda: analytics._tilted_gauss_hermite(affine, shift, PARAMS, nodes))
        print(f"| {nodes} | {cost:.1f} |")
    whole = us_per_call(lambda: analytics.quadrature_expectation(affine, shift, PARAMS))
    print(f"\n`quadrature_expectation` on the partial-trust functional: {whole:.1f} µs per call")


def workers_table() -> None:
    walls = {}
    for workers in (1, 2):
        argv = ["expect", "--mc", "--paths", str(WORKER_PATHS), "--workers", str(workers),
                "--seed", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main(argv)
            walls[workers] = time.perf_counter() - t0
        if code != 0:
            raise SystemExit(f"`insidermc {' '.join(argv)}` exited {code}")
    speedup = walls[1] / walls[2]
    print(f"`expect --mc --paths {WORKER_PATHS}`: {walls[1]:.2f} s at --workers 1, "
          f"{walls[2]:.2f} s at --workers 2; speed-up {speedup:.2f}, efficiency {speedup / 2:.2f}")


def main() -> None:
    layer_table()
    print()
    quadrature_table()
    print()
    workers_table()


if __name__ == "__main__":
    main()
