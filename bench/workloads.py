"""The benchmark's four workloads: CLI invocations, output checks, time to tolerance.

Every check compares the program's output with values computed here from
the closed forms of the model, or with properties the method must have. Each
check returns a list of problems; an empty list means the outputs are correct.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

# the default market of the CLI, written out so the checks do not read it from the program
MARKET = {"wealth": 1.0, "rho": 0.02, "mu": 0.05, "sigma": 0.2, "horizon": 1.0}

CONFIG_TEXT = "[market]\n" + "".join(f"{k} = {v!r}\n" for k, v in MARKET.items()) + (
    "\n[strategy]\nkind = partial-trust\n"
)

CHECK_STDERRS = 4.0
QUAD_BAR = 1e-8  # closed form against quadrature, as a share of the wealth M
SLOPE_FLOOR = 0.4
CONVERGE_LADDER = (256, 512, 1024, 2048, 4096, 8192, 16384)
CONJECTURE_LADDER = (256, 1024, 4096)
# standard error that time_to_tol_s aims at: times M for expectations, absolute for a frequency
STDERR_TARGET = 1e-3
SWEEP_SAMPLE = 32  # parameter sets of a sweep that are recomputed here

Payloads = dict[str, dict]


@dataclass(frozen=True)
class Op:
    """One CLI invocation; the runner appends --config, --seed, --workers and --json,
    or --csv when ``csv`` is set (the payload is then ``{"rows": [dict per CSV row]}``)."""

    name: str
    argv: tuple[str, ...]
    csv: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    # (payloads by op name, seed) -> problems
    check: Callable[[Payloads, int], list[str]]
    # (payloads by op name, wall seconds by op name) -> seconds to reach STDERR_TARGET
    time_to_tol: Callable[[Payloads, dict[str, float]], float]
    # run once before the rounds; their outputs join every round's for checks and time_to_tol
    once: tuple[Op, ...] = ()


def norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def closed_forms(market: dict) -> dict[str, float]:
    """Expected terminal wealth: all-stock honest trader and the partial-trust insider."""
    m, rho, mu, sigma, t = (market[k] for k in ("wealth", "rho", "mu", "sigma", "horizon"))
    a = sigma**2 / (4.0 * (mu - rho))
    anticipating = m * (a * math.exp(rho * t) + (1.0 - a) * math.exp(mu * t))
    return {
        "honest": m * math.exp(mu * t),
        "hs": anticipating,
        "ak": anticipating,
        "rv": m * (a * math.exp(rho * t) + (1.0 + a) * math.exp(mu * t)),
    }


def flip_probability(market: dict) -> float:
    """P(z < B_T <= z + sigma T) for the betting threshold z."""
    rho, mu, sigma, t = (market[k] for k in ("rho", "mu", "sigma", "horizon"))
    z = (rho - mu + 0.5 * sigma**2) * t / sigma
    return norm_cdf((z + sigma * t) / math.sqrt(t)) - norm_cdf(z / math.sqrt(t))


def _finite(*values: float) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _wall_time(payloads: Payloads, walls: dict[str, float]) -> float:
    return sum(walls.values())


# --- expect-mc -------------------------------------------------------------


def check_expect_mc(payloads: Payloads, seed: int, reference: dict | None = None) -> list[str]:
    ref = reference or closed_forms(MARKET)
    m = MARKET["wealth"]
    problems = []
    for name in ("variance", "expect"):
        out = payloads[name]
        mc = out["monte_carlo"]
        for label in ("honest", "hs", "ak", "rv"):
            est, se = mc[label]["estimate"], mc[label]["stderr"]
            if not (_finite(est, se) and se > 0.0):
                problems.append(f"{name} {label}: estimate {est} with stderr {se} is not usable")
            elif abs(est - ref[label]) > CHECK_STDERRS * se:
                problems.append(
                    f"{name} {label}: MC {est!r} is {abs(est - ref[label]) / se:.1f} stderr "
                    f"from {ref[label]!r}"
                )
            closed = out["closed_form"][label]
            if abs(closed - ref[label]) > 1e-12 * max(abs(ref[label]), m):
                problems.append(f"{name} {label}: closed form {closed!r} != {ref[label]!r}")
            gap = abs(closed - out["quadrature"][label])
            if not gap <= QUAD_BAR * m:
                problems.append(f"{name} {label}: closed form and quadrature differ by {gap:.3e}")
        if any(mc["ak"][k] != mc["hs"][k] for k in ("estimate", "stderr")):
            problems.append(f"{name}: ayed-kuo and hitsuda-skorokhod estimates are not bit-identical")
    return problems


def ttt_expect_mc(payloads: Payloads, walls: dict[str, float]) -> float:
    """Per estimate: its share of this round's ``expect`` wall per path, times
    the per-path variance of the run's large ``variance`` estimate, over the
    squared target.

    That is the estimate's time x (stderr / target)^2 at the large size. The
    wall is the benchmark's own clock, split by the program's reported
    ``elapsed_seconds``, so work moved out of the reported estimates still
    counts. The variance comes from the large run because at the round's
    size its seed noise alone spreads the figure by about 19 %.
    """
    target = STDERR_TARGET * MARKET["wealth"]
    timed = payloads["expect"]["monte_carlo"]
    large = payloads["variance"]["monte_carlo"]
    reported = sum(timed[k]["elapsed_seconds"] for k in timed)
    return sum(
        walls["expect"] * timed[k]["elapsed_seconds"] / reported / timed[k]["n_paths"]
        * large[k]["n_paths"] * (large[k]["stderr"] / target) ** 2
        for k in timed
    )


def expect_mc(paths: int = 2000, variance_paths: int = 20000, steps: int = 1024) -> Workload:
    def op(name: str, n: int) -> Op:
        return Op(name, ("expect", "--mc", "--steps", str(steps), "--paths", str(n)))

    return Workload("expect-mc", (op("expect", paths),), check_expect_mc, ttt_expect_mc,
                    once=(op("variance", variance_paths),))


# --- flip-short ------------------------------------------------------------


def check_flip_short(payloads: Payloads, seed: int, reference: float | None = None) -> list[str]:
    row = payloads["jump"]["rows"][0]
    freq, n, flips, rv_flips = (
        float(row["frequency"]), int(row["n_paths"]), int(row["n_flips"]), int(row["rv_flips"])
    )
    p = flip_probability(MARKET) if reference is None else reference
    problems = []
    binomial_se = math.sqrt(p * (1.0 - p) / n)
    if abs(freq - p) > CHECK_STDERRS * binomial_se:
        problems.append(
            f"flip frequency {freq!r} is {abs(freq - p) / binomial_se:.1f} binomial stderr from {p!r}"
        )
    if flips != round(freq * n):
        problems.append(f"{flips} flips do not give frequency {freq!r}")
    if rv_flips != 0:
        problems.append(f"the forward solution flipped on {rv_flips} paths")
    return problems


def ttt_flip_short(payloads: Payloads, walls: dict[str, float]) -> float:
    return walls["jump"] * (float(payloads["jump"]["rows"][0]["stderr"]) / STDERR_TARGET) ** 2


def flip_short(paths: int = 25000, steps: int = 64) -> Workload:
    # `jump --json` raises TypeError at this commit (a numpy bool in the report), so the
    # workload reads the CSV output
    op = Op("jump", ("jump", "--steps", str(steps), "--paths", str(paths)), csv=True)
    return Workload("flip-short", (op,), check_flip_short, ttt_flip_short)


# --- ladder ----------------------------------------------------------------


def check_ladder(payloads: Payloads, seed: int) -> list[str]:
    problems = []
    tables = {t["interpretation"]: t for t in payloads["converge"]["tables"]}
    if set(tables) != {"forward", "hitsuda-skorokhod"}:
        problems.append(f"converge ran {sorted(tables)}, not the forward and HS schemes")
    for name, table in tables.items():
        ns = tuple(r["n"] for r in table["rows"])
        errors = [r["mean_abs_error"] for r in table["rows"]]
        if ns != CONVERGE_LADDER:
            problems.append(f"{name}: ladder {ns} is not {CONVERGE_LADDER}")
        if not _finite(table["slope"], *errors):
            problems.append(f"{name}: non-finite slope or errors")
        elif not table["slope"] >= SLOPE_FLOOR:
            problems.append(f"{name}: fitted decay {table['slope']:.3f} < {SLOPE_FLOOR}")
        elif not errors[0] > errors[-1]:
            problems.append(f"{name}: error does not fall from n={ns[0]} to n={ns[-1]}")
    report = payloads["conjecture"]["report"]
    if report["control_verdict"] != "shrinking":
        problems.append(f"affine control trend is {report['control_verdict']!r}, not shrinking")
    return problems


def ladder(converge_paths: int = 200, conjecture_paths: int = 250) -> Workload:
    ops = (
        Op("converge", ("converge", "--paths", str(converge_paths))),
        Op(
            "conjecture",
            ("conjecture", "--paths", str(conjecture_paths),
             "--n-list", ",".join(map(str, CONJECTURE_LADDER))),
        ),
    )
    return Workload("ladder", ops, check_ladder, _wall_time)


# --- quad-sweep ------------------------------------------------------------


def check_quad_sweep(
    payloads: Payloads, seed: int, reference: Callable[[dict], dict] = closed_forms
) -> list[str]:
    """Sweep summary, then a sample of its sets recomputed against ``reference``.

    The sets are redrawn the way ``ordering-sweep`` draws them from its seed;
    the sample is compared with the program's quadrature oracle.
    """
    # imported here: run.py imports this module and uses only the standard library
    import numpy as np
    from insidermc import analytics, market

    out = payloads["sweep"]
    problems = []
    if out["chain_failures"] != 0:
        problems.append(f"{out['chain_failures']} parameter sets break the expectation chain")
    if not out["max_quad_gap"] <= QUAD_BAR:
        problems.append(f"closed form and quadrature differ by {out['max_quad_gap']:.3e}")
    for family, margin in out["min_margins"].items():
        if not margin > 0.0:
            problems.append(f"{family}: E_RV - E_AK margin {margin!r} is not positive")
    sets = int(out["config"]["sets"])
    rng = np.random.default_rng(seed)
    stride = max(1, sets // SWEEP_SAMPLE)
    for i in range(sets):
        params = market.random_params(rng)
        if i % stride or i // stride >= SWEEP_SAMPLE:
            continue
        ref = reference(vars(params))
        if not ref["hs"] < ref["honest"] < ref["rv"]:
            problems.append(f"set {i}: closed forms {ref} break the chain")
        quad = analytics.quadrature_table(params)
        gap = max(abs(getattr(quad, k) - ref[k]) for k in ref) / params.wealth
        if not gap <= QUAD_BAR:
            problems.append(f"set {i}: quadrature is {gap:.3e} from the closed forms")
    return problems


def quad_sweep(sets: int = 1800) -> Workload:
    op = Op("sweep", ("ordering-sweep", "--sets", str(sets)))
    return Workload("quad-sweep", (op,), check_quad_sweep, _wall_time)


WORKLOADS: dict[str, Callable[..., Workload]] = {
    "expect-mc": expect_mc,
    "flip-short": flip_short,
    "ladder": ladder,
    "quad-sweep": quad_sweep,
}
