"""Command-line front end.

One subcommand per claim the library reproduces:

* ``expect``         closed-form vs quadrature (vs optional Monte Carlo) wealth table
* ``converge``       scheme-vs-exact error decay over a grid ladder
* ``jump``           indicator flip frequency vs the closed-form probability
* ``conjecture``     integral-form residuals of the indicator candidate (evidence only)
* ``ordering-sweep`` the expectation chain over random parameter sets

Exit codes: 0 pass, 1 quantitative check failed, 2 usage/config error,
3 numerical failure. Option precedence: flags > environment > config file
(INSIDERMC_SEED and INSIDERMC_WORKERS are honored). All three set the run
and output keys of the config field table (``config.FIELDS``) through
``ExperimentConfig.override``; each flag's ``dest`` is its config key. Every
subcommand hands its CSV rows and JSON payload to one writer, ``_write``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import analytics
from .config import ConfigError, ExperimentConfig, load_file
from .functionals import (
    Affine,
    MonotonicityError,
    NonDifferentiableError,
    arctangent,
    logistic,
)
from .harness import (
    NumericalError,
    conjecture_report,
    convergence_studies,
    discontinuity_probe,
    estimate_expectations,
)
from .integrators import Interpretation
from .market import Honest, PartialTrust, random_params, stock_functional
from .paths import _BLOCK_VALUES, TimeGrid

ENV_SEED = "INSIDERMC_SEED"
ENV_WORKERS = "INSIDERMC_WORKERS"

_SCHEME_INTERPS = (Interpretation.FORWARD, Interpretation.HITSUDA_SKOROKHOD)
_CONVERGE_LADDER = (256, 512, 1024, 2048, 4096, 8192, 16384)
_CONJECTURE_LADDER = (256, 1024, 4096)
_SLOPE_FLOOR = 0.4
# the WealthTable fields of the four expected wealths, and the expect --mc cases
_LEGS = ("honest", "hs", "ak", "rv")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    # a numpy scalar's repr names its type, so it must not reach a cell
    if type(value) not in (int, float, bool):
        raise TypeError(f"CSV cell {value!r} is not a Python scalar")
    return repr(value)


def _write(
    cfg: ExperimentConfig,
    echo: dict[str, str],
    header: tuple[str, ...],
    rows: list[dict],
    payload: dict,
) -> None:
    """Write the CSV and JSON outputs ``cfg`` asks for, each headed by the config ``echo``.

    Each CSV row is read by the ``header`` names; the JSON output is
    ``payload`` plus the echo under ``config``, with sorted keys.
    """
    if cfg.csv_path:
        lines = [f"# {key} = {value}" for key, value in echo.items()]
        lines.append(",".join(header))
        lines.extend(",".join(_cell(row[name]) for name in header) for row in rows)
        Path(cfg.csv_path).write_text("\n".join(lines) + "\n")
    if cfg.json_path:
        text = json.dumps({"config": echo, **payload}, indent=2, sort_keys=True)
        Path(cfg.json_path).write_text(text + "\n")


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = load_file(args.config) if args.config else ExperimentConfig()
    for name, key in ((ENV_SEED, "seed"), (ENV_WORKERS, "workers")):
        cfg = cfg.override({key: os.environ.get(name)}, invalid=f"{name} must be an integer")
    return cfg.override(vars(args))


def cmd_expect(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    closed = analytics.closed_form_table(cfg.params)
    quad = analytics.quadrature_table(cfg.params)
    tables = [closed, quad]
    reports = {}
    if args.mc:
        grid = TimeGrid(cfg.params.horizon, cfg.steps)
        cases = (
            (Honest(0.0, cfg.params.wealth), Interpretation.ITO),
            (PartialTrust(), Interpretation.HITSUDA_SKOROKHOD),
            (PartialTrust(), Interpretation.AYED_KUO),
            (PartialTrust(), Interpretation.FORWARD),
        )
        estimates = estimate_expectations(
            cases, cfg.params, cfg.n_paths, grid, cfg.seed, workers=cfg.workers,
        )
        reports = dict(zip(_LEGS, estimates))
        tables.append(analytics.WealthTable(
            cfg.params, "monte-carlo", **{leg: r.estimate for leg, r in reports.items()}
        ))

    verdict = analytics.verify_ordering(cfg.params)
    print(analytics.render_tables(tables))
    print()
    print(f"chain verdicts: HS == AK: {verdict.hs_equals_ak}, "
          f"AK < honest: {verdict.ak_below_honest}, honest < RV: {verdict.honest_below_rv}")
    if verdict.hs < 0.0:
        print("debt regime: the anticipating expectations are negative")

    gap = max(
        abs(closed.hs - quad.hs), abs(closed.rv - quad.rv), abs(closed.honest - quad.honest)
    ) / cfg.params.wealth
    print(f"closed-form vs quadrature gap: {gap:.3e} (bar 1e-08)")
    failed = not verdict.all_hold or gap > 1e-8
    for label, report in reports.items():
        off = abs(report.estimate - getattr(closed, label))
        if off > 4.0 * report.stderr:
            print(f"monte-carlo {label} estimate off by {off:.3e} > 4 stderr")
            failed = True

    payload = {
        "verdicts": {
            "hs_equals_ak": verdict.hs_equals_ak,
            "ak_below_honest": verdict.ak_below_honest,
            "honest_below_rv": verdict.honest_below_rv,
        },
        "closed_form": {leg: getattr(closed, leg) for leg in _LEGS},
        "quadrature": {leg: getattr(quad, leg) for leg in _LEGS},
        "monte_carlo": {label: asdict(report) for label, report in reports.items()},
    }
    rows = [t.cells() for t in tables]
    _write(cfg, cfg.echo() | {"subcommand": "expect"}, analytics.CSV_HEADER, rows, payload)
    return 1 if failed else 0


def cmd_converge(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    n_list = cfg.n_list or _CONVERGE_LADDER
    interps = [i for i in cfg.interpretations if i in _SCHEME_INTERPS]
    if not interps:
        raise ConfigError(
            "no interpretation in the list has a direct scheme "
            "(need forward or hitsuda-skorokhod)"
        )
    tables = convergence_studies(
        cfg.strategy, cfg.params, interps, tuple(n_list), cfg.n_paths, cfg.seed, cfg.workers
    )
    failed = False
    for table in tables:
        ok = table.slope >= _SLOPE_FLOOR  # False for a NaN slope
        slope = "degenerate" if math.isnan(table.slope) else f"{table.slope:.3f}"
        print(f"{table.interpretation.value}: fitted decay {slope} "
              f"({'ok' if ok else 'TOO SHALLOW'})")
        for n, err in table.rows:
            print(f"  n = {n:>6d}  mean |error| = {err:.6e}")
        failed = failed or not ok
    summaries = [
        {
            "interpretation": t.interpretation.value,
            "slope": t.slope,
            "rows": [{"n": n, "mean_abs_error": e} for n, e in t.rows],
        }
        for t in tables
    ]
    # one CSV row per JSON row, with its table's interpretation and slope
    rows = [summary | row for summary in summaries for row in summary["rows"]]
    echo = cfg.echo() | {"subcommand": "converge", "n_list": ",".join(map(str, n_list))}
    header = ("interpretation", "n", "mean_abs_error", "slope")
    _write(cfg, echo, header, rows, {"tables": summaries})
    return 1 if failed else 0


def cmd_jump(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    grid = TimeGrid(cfg.params.horizon, cfg.steps)
    report = discontinuity_probe(cfg.params, cfg.n_paths, grid, cfg.seed, cfg.workers)
    if report.degenerate:
        frequency = f"degenerate ({report.n_flips} of {report.n_paths} paths flipped)"
    else:
        frequency = f"{report.frequency:.6f} +- {report.stderr:.6f}"
    print(f"empirical flip frequency: {frequency}")
    print(f"closed-form probability:  {report.closed_form:.6g}")
    mean_t = "n/a" if report.mean_flip_time is None else f"{report.mean_flip_time:.4f}"
    print(f"mean flip time: {mean_t}; forward-solution flips: {report.rv_flips}")
    summary = asdict(report) | {"within_tolerance": report.within_tolerance}
    header = ("frequency", "stderr", "closed_form", "n_flips", "n_paths", "grid_steps",
              "mean_flip_time", "rv_flips")
    _write(cfg, cfg.echo() | {"subcommand": "jump"}, header, [summary], {"report": summary})
    if report.degenerate:
        print("degenerate: a binomial stderr of 0 cannot be checked against the closed form")
        return 1
    if not report.within_tolerance:
        print("frequency disagrees with the closed form beyond 4 binomial stderr")
        return 1
    if report.rv_flips:
        print("forward indicator solution flipped; it must be flip-free")
        return 1
    return 0


def cmd_conjecture(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    n_list = cfg.n_list or _CONJECTURE_LADDER
    report = conjecture_report(cfg.params, cfg.n_paths, tuple(n_list), cfg.seed, cfg.workers)
    print("residual quantiles (EVIDENCE about an open question, not a proof)")
    print(f"{'group':<22}{'n':>7}{'q10':>12}{'q25':>12}{'q50':>12}{'q75':>12}{'q90':>12}")
    for row in report.rows:
        print(
            f"{row.group:<22}{row.steps:>7d}"
            f"{row.q10:>12.3e}{row.q25:>12.3e}{row.q50:>12.3e}{row.q75:>12.3e}{row.q90:>12.3e}"
        )
    print(f"candidate trend: {report.candidate_verdict}; control trend: {report.control_verdict}")
    summary = asdict(report)
    rows = []
    for row in summary["rows"]:
        candidate = row["group"] == "indicator-candidate"
        verdict = report.candidate_verdict if candidate else report.control_verdict
        rows.append(row | {"n": row["steps"], "verdict": verdict})
    echo = cfg.echo() | {"subcommand": "conjecture", "n_list": ",".join(map(str, n_list))}
    header = ("group", "n", "q10", "q25", "q50", "q75", "q90", "verdict")
    _write(cfg, echo, header, rows, {"report": summary})
    return 0


def cmd_ordering_sweep(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    if args.sets < 1:
        raise ConfigError(f"--sets must be at least 1, got {args.sets}")
    rng = np.random.default_rng(cfg.seed)
    chain_failures = 0
    quad_gap = 0.0
    margins = {"logistic": math.inf, "arctangent": math.inf, "affine": math.inf}
    # each block's largest node grid holds at most _BLOCK_VALUES values
    block = _BLOCK_VALUES // analytics._QUAD_MAX
    for lo in range(0, args.sets, block):
        sets = [random_params(rng) for _ in range(min(block, args.sets - lo))]
        # one coefficient per set, as columns against the node axis
        stocks = [stock_functional(PartialTrust(), params) for params in sets]
        wealth = np.array([[params.wealth] for params in sets])
        families = {
            "logistic": logistic(wealth),
            "arctangent": arctangent(wealth),
            "affine": Affine(np.array([[c.a] for c in stocks]), np.array([[c.b] for c in stocks])),
        }
        legs = {name: analytics.ordering_monotone_block(c, sets) for name, c in families.items()}
        for i, params in enumerate(sets):
            verdict = analytics.verify_ordering(params)
            if not verdict.all_hold:
                chain_failures += 1
            # the insider bond leg plus the affine legs are quadrature_table's HS and RV
            bond = analytics.insider_bond_leg(params)
            hs, rv = (bond + leg[i] for leg in legs["affine"])
            gap = max(abs(verdict.hs - hs), abs(verdict.rv - rv)) / params.wealth
            quad_gap = max(quad_gap, gap)
            for name, (e_ak, e_rv) in legs.items():
                margins[name] = min(margins[name], (e_rv[i] - e_ak[i]) / params.wealth)
    print(f"sets: {args.sets}; chain failures: {chain_failures}; "
          f"max closed-vs-quadrature gap: {quad_gap:.3e}")
    for name, margin in margins.items():
        print(f"min (E_RV - E_AK)/M for {name}: {margin:.3e}")
    failed = chain_failures > 0 or quad_gap > 1e-8 or any(
        m <= 1e-10 for m in margins.values()
    )
    payload = {"chain_failures": chain_failures, "max_quad_gap": quad_gap, "min_margins": margins}
    row = payload | {"sets": args.sets} | {f"min_margin_{k}": v for k, v in margins.items()}
    header = ("sets", "chain_failures", "max_quad_gap", *(f"min_margin_{k}" for k in margins))
    echo = cfg.echo() | {"subcommand": "ordering-sweep", "sets": str(args.sets)}
    _write(cfg, echo, header, [row], payload)
    return 1 if failed else 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="experiment config file (INI sections)")
    sub.add_argument("--seed", type=int, help="RNG seed (overrides env and file)")
    sub.add_argument("--paths", type=int, help="number of Monte Carlo paths")
    sub.add_argument(
        "--steps", type=int,
        help="grid steps per path (expect --mc draws B_T directly and ignores it; "
        "in jump it sets only the flip-time grid)",
    )
    sub.add_argument("--workers", type=int, help="parallel sampling workers")
    sub.add_argument("--csv", help="write results as CSV")
    sub.add_argument("--json", metavar="JSON_OUT", help="write a JSON summary")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="insidermc",
        description="Compare noise interpretations of the insider portfolio SDE.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("expect", help="expected-wealth table: closed form vs quadrature")
    _add_common(p)
    p.add_argument("--mc", action="store_true", help="add a Monte Carlo row")
    p.set_defaults(func=cmd_expect)

    p = subs.add_parser("converge", help="scheme error decay over a grid ladder")
    _add_common(p)
    p.add_argument("--n-list", help="comma-separated grid sizes (powers of two)")
    p.set_defaults(func=cmd_converge)

    p = subs.add_parser("jump", help="indicator flip frequency vs closed form")
    _add_common(p)
    p.set_defaults(func=cmd_jump)

    p = subs.add_parser("conjecture", help="indicator-candidate residual evidence")
    _add_common(p)
    p.add_argument("--n-list", help="comma-separated grid sizes (powers of two)")
    p.set_defaults(func=cmd_conjecture)

    p = subs.add_parser("ordering-sweep", help="expectation chain over random parameters")
    _add_common(p)
    p.add_argument("--sets", type=int, default=1000, help="number of parameter sets")
    p.set_defaults(func=cmd_ordering_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _load_config(args)
        return args.func(cfg, args)
    except (ConfigError, NonDifferentiableError, MonotonicityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (analytics.QuadratureError, NumericalError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
