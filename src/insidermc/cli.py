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
``ExperimentConfig.override``; each flag's ``dest`` is its config key.
``build_parser`` reads two tables: ``_COMMANDS`` gives each subcommand's
function, help and own flags, and ``config.FIELDS`` the flags of the run and
output keys. Every subcommand hands its CSV rows and JSON payload to one
writer, ``_write``, which adds the subcommand's name to the config echo.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from functools import cache
from pathlib import Path

import numpy as np

from . import analytics
from .config import FIELDS, ConfigError, ExperimentConfig, load_file
from .functionals import MonotonicityError, NonDifferentiableError, arctangent, logistic
from .harness import (
    NumericalError,
    conjecture_report,
    convergence_studies,
    discontinuity_probe,
    estimate_expectations,
)
from .integrators import Interpretation
from .market import Honest, PartialTrust, random_param_sets, stock_functional
from .paths import _BLOCK_VALUES, TimeGrid

ENV_SEED = "INSIDERMC_SEED"
ENV_WORKERS = "INSIDERMC_WORKERS"

_SCHEME_INTERPS = (Interpretation.FORWARD, Interpretation.HITSUDA_SKOROKHOD)
_CONVERGE_LADDER = (256, 512, 1024, 2048, 4096, 8192, 16384)
_CONJECTURE_LADDER = (256, 1024, 4096)
_SLOPE_FLOOR = 0.4
# the largest closed-form vs quadrature gap, relative to the wealth, that passes
_QUAD_BAR = 1e-8
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
    args: argparse.Namespace,
    header: tuple[str, ...],
    rows: list[dict],
    payload: dict,
    **extra: str,
) -> None:
    """Write the CSV and JSON outputs ``cfg`` asks for, each headed by the config echo.

    The echo is ``cfg.echo()``, then the subcommand, then the ``extra`` keys.
    Each CSV row is read by the ``header`` names; the JSON output is
    ``payload`` plus the echo under ``config``, with sorted keys.
    """
    echo = cfg.echo() | {"subcommand": args.command} | extra
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

    print(analytics.render_tables(tables))
    print()
    print(f"chain verdicts: HS == AK: {closed.hs_equals_ak}, "
          f"AK < honest: {closed.ak_below_honest}, honest < RV: {closed.honest_below_rv}")
    if closed.hs < 0.0:
        print("debt regime: the anticipating expectations are negative")

    gap = max(
        abs(closed.hs - quad.hs), abs(closed.rv - quad.rv), abs(closed.honest - quad.honest)
    ) / cfg.params.wealth
    print(f"closed-form vs quadrature gap: {gap:.3e} (bar {_QUAD_BAR:.0e})")
    failed = not closed.all_hold or gap > _QUAD_BAR
    for label, report in reports.items():
        off = abs(report.estimate - getattr(closed, label))
        if off > 4.0 * report.stderr:
            print(f"monte-carlo {label} estimate off by {off:.3e} > 4 stderr")
            failed = True

    payload = {
        "verdicts": {
            "hs_equals_ak": closed.hs_equals_ak,
            "ak_below_honest": closed.ak_below_honest,
            "honest_below_rv": closed.honest_below_rv,
        },
        "closed_form": {leg: getattr(closed, leg) for leg in _LEGS},
        "quadrature": {leg: getattr(quad, leg) for leg in _LEGS},
        "monte_carlo": {label: asdict(report) for label, report in reports.items()},
    }
    rows = [t.cells() for t in tables]
    _write(cfg, args, analytics.CSV_HEADER, rows, payload)
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
    header = ("interpretation", "n", "mean_abs_error", "slope")
    _write(cfg, args, header, rows, {"tables": summaries}, n_list=",".join(map(str, n_list)))
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
    _write(cfg, args, header, [summary], {"report": summary})
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
    header = ("group", "n", "q10", "q25", "q50", "q75", "q90", "verdict")
    _write(cfg, args, header, rows, {"report": summary}, n_list=",".join(map(str, n_list)))
    return 0


def cmd_ordering_sweep(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    if args.sets < 1:
        raise ConfigError(f"--sets must be at least 1, got {args.sets}")
    rng = np.random.default_rng(cfg.seed)
    chain_failures = 0
    quad_gap = 0.0
    margins = {"logistic": math.inf, "arctangent": math.inf, "affine": math.inf}
    # the kernels bound each evaluation; a block bounds the per-set state held at once
    block = _BLOCK_VALUES // analytics._QUAD_START
    for lo in range(0, args.sets, block):
        sets = random_param_sets(rng, min(block, args.sets - lo))
        # the block's wealth is one float; the affine coefficients are columns
        families = {
            "logistic": logistic(sets.wealth),
            "arctangent": arctangent(sets.wealth),
            "affine": stock_functional(PartialTrust(), sets),
        }
        legs = {
            name: np.array(analytics.ordering_monotone_block(c, sets))
            for name, c in families.items()
        }
        closed = analytics.closed_form_table(sets)
        chain_failures += len(sets) - int(np.count_nonzero(closed.all_hold))
        # the insider bond leg plus the affine legs are quadrature_table's HS and RV
        hs, rv = analytics.insider_bond_leg(sets) + legs["affine"]
        off_hs, off_rv = np.abs(closed.hs - hs), np.abs(closed.rv - rv)
        quad_gap = max(quad_gap, float(np.max(np.maximum(off_hs, off_rv) / sets.wealth)))
        for name, (e_ak, e_rv) in legs.items():
            margins[name] = min(margins[name], float(np.min((e_rv - e_ak) / sets.wealth)))
    print(f"sets: {args.sets}; chain failures: {chain_failures}; "
          f"max closed-vs-quadrature gap: {quad_gap:.3e}")
    for name, margin in margins.items():
        print(f"min (E_RV - E_AK)/M for {name}: {margin:.3e}")
    failed = chain_failures > 0 or quad_gap > _QUAD_BAR or any(
        m <= 1e-10 for m in margins.values()
    )
    payload = {"chain_failures": chain_failures, "max_quad_gap": quad_gap, "min_margins": margins}
    row = payload | {"sets": args.sets} | {f"min_margin_{k}": v for k, v in margins.items()}
    header = ("sets", "chain_failures", "max_quad_gap", *(f"min_margin_{k}" for k in margins))
    _write(cfg, args, header, [row], payload, sets=str(args.sets))
    return 1 if failed else 0


# name: (function, help, the subcommand's own flags and their argparse options)
_COMMANDS = {
    "expect": (cmd_expect, "expected-wealth table: closed form vs quadrature",
               {"--mc": {"action": "store_true", "help": "add a Monte Carlo row"}}),
    "converge": (cmd_converge, "scheme error decay over a grid ladder", {}),
    "jump": (cmd_jump, "indicator flip frequency vs closed form", {}),
    "conjecture": (cmd_conjecture, "indicator-candidate residual evidence", {}),
    "ordering-sweep": (
        cmd_ordering_sweep, "expectation chain over random parameters",
        {"--sets": {"type": int, "default": 1000, "help": "number of parameter sets"}},
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="insidermc",
        description="Compare noise interpretations of the insider portfolio SDE.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, own_flags) in _COMMANDS.items():
        p = subs.add_parser(name, help=help_text)
        p.add_argument("--config", help="experiment config file (INI sections)")
        for _, key, _, _, _, options, commands in FIELDS:
            if options is not None and (commands is None or name in commands):
                p.add_argument(f"--{key.replace('_', '-')}", **options)
        for flag, options in own_flags.items():
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import; parse_args keeps no state between calls
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
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
