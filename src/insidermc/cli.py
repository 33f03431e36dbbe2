"""Command-line front end.

One subcommand per claim the library reproduces:

* ``expect``         closed-form vs quadrature (vs optional Monte Carlo) wealth table
* ``converge``       scheme-vs-exact error decay over a grid ladder
* ``jump``           indicator flip frequency vs the closed-form probability
* ``conjecture``     integral-form residuals of the indicator candidate (evidence only)
* ``ordering-sweep`` the expectation chain over random parameter sets

Exit codes: 0 pass, 1 quantitative check failed, 2 usage/config error,
3 numerical failure. Option precedence: flags > environment > config file
(INSIDERMC_SEED and INSIDERMC_WORKERS are honored).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analytics
from .config import ConfigError, ExperimentConfig, load_file, parse_int_list
from .functionals import (
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
from .paths import TimeGrid

ENV_SEED = "INSIDERMC_SEED"
ENV_WORKERS = "INSIDERMC_WORKERS"

_SCHEME_INTERPS = (Interpretation.FORWARD, Interpretation.HITSUDA_SKOROKHOD)
_CONVERGE_LADDER = (256, 512, 1024, 2048, 4096, 8192, 16384)
_CONJECTURE_LADDER = (256, 1024, 4096)
_SLOPE_FLOOR = 0.4


def _write_csv(
    path: str, echo: dict[str, str], header: tuple[str, ...], rows: list[tuple[str, ...]]
) -> None:
    lines = [f"# {key} = {value}" for key, value in echo.items()]
    lines.append(",".join(header))
    lines.extend(",".join(row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def _write_json(path: str, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = load_file(args.config) if args.config else ExperimentConfig()
    for name, key in ((ENV_SEED, "seed"), (ENV_WORKERS, "workers")):
        if name in os.environ:
            try:
                value = int(os.environ[name])
            except ValueError as exc:
                raise ConfigError(f"{name} must be an integer") from exc
            cfg = replace(cfg, **{key: value})
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.paths is not None:
        overrides["n_paths"] = args.paths
    if args.steps is not None:
        overrides["steps"] = args.steps
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.csv is not None:
        overrides["csv_path"] = args.csv
    if args.json_out is not None:
        overrides["json_path"] = args.json_out
    if getattr(args, "n_list", None) is not None:
        overrides["n_list"] = parse_int_list(args.n_list)
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


def cmd_expect(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    closed = analytics.closed_form_table(cfg.params)
    quad = analytics.quadrature_table(cfg.params)
    tables = [closed, quad]
    reports = {}
    if args.mc:
        grid = TimeGrid(cfg.params.horizon, cfg.steps)
        honest = Honest(0.0, cfg.params.wealth)
        cases = {
            "honest": (honest, Interpretation.ITO),
            "hs": (PartialTrust(), Interpretation.HITSUDA_SKOROKHOD),
            "ak": (PartialTrust(), Interpretation.AYED_KUO),
            "rv": (PartialTrust(), Interpretation.FORWARD),
        }
        estimates = estimate_expectations(
            cases.values(), cfg.params, cfg.n_paths, grid, cfg.seed,
            use_exact=True, workers=cfg.workers,
        )
        mc = dict(zip(cases, estimates))
        tables.append(
            analytics.WealthTable(
                params=cfg.params,
                method="monte-carlo",
                honest=mc["honest"].estimate,
                hs=mc["hs"].estimate,
                ak=mc["ak"].estimate,
                rv=mc["rv"].estimate,
            )
        )
        reports = {label: report.to_dict() for label, report in mc.items()}

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
    if args.mc:
        for label, target in (
            ("honest", closed.honest), ("hs", closed.hs), ("ak", closed.ak), ("rv", closed.rv),
        ):
            report = reports[label]
            off = abs(report["estimate"] - target)
            if off > 4.0 * report["stderr"]:
                print(f"monte-carlo {label} estimate off by {off:.3e} > 4 stderr")
                failed = True

    echo = cfg.echo() | {"subcommand": "expect"}
    if cfg.csv_path:
        _write_csv(cfg.csv_path, echo, analytics.CSV_HEADER, [t.csv_row() for t in tables])
    if cfg.json_path:
        payload = {
            "config": echo,
            "verdicts": {
                "hs_equals_ak": verdict.hs_equals_ak,
                "ak_below_honest": verdict.ak_below_honest,
                "honest_below_rv": verdict.honest_below_rv,
            },
            "closed_form": {"honest": closed.honest, "hs": closed.hs, "ak": closed.ak, "rv": closed.rv},
            "quadrature": {"honest": quad.honest, "hs": quad.hs, "ak": quad.ak, "rv": quad.rv},
            "monte_carlo": reports,
        }
        _write_json(cfg.json_path, payload)
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
        cfg.strategy, cfg.params, interps, tuple(n_list), cfg.n_paths, cfg.seed
    )
    rows = []
    failed = False
    for table in tables:
        ok = table.slope >= _SLOPE_FLOOR  # False for a NaN slope
        slope = "degenerate" if math.isnan(table.slope) else f"{table.slope:.3f}"
        print(f"{table.interpretation.value}: fitted decay {slope} "
              f"({'ok' if ok else 'TOO SHALLOW'})")
        for n, err in table.rows:
            print(f"  n = {n:>6d}  mean |error| = {err:.6e}")
        rows.extend(
            (table.interpretation.value,) + row for row in table.csv_rows()
        )
        failed = failed or not ok
    echo = cfg.echo() | {"subcommand": "converge", "n_list": ",".join(map(str, n_list))}
    if cfg.csv_path:
        _write_csv(
            cfg.csv_path, echo, ("interpretation", "n", "mean_abs_error", "slope"), rows
        )
    if cfg.json_path:
        payload = {
            "config": echo,
            "tables": [
                {
                    "interpretation": t.interpretation.value,
                    "slope": t.slope,
                    "rows": [{"n": n, "mean_abs_error": e} for n, e in t.rows],
                }
                for t in tables
            ],
        }
        _write_json(cfg.json_path, payload)
    return 1 if failed else 0


def cmd_jump(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    grid = TimeGrid(cfg.params.horizon, cfg.steps)
    report = discontinuity_probe(cfg.params, cfg.n_paths, grid, cfg.seed, cfg.workers)
    print(f"empirical flip frequency: {report.frequency:.6f} +- {report.stderr:.6f}")
    print(f"closed-form probability:  {report.closed_form:.6f}")
    mean_t = "n/a" if report.mean_flip_time is None else f"{report.mean_flip_time:.4f}"
    print(f"mean flip time: {mean_t}; forward-solution flips: {report.rv_flips}")
    echo = cfg.echo() | {"subcommand": "jump"}
    if cfg.csv_path:
        header = ("frequency", "stderr", "closed_form", "n_flips", "n_paths", "grid_steps",
                  "mean_flip_time", "rv_flips")
        row = (
            repr(report.frequency), repr(report.stderr), repr(report.closed_form),
            str(report.n_flips), str(report.n_paths), str(report.grid_steps),
            "" if report.mean_flip_time is None else repr(report.mean_flip_time),
            str(report.rv_flips),
        )
        _write_csv(cfg.csv_path, echo, header, [row])
    if cfg.json_path:
        _write_json(cfg.json_path, {"config": echo, "report": report.to_dict()})
    if not report.within_tolerance:
        print("frequency disagrees with the closed form beyond 4 binomial stderr")
        return 1
    if report.rv_flips:
        print("forward indicator solution flipped; it must be flip-free")
        return 1
    return 0


def cmd_conjecture(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    n_list = cfg.n_list or _CONJECTURE_LADDER
    report = conjecture_report(cfg.params, cfg.n_paths, tuple(n_list), cfg.seed)
    print("residual quantiles (EVIDENCE about an open question, not a proof)")
    print(f"{'group':<22}{'n':>7}{'q10':>12}{'q25':>12}{'q50':>12}{'q75':>12}{'q90':>12}")
    for row in report.rows:
        print(
            f"{row.group:<22}{row.steps:>7d}"
            f"{row.q10:>12.3e}{row.q25:>12.3e}{row.q50:>12.3e}{row.q75:>12.3e}{row.q90:>12.3e}"
        )
    print(f"candidate trend: {report.candidate_verdict}; control trend: {report.control_verdict}")
    echo = cfg.echo() | {"subcommand": "conjecture", "n_list": ",".join(map(str, n_list))}
    if cfg.csv_path:
        header = ("group", "n", "q10", "q25", "q50", "q75", "q90", "verdict")
        rows = []
        for row in report.rows:
            verdict = (
                report.candidate_verdict
                if row.group == "indicator-candidate"
                else report.control_verdict
            )
            rows.append(
                (row.group, str(row.steps), repr(row.q10), repr(row.q25), repr(row.q50),
                 repr(row.q75), repr(row.q90), verdict)
            )
        _write_csv(cfg.csv_path, echo, header, rows)
    if cfg.json_path:
        _write_json(cfg.json_path, {"config": echo, "report": report.to_dict()})
    return 0


def cmd_ordering_sweep(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    if args.sets < 1:
        raise ConfigError(f"--sets must be at least 1, got {args.sets}")
    rng = np.random.default_rng(cfg.seed)
    chain_failures = 0
    quad_gap = 0.0
    margins = {"logistic": math.inf, "arctangent": math.inf, "affine": math.inf}
    for _ in range(args.sets):
        params = random_params(rng)
        verdict = analytics.verify_ordering(params)
        if not verdict.all_hold:
            chain_failures += 1
        quad = analytics.quadrature_table(params)
        gap = max(abs(verdict.hs - quad.hs), abs(verdict.rv - quad.rv)) / params.wealth
        quad_gap = max(quad_gap, gap)
        families = {
            "logistic": logistic(params.wealth),
            "arctangent": arctangent(params.wealth),
            "affine": stock_functional(PartialTrust(), params),
        }
        for name, c in families.items():
            e_ak, e_rv = analytics.ordering_monotone(c, params)
            margins[name] = min(margins[name], (e_rv - e_ak) / params.wealth)
    print(f"sets: {args.sets}; chain failures: {chain_failures}; "
          f"max closed-vs-quadrature gap: {quad_gap:.3e}")
    for name, margin in margins.items():
        print(f"min (E_RV - E_AK)/M for {name}: {margin:.3e}")
    failed = chain_failures > 0 or quad_gap > 1e-8 or any(
        m <= 1e-10 for m in margins.values()
    )
    echo = cfg.echo() | {"subcommand": "ordering-sweep", "sets": str(args.sets)}
    if cfg.csv_path:
        header = ("sets", "chain_failures", "max_quad_gap", "min_margin_logistic",
                  "min_margin_arctangent", "min_margin_affine")
        row = (str(args.sets), str(chain_failures), repr(quad_gap),
               repr(margins["logistic"]), repr(margins["arctangent"]), repr(margins["affine"]))
        _write_csv(cfg.csv_path, echo, header, [row])
    if cfg.json_path:
        _write_json(cfg.json_path, {
            "config": echo,
            "chain_failures": chain_failures,
            "max_quad_gap": quad_gap,
            "min_margins": margins,
        })
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
    sub.add_argument("--json", dest="json_out", help="write a JSON summary")


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
