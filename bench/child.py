"""Benchmark child process: set up the program, then run whole rounds of one workload.

``run.py`` starts this script; it is not meant to be run by hand. A round is
every CLI invocation of the workload, called in-process through
``insidermc.cli.main`` with ``--workers 1``, followed by the output checks.
Rounds repeat until the next one would end after ``--seconds``. With
``--trace 1`` untraced and traced rounds alternate, so the tracing overhead is
measured within one run.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# per-layer metrics: span name -> the figures reported for it
LAYER_SPANS = {
    "paths.generate_path": ("calls", "us_per_call"),
    "paths.coarsen": ("calls", "us_per_call"),
    "integrators.exact_solution": ("calls", "us_per_call"),
    "integrators.euler_forward": ("calls", "us_per_call"),
    "integrators.skorokhod_via_correction": ("calls", "us_per_call"),
    "integrators.ak_residual": ("calls", "us_per_call"),
    "integrators.detect_indicator_flip": ("calls", "us_per_call"),
    "market.total_wealth": ("calls", "us_per_call"),
    "market.stock_functional": ("calls",),
    "functionals.evaluate": ("calls", "points"),
    "analytics.quadrature_expectation": ("calls", "us_per_call", "nodes_per_call"),
}
LAYERS = ("paths", "integrators", "market", "functionals", "analytics", "harness", "cli")
# seconds the calibration kernel takes at the reference machine speed
CALIBRATION_REF_S = 0.022
UNITS = {
    "calls": "count", "points": "count", "nodes_per_call": "count",
    "us_per_call": "us", "us_per_path": "us", "self_s": "s", "overhead_s": "s",
}


def setup(config: Path, spawned_at: float):
    """Import the program and load the workload config; returns (seconds since spawn, cli)."""
    import insidermc
    import insidermc.cli
    import insidermc.config

    if not Path(insidermc.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"error: imported insidermc from {insidermc.__file__}, not {ROOT / 'src'}")
    insidermc.config.load_file(str(config))
    return time.monotonic() - spawned_at, insidermc.cli


def calibrate() -> float:
    """Seconds for a fixed mix of Philox draws, small numpy kernels and Python loops.

    It uses no program code, so its time measures only the machine's current
    speed; the runner times it before and after every untraced round.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0.0
    for i in range(300):
        rng = np.random.Generator(np.random.Philox(key=[1, i]))
        acc += float(np.exp(np.cumsum(rng.standard_normal(1024)) * 0.01).sum())
        acc += sum(j * 0.5 for j in range(40))
    return time.perf_counter() - t0


class Tally:
    """Operations attempted and failed, and the problems the output checks found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []


def read_csv(path: Path) -> dict:
    """CSV output of the CLI, after its `# key = value` echo lines."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    return {"rows": [dict(zip(header, line.split(","))) for line in lines[1:]]}


def run_ops(main, workload, ops, seed: int, config: Path, tmp: Path, tally: Tally):
    """Every operation in ``ops``; returns (wall seconds, parsed output) by op name.

    An operation whose exit code is not 0 counts as failed and has no output.
    """
    walls, payloads = {}, {}
    for op in ops:
        out = tmp / f"{op.name}.{'csv' if op.csv else 'json'}"
        out.unlink(missing_ok=True)
        argv = [*op.argv, "--config", str(config), "--seed", str(seed),
                "--workers", "1", "--csv" if op.csv else "--json", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = main(argv)
            walls[op.name] = time.perf_counter() - t0
        tally.attempted += 1
        if code != 0:
            tally.failed += 1
            print(f"{workload.name}: `insidermc {' '.join(op.argv)}` exited {code}", file=sys.stderr)
        else:
            payloads[op.name] = read_csv(out) if op.csv else json.loads(out.read_text())
    return walls, payloads


def run_round(main, workload, seed: int, config: Path, tmp: Path, tally: Tally,
              once: dict, tracer: Tracer | None = None) -> dict | None:
    """One round; returns its wall and time-to-tolerance, or None if an operation failed.

    ``once`` holds the outputs of the workload's once-per-run operations. Only
    a round whose operations, and those, all exited 0 is checked. A ``tracer``
    is installed for the operations only: the checks call program code
    themselves, and their calls must not count as the program's.
    """
    if tracer is not None:
        tracer.clear()
        tracer.install()
    try:
        walls, payloads = run_ops(main, workload, workload.ops, seed, config, tmp, tally)
    finally:
        if tracer is not None:
            tracer.uninstall()
    payloads |= once
    if len(payloads) < len(workload.ops) + len(workload.once):
        return None
    tally.problems += workload.check(payloads, seed)
    return {"wall_s": sum(walls.values()), "time_to_tol_s": workload.time_to_tol(payloads, walls)}


def layer_metrics(summary: dict) -> dict[str, float]:
    calls = summary["calls"]
    metrics = {}
    for span, kinds in LAYER_SPANS.items():
        n = calls.get(span, 0)
        for kind in kinds:
            if kind == "calls":
                value = n
            elif kind == "points":
                value = summary["points"].get(span, 0)
            elif kind == "us_per_call":
                value = summary["seconds"].get(span, 0.0) / n * 1e6 if n else 0.0
            else:  # nodes_per_call
                value = summary["quad_nodes"] / n if n else 0.0
            metrics[f"{span}.{kind}"] = value
    paths = calls.get("paths.generate_path", 0)
    harness = summary["self_s"].get("harness", 0.0)
    metrics["harness.us_per_path"] = harness / paths * 1e6 if paths else 0.0
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = summary["self_s"].get(layer, 0.0)
    return metrics


def unit_of(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[-1]]


def run(cli, workload, seed: int, seconds: float, trace: bool, config: Path, tmp: Path) -> dict:
    tally = Tally()
    tracer = Tracer()
    traced_main = tracer.wrap("cli.main", cli.main)
    rounds, layers = [], []
    began = time.monotonic()
    _, once = run_ops(cli.main, workload, workload.once, seed, config, tmp, tally)
    rounds_began = time.monotonic()
    while True:
        traced = trace and len(rounds) % 2 == 1
        if traced:
            result = run_round(traced_main, workload, seed, config, tmp, tally, once, tracer)
            layers.append(layer_metrics(tracer.summary()))
        else:
            before = calibrate()
            result = run_round(cli.main, workload, seed, config, tmp, tally, once)
            if result is not None:
                result["calibration_s"] = 0.5 * (before + calibrate())
        rounds.append({"traced": traced} | (result or {}))
        now = time.monotonic()
        next_end = now - began + (now - rounds_began) / len(rounds)
        if (not trace or len(rounds) >= 2) and next_end > seconds:
            break
    record = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "rounds": rounds,
    }
    if trace:
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        walls = {
            traced: [r["wall_s"] for r in rounds if r["traced"] is traced and "wall_s" in r]
            for traced in (False, True)
        }
        if walls[False] and walls[True]:
            metrics["trace.overhead_s"] = (
                statistics.median(walls[True]) - statistics.median(walls[False])
            )
        record["per_layer"] = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    return record


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--probe", action="store_true", help="set up, print the set-up time, exit")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    setup_s, cli = setup(args.config, args.spawned_at)
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return
    record = run(cli, WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace),
                 args.config, args.config.parent)
    args.out.write_text(json.dumps(record | {"setup_s": setup_s}))


if __name__ == "__main__":
    main()
