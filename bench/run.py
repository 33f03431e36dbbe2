"""Benchmark of the insidermc CLI: four workloads, end to end or traced per layer.

Run from the repository root:

    python3 bench/run.py --workload expect-mc --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics (wall_s, setup_s, peak_rss_mib, time_to_tol_s);
wall_s and time_to_tol_s are scaled to a reference machine speed, see
``at_reference_speed``. ``--trace 1`` reports the per-layer metrics of a
traced run. The program is
imported from ``src/`` in a child process; this script uses only the standard
library. The full record of the run is written under ``bench/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from child import CALIBRATION_REF_S
from workloads import CONFIG_TEXT, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_PROBES = 4  # extra set-ups besides the workload child's own; setup_s is their median
DEADLINE_S = 170.0  # the whole run, probes included


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("INSIDERMC_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return env


def child_argv(config: Path, *extra: str) -> list[str]:
    return [sys.executable, str(BENCH / "child.py"), "--config", str(config), *extra,
            "--spawned-at", repr(time.monotonic())]


def probe_setup(config: Path, timeout: float) -> float:
    done = subprocess.run(child_argv(config, "--probe"), env=child_env(), capture_output=True,
                          text=True, timeout=timeout)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"error: set-up probe exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def run_child(argv: list[str], timeout: float):
    """Run the workload child; returns its resource usage. Kills it at ``timeout``."""
    proc = subprocess.Popen(argv, env=child_env(), stdout=subprocess.DEVNULL)
    deadline = time.monotonic() + timeout
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline:
                raise SystemExit(f"error: workload still running after {timeout:.0f} s")
            time.sleep(0.05)
    finally:
        if proc.returncode is None:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
    if proc.returncode != 0:
        raise SystemExit(f"error: workload child exited {proc.returncode}")
    return usage


def at_reference_speed(rounds: list[dict], key: str) -> float:
    """Median over rounds of ``key``, each scaled to the reference machine speed.

    The machine's speed drifts by up to a factor of two within a minute; the
    calibration kernel timed around each round measures that drift, and
    dividing by it leaves the program's own cost.
    """
    return statistics.median(
        r[key] * CALIBRATION_REF_S / r["calibration_s"] for r in rounds
    )


def main() -> None:
    began = time.monotonic()
    # a terminated run still stops its child and removes its temporary directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "insidermc" / "__init__.py").is_file():
        raise SystemExit(f"error: no insidermc sources under {ROOT / 'src'}")

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix="tmp-") as tmp:
        config = Path(tmp) / "workload.ini"
        config.write_text(CONFIG_TEXT)
        setups = [] if args.trace else [
            probe_setup(config, DEADLINE_S - (time.monotonic() - began))
            for _ in range(SETUP_PROBES)
        ]
        out = Path(tmp) / "result.json"
        argv = child_argv(
            config, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out),
        )
        usage = run_child(argv, DEADLINE_S - (time.monotonic() - began))
        record = json.loads(out.read_text())

    if args.trace:
        metrics = record["per_layer"]
    else:
        setups.append(record["setup_s"])
        measured = [r for r in record["rounds"] if "wall_s" in r]
        if not measured:
            raise SystemExit("error: no round completed")
        metrics = {
            "wall_s": {"value": at_reference_speed(measured, "wall_s"), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": usage.ru_maxrss / 1024.0, "unit": "MiB"},
            "time_to_tol_s": {"value": at_reference_speed(measured, "time_to_tol_s"), "unit": "s"},
        }
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    (RESULTS / f"{stem}.json").write_text(
        json.dumps(result | {"setups_s": setups, "rounds": record["rounds"]}, indent=1) + "\n"
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
