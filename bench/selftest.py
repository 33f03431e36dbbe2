"""Fast self-test of the benchmark's own code (about ten seconds).

Run from the repository root:

    python3 bench/selftest.py

It runs every workload at tiny sizes and shows that the output checks pass on
correct output and reject a deliberately wrong reference, that the
attempted/failed counters count, that the tracer's self times add up, and
that a traced run reports every per-layer metric BENCHMARK.json names. It is
the benchmark's test, not part of the program's test suite.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

import child  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402

from insidermc import cli, paths  # noqa: E402

SEED = 1
TINY = {
    "expect-mc": wl.expect_mc(paths=400, variance_paths=800, steps=16),
    "flip-short": wl.flip_short(paths=4000, steps=16),
    "ladder": wl.ladder(converge_paths=20, conjecture_paths=200),
    "quad-sweep": wl.quad_sweep(sets=64),
}


class BenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        (BENCH / "results").mkdir(exist_ok=True)
        cls._tmp = tempfile.TemporaryDirectory(dir=BENCH / "results", prefix="selftest-")
        cls.tmp = Path(cls._tmp.name)
        cls.config = cls.tmp / "workload.ini"
        cls.config.write_text(wl.CONFIG_TEXT)
        cls.payloads, cls.once = {}, {}
        for name, workload in TINY.items():
            tally = child.Tally()
            _, cls.once[name] = child.run_ops(
                cli.main, workload, workload.once, SEED, cls.config, cls.tmp, tally
            )
            _, payloads = child.run_ops(
                cli.main, workload, workload.ops, SEED, cls.config, cls.tmp, tally
            )
            cls.payloads[name] = payloads | cls.once[name]

    @classmethod
    def tearDownClass(cls) -> None:
        cls._tmp.cleanup()

    def problems(self, name: str, payloads: dict | None = None, **reference) -> list[str]:
        return TINY[name].check(payloads or self.payloads[name], SEED, **reference)

    def test_tiny_workloads_pass_their_checks(self) -> None:
        for name, workload in TINY.items():
            with self.subTest(workload=name):
                tally = child.Tally()
                result = child.run_round(
                    cli.main, workload, SEED, self.config, self.tmp, tally, self.once[name]
                )
                self.assertIsNotNone(result)
                self.assertEqual(tally.problems, [])
                self.assertEqual((tally.attempted, tally.failed), (len(workload.ops), 0))
                self.assertGreater(result["wall_s"], 0.0)
                self.assertGreater(result["time_to_tol_s"], 0.0)

    def test_expect_rejects_closed_form_shifted_by_ten_stderr(self) -> None:
        mc = self.payloads["expect-mc"]["expect"]["monte_carlo"]
        for label in ("honest", "hs", "ak", "rv"):
            shifted = wl.closed_forms(wl.MARKET)
            shifted[label] += 10.0 * mc[label]["stderr"]
            found = self.problems("expect-mc", reference=shifted)
            for name in ("expect", "variance"):
                self.assertTrue(any(p.startswith(f"{name} {label}: MC") for p in found), found)

    def test_expect_rejects_unequal_anticipating_estimates(self) -> None:
        payloads = copy.deepcopy(self.payloads["expect-mc"])
        payloads["expect"]["monte_carlo"]["ak"]["estimate"] += 1e-12
        self.assertIn("bit-identical", " ".join(self.problems("expect-mc", payloads)))

    def test_expect_rejects_quadrature_gap(self) -> None:
        payloads = copy.deepcopy(self.payloads["expect-mc"])
        payloads["expect"]["quadrature"]["rv"] += 1e-7
        found = " ".join(self.problems("expect-mc", payloads))
        self.assertIn("expect rv: closed form and quadrature", found)

    def test_flip_rejects_shifted_probability_and_forward_flips(self) -> None:
        p = wl.flip_probability(wl.MARKET)
        n = int(self.payloads["flip-short"]["jump"]["rows"][0]["n_paths"])
        shifted = p + 10.0 * (p * (1.0 - p) / n) ** 0.5
        self.assertIn("binomial stderr", " ".join(self.problems("flip-short", reference=shifted)))
        payloads = copy.deepcopy(self.payloads["flip-short"])
        payloads["jump"]["rows"][0]["rv_flips"] = "1"
        self.assertIn("forward solution flipped", " ".join(self.problems("flip-short", payloads)))

    def test_ladder_rejects_shallow_rising_or_stalled(self) -> None:
        payloads = copy.deepcopy(self.payloads["ladder"])
        payloads["converge"]["tables"][0]["slope"] = 0.3
        self.assertIn("fitted decay", " ".join(self.problems("ladder", payloads)))
        payloads = copy.deepcopy(self.payloads["ladder"])
        rows = payloads["converge"]["tables"][1]["rows"]
        rows[-1]["mean_abs_error"] = 2.0 * rows[0]["mean_abs_error"]
        self.assertIn("does not fall", " ".join(self.problems("ladder", payloads)))
        payloads = copy.deepcopy(self.payloads["ladder"])
        payloads["conjecture"]["report"]["control_verdict"] = "inconclusive"
        self.assertIn("control trend", " ".join(self.problems("ladder", payloads)))

    def test_sweep_rejects_shifted_closed_forms_and_bad_summary(self) -> None:
        def shifted(market: dict) -> dict:
            return {k: v + 1e-6 * market["wealth"] for k, v in wl.closed_forms(market).items()}

        found = self.problems("quad-sweep", reference=shifted)
        self.assertEqual(len(found), wl.SWEEP_SAMPLE, found)
        for key, value in (("chain_failures", 1), ("max_quad_gap", 1e-6)):
            payloads = copy.deepcopy(self.payloads["quad-sweep"])
            payloads["sweep"][key] = value
            self.assertEqual(len(self.problems("quad-sweep", payloads)), 1)
        payloads = copy.deepcopy(self.payloads["quad-sweep"])
        payloads["sweep"]["min_margins"]["logistic"] = 0.0
        self.assertIn("not positive", " ".join(self.problems("quad-sweep", payloads)))

    def test_counters_count_failed_operations(self) -> None:
        ok = wl.Op("sweep", ("ordering-sweep", "--sets", "4"))
        bad = wl.Op("expect", ("expect", "--mc", "--paths", "10"))  # under the 100-path floor
        workload = wl.Workload("mixed", (ok, bad), lambda p, s: [], lambda p, w: 0.0)
        tally = child.Tally()
        with contextlib.redirect_stderr(io.StringIO()):
            for _ in range(3):
                self.assertIsNone(
                    child.run_round(cli.main, workload, SEED, self.config, self.tmp, tally, {})
                )
        self.assertEqual((tally.attempted, tally.failed, tally.problems), (6, 3, []))

    def test_tracer_self_times_add_up_and_uninstall_restores(self) -> None:
        tracer = Tracer()

        class Leaf:
            def evaluate(self, x):
                return sum(range(2000))

        leaf = tracer.wrap("functionals.evaluate", Leaf.evaluate, count_points=True)
        mid = tracer.wrap("paths.mid", lambda: [leaf(None, np.zeros(3)), leaf(None, 2.0)])
        root = tracer.wrap("cli.main", lambda: mid())
        root()
        summary = tracer.summary()
        self.assertEqual(summary["calls"], {"functionals.evaluate": 2, "paths.mid": 1, "cli.main": 1})
        self.assertEqual(summary["points"]["functionals.evaluate"], 3 + 1)
        self.assertAlmostEqual(
            sum(summary["self_s"].values()), summary["seconds"]["cli.main"], places=12
        )
        original = paths.generate_path
        tracer.install()
        self.assertIsNot(paths.generate_path, original)
        tracer.uninstall()
        self.assertIs(paths.generate_path, original)

    def test_checks_record_no_spans(self) -> None:
        # the quad-sweep check calls program code; only cli.main may root a span
        tracer = Tracer()
        main = tracer.wrap("cli.main", cli.main)
        result = child.run_round(
            main, TINY["quad-sweep"], SEED, self.config, self.tmp, child.Tally(), {}, tracer
        )
        self.assertIsNotNone(result)
        roots = {tracer.names[n] for n, parent, *_ in tracer.spans if parent < 0}
        self.assertEqual(roots, {"cli.main"})

    def test_traced_run_reports_every_per_layer_metric(self) -> None:
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        record = child.run(cli, TINY["expect-mc"], SEED, 0.1, True, self.config, self.tmp)
        self.assertEqual(record["problems"], [])
        self.assertEqual([r["traced"] for r in record["rounds"]], [False, True])
        self.assertEqual(set(record["per_layer"]), {m["name"] for m in spec["per_layer"]})
        for metric in spec["per_layer"]:
            self.assertEqual(record["per_layer"][metric["name"]]["unit"], metric["unit"])
        self.assertEqual(record["per_layer"]["paths.generate_path.calls"]["value"], 4 * 400)


if __name__ == "__main__":
    unittest.main()
