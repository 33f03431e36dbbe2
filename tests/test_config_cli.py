import argparse
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import insidermc
from insidermc import Honest, Interpretation, PartialTrust, jump_probability
from insidermc import analytics, cli, harness
from insidermc.cli import _cell, main
from insidermc.config import STRATEGIES, ConfigError, ExperimentConfig, load_file, loads

SAMPLE = """\
[market]
wealth = 1.0
rho = 0.02
mu = 0.05
sigma = 0.2
horizon = 1.0

[strategy]
kind = partial-trust

[run]
paths = 500
steps = 32
seed = 123
workers = 1
interpretations = forward,ayed-kuo

[output]
csv = out.csv
"""


def test_loads_sample_and_round_trips():
    cfg = loads(SAMPLE)
    assert isinstance(cfg.strategy, PartialTrust)
    assert cfg.n_paths == 500
    assert cfg.steps == 32
    assert cfg.seed == 123
    assert cfg.interpretations == (Interpretation.FORWARD, Interpretation.AYED_KUO)
    assert cfg.csv_path == "out.csv"
    assert loads(cfg.dumps()) == cfg


def test_empty_config_gives_documented_defaults():
    cfg = loads("")
    assert cfg.n_paths == 100_000
    assert cfg.steps == 1024
    assert cfg.seed == 20240101
    assert cfg.workers == 1
    assert isinstance(cfg.strategy, PartialTrust)
    assert loads(cfg.dumps()) == cfg


def test_round_trip_covers_every_strategy_and_functional():
    for cfg in (
        ExperimentConfig(strategy=Honest(0.25, 0.75)),
        ExperimentConfig(n_list=(256, 1024)),
        ExperimentConfig(json_path="a.json", csv_path="b.csv"),
    ):
        assert loads(cfg.dumps()) == cfg


def test_percent_in_a_value_is_read_literally(tmp_path, capsys, monkeypatch):
    cfg = ExperimentConfig(csv_path="run%1.csv")
    assert loads(cfg.dumps()) == cfg
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.ini").write_text(cfg.dumps())
    assert main(["expect", "--config", "cfg.ini"]) == 0
    capsys.readouterr()
    assert (tmp_path / "run%1.csv").read_text().startswith("# market.wealth = 1.0")


def test_python_dash_m_runs_the_cli():
    env = os.environ | {"PYTHONPATH": str(Path(insidermc.__file__).parents[1])}
    runs = {
        argv[-1]: subprocess.run(
            [sys.executable, "-m", "insidermc", *argv], env=env, capture_output=True, text=True
        )
        for argv in (["expect"], ["expect", "--bogus"])
    }
    assert runs["expect"].returncode == 0
    assert "chain verdicts" in runs["expect"].stdout
    assert runs["--bogus"].returncode == 2


def test_unknown_keys_and_sections_rejected():
    with pytest.raises(ConfigError):
        loads("[market]\nwealthy = 1.0\n")
    with pytest.raises(ConfigError):
        loads("[runway]\npaths = 10\n")
    with pytest.raises(ConfigError):
        loads("[strategy]\nkind = sneaky\n")
    with pytest.raises(ConfigError):
        loads("[run]\npaths = ten\n")


def test_invalid_market_names_the_violated_invariant():
    with pytest.raises(ConfigError, match="stock rate must exceed bond rate"):
        loads("[market]\nmu = 0.01\nrho = 0.05\n")


def test_honest_strategy_requires_split():
    with pytest.raises(ConfigError):
        loads("[strategy]\nkind = honest\n")
    cfg = loads("[strategy]\nkind = honest\nbond0 = 0.4\nstock0 = 0.6\n")
    assert cfg.strategy == Honest(0.4, 0.6)
    with pytest.raises(ConfigError):
        loads("[strategy]\nkind = partial-trust\nbond0 = 0.4\nstock0 = 0.6\n")


def test_strategy_table_gives_each_kind_its_class_and_echo():
    for kind, cls in STRATEGIES.items():
        split = "bond0 = 0.4\nstock0 = 0.6\n"
        if cls is Honest:
            cfg = loads(f"[strategy]\nkind = {kind}\n{split}")
        else:
            with pytest.raises(ConfigError, match="only the honest strategy takes a fixed split"):
                loads(f"[strategy]\nkind = {kind}\n{split}")
            cfg = loads(f"[strategy]\nkind = {kind}\n")
        assert type(cfg.strategy) is cls
        assert cfg.echo()["strategy.kind"] == kind
        assert loads(cfg.dumps()) == cfg
    with pytest.raises(ConfigError, match="unknown strategy kind 'sneaky'"):
        loads("[strategy]\nkind = sneaky\nbond0 = 0.4\nstock0 = 0.6\n")


def test_cli_expect_runs_and_is_byte_stable(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["expect", "--seed", "5", "--csv", str(out1)]) == 0
    assert main(["expect", "--seed", "5", "--csv", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert text.startswith("#")
    assert "rho,mu,sigma,T,M,E_I,E_HS,E_AK,E_RV,method" in text
    assert "closed-form" in text and "quadrature" in text


def test_cli_expect_with_mc_and_json(tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = main([
        "expect", "--mc", "--paths", "2000", "--steps", "8", "--seed", "20240101",
        "--json", str(out),
    ])
    capsys.readouterr()
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["verdicts"]["hs_equals_ak"] is True
    assert payload["monte_carlo"]["ak"]["estimate"] == payload["monte_carlo"]["hs"]["estimate"]
    assert payload["config"]["run.seed"] == "20240101"
    reports = payload["monte_carlo"]
    assert sorted(reports) == ["ak", "honest", "hs", "rv"]
    # one shared run: every row reports its wall time
    elapsed = {r["elapsed_seconds"] for r in reports.values()}
    assert len(elapsed) == 1 and elapsed.pop() > 0.0
    assert all(r["n_paths"] == 2000 for r in reports.values())
    # the plain rows sit beside the checked ones, each with its stock leg's health
    plain = payload["monte_carlo_plain"]
    assert sorted(plain) == ["ak", "honest", "hs", "rv"]
    assert plain["honest"]["estimate"] == reports["honest"]["estimate"]
    assert plain["ak"] == plain["hs"] and not any(r["degenerate"] for r in plain.values())


def test_cli_expect_tilts_where_the_plain_growth_factor_underflows(tmp_path, capsys):
    # at sigma = 100, T = 50 the growth factor underflows to 0 on every path: the
    # plain honest row reads 0 and each plain insider row its bond leg alone
    ini, out = tmp_path / "wide.ini", tmp_path / "wide.json"
    ini.write_text("[market]\nsigma = 100\nhorizon = 50\n")
    argv = ["expect", "--mc", "--paths", "1000", "--seed", "1", "--config", str(ini)]
    # the checked honest row is degenerate, which fails the run as in jump
    assert main(argv + ["--json", str(out)]) == 1
    stdout = capsys.readouterr().out
    payload = json.loads(out.read_text())
    for label in ("hs", "ak", "rv"):
        report = payload["monte_carlo"][label]
        assert abs(report["estimate"] - payload["closed_form"][label]) <= 4.0 * report["stderr"]
    plain = payload["monte_carlo_plain"]
    assert all(r["degenerate"] and r["zeros"] == 1000 for r in plain.values())
    for label in plain:
        assert f"monte-carlo {label} estimate is degenerate" in stdout
    assert "> 4 stderr" not in stdout


def test_cli_expect_names_heavy_tailed_plain_rows_degenerate(tmp_path, capsys):
    # at sigma = 2, T = 4 the plain stock legs are heavy tailed: a few dozen of the
    # 20000 paths carry their sums, though no one path carries half of one
    ini, out = tmp_path / "heavy.ini", tmp_path / "heavy.json"
    ini.write_text("[market]\nsigma = 2.0\nhorizon = 4.0\n")
    argv = ["expect", "--mc", "--paths", "20000", "--seed", "3", "--config", str(ini)]
    # the checked honest row is degenerate, which fails the run
    assert main(argv + ["--json", str(out)]) == 1
    stdout = capsys.readouterr().out
    plain = json.loads(out.read_text())["monte_carlo_plain"]
    for label, row in plain.items():
        assert row["degenerate"] and row["largest_share"] < 0.5
        assert row["effective_size"] < 0.01 * 20000
        assert f"monte-carlo {label} estimate is degenerate (" in stdout
        assert f"effective size {row['effective_size']:.1f})" in stdout
    # the tilted rows are checked and pass
    assert "monte-carlo-tilted" not in stdout.split("bar 1e-08)")[1]
    assert "> 4 stderr" not in stdout


def test_expect_mc_bytes_do_not_depend_on_workers_and_read_one_draw(tmp_path, capsys, monkeypatch):
    outputs = {}
    for workers in ("1", "2"):
        out_csv, out_json = tmp_path / f"{workers}.csv", tmp_path / f"{workers}.json"
        argv = ["expect", "--mc", "--paths", "5000", "--seed", "3", "--workers", workers]
        assert main(argv + ["--csv", str(out_csv), "--json", str(out_json)]) == 0
        # the config echo names the worker count, and the wall time varies
        outputs[workers] = [
            re.sub(r"(run\.workers\W+)\d", r"\1N", _zero_elapsed(path.read_text()))
            for path in (out_csv, out_json)
        ]
    assert outputs["1"] == outputs["2"]
    # one draw of B_T per chunk serves the plain and the tilted rows
    calls, draw = [], harness.sample_terminal
    monkeypatch.setattr(harness, "sample_terminal", lambda *a: calls.append(a) or draw(*a))
    assert main(["expect", "--mc", "--paths", "5000", "--seed", "3", "--workers", "1"]) == 0
    assert calls == [(3, 1.0, 0, 5000)]
    capsys.readouterr()


def test_cli_expect_prints_baseline_expected_values(capsys):
    assert main(["expect"]) == 0
    out = capsys.readouterr().out
    assert "1.040915" in out  # anticipating expectation
    assert "1.741762" in out  # forward expectation
    assert "1.051271" in out  # honest all-stock expectation


def test_cli_expect_flags_debt_regime(tmp_path, capsys):
    ini = tmp_path / "debt.ini"
    ini.write_text("[market]\nrho = 0.04\nmu = 0.05\nsigma = 2.5\n")
    assert main(["expect", "--config", str(ini)]) == 0
    out = capsys.readouterr().out
    assert "debt regime" in out
    assert "-0.58" in out


def test_cli_expect_rejects_invalid_market(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[market]\nmu = 0.01\nrho = 0.05\n")
    assert main(["expect", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "stock rate must exceed bond rate" in err
    # an honest split that does not sum to the wealth M = 1, for every subcommand
    split = tmp_path / "split.ini"
    split.write_text("[strategy]\nkind = honest\nbond0 = 5.0\nstock0 = 0.6\n")
    for command in ("expect", "converge", "jump", "conjecture", "ordering-sweep"):
        assert main([command, "--config", str(split)]) == 2
        assert "honest split must sum to total wealth" in capsys.readouterr().err


def test_an_output_path_that_cannot_be_written_is_a_usage_error(tmp_path, capsys):
    # exit 1 means a failed check, so a missing directory or a directory in
    # place of the file exits 2 with a message, not a traceback
    missing = tmp_path / "missing" / "x.csv"
    assert main(["expect", "--csv", str(missing)]) == 2
    assert f"error: cannot write {missing}: " in capsys.readouterr().err
    assert main(["jump", "--paths", "1000", "--steps", "8", "--json", str(tmp_path)]) == 2
    assert f"error: cannot write {tmp_path}: " in capsys.readouterr().err


def test_cli_converge_small_ladder(tmp_path, capsys):
    out = tmp_path / "c.csv"
    rc = main([
        "converge", "--paths", "100", "--n-list", "256,1024,4096",
        "--seed", "3", "--csv", str(out),
    ])
    capsys.readouterr()
    assert rc == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "interpretation,n,mean_abs_error,slope"
    assert len(lines) == 1 + 2 * 3  # two schemes, three grid sizes


def test_cli_converge_usage_errors(capsys):
    assert main(["converge", "--paths", "100", "--n-list", "256,1024"]) == 2
    assert main(["converge", "--paths", "100", "--n-list", "banana"]) == 2
    capsys.readouterr()


def test_cli_converge_indicator_rejected(tmp_path, capsys):
    ini = tmp_path / "full.ini"
    ini.write_text(
        "[strategy]\nkind = full-information\n"
        "[run]\ninterpretations = hitsuda-skorokhod\n"
    )
    rc = main([
        "converge", "--config", str(ini), "--paths", "100", "--n-list", "256,1024,4096",
    ])
    capsys.readouterr()
    assert rc == 2


def test_cli_converge_non_finite_wealth_exits_3(tmp_path, capsys):
    # the partial-trust legs overflow to inf on some paths at this wealth
    ini = tmp_path / "huge.ini"
    ini.write_text(
        "[market]\nwealth = 1e306\nrho = 0.02\nmu = 0.05\nsigma = 2.0\nhorizon = 5.0\n"
    )
    rc = main(["converge", "--config", str(ini), "--paths", "200", "--n-list", "4,8,16"])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("ini,argv,what", [
    (
        "[market]\nwealth = 1e304\nsigma = 2.0\nhorizon = 5.0\n[run]\ninterpretations = forward\n",
        ["converge", "--paths", "200", "--n-list", "4,8,16"],
        "3 error total",
    ),
    (
        "[market]\nwealth = 1e304\n",
        # seven estimates (four plain, three tilted), each with its stderr
        ["expect", "--mc", "--paths", "100000"],
        "14 estimate and stderr",
    ),
], ids=["converge", "expect"])
def test_cli_overflowing_reduction_exits_3(tmp_path, capsys, ini, argv, what):
    # every per-path value is finite, but their sum passes the float range
    path = tmp_path / "huge.ini"
    path.write_text(ini)
    assert main(argv + ["--config", str(path), "--seed", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"numerical failure: {what} values are non-finite\n"


def test_cli_jump(tmp_path, capsys):
    out = tmp_path / "j.csv"
    rc = main([
        "jump", "--paths", "2000", "--steps", "32", "--seed", "19", "--csv", str(out),
    ])
    capsys.readouterr()
    assert rc == 0
    body = out.read_text()
    assert "frequency,stderr,closed_form" in body
    assert main(["jump", "--paths", "999"]) == 2
    capsys.readouterr()


def test_cli_jump_writes_json_and_numeric_csv(tmp_path, capsys):
    out_json, out_csv = tmp_path / "j.json", tmp_path / "j.csv"
    rc = main([
        "jump", "--steps", "64", "--paths", "2000", "--json", str(out_json),
        "--csv", str(out_csv),
    ])
    capsys.readouterr()
    assert rc == 0
    report = json.loads(out_json.read_text())["report"]
    assert report["within_tolerance"] is True
    lines = [line for line in out_csv.read_text().splitlines() if not line.startswith("#")]
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(row["closed_form"]) == report["closed_form"]


@pytest.mark.parametrize("market,flips", [
    ("rho = 0.02\nmu = 0.05\nsigma = 0.001", 0),  # the flip window is 0.001 wide
    ("rho = 0.01\nmu = 100.01\nsigma = 10.0", 1000),  # the window is (-5, 5]
])
def test_cli_jump_names_a_degenerate_estimate(tmp_path, capsys, market, flips):
    ini = tmp_path / "market.ini"
    ini.write_text(f"[market]\nwealth = 1.0\n{market}\nhorizon = 1.0\n")
    out_json = tmp_path / "j.json"
    rc = main([
        "jump", "--config", str(ini), "--paths", "1000", "--steps", "64", "--seed", "3",
        "--json", str(out_json),
    ])
    stdout = capsys.readouterr().out
    assert rc == 1
    assert f"empirical flip frequency: degenerate ({flips} of 1000 paths flipped)\n" in stdout
    assert stdout.endswith(
        "degenerate: a binomial stderr of 0 cannot be checked against the closed form\n"
    )
    assert "+-" not in stdout and "4 binomial stderr" not in stdout
    closed_form = format(jump_probability(load_file(ini).params), ".6g")
    assert stdout.splitlines()[1] == f"closed-form probability:  {closed_form}"
    report = json.loads(out_json.read_text())["report"]
    assert (report["n_flips"], report["stderr"], report["within_tolerance"]) == (flips, 0.0, False)


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_uint64_exits_2(tmp_path, capsys, monkeypatch, seed):
    args = ["jump", "--paths", "1000", "--steps", "8"]
    assert main(args + ["--seed", seed]) == 2
    ini = tmp_path / "cfg.ini"
    ini.write_text(f"[run]\nseed = {seed}\n")
    assert main(args + ["--config", str(ini)]) == 2
    monkeypatch.setenv("INSIDERMC_SEED", seed)
    assert main(args) == 2
    assert "seed must be in [0, 2**64 - 1]" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        loads(f"[run]\nseed = {seed}\n")


def test_cli_conjecture(tmp_path, capsys):
    out = tmp_path / "q.csv"
    rc = main([
        "conjecture", "--paths", "100", "--n-list", "256,1024", "--seed", "2",
        "--csv", str(out),
    ])
    stdout = capsys.readouterr().out
    assert rc == 0
    assert "EVIDENCE" in stdout
    assert "affine-control" in out.read_text()
    assert main(["conjecture", "--paths", "100", "--n-list", "7,9"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("seed", ["3", "20240101"])
@pytest.mark.parametrize(
    "args",
    [
        # 1025 nodes give 31 rows per block, 257 nodes 127; each worker's range
        # starts inside a block of the serial run
        ("converge", "--paths", "100", "--n-list", "64,256,1024"),
        ("conjecture", "--paths", "150", "--n-list", "64,256"),
    ],
    ids=["converge", "conjecture"],
)
def test_ladders_do_not_depend_on_workers(tmp_path, capsys, args, seed):
    outputs = []
    for workers in ("1", "2"):
        csv, js = tmp_path / f"w{workers}.csv", tmp_path / f"w{workers}.json"
        rc = main([*args, "--seed", seed, "--workers", workers, "--csv", str(csv),
                   "--json", str(js)])
        echo = json.loads(js.read_text()).pop("config")
        assert echo["run.workers"] == workers
        lines = [l for l in csv.read_text().splitlines() if l != f"# run.workers = {workers}"]
        payload = json.loads(js.read_text())
        del payload["config"]
        outputs.append((rc, capsys.readouterr().out, lines, payload))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] in (0, 1)


def test_cli_ordering_sweep(capsys):
    rc = main(["ordering-sweep", "--sets", "25", "--seed", "31"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "chain failures: 0" in out


def test_cli_unknown_flag_exits_2(capsys):
    assert main(["expect", "--bogus"]) == 2
    capsys.readouterr()


def test_cli_help_lists_flags(capsys):
    assert main(["expect", "--help"]) == 0
    out = capsys.readouterr().out
    for flag in ("--config", "--seed", "--paths", "--steps", "--workers", "--csv",
                 "--json", "--mc"):
        assert flag in out
    assert "--json JSON_OUT" in out


_SHARED_OPTIONS = {"-h", "--help", "--config", "--seed", "--paths", "--steps", "--workers",
                   "--csv", "--json"}


@pytest.mark.parametrize(
    "command, own",
    [
        ("expect", {"--mc"}),
        ("converge", {"--n-list"}),
        ("jump", set()),
        ("conjecture", {"--n-list"}),
        ("ordering-sweep", {"--sets"}),
    ],
)
def test_each_subcommand_takes_exactly_its_option_strings(command, own):
    (subs,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {s for action in subs.choices[command]._actions for s in action.option_strings}
    assert options == _SHARED_OPTIONS | own


def test_env_seed_applies_between_file_and_flags(tmp_path, capsys, monkeypatch):
    ini = tmp_path / "cfg.ini"
    ini.write_text("[run]\nseed = 1\npaths = 2000\nsteps = 8\n")
    out_env = tmp_path / "env.json"
    monkeypatch.setenv("INSIDERMC_SEED", "555")
    rc = main(["expect", "--config", str(ini), "--json", str(out_env)])
    assert rc == 0
    assert json.loads(out_env.read_text())["config"]["run.seed"] == "555"

    out_flag = tmp_path / "flag.json"
    rc = main(["expect", "--config", str(ini), "--seed", "777", "--json", str(out_flag)])
    assert rc == 0
    assert json.loads(out_flag.read_text())["config"]["run.seed"] == "777"
    capsys.readouterr()


def test_load_file_missing_path_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_file(tmp_path / "nope.ini")


# sha256 of each subcommand's CSV at --seed 7, and of dumps(), as computed with
# numpy 2.4 on x86-64; a change that alters one on purpose updates its digest and
# says so
CSV_DIGESTS = {
    "expect": "7455ba042a1270dfad30256c0541b372c05c61b1726884b78acc92df122adfea",
    "converge": "f3dd54cbe8c970a27ee7793b6a5a9f2c53ceecbbca765196c31db02e13362fb1",
    "conjecture": "28ab6e695c7a31e00e24ce8a4fc90051c84ef8560187361f0909089f10c3e51c",
    "jump": "db4d45be3129ce5b71469e1e15b2e071cce9696608a2eb35c319b67a1b414c84",
    "ordering-sweep": "ec8c1bd9296e6b066e106d6b33f23b9e76265596349de6cad749014bbe3ef38e",
    "converge-honest": "34c83e4460d05685d9ad588c332d43d9458a0a146778c0f44c563cb73ae90a37",
}
DUMPS_DIGESTS = {
    "default": "fe1a1134a8637ad87a91af84e889165f32562528fae476387fb8568c447270d2",
    "honest": "6fbc84df0f731b9730e3d01c48db4accaf0b2a85c1b2bb61a8e7f803f3a7e432",
    "output": "77dd25b157524b3588cadf57138a718b7ff199f29cf32e189287bc777d75813e",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_csv_and_dumps_bytes_match_recorded_digests(tmp_path, capsys):
    honest = tmp_path / "honest.ini"
    honest.write_text("[strategy]\nkind = honest\nbond0 = 0.25\nstock0 = 0.75\n")
    cases = {
        "expect": ["expect", "--mc", "--paths", "1000"],
        "converge": ["converge", "--paths", "50", "--n-list", "4,8,16"],
        "conjecture": ["conjecture", "--paths", "150", "--n-list", "4,8"],
        "jump": ["jump", "--paths", "2000", "--steps", "16"],
        "ordering-sweep": ["ordering-sweep", "--sets", "20"],
        # the echo of an honest strategy pins the order of the strategy and run keys
        "converge-honest": [
            "converge", "--paths", "50", "--n-list", "4,8,16", "--config", str(honest),
        ],
    }
    digests = {}
    for name, argv in cases.items():
        out = tmp_path / f"{name}.csv"
        assert main(argv + ["--seed", "7", "--csv", str(out)]) == 0
        digests[name] = _sha256(out.read_bytes())
    capsys.readouterr()
    assert digests == CSV_DIGESTS
    configs = {
        "default": ExperimentConfig(),
        "honest": ExperimentConfig(strategy=Honest(0.25, 0.75)),
        "output": ExperimentConfig(n_list=(256, 1024), json_path="a.json", csv_path="b.csv"),
    }
    assert {k: _sha256(c.dumps().encode()) for k, c in configs.items()} == DUMPS_DIGESTS


def test_cli_converge_degenerate_slope_fails(tmp_path, capsys):
    # all bond: every scheme error is 0 and the fitted decay is NaN
    ini = tmp_path / "bond.ini"
    ini.write_text("[strategy]\nkind = honest\nbond0 = 1.0\nstock0 = 0.0\n")
    rc = main(["converge", "--config", str(ini), "--paths", "50", "--n-list", "4,8,16"])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.count("fitted decay degenerate") == 2
    assert "nan" not in out
    assert main(["converge", "--paths", "0", "--n-list", "4,8,16"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("source", ["flag", "env", "file"])
def test_run_fields_below_one_exit_2(tmp_path, capsys, monkeypatch, source):
    args = ["converge", "--paths", "20", "--n-list", "4,8,16"]
    if source == "flag":
        args += ["--workers", "-4"]
    elif source == "env":
        monkeypatch.setenv("INSIDERMC_WORKERS", "0")
    else:
        ini = tmp_path / "cfg.ini"
        ini.write_text("[run]\nsteps = 0\n")
        args += ["--config", str(ini)]
        with pytest.raises(ConfigError):
            loads("[run]\npaths = -7\nworkers = 0\n")
    assert main(args) == 2
    assert "must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("sets", ["0", "-3"])
def test_cli_ordering_sweep_rejects_no_sets(capsys, sets):
    assert main(["ordering-sweep", "--sets", sets]) == 2
    assert "--sets must be at least 1" in capsys.readouterr().err


def _zero_elapsed(text: str) -> str:
    """JSON output ``text`` with every ``elapsed_seconds`` set to 0, the one value that varies."""
    return re.sub(r'"elapsed_seconds": [^,\n]+', '"elapsed_seconds": 0', text)


def _output_digests(tmp_path, capsys, name: str, argv: list[str]) -> dict[str, str]:
    out_json, out_csv = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
    assert main(argv + ["--json", str(out_json), "--csv", str(out_csv)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return {
        "json": _sha256(_zero_elapsed(out_json.read_text()).encode()),
        "stdout": _sha256(captured.out.encode()),
        "csv": _sha256(out_csv.read_bytes()),
    }


# sha256 at --seed 7 of each subcommand's JSON output (every elapsed_seconds set
# to 0) and of its stdout, and of all three outputs of one `expect --mc` run that
# takes its seed and worker count from the environment; recorded like CSV_DIGESTS
JSON_DIGESTS = {
    "expect": "b1443e21272bc0cd83dbb4c4e765a2a0d7334f3537adba206d9fc287bf6d351c",
    "converge": "41bb8fa6f6f56c945647f9c811c9d832645dda61e32ea1939fde56b6edc6134a",
    "conjecture": "0048fff6d3b8b9471b67a15f5f5d97919c237ba3df4ddbae661d9c30cead0156",
    "jump": "dcbf2571a454ca6c0dfd90f940fd2e15e6ea63b0d9cf709411a19937f994aef6",
    "ordering-sweep": "3106ba5e03ec57e783b45dec9494f42305c61d09ba55353b500ecea95893edd8",
    "converge-honest": "6740003693f2695feae715abdaf59dcc9f0f9f73403ceaeab5cf78f9aad3ab98",
}
STDOUT_DIGESTS = {
    "expect": "2b2477beba32b4b9d54fb1504a565aac3b209ae5c384ad9f1147fa6c7e637e6d",
    "converge": "624721364729011503efe4629a29846c95044555933b5073b4fc095ccbe2b22d",
    "conjecture": "0dfb7bccc998f467036eee9fa94fe18d0ff30bfab0d89afd781cfdcca94e6da2",
    "jump": "15ddbcab886533e48b18831401b4632a81a392a4a5731aca88a311bbeefaae45",
    "ordering-sweep": "05491beddfb643598df9afdde8422f1035fe1124deabc28e6fc6fddca60bfa15",
    "converge-honest": "b51d4271576a0f78d5043f50c63ee3d3b63997e4675c07fdcc1a6db3d41f3592",
}
ENV_DIGESTS = {
    "json": "2e833a9ff65cb23cce1cd69502321de4199a4a410dcc896c49423885eeb9298a",
    "stdout": "debb565341b95ae5ca699b4e86f61527630d1ef4fe8796399b7db3660f48a5ed",
    "csv": "18552ff0e68778975ce5a519fe8e62f8d17dcdce3bed679a9da4110b2dfa63b9",
}


def test_json_and_stdout_bytes_match_recorded_digests(tmp_path, capsys, monkeypatch):
    honest = tmp_path / "honest.ini"
    honest.write_text("[strategy]\nkind = honest\nbond0 = 0.25\nstock0 = 0.75\n")
    cases = {
        "expect": ["expect", "--mc", "--paths", "1000"],
        "converge": ["converge", "--paths", "50", "--n-list", "4,8,16"],
        "conjecture": ["conjecture", "--paths", "150", "--n-list", "4,8"],
        "jump": ["jump", "--paths", "2000", "--steps", "16"],
        "ordering-sweep": ["ordering-sweep", "--sets", "20"],
        "converge-honest": [
            "converge", "--paths", "50", "--n-list", "4,8,16", "--config", str(honest),
        ],
    }
    digests = {
        name: _output_digests(tmp_path, capsys, name, argv + ["--seed", "7"])
        for name, argv in cases.items()
    }
    assert {k: d["csv"] for k, d in digests.items()} == CSV_DIGESTS
    assert {k: d["json"] for k, d in digests.items()} == JSON_DIGESTS
    assert {k: d["stdout"] for k, d in digests.items()} == STDOUT_DIGESTS
    monkeypatch.setenv("INSIDERMC_SEED", "99")
    monkeypatch.setenv("INSIDERMC_WORKERS", "2")
    env = _output_digests(tmp_path, capsys, "env", ["expect", "--mc", "--paths", "1000"])
    assert env == ENV_DIGESTS


def test_successive_main_calls_share_no_parser_state(tmp_path, capsys):
    # main parses with one parser per process; a flag or value given to one call
    # must not reach the next
    parser = cli._parser()
    assert cli._parser() is parser
    assert parser.parse_args(["expect", "--mc", "--seed", "3"]).mc
    plain = parser.parse_args(["expect"])
    assert not plain.mc and plain.seed is None
    assert parser.parse_args(["ordering-sweep", "--sets", "5"]).sets == 5
    assert parser.parse_args(["ordering-sweep"]).sets == 1000
    with_mc, without = tmp_path / "mc.csv", tmp_path / "plain.csv"
    assert main(["expect", "--mc", "--paths", "1000", "--seed", "7", "--csv", str(with_mc)]) == 0
    assert main(["expect", "--seed", "7", "--csv", str(without)]) == 0
    assert _sha256(with_mc.read_bytes()) == CSV_DIGESTS["expect"]
    cli._parser.cache_clear()
    fresh = tmp_path / "fresh.csv"
    assert main(["expect", "--seed", "7", "--csv", str(fresh)]) == 0
    assert without.read_bytes() == fresh.read_bytes()
    assert b"monte-carlo" not in without.read_bytes()
    capsys.readouterr()


# sha256 of the outputs of `ordering-sweep --sets 300 --seed 7`, recorded like
# CSV_DIGESTS; sets 81 and 258 need 1024 nodes (arctangent, forward leg) where
# every other set stops at 128, 256 or 512
SWEEP_DIGESTS = {
    "json": "b0e707c37da0ffa3ff6e1a882312738f6f912735eadfefa18ff0f8fcfda3a69d",
    "stdout": "3bd8fe1be8fe7cabb3b8c6d220260f6818e0c48d9269d0513e4683ccd14622fa",
    "csv": "cc4e10266db418136803186230e57b972c52c22e56a7c6cea0eef04cbcf2e957",
}


def test_sweep_bytes_match_recorded_digests(tmp_path, capsys):
    argv = ["ordering-sweep", "--sets", "300", "--seed", "7"]
    assert _output_digests(tmp_path, capsys, "sweep", argv) == SWEEP_DIGESTS


def test_the_sweep_validates_one_block_not_each_set(monkeypatch, capsys):
    # 2500 sets make three blocks of parameter columns; no set becomes an object of its own
    calls = []
    post_init = insidermc.MarketParams.__post_init__
    monkeypatch.setattr(
        insidermc.MarketParams, "__post_init__", lambda self: calls.append(1) or post_init(self)
    )
    assert main(["ordering-sweep", "--sets", "2500", "--seed", "7"]) == 0
    assert len(calls) <= 3


def test_sweep_bytes_do_not_depend_on_the_block_size(tmp_path, capsys, monkeypatch):
    # 300 sets fit in one default block; blocks of 128 sets split them into three
    argv = ["ordering-sweep", "--sets", "300", "--seed", "7"]
    whole = _output_digests(tmp_path, capsys, "whole", argv)
    draw, drawn = cli.random_param_sets, []
    monkeypatch.setattr(cli, "random_param_sets", lambda rng, n: drawn.append(n) or draw(rng, n))
    monkeypatch.setattr(cli, "_BLOCK_VALUES", 128 * analytics._QUAD_START)
    assert _output_digests(tmp_path, capsys, "blocks", argv) == whole
    assert drawn == [128, 128, 44]


# (exit code, sha256 of the CSV) at --seed 7 of ladders whose paths span several
# blocks (a block holds at most 32768 path values), per worker count; recorded
# like CSV_DIGESTS, before the ladders reused one workspace per chunk, so a stale
# row left over from a longer block would show. 16385 nodes give one row per
# block; 2049 nodes give 15, so 37 paths make blocks of 15, 15 and 7 and 333
# make 22 blocks of 15 and a last block of 3.
MULTI_BLOCK_DIGESTS = {
    ("converge-rows-1", "1"):
        (1, "e1ce08a87eb845cde89a378c4ce81c5d59602e3ca77789ee0682b7869939e5dc"),
    ("converge-rows-1", "2"):
        (1, "bddf59807e0d1dc28c018d6ecd8a70ce32d5517686ab3e53d393e3e8e5b3f28e"),
    ("converge-rows-15", "1"):
        (0, "0269c985b3171d7344ed15bf921bf59c987aa4dbb1d33466d19480bbd173c294"),
    ("converge-rows-15", "2"):
        (0, "4fe7a1cdaa8e8f5f4d7c28e5f3fddb52bc82e1b5b7fc8a79e64924eeeaa6df04"),
    ("conjecture-rows-15", "1"):
        (0, "877b2950b0a65a9951516845312db0e9c261bbb3dd72404007dc621e06b1d035"),
    ("conjecture-rows-15", "2"):
        (0, "433c97e7aa5f130c2907dd008ff0b884fb152ed218e6e3158634353a0e11c5e5"),
}


def test_multi_block_ladder_bytes_match_recorded_digests(tmp_path, capsys):
    cases = {
        "converge-rows-1": ["converge", "--paths", "3", "--n-list", "4096,8192,16384"],
        "converge-rows-15": ["converge", "--paths", "37", "--n-list", "256,512,1024,2048"],
        "conjecture-rows-15": ["conjecture", "--paths", "333", "--n-list", "16,64,2048"],
    }
    digests = {}
    for name, argv in cases.items():
        for workers in ("1", "2"):
            out = tmp_path / f"{name}-{workers}.csv"
            rc = main(argv + ["--seed", "7", "--workers", workers, "--csv", str(out)])
            digests[name, workers] = (rc, _sha256(out.read_bytes()))
    capsys.readouterr()
    assert digests == MULTI_BLOCK_DIGESTS


# rounds of CLI calls as the benchmark's workloads run them, in one fresh
# interpreter, on the ladder's config (the default market); prints the minor
# page faults of each round
_REPEATED_ROUNDS = r"""
import contextlib, io, json, resource, sys
from pathlib import Path
from insidermc.cli import main

tmp, runs, rounds = Path(sys.argv[1]), json.loads(sys.argv[2]), int(sys.argv[3])
config = tmp / "ladder.ini"
config.write_text(
    "[market]\nwealth = 1.0\nrho = 0.02\nmu = 0.05\nsigma = 0.2\nhorizon = 1.0\n"
    "\n[strategy]\nkind = partial-trust\n"
)
faults = []
for _ in range(rounds):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in runs:
            args = argv + ["--config", str(config), "--seed", "1", "--csv", str(tmp / "out.csv")]
            assert main(args) == 0, args
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps({"faults": faults, "scipy": "scipy" in sys.modules}))
"""


def _faults_per_round(tmp_path, runs: list[list[str]], rounds: int) -> list[int]:
    """Minor page faults of each of ``rounds`` rounds of ``runs``, in a fresh interpreter."""
    env = os.environ | {"PYTHONPATH": str(Path(insidermc.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", _REPEATED_ROUNDS, str(tmp_path), json.dumps(runs), str(rounds)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    # scipy's import moves malloc's trim threshold and would hide the faults
    assert not report["scipy"]
    return report["faults"]


_ON_LINUX = pytest.mark.skipif(
    not sys.platform.startswith("linux") or importlib.util.find_spec("resource") is None,
    reason="minor page faults are read from resource.getrusage on Linux",
)


@_ON_LINUX
def test_a_repeated_ladder_round_faults_in_no_working_set(tmp_path):
    # Freed node-sized temporaries can be trimmed from the heap and faulted back
    # in on every block; the ladders' chunks reuse one workspace instead. About
    # 800 faults per round remain, against about 42500 when each block allocated
    # its own arrays. The round is the benchmark's: converge, then conjecture.
    runs = [
        ["converge", "--paths", "200"],
        ["conjecture", "--paths", "250", "--n-list", "256,1024,4096"],
    ]
    faults = _faults_per_round(tmp_path, runs, rounds=2)
    assert faults[1] < 5000, faults


@_ON_LINUX
@pytest.mark.parametrize(
    "argv, bound",
    [
        (["jump", "--paths", "25000", "--steps", "64"], 30),
        (["ordering-sweep", "--sets", "300"], 80),
    ],
    ids=["jump", "ordering-sweep"],
)
def test_a_repeated_round_faults_in_no_working_set(tmp_path, argv, bound):
    # A round whose freed arrays leave more free memory at the top of the heap
    # than malloc keeps has it trimmed and faults it back in on every round:
    # about 120 faults per jump round when it held two path-sized arrays at
    # once, and 100 to 4200 per sweep round, depending on the heap's layout,
    # while the oracle, the logistic and arctangent maps and the monotonicity
    # probe allocated chunk-sized temporaries. With glibc 2.36 and numpy 2.4.6
    # a round faulted at most 3 (jump) and 8 (sweep) pages over 48 layouts
    # (install directories named with 1 to 16 characters, three environment
    # sizes); the sweep's bound leaves room for other heap layouts. The second
    # round may still grow the heap, so the third and fourth are checked.
    faults = _faults_per_round(tmp_path, [argv], rounds=4)
    assert max(faults[2:]) < bound, faults


@pytest.mark.parametrize(
    "argv, env, ini, message",
    [
        (["--paths", "ten"], {}, None, "argument --paths: invalid int value: 'ten'"),
        (["--n-list", "banana"], {}, None,
         "error: [run] n_list: 'banana' is not a comma-separated integer list"),
        ([], {"INSIDERMC_SEED": "abc"}, None, "error: INSIDERMC_SEED must be an integer"),
        ([], {"INSIDERMC_WORKERS": "2.5"}, None, "error: INSIDERMC_WORKERS must be an integer"),
        ([], {}, "[run]\npaths = ten\n", "error: [run] paths = 'ten' is not an integer"),
        ([], {}, "[market]\nmu = x\n", "error: [market] mu = 'x' is not a number"),
        ([], {}, "[run]\nseeds = 1\n", "error: unknown key(s) in [run]: seeds"),
        ([], {}, "[run]\nn_list = banana\n",
         "error: [run] n_list: 'banana' is not a comma-separated integer list"),
        ([], {}, "[run]\ninterpretations = ito,x\n",
         "error: [run] interpretations: unknown interpretation 'x'"),
    ],
)
def test_usage_errors_exit_2_with_stable_messages(
    tmp_path, capsys, monkeypatch, argv, env, ini, message
):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    if ini is not None:
        path = tmp_path / "cfg.ini"
        path.write_text(ini)
        argv = argv + ["--config", str(path)]
    assert main(["converge", "--paths", "20", "--n-list", "4,8,16"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(message)


def test_expect_evaluates_the_closed_forms_once(capsys, monkeypatch):
    calls = []
    closed_form_table = analytics.closed_form_table
    monkeypatch.setattr(
        analytics, "closed_form_table", lambda p: calls.append(p) or closed_form_table(p)
    )
    assert main(["expect", "--seed", "7"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_csv_cells_refuse_numpy_scalars():
    # a numpy scalar's repr names its type, which would corrupt the CSV bytes
    assert [_cell(v) for v in (None, "a", 3, 0.1, True)] == ["", "a", "3", "0.1", "True"]
    with pytest.raises(TypeError):
        _cell(np.float64(0.1))
