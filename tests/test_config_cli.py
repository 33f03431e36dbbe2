import hashlib
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
from insidermc.cli import _cell, main
from insidermc.config import ConfigError, ExperimentConfig, load_file, loads

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
        ["expect", "--mc", "--paths", "100000"],
        "8 estimate and stderr",
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
    "expect": "c10e84e10cf5d2ef29e130c9dc372ed07c1d1efecbcc286ec367980e064921bb",
    "converge": "f3dd54cbe8c970a27ee7793b6a5a9f2c53ceecbbca765196c31db02e13362fb1",
    "conjecture": "28ab6e695c7a31e00e24ce8a4fc90051c84ef8560187361f0909089f10c3e51c",
    "jump": "db4d45be3129ce5b71469e1e15b2e071cce9696608a2eb35c319b67a1b414c84",
    "ordering-sweep": "32030e2dc4d1bffbb10eec11ae7a41c405d99c4dc91ebc8978711daa5e85dfa4",
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
    "expect": "229a6fd53fbdfc27eb74ad0c8c7a9d15dc684af066dddbc19bb869bb6a3b4570",
    "converge": "41bb8fa6f6f56c945647f9c811c9d832645dda61e32ea1939fde56b6edc6134a",
    "conjecture": "0048fff6d3b8b9471b67a15f5f5d97919c237ba3df4ddbae661d9c30cead0156",
    "jump": "dcbf2571a454ca6c0dfd90f940fd2e15e6ea63b0d9cf709411a19937f994aef6",
    "ordering-sweep": "960b44a9fca5c8cbf6ea2b07d073c80bdfe0cb28f1c056ab418f84e409bc488c",
    "converge-honest": "6740003693f2695feae715abdaf59dcc9f0f9f73403ceaeab5cf78f9aad3ab98",
}
STDOUT_DIGESTS = {
    "expect": "6b51674ba78914668b65ee46f5cb6ac475e8b5bb0cf233102242ca711e1b5bcf",
    "converge": "624721364729011503efe4629a29846c95044555933b5073b4fc095ccbe2b22d",
    "conjecture": "0dfb7bccc998f467036eee9fa94fe18d0ff30bfab0d89afd781cfdcca94e6da2",
    "jump": "15ddbcab886533e48b18831401b4632a81a392a4a5731aca88a311bbeefaae45",
    "ordering-sweep": "05491beddfb643598df9afdde8422f1035fe1124deabc28e6fc6fddca60bfa15",
    "converge-honest": "b51d4271576a0f78d5043f50c63ee3d3b63997e4675c07fdcc1a6db3d41f3592",
}
ENV_DIGESTS = {
    "json": "28bc549bf46fd0fd5ee95e7b393f75dc2498a4191d881d91ceb3a4a712be6c31",
    "stdout": "b45d59ee70992bc5647678a1f5b9e26b99023ca1f1cb383b0899b81355a9e477",
    "csv": "4276dfbdf0a6fde34975ece55cadac44f32994abbb7433f8683267ed8b907ee2",
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


# sha256 of the outputs of `ordering-sweep --sets 300 --seed 7`, recorded like
# CSV_DIGESTS; sets 81 and 258 need 1024 nodes (arctangent, forward leg) where
# every other set stops at 256 or 512
SWEEP_DIGESTS = {
    "json": "76863e925d47d6fc606b29ce9cb30153039ce78df95037e1b739c602d6a5af44",
    "stdout": "f943779033b977b4dec46de7cb02ead91dd1f3c74c0ad48d2ec2fbbeab1bf740",
    "csv": "26f1036039e68de471862ffdad523e76ae7f7e7ba9678aad4469ccba675e9bbf",
}


def test_sweep_bytes_match_recorded_digests(tmp_path, capsys):
    argv = ["ordering-sweep", "--sets", "300", "--seed", "7"]
    assert _output_digests(tmp_path, capsys, "sweep", argv) == SWEEP_DIGESTS


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


def test_csv_cells_refuse_numpy_scalars():
    # a numpy scalar's repr names its type, which would corrupt the CSV bytes
    assert [_cell(v) for v in (None, "a", 3, 0.1, True)] == ["", "a", "3", "0.1", "True"]
    with pytest.raises(TypeError):
        _cell(np.float64(0.1))
