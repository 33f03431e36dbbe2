import json

import pytest

from insidermc import Honest, Interpretation, PartialTrust, logistic
from insidermc.cli import main
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
        ExperimentConfig(functional=logistic(2.0), n_list=(256, 1024)),
        ExperimentConfig(json_path="a.json", csv_path="b.csv"),
    ):
        assert loads(cfg.dumps()) == cfg


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
