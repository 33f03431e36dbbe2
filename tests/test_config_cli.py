import hashlib
import json

import pytest

from insidermc import Honest, Interpretation, PartialTrust
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
        ExperimentConfig(n_list=(256, 1024)),
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
