"""Experiment configuration files: INI sections [market], [strategy], [run], [output].

Unknown sections or keys are rejected, every market invariant is validated at
load time, and ``dumps``/``loads`` round-trip to an identical configuration
(floats are serialized with ``repr`` so they survive exactly).
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace
from pathlib import Path

from .functionals import (
    Affine,
    Indicator,
    TerminalFunctional,
    arctangent,
    logistic,
)
from .harness import DEFAULT_PATHS, DEFAULT_SEED, DEFAULT_STEPS
from .integrators import Interpretation
from .market import FullInformation, Honest, MarketParams, PartialTrust, Strategy
from .paths import check_seed


class ConfigError(ValueError):
    """Configuration file or option set is invalid."""


DEFAULT_PARAMS = MarketParams(wealth=1.0, rho=0.02, mu=0.05, sigma=0.2, horizon=1.0)
DEFAULT_INTERPRETATIONS = (
    Interpretation.FORWARD,
    Interpretation.AYED_KUO,
    Interpretation.HITSUDA_SKOROKHOD,
)

_MARKET_KEYS = ("wealth", "rho", "mu", "sigma", "horizon")
_RUN_KEYS = ("paths", "steps", "seed", "workers", "interpretations", "n_list")
_OUTPUT_KEYS = ("csv", "json")
_STRATEGY_KEYS = ("kind", "bond0", "stock0")
_FUNCTIONAL_KEYS = ("kind", "a", "b", "scale", "threshold")


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully validated experiment description."""

    params: MarketParams = DEFAULT_PARAMS
    strategy: Strategy = field(default_factory=PartialTrust)
    functional: TerminalFunctional | None = None
    interpretations: tuple[Interpretation, ...] = DEFAULT_INTERPRETATIONS
    n_paths: int = DEFAULT_PATHS
    steps: int = DEFAULT_STEPS
    seed: int = DEFAULT_SEED
    workers: int = 1
    n_list: tuple[int, ...] | None = None
    csv_path: str | None = None
    json_path: str | None = None

    def __post_init__(self) -> None:
        # the seed comes from a flag, the environment or a file; reject it here
        # rather than let the path sampler see it
        try:
            check_seed(self.seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def replace(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **kwargs)

    def dumps(self) -> str:
        lines = ["[market]"]
        p = self.params
        lines += [
            f"wealth = {p.wealth!r}",
            f"rho = {p.rho!r}",
            f"mu = {p.mu!r}",
            f"sigma = {p.sigma!r}",
            f"horizon = {p.horizon!r}",
            "",
            "[strategy]",
        ]
        if isinstance(self.strategy, Honest):
            lines += [
                "kind = honest",
                f"bond0 = {self.strategy.bond0!r}",
                f"stock0 = {self.strategy.stock0!r}",
            ]
        elif isinstance(self.strategy, PartialTrust):
            lines.append("kind = partial-trust")
        else:
            lines.append("kind = full-information")
        if self.functional is not None:
            lines += ["", "[functional]"] + _functional_lines(self.functional)
        lines += [
            "",
            "[run]",
            f"paths = {self.n_paths}",
            f"steps = {self.steps}",
            f"seed = {self.seed}",
            f"workers = {self.workers}",
            "interpretations = " + ",".join(i.value for i in self.interpretations),
        ]
        if self.n_list is not None:
            lines.append("n_list = " + ",".join(str(n) for n in self.n_list))
        if self.csv_path is not None or self.json_path is not None:
            lines += ["", "[output]"]
            if self.csv_path is not None:
                lines.append(f"csv = {self.csv_path}")
            if self.json_path is not None:
                lines.append(f"json = {self.json_path}")
        return "\n".join(lines) + "\n"

    def echo(self) -> dict[str, str]:
        """Flat key -> value view of every field, for self-describing outputs."""
        out = {
            "market.wealth": repr(self.params.wealth),
            "market.rho": repr(self.params.rho),
            "market.mu": repr(self.params.mu),
            "market.sigma": repr(self.params.sigma),
            "market.horizon": repr(self.params.horizon),
            "strategy.kind": _strategy_kind(self.strategy),
            "run.paths": str(self.n_paths),
            "run.steps": str(self.steps),
            "run.seed": str(self.seed),
            "run.workers": str(self.workers),
            "run.interpretations": ",".join(i.value for i in self.interpretations),
        }
        if isinstance(self.strategy, Honest):
            out["strategy.bond0"] = repr(self.strategy.bond0)
            out["strategy.stock0"] = repr(self.strategy.stock0)
        if self.n_list is not None:
            out["run.n_list"] = ",".join(str(n) for n in self.n_list)
        return out


def _strategy_kind(strategy: Strategy) -> str:
    if isinstance(strategy, Honest):
        return "honest"
    if isinstance(strategy, PartialTrust):
        return "partial-trust"
    return "full-information"


def _functional_lines(c: TerminalFunctional) -> list[str]:
    if isinstance(c, Affine):
        return ["kind = affine", f"a = {c.a!r}", f"b = {c.b!r}"]
    if isinstance(c, Indicator):
        return ["kind = indicator", f"scale = {c.scale!r}", f"threshold = {c.threshold!r}"]
    if c == logistic(c.scale):
        return ["kind = logistic", f"scale = {c.scale!r}"]
    if c == arctangent(c.scale):
        return ["kind = arctangent", f"scale = {c.scale!r}"]
    raise ConfigError(f"functional {c!r} is not serializable")


def _require_keys(section: str, present, allowed: tuple[str, ...]) -> None:
    unknown = sorted(set(present) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in [{section}]: {', '.join(unknown)}")


def _parse_float(section: str, key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {value!r} is not a number") from exc


def _parse_int(section: str, key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {value!r} is not an integer") from exc


def parse_int_list(text: str) -> tuple[int, ...]:
    try:
        items = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"{text!r} is not a comma-separated integer list") from exc
    if not items:
        raise ConfigError("empty integer list")
    return items


def _parse_interpretations(text: str) -> tuple[Interpretation, ...]:
    out = []
    for part in text.split(","):
        name = part.strip()
        if not name:
            continue
        try:
            out.append(Interpretation(name))
        except ValueError as exc:
            raise ConfigError(f"unknown interpretation {name!r}") from exc
    if not out:
        raise ConfigError("interpretation list is empty")
    return tuple(out)


def functional_from_spec(section: str, data: dict[str, str]) -> TerminalFunctional:
    """Build a terminal functional from config keys (kind plus parameters)."""
    _require_keys(section, data, _FUNCTIONAL_KEYS)
    kind = data.get("kind")
    if kind == "affine":
        return Affine(
            a=_parse_float(section, "a", data.get("a", "0.0")),
            b=_parse_float(section, "b", data.get("b", "0.0")),
        )
    if kind == "indicator":
        return Indicator(
            scale=_parse_float(section, "scale", data.get("scale", "1.0")),
            threshold=_parse_float(section, "threshold", data.get("threshold", "0.0")),
        )
    if kind == "logistic":
        return logistic(_parse_float(section, "scale", data.get("scale", "1.0")))
    if kind == "arctangent":
        return arctangent(_parse_float(section, "scale", data.get("scale", "1.0")))
    raise ConfigError(f"unknown functional kind {kind!r}")


def loads(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    known = {"market", "strategy", "functional", "run", "output"}
    unknown = sorted(set(parser.sections()) - known)
    if unknown:
        raise ConfigError(f"unknown section(s): {', '.join(unknown)}")

    market = dict(parser["market"]) if parser.has_section("market") else {}
    _require_keys("market", market, _MARKET_KEYS)
    kwargs = {k: _parse_float("market", k, v) for k, v in market.items()}
    defaults = DEFAULT_PARAMS
    try:
        params = MarketParams(
            wealth=kwargs.get("wealth", defaults.wealth),
            rho=kwargs.get("rho", defaults.rho),
            mu=kwargs.get("mu", defaults.mu),
            sigma=kwargs.get("sigma", defaults.sigma),
            horizon=kwargs.get("horizon", defaults.horizon),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid [market] section: {exc}") from exc

    strat = dict(parser["strategy"]) if parser.has_section("strategy") else {}
    _require_keys("strategy", strat, _STRATEGY_KEYS)
    kind = strat.get("kind", "partial-trust")
    if kind == "honest":
        if "bond0" not in strat or "stock0" not in strat:
            raise ConfigError("honest strategy needs bond0 and stock0")
        strategy: Strategy = Honest(
            bond0=_parse_float("strategy", "bond0", strat["bond0"]),
            stock0=_parse_float("strategy", "stock0", strat["stock0"]),
        )
    elif kind == "partial-trust":
        if "bond0" in strat or "stock0" in strat:
            raise ConfigError("only the honest strategy takes a fixed split")
        strategy = PartialTrust()
    elif kind == "full-information":
        if "bond0" in strat or "stock0" in strat:
            raise ConfigError("only the honest strategy takes a fixed split")
        strategy = FullInformation()
    else:
        raise ConfigError(f"unknown strategy kind {kind!r}")

    functional = None
    if parser.has_section("functional"):
        functional = functional_from_spec("functional", dict(parser["functional"]))

    run = dict(parser["run"]) if parser.has_section("run") else {}
    _require_keys("run", run, _RUN_KEYS)
    n_list = parse_int_list(run["n_list"]) if "n_list" in run else None
    interps = (
        _parse_interpretations(run["interpretations"])
        if "interpretations" in run
        else DEFAULT_INTERPRETATIONS
    )

    out = dict(parser["output"]) if parser.has_section("output") else {}
    _require_keys("output", out, _OUTPUT_KEYS)

    return ExperimentConfig(
        params=params,
        strategy=strategy,
        functional=functional,
        interpretations=interps,
        n_paths=_parse_int("run", "paths", run.get("paths", str(DEFAULT_PATHS))),
        steps=_parse_int("run", "steps", run.get("steps", str(DEFAULT_STEPS))),
        seed=_parse_int("run", "seed", run.get("seed", str(DEFAULT_SEED))),
        workers=_parse_int("run", "workers", run.get("workers", "1")),
        n_list=n_list,
        csv_path=out.get("csv"),
        json_path=out.get("json"),
    )


def load_file(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return loads(text)
