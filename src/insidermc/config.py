"""Experiment configuration files: INI sections [market], [strategy], [run], [output].

Unknown sections or keys are rejected, every market invariant is validated at
load time, and ``dumps``/``loads`` round-trip to an identical configuration
(floats are serialized with ``repr`` so they survive exactly). One field
table, ``ExperimentConfig._fields``, lists every key; it drives ``dumps``,
``echo`` and the keys ``loads`` accepts.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

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


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully validated experiment description."""

    params: MarketParams = DEFAULT_PARAMS
    strategy: Strategy = field(default_factory=PartialTrust)
    interpretations: tuple[Interpretation, ...] = DEFAULT_INTERPRETATIONS
    n_paths: int = DEFAULT_PATHS
    steps: int = DEFAULT_STEPS
    seed: int = DEFAULT_SEED
    workers: int = 1
    n_list: tuple[int, ...] | None = None
    csv_path: str | None = None
    json_path: str | None = None

    def __post_init__(self) -> None:
        # these come from a flag, the environment or a file; reject them here
        # rather than let the samplers see them
        try:
            check_seed(self.seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for name in ("n_paths", "steps", "workers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")

    def _fields(self) -> list[tuple[str, str, str | None]]:
        """(section, key, value) of every config key in echo order; None marks an unset key."""
        p, s = self.params, self.strategy
        honest = isinstance(s, Honest)
        return [
            *(("market", f.name, repr(getattr(p, f.name))) for f in fields(p)),
            ("strategy", "kind", _strategy_kind(s)),
            ("run", "paths", str(self.n_paths)),
            ("run", "steps", str(self.steps)),
            ("run", "seed", str(self.seed)),
            ("run", "workers", str(self.workers)),
            ("run", "interpretations", ",".join(i.value for i in self.interpretations)),
            # after the run keys: the CSV echo of an honest strategy has always read so
            ("strategy", "bond0", repr(s.bond0) if honest else None),
            ("strategy", "stock0", repr(s.stock0) if honest else None),
            ("run", "n_list", None if self.n_list is None else ",".join(map(str, self.n_list))),
            ("output", "csv", self.csv_path),
            ("output", "json", self.json_path),
        ]

    def dumps(self) -> str:
        sections: dict[str, list[str]] = {}
        for section, key, value in self._fields():
            if value is not None:
                sections.setdefault(section, []).append(f"{key} = {value}")
        return "\n\n".join(
            f"[{section}]\n" + "\n".join(lines) for section, lines in sections.items()
        ) + "\n"

    def echo(self) -> dict[str, str]:
        """Flat key -> value view of every set key but the output paths, for each output."""
        return {
            f"{section}.{key}": value
            for section, key, value in self._fields()
            if value is not None and section != "output"
        }


def _strategy_kind(strategy: Strategy) -> str:
    if isinstance(strategy, Honest):
        return "honest"
    if isinstance(strategy, PartialTrust):
        return "partial-trust"
    return "full-information"


def _require_keys(section: str, present, allowed: list[str]) -> None:
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


def loads(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    allowed: dict[str, list[str]] = {}
    for section, key, _ in ExperimentConfig()._fields():
        allowed.setdefault(section, []).append(key)
    unknown = sorted(set(parser.sections()) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown section(s): {', '.join(unknown)}")
    data = {}
    for section, keys in allowed.items():
        data[section] = dict(parser[section]) if parser.has_section(section) else {}
        _require_keys(section, data[section], keys)
    market, strat, run, out = data.values()

    kwargs = {k: _parse_float("market", k, v) for k, v in market.items()}
    try:
        params = replace(DEFAULT_PARAMS, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid [market] section: {exc}") from exc

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

    n_list = parse_int_list(run["n_list"]) if "n_list" in run else None
    interps = (
        _parse_interpretations(run["interpretations"])
        if "interpretations" in run
        else DEFAULT_INTERPRETATIONS
    )

    return ExperimentConfig(
        params=params,
        strategy=strategy,
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
