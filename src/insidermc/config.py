"""Experiment configuration files: INI sections [market], [strategy], [run], [output].

Unknown sections or keys are rejected, every market invariant and the honest
split are validated at load time, values are read literally (no ``%``
interpolation), and ``dumps``/``loads`` round-trip to an identical
configuration (floats are serialized with ``repr`` so they survive exactly).
One field table, ``FIELDS``, names each run and output key once, with its
section, ``ExperimentConfig`` attribute, parser, formatter, and the argparse
options and subcommands of its CLI flag. The config file, the environment and
the CLI flags all set those keys through ``ExperimentConfig.override``;
``dumps``, ``echo``, the keys ``loads`` accepts and the flags
``cli.build_parser`` adds are read from the same table. One strategy table,
``STRATEGIES``, maps each strategy kind to its class.
"""
from __future__ import annotations

import configparser
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .harness import DEFAULT_PATHS, DEFAULT_SEED, DEFAULT_STEPS
from .integrators import Interpretation
from .market import FullInformation, Honest, MarketParams, PartialTrust, Strategy, _check_honest
from .paths import check_seed


class ConfigError(ValueError):
    """Configuration file or option set is invalid."""


DEFAULT_PARAMS = MarketParams(wealth=1.0, rho=0.02, mu=0.05, sigma=0.2, horizon=1.0)
DEFAULT_INTERPRETATIONS = (
    Interpretation.FORWARD,
    Interpretation.AYED_KUO,
    Interpretation.HITSUDA_SKOROKHOD,
)


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


# (section, key, ExperimentConfig attribute, parser of the text, formatter of
# the value, argparse options of the key's flag or None for no flag, the
# subcommands whose parser carries the flag or None for all) of every run and
# output key, in echo order; the flag of key k is --k with "_" read as "-"
FIELDS = (
    ("run", "paths", "n_paths", int, str,
     {"type": int, "help": "number of Monte Carlo paths"}, None),
    ("run", "steps", "steps", int, str,
     {"type": int, "help": "grid steps per path; only jump reads it, for its flip-time grid "
      "(expect, converge, conjecture and ordering-sweep ignore it)"}, None),
    ("run", "seed", "seed", int, str,
     {"type": int, "help": "RNG seed (overrides env and file)"}, None),
    ("run", "workers", "workers", int, str,
     {"type": int, "help": "parallel sampling workers"}, None),
    ("run", "interpretations", "interpretations", _parse_interpretations,
     lambda interps: ",".join(i.value for i in interps), None, None),
    # a string flag, read by the field's parser so that its errors name the key
    ("run", "n_list", "n_list", parse_int_list, lambda n_list: ",".join(map(str, n_list)),
     {"help": "comma-separated grid sizes (powers of two)"}, ("converge", "conjecture")),
    ("output", "csv", "csv_path", str, str, {"help": "write results as CSV"}, None),
    ("output", "json", "json_path", str, str,
     {"metavar": "JSON_OUT", "help": "write a JSON summary"}, None),
)
# the echo lists the honest split between these two slices of FIELDS
_BEFORE_SPLIT = 5
# the class of each strategy kind a config names
STRATEGIES = {"honest": Honest, "partial-trust": PartialTrust, "full-information": FullInformation}


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
            if isinstance(self.strategy, Honest):
                _check_honest(self.strategy, self.params)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for name in ("n_paths", "steps", "workers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")

    def override(
        self,
        values: Mapping[str, object],
        invalid: str = "[{section}] {key} = {text!r} is not an integer",
    ) -> ExperimentConfig:
        """This config with each ``FIELDS`` key that ``values`` sets to a value other than None.

        A text value is read with the key's parser (a config file, the
        environment); any other value is taken as parsed (a typed CLI flag).
        ``invalid`` formats the error for text that ``int`` rejects; the list
        parsers name the bad value themselves, after the ``[section] key``.
        """
        changes = {}
        for section, key, attr, parse, *_ in FIELDS:
            value = values.get(key)
            if isinstance(value, str):
                try:
                    value = parse(value)
                except ConfigError as exc:
                    raise ConfigError(f"[{section}] {key}: {exc}") from exc
                except ValueError as exc:
                    message = invalid.format(section=section, key=key, text=value)
                    raise ConfigError(message) from exc
            if value is not None:
                changes[attr] = value
        return replace(self, **changes) if changes else self

    def _fields(self) -> list[tuple[str, str, str | None]]:
        """(section, key, value) of every config key in echo order; None marks an unset key."""
        p, s = self.params, self.strategy
        honest = isinstance(s, Honest)
        run = [
            (section, key, None if (value := getattr(self, attr)) is None else fmt(value))
            for section, key, attr, _, fmt, *_ in FIELDS
        ]
        return [
            *(("market", f.name, repr(getattr(p, f.name))) for f in fields(p)),
            ("strategy", "kind", next(k for k, cls in STRATEGIES.items() if isinstance(s, cls))),
            *run[:_BEFORE_SPLIT],
            # after the run keys: the CSV echo of an honest strategy has always read so
            ("strategy", "bond0", repr(s.bond0) if honest else None),
            ("strategy", "stock0", repr(s.stock0) if honest else None),
            *run[_BEFORE_SPLIT:],
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


def _require_keys(section: str, present, allowed: list[str]) -> None:
    unknown = sorted(set(present) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in [{section}]: {', '.join(unknown)}")


def _parse_float(section: str, key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {value!r} is not a number") from exc


def loads(text: str) -> ExperimentConfig:
    # values are read literally: a path may hold a '%'
    parser = configparser.ConfigParser(interpolation=None)
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
    if kind not in STRATEGIES:
        raise ConfigError(f"unknown strategy kind {kind!r}")
    if STRATEGIES[kind] is Honest:
        if "bond0" not in strat or "stock0" not in strat:
            raise ConfigError("honest strategy needs bond0 and stock0")
        strategy: Strategy = Honest(
            bond0=_parse_float("strategy", "bond0", strat["bond0"]),
            stock0=_parse_float("strategy", "stock0", strat["stock0"]),
        )
    elif "bond0" in strat or "stock0" in strat:
        raise ConfigError("only the honest strategy takes a fixed split")
    else:
        strategy = STRATEGIES[kind]()

    return ExperimentConfig(params=params, strategy=strategy).override(run | out)


def load_file(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return loads(text)
