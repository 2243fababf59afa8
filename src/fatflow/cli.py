"""Command-line experiment runner.

Usage:
    fatflow [--config FILE] [--k 4] [--capacity 10e6]
            [--scheduler hybrid --scheduler ecmp ...] [--seed 0 --seed 1 ...]
            [--duration 30] [--pattern random_bisection] [--out DIR] ...

Every `ExperimentConfig` field has one flag and one config-file key, both
derived from the field (see `fatflow --help`):

    --k  --capacity  --scheduler  --seed  --duration  --poll-interval
    --detection-threshold  --alpha  --elephant-threshold  --pattern
    --elephants  --arrival-rate  --flow-duration  --demand  --probe-interval
    --base-hop-latency  --queuing-scale  --rho-cap  --out  --events

The config file is flat `key = value` text (comma-separated lists, `none`
for optional values, `#` comments); keys are the flag names with
underscores, except the plural `schedulers` and `seeds` lists. Command-line
flags override file keys, and the FATFLOW_OUT environment variable
overrides the configured output directory unless --out is given explicitly.

Exit codes: 0 success, 1 config error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import typing
from pathlib import Path
from typing import Any, Callable, Optional

from .experiment import ConfigError, ExperimentConfig, run_experiment

ENV_OUT = "FATFLOW_OUT"


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; config problems are exit code 1 here
    def error(self, message):
        raise ConfigError(message)


def _parse_float(name: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{name}: expected a number, got {raw!r}") from None


def _parse_optional_float(name: str, raw: str) -> Optional[float]:
    if raw.strip().lower() in ("none", ""):
        return None
    return _parse_float(name, raw)


def _parse_int(name: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{name}: expected an integer, got {raw!r}") from None


def _parse_bool(name: str, raw: str) -> bool:
    v = raw.strip().lower()
    if v in ("true", "yes", "1", "on"):
        return True
    if v in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{name}: expected a boolean, got {raw!r}")


def _parse_str(name: str, raw: str) -> str:
    return raw.strip()


# a field's declared type (of a list field: its item type) -> its parser
_PARSERS = {int: _parse_int, float: _parse_float, bool: _parse_bool,
            str: _parse_str, Optional[float]: _parse_optional_float}


@dataclasses.dataclass(frozen=True)
class _Setting:
    """How one `ExperimentConfig` field is read from the file and the flags."""

    name: str
    key: str
    flag: str
    help: str
    parse: Callable[[str, str], Any]  # (field name, raw text) -> one value
    repeat: bool  # a list: comma-separated in the file, a repeated flag

    def value(self, raws: list[str]):
        items = [self.parse(self.name, raw) for raw in raws]
        return items if self.repeat else items[0]


def _settings() -> list[_Setting]:
    types = typing.get_type_hints(ExperimentConfig)
    settings = []
    for f in dataclasses.fields(ExperimentConfig):
        tp = types[f.name]
        repeat = typing.get_origin(tp) is list
        key = f.metadata.get("key", f.name)
        flag = "--" + f.metadata.get("flag", key).replace("_", "-")
        rule = f.metadata["rule"]
        doc = f.metadata["help"] + (f"; must be {rule.text}" if rule else "")
        parse = _PARSERS[typing.get_args(tp)[0] if repeat else tp]
        settings.append(_Setting(f.name, key, flag, doc, parse, repeat))
    return settings


_SETTINGS = _settings()


def load_config_file(path: str, config: ExperimentConfig) -> None:
    by_key = {s.key: s for s in _SETTINGS}
    text = Path(path).read_text()
    for n, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{n}: expected `key = value`, got {line!r}")
        key, _, value = line.partition("=")
        setting = by_key.get(key.strip())
        if setting is None:
            raise ConfigError(f"{path}:{n}: unknown key {key.strip()!r}")
        raws = ([v for v in value.split(",") if v.strip()] if setting.repeat
                else [value])
        setattr(config, setting.name, setting.value(raws))


def build_arg_parser() -> _Parser:
    p = _Parser(prog="fatflow",
                description="Run seeded fat-tree scheduling experiments.")
    p.add_argument("--config", help="key = value config file")
    for s in _SETTINGS:
        if s.repeat:
            options = {"action": "append"}
        elif s.parse is _parse_bool:
            # a bare flag turns it on; a value may turn it off again
            options = {"nargs": "?", "const": "true"}
        else:
            options = {}
        p.add_argument(s.flag, dest=s.name, metavar=s.flag[2:].upper(),
                       help=s.help, **options)
    return p


def config_from_args(argv: list[str], env: Optional[dict] = None) -> ExperimentConfig:
    env = os.environ if env is None else env
    args = build_arg_parser().parse_args(argv)
    config = ExperimentConfig()
    if args.config:
        try:
            load_config_file(args.config, config)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {args.config!r}: {exc}") from exc
    if ENV_OUT in env:
        config.out_dir = env[ENV_OUT]
    for s in _SETTINGS:
        raw = getattr(args, s.name)
        if raw is not None:
            setattr(config, s.name, s.value(raw if s.repeat else [raw]))
    config.validate()
    return config


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = config_from_args(argv)
    except ConfigError as exc:
        print(f"fatflow: config error: {exc}", file=sys.stderr)
        return 1
    try:
        out = run_experiment(config)
    except Exception as exc:
        print(f"fatflow: run failed: {exc}", file=sys.stderr)
        return 2
    n = len(config.schedulers) * len(config.seeds)
    print(f"wrote {n} reports, summary, and plot data under {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
