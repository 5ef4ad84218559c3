"""Plain-text configuration files.

Files are flat key = value text grouped into [stream], [optimizer],
[experiment] and [grid] sections; keys mirror the dataclass field names
(see StreamConfig, StepConfig, ExperimentConfig). Unknown sections and
keys are rejected so typos fail loudly. The [grid] section holds
comma-separated axis values, e.g. `kappa = 3, 10, 30`.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import fields, is_dataclass, replace
from enum import Enum
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .bench import ExperimentConfig, grid_axis_field
from .errors import InvalidAxis, InvalidConfig
from .olbfgs import StepConfig
from .stream import StreamConfig


def parse_value(raw: str, kind, key: str):
    """One config field's value from its text, by the field's type `kind`.

    `kind` comes from `typing.get_type_hints` of the config dataclass: an
    enum takes its value text, a float must be finite, and a tuple type
    takes a comma list. A bad value raises InvalidConfig naming `key`.
    """
    raw = raw.strip()
    if get_origin(kind) is tuple:
        item = get_args(kind)[0]
        return tuple(parse_value(v, item, key) for v in raw.split(",") if v.strip())
    try:
        value = kind(raw)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError("not finite")
    except ValueError as exc:
        raise InvalidConfig(f"bad value {raw!r} for {key}") from exc
    return value


def _section_kwargs(parser: configparser.ConfigParser, section: str, cls) -> dict:
    if not parser.has_section(section):
        return {}
    # Nested configs (ExperimentConfig.stream, .optimizer) have their own sections.
    kinds = get_type_hints(cls)
    known = {f.name: kinds[f.name] for f in fields(cls) if not is_dataclass(f.default_factory)}
    out = {}
    for key, raw in parser.items(section):
        if key not in known:
            raise InvalidConfig(f"unknown key {key!r} in [{section}]")
        out[key] = parse_value(raw, known[key], key)
    return out


def load_grid_axes(path: str | Path) -> dict[str, list]:
    """The [grid] axes of a file, by axis name; `bench.run_grid` checks them as a whole."""
    parser = _read(path)
    axes: dict[str, list] = {}
    if parser.has_section("grid"):
        for key, raw in parser.items("grid"):
            try:
                kind = int if key == "seed" else grid_axis_field(key)[2]
            except InvalidAxis as exc:
                raise InvalidConfig(f"unknown key {key!r} in [grid]") from exc
            values = parse_value(raw, tuple[kind, ...], key)
            # Enum axes keep their text: derive_point_seed hashes str(value).
            axes[key] = [v.value if isinstance(v, Enum) else v for v in values]
    return axes


def _read(path: str | Path) -> configparser.ConfigParser:
    p = Path(path)
    if not p.is_file():
        raise InvalidConfig(f"config file not found: {p}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        parser.read(p, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise InvalidConfig(f"cannot parse {p}: {exc}") from exc
    # configparser copies [DEFAULT] keys into every other section, and a
    # section nobody reads would be ignored: both would hide a typo.
    if parser.defaults():
        raise InvalidConfig(f"unknown section [{parser.default_section}] in {p}")
    for section in parser.sections():
        if section not in ("stream", "optimizer", "experiment", "grid"):
            raise InvalidConfig(f"unknown section [{section}] in {p}")
    return parser


def load_config(path: str | Path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Build an ExperimentConfig from a file, on top of `base` defaults."""
    parser = _read(path)
    cfg = base if base is not None else ExperimentConfig()
    return replace(
        cfg,
        stream=replace(cfg.stream, **_section_kwargs(parser, "stream", StreamConfig)),
        optimizer=replace(cfg.optimizer, **_section_kwargs(parser, "optimizer", StepConfig)),
        **_section_kwargs(parser, "experiment", ExperimentConfig),
    )
