"""Experiment configuration: sectioned key-value files, strict validation.

A config file has an ``[experiment]`` section with the physics and an
optional ``[output]`` section.  Unknown sections or keys are errors, not
warnings, so typos cannot silently fall back to defaults.  Every field of
the parsed config is echoed into the run report, defaults included.
"""

from __future__ import annotations

import configparser
import math
from collections import namedtuple
from pathlib import Path

EXPERIMENT_KINDS = (
    "findim-suite",
    "duality",
    "cross-ratio-sweep",
    "c-fit",
    "shrink",
    "collapse",
    "two-d",
)

_DEFAULT_TOLERANCES = {
    "findim-suite": 1e-6,
    "duality": 5e-3,
    "cross-ratio-sweep": 1e-9,
    "c-fit": 0.02,
    "shrink": 1e-2,
    "collapse": 1e-2,
    "two-d": 1e-2,
}

_EXPERIMENT_KEYS = {
    "kind",
    "sizes",
    "arcs",
    "right_arcs",
    "c",
    "r_convention",
    "seed",
    "tolerance",
    "instances",
    "schedule",
    "arc_index",
    "family_size",
    "lengths",
    "sweep_lengths",
}
_OUTPUT_KEYS = {"directory", "cache"}

_NEEDS_GEOMETRY = {"duality", "cross-ratio-sweep", "shrink", "collapse", "two-d"}


class ConfigError(Exception):
    """Invalid or malformed experiment configuration."""


_CONFIG_DEFAULTS = {
    "sizes": (),  # ints
    "arcs": (),  # (start, end) pairs
    "right_arcs": (),  # (start, end) pairs
    "c": 2.0,
    "r_convention": "chord",
    "seed": 0,
    "tolerance": None,  # None: the kind's default
    "instances": 20,
    "schedule": (),  # floats
    "arc_index": 0,
    "family_size": 3,
    "lengths": (),  # ints
    "sweep_lengths": (),  # floats
    "out_dir": "",
    "cache_enabled": True,
}


class ExperimentConfig(
    namedtuple("ExperimentConfig", ["kind", *_CONFIG_DEFAULTS], defaults=_CONFIG_DEFAULTS.values())
):
    """An experiment config; ``validate_config`` decides whether it can run.

    A named tuple rather than a dataclass: importing ``dataclasses`` (and
    through it ``inspect``) would add to the start-up of every CLI call,
    cache hits included.  Change a field with ``_replace``.
    """

    __slots__ = ()

    @property
    def effective_tolerance(self) -> float:
        if self.tolerance is not None:
            return self.tolerance
        return _DEFAULT_TOLERANCES[self.kind]

    def echo(self) -> dict:
        """Flat dict of every effective field, for the report and the cache key."""
        out = {}
        for name, value in zip(self._fields, self):
            if name in ("out_dir", "cache_enabled"):
                continue
            if isinstance(value, tuple):
                value = list(
                    list(v) if isinstance(v, tuple) else v for v in value
                )
            out[name] = value
        out["tolerance"] = self.effective_tolerance
        return out


def _parse_float(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"malformed number for '{key}': {raw!r}") from None


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"malformed integer for '{key}': {raw!r}") from None


def _parse_arcs(raw: str, key: str) -> tuple[tuple[float, float], ...]:
    arcs = []
    for piece in raw.split(","):
        parts = piece.split()
        if len(parts) != 2:
            raise ConfigError(
                f"'{key}' entries must be 'start end' pairs separated by commas"
            )
        arcs.append((_parse_float(parts[0], key), _parse_float(parts[1], key)))
    return tuple(arcs)


def _separated(arcs) -> bool:
    """RegionSpec's rule for arcs, in plain arithmetic: after reduction mod
    2*pi and sorting, no arc is degenerate and each ends strictly before
    the next one starts."""
    cleaned = sorted((a % math.tau, b % math.tau) for a, b in arcs)
    for k, (a, b) in enumerate(cleaned):
        end = b if b > a else b + math.tau
        following = cleaned[k + 1][0] if k + 1 < len(cleaned) else cleaned[0][0] + math.tau
        if a == b or end >= following:
            return False
    return True


def validate_config(config: ExperimentConfig) -> None:
    """Raise ConfigError unless the config can run; call again after any override."""
    if config.kind not in EXPERIMENT_KINDS:
        raise ConfigError(
            f"unknown experiment kind '{config.kind}' (expected one of {', '.join(EXPERIMENT_KINDS)})"
        )
    if config.kind != "findim-suite":
        if not config.sizes:
            raise ConfigError(f"'{config.kind}' requires 'sizes'")
        for n in config.sizes:
            if n % 2 or n < 8:
                raise ConfigError(f"sizes must be even and at least 8, got {n}")
        if any(b <= a for a, b in zip(config.sizes, config.sizes[1:])):
            raise ConfigError("sizes must be strictly increasing")
    if config.kind in _NEEDS_GEOMETRY and not config.arcs:
        raise ConfigError(f"'{config.kind}' requires 'arcs'")
    if config.kind == "c-fit" and config.arcs:
        raise ConfigError("'c-fit' fits single intervals; 'arcs' does not apply")
    if config.kind == "two-d" and not config.right_arcs:
        raise ConfigError("'two-d' requires 'right_arcs' for the second chiral half")
    if config.kind in ("duality", "two-d") and len(config.arcs) < 2:
        raise ConfigError(f"'{config.kind}' needs at least two arcs")
    if config.kind == "two-d" and len(config.right_arcs) != len(config.arcs):
        raise ConfigError("'right_arcs' needs as many arcs as 'arcs'")
    if config.kind in ("cross-ratio-sweep", "collapse") and len(config.arcs) != 2:
        raise ConfigError(f"'{config.kind}' expects exactly 2 arcs")
    if config.kind == "c-fit" and not config.lengths and config.sizes[0] < 16:
        raise ConfigError("'c-fit' needs sizes of at least 16 unless 'lengths' is given")
    if config.kind == "c-fit" and config.lengths:
        if len(config.lengths) < 6:
            raise ConfigError("'lengths' needs at least 6 entries for a stable fit")
        smallest = config.sizes[0]
        if not all(1 <= l < smallest for l in config.lengths):
            raise ConfigError(f"'lengths' must lie in [1, {smallest}), the smallest size")
        # S(l) depends on l only through sin(pi l / N), so l and N - l coincide.
        if any(len({min(l, n - l) for l in config.lengths}) < 2 for n in config.sizes):
            raise ConfigError("'lengths' need two distinct min(l, N - l) at every size")
    if config.kind == "shrink":
        if not config.schedule:
            raise ConfigError("'shrink' requires 'schedule'")
        if not 0 <= config.arc_index < len(config.arcs):
            raise ConfigError("'arc_index' out of range for the given arcs")
        if len(config.arcs) < 2:
            raise ConfigError("'shrink' needs at least one arc besides the scheduled one")
    if config.kind == "cross-ratio-sweep" and not config.sweep_lengths:
        raise ConfigError("'cross-ratio-sweep' requires 'sweep_lengths'")
    for key in ("schedule", "sweep_lengths"):
        for length in getattr(config, key):
            if not 0 < length < math.tau:
                raise ConfigError(
                    f"'{key}' entries are arc lengths in (0, 2*pi), got {length:g}"
                )
    if config.kind == "shrink" and _separated(config.arcs):
        # The scheduled arc keeps the start of arcs[arc_index] (sorted as
        # RegionSpec sorts them) and must stay clear of every other arc.
        arcs = sorted((a % math.tau, b % math.tau) for a, b in config.arcs)
        start = arcs[config.arc_index][0]
        others = arcs[: config.arc_index] + arcs[config.arc_index + 1 :]
        for length in config.schedule:
            if not _separated(others + [(start, start + length)]):
                raise ConfigError(
                    f"'schedule' entry {length:g} runs arc {config.arc_index} into the next arc"
                )
    if config.r_convention not in ("chord", "arc"):
        raise ConfigError("r_convention must be 'chord' or 'arc'")
    if config.kind == "collapse" and config.r_convention == "arc":
        # The family's Moebius images keep the chord cross ratio but not the
        # arc-length one, so their arc-length etas never agree.
        raise ConfigError(
            "'collapse' needs r_convention = chord: Moebius images keep only the chord cross ratio"
        )
    if config.c <= 0:
        raise ConfigError("central charge must be positive")
    if config.seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    if config.instances < 1:
        raise ConfigError("instances must be at least 1")
    if config.family_size < 1:
        raise ConfigError("family_size must be at least 1")


def parse_config(path: str | Path, kind: str | None = None) -> ExperimentConfig:
    """Read and validate a config file; ``kind`` must match the file if both given."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(
        strict=True, interpolation=None, default_section="DEFAULT"
    )
    parser.optionxform = str
    try:
        parser.read_string(path.read_text(encoding="utf-8"))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None

    for section in parser.sections():
        if section not in ("experiment", "output"):
            raise ConfigError(f"unknown section '[{section}]'")
    if not parser.has_section("experiment"):
        raise ConfigError("missing [experiment] section")

    values: dict = {}
    for key, raw in parser.items("experiment"):
        if key not in _EXPERIMENT_KEYS:
            raise ConfigError(f"unknown key '{key}' in [experiment]")
        if key == "kind":
            values["kind"] = raw.strip()
        elif key == "sizes":
            values["sizes"] = tuple(_parse_int(tok, key) for tok in raw.split())
        elif key in ("arcs", "right_arcs"):
            values[key] = _parse_arcs(raw, key)
        elif key in ("c", "tolerance"):
            values[key] = _parse_float(raw, key)
        elif key == "r_convention":
            values[key] = raw.strip()
        elif key in ("seed", "instances", "arc_index", "family_size"):
            values[key] = _parse_int(raw, key)
        elif key == "schedule" or key == "sweep_lengths":
            values[key] = tuple(_parse_float(tok, key) for tok in raw.split())
        elif key == "lengths":
            values[key] = tuple(_parse_int(tok, key) for tok in raw.split())

    if parser.has_section("output"):
        for key, raw in parser.items("output"):
            if key not in _OUTPUT_KEYS:
                raise ConfigError(f"unknown key '{key}' in [output]")
            if key == "directory":
                values["out_dir"] = raw.strip()
            elif key == "cache":
                lowered = raw.strip().lower()
                if lowered not in ("on", "off", "true", "false", "1", "0"):
                    raise ConfigError(f"malformed boolean for 'cache': {raw!r}")
                values["cache_enabled"] = lowered in ("on", "true", "1")

    if "kind" not in values:
        if kind is None:
            raise ConfigError("config is missing 'kind' and no subcommand provided")
        values["kind"] = kind
    elif kind is not None and values["kind"] != kind:
        raise ConfigError(
            f"config kind '{values['kind']}' does not match subcommand '{kind}'"
        )

    config = ExperimentConfig(**values)
    validate_config(config)
    return config


def default_config(kind: str, seed: int = 0) -> ExperimentConfig:
    """A runnable config for kinds that need no geometry (findim-suite)."""
    if kind != "findim-suite":
        raise ConfigError(f"'{kind}' requires a config file")
    config = ExperimentConfig(kind=kind, seed=seed)
    validate_config(config)
    return config
