"""Experiment configuration: one declaration per kind, strict validation.

``KINDS`` declares every experiment kind once: the ``[experiment]`` keys
its runner reads, its default tolerance, its arc-count rule, the command
that runs it, its runner and its plot curve.  The command line, the runner
dispatch and the artifact writer all read it.

A config file has an ``[experiment]`` section with the physics and an
optional ``[output]`` section.  Unknown sections or keys are errors, not
warnings, so typos cannot silently fall back to defaults; so is a key the
kind does not read, in the file or as a command-line override.  The run
report echoes the kind, every key the kind reads (defaults included) and
the effective tolerance.  Validation builds every region a run evaluates
and checks its sites at every size, before the cache lookup and without
numpy; only collapse's Moebius images wait for the run, which draws them.
"""

from __future__ import annotations

import configparser
import math
from collections import namedtuple
from pathlib import Path

from ..regions import RegionSpec, arc_range


class ConfigError(Exception):
    """Invalid or malformed experiment configuration."""


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


def _parse_floats(raw: str, key: str) -> tuple[float, ...]:
    return tuple(_parse_float(tok, key) for tok in raw.split())


def _parse_ints(raw: str, key: str) -> tuple[int, ...]:
    return tuple(_parse_int(tok, key) for tok in raw.split())


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


# Every [experiment] key but ``kind``: its parser and its default.
_KEYS = {
    "sizes": (_parse_ints, ()),
    "arcs": (_parse_arcs, ()),
    "right_arcs": (_parse_arcs, ()),
    "c": (_parse_float, 2.0),
    "r_convention": (lambda raw, key: raw.strip(), "chord"),
    "seed": (_parse_int, 0),
    "tolerance": (_parse_float, None),  # None: the kind's default
    "instances": (_parse_int, 20),
    "schedule": (_parse_floats, ()),
    "arc_index": (_parse_int, 0),
    "family_size": (_parse_int, 3),
    "lengths": (_parse_ints, ()),
    "sweep_lengths": (_parse_floats, ()),
}
_OUTPUT_KEYS = {"directory", "cache"}


# One experiment kind.  ``keys`` are the [experiment] keys its runner
# reads, and ``tolerance`` is the default of the ``tolerance`` key.
# ``arcs`` is the (fewest, most) number of ``arcs`` entries, ``most`` None
# for no bound.  ``runner`` is the ``module.function`` of this package that
# runs it, imported on first use.  ``curve`` is its plot data, or None.
# ``command`` is the (name, help) of the CLI subcommand that runs it; a
# command not named after the kind takes the kind as its argument.
_FERMION = ("fermion", "free-fermion chain experiments")
Kind = namedtuple(
    "Kind", "keys tolerance arcs runner curve command", defaults=(None, _FERMION)
)
# A plot curve: points (x, y) of the cases whose values hold ``y``; with
# ``per_size``, one curve ``<stem>_N<n>`` per lattice size.
Curve = namedtuple("Curve", "stem x y per_size")

KINDS = {
    "findim-suite": Kind(
        keys=("seed", "instances"),
        tolerance=1e-6,
        arcs=(0, None),
        runner="findim_runs.run_findim",
        command=("findim-suite", "finite-dimensional identity and index battery"),
    ),
    "duality": Kind(
        keys=("sizes", "tolerance", "arcs", "c", "r_convention"),
        tolerance=5e-3,
        arcs=(2, None),
        runner="fermion_runs.run_duality",
        curve=Curve("deficit_vs_N", "N", "D", False),
    ),
    "cross-ratio-sweep": Kind(
        keys=("sizes", "tolerance", "arcs", "sweep_lengths", "r_convention"),
        tolerance=1e-9,
        arcs=(2, 2),
        runner="fermion_runs.run_sweep",
        curve=Curve("sweep", "eta", "S_product", True),
    ),
    "c-fit": Kind(
        keys=("sizes", "tolerance", "lengths"),
        tolerance=0.02,
        arcs=(0, 0),
        runner="fermion_runs.run_cfit",
        curve=Curve("chat_vs_N", "N", "c_hat", False),
    ),
    "shrink": Kind(
        keys=("sizes", "tolerance", "arcs", "arc_index", "schedule"),
        tolerance=1e-2,
        arcs=(2, None),
        runner="fermion_runs.run_shrink",
        curve=Curve("shrink_gap", "length", "gap", True),
    ),
    "collapse": Kind(
        keys=("sizes", "tolerance", "arcs", "family_size", "r_convention", "seed"),
        tolerance=1e-2,
        arcs=(2, 2),
        runner="fermion_runs.run_collapse",
        curve=Curve("collapse_spread_vs_N", "N", "spread", False),
    ),
    "two-d": Kind(
        keys=("sizes", "tolerance", "arcs", "right_arcs", "c", "r_convention"),
        tolerance=1e-2,
        arcs=(2, None),
        runner="fermion_runs.run_twod",
        curve=Curve("deficit2d_vs_N", "N", "D_2d", False),
    ),
}

EXPERIMENT_KINDS = tuple(KINDS)


class ExperimentConfig(
    namedtuple(
        "ExperimentConfig",
        ["kind", *_KEYS, "out_dir", "cache_enabled"],
        defaults=[*(default for _, default in _KEYS.values()), "", True],
    )
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
        return KINDS[self.kind].tolerance

    def echo(self) -> dict:
        """The kind, every key it reads and the effective tolerance, for the
        report and the cache key."""
        out = {"kind": self.kind}
        for name in KINDS[self.kind].keys:
            value = getattr(self, name)
            if isinstance(value, tuple):
                value = [list(v) if isinstance(v, tuple) else v for v in value]
            out[name] = value
        out["tolerance"] = self.effective_tolerance
        return out


def _region(arcs, what: str) -> RegionSpec:
    try:
        return RegionSpec(arcs)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from None


def check_sites(sizes, regions, last=None) -> None:
    """Raise ConfigError unless at every size each arc of each region holds a
    site and each region leaves one outside it; ``last``, the final shrink
    step, may leave its scheduled arc empty (the step then equals the target)."""
    for n in sizes:
        for spec in [*regions, last] if last else regions:
            counts = [arc_range(n, arc)[1] for arc in spec.arcs]
            if 0 in counts and spec is not last:
                a, b = spec.arcs[counts.index(0)]
                raise ConfigError(f"arc ({a:.4g}, {b:.4g}) holds no sites at N = {n}")
            if sum(counts) == n:
                arcs = ", ".join(f"({a:.4g}, {b:.4g})" for a, b in spec.arcs)
                raise ConfigError(f"region {arcs} leaves no site outside it at N = {n}")


def _check_regions(config: ExperimentConfig, keys) -> None:
    """Build every region the run evaluates and check its sites at every size."""
    right = _region(config.right_arcs, "invalid 'right_arcs'")
    spec = _region(config.arcs, "invalid 'arcs'")
    last = None
    if "schedule" in keys:
        # The scheduled arc keeps the start of arcs[arc_index] (sorted as
        # RegionSpec sorts them) and must stay clear of every other arc.
        start = spec.arcs[config.arc_index][0]
        others = [arc for k, arc in enumerate(spec.arcs) if k != config.arc_index]
        regions = [RegionSpec(others)]
        for length in config.schedule:
            what = f"'schedule' entry {length:g} runs arc {config.arc_index} into the next arc"
            regions.append(_region(others + [(start, start + length)], what))
        last = regions.pop()
    elif "sweep_lengths" in keys:
        (a1, b1), (a2, _) = spec.arcs
        regions = [
            _region(((a1, b1), (a2, a2 + length)), f"invalid 'sweep_lengths' entry {length:g}")
            for length in config.sweep_lengths
        ]
    else:
        regions = [region for region in (spec, right) if region.arcs]
        if "c" in keys:  # a deficit evaluates each region's complement too
            regions = [r for region in regions for r in (region, region.complement())]
    check_sites(config.sizes, regions, last)


def validate_config(config: ExperimentConfig, given=()) -> None:
    """Raise ConfigError unless the config can run; call again after any override.

    ``given`` names the keys set explicitly, in a file or by an override.
    Each ``[experiment]`` key among them must be one the kind reads.  That
    rule is checked last, so an out-of-range value is reported as such.
    """
    kind = KINDS.get(config.kind)
    if kind is None:
        raise ConfigError(
            f"unknown experiment kind '{config.kind}' (expected one of {', '.join(KINDS)})"
        )
    keys = kind.keys
    # These keys have no default a run can use: a kind that reads one needs it.
    for key in ("sizes", "arcs", "right_arcs", "schedule", "sweep_lengths"):
        if key in keys and not getattr(config, key):
            raise ConfigError(f"'{config.kind}' requires '{key}'")
    for n in config.sizes:
        if n % 2 or n < 8:
            raise ConfigError(f"sizes must be even and at least 8, got {n}")
    if any(b <= a for a, b in zip(config.sizes, config.sizes[1:])):
        raise ConfigError("sizes must be strictly increasing")
    fewest, most = kind.arcs
    count = len(config.arcs)
    if most == 0 and count:
        raise ConfigError(f"'{config.kind}' fits single intervals; 'arcs' does not apply")
    if count < fewest or (most is not None and count > most):
        bound = f"exactly {most}" if fewest == most else f"at least {fewest}"
        raise ConfigError(f"'{config.kind}' needs {bound} arcs")
    if "right_arcs" in keys and len(config.right_arcs) != len(config.arcs):
        raise ConfigError("'right_arcs' needs as many arcs as 'arcs'")
    if "lengths" in keys:
        if not config.lengths and config.sizes[0] < 16:
            raise ConfigError(
                f"'{config.kind}' needs sizes of at least 16 unless 'lengths' is given"
            )
        if config.lengths:
            if len(config.lengths) < 6:
                raise ConfigError("'lengths' needs at least 6 entries for a stable fit")
            smallest = config.sizes[0]
            if not all(1 <= l < smallest for l in config.lengths):
                raise ConfigError(f"'lengths' must lie in [1, {smallest}), the smallest size")
            # S(l) depends on l only through sin(pi l / N), so l and N - l coincide.
            if any(len({min(l, n - l) for l in config.lengths}) < 2 for n in config.sizes):
                raise ConfigError("'lengths' need two distinct min(l, N - l) at every size")
    if "arc_index" in keys and not 0 <= config.arc_index < len(config.arcs):
        raise ConfigError("'arc_index' out of range for the given arcs")
    for key in ("schedule", "sweep_lengths"):
        for length in getattr(config, key):
            if not 0 < length < math.tau:
                raise ConfigError(
                    f"'{key}' entries are arc lengths in (0, 2*pi), got {length:g}"
                )
    _check_regions(config, keys)
    if config.r_convention not in ("chord", "arc"):
        raise ConfigError("r_convention must be 'chord' or 'arc'")
    if "family_size" in keys and config.r_convention == "arc":
        # The family's Moebius images keep the chord cross ratio but not the
        # arc-length one, so their arc-length etas never agree.
        raise ConfigError(
            f"'{config.kind}' needs r_convention = chord: Moebius images keep only the chord cross ratio"
        )
    if not 0 < config.c < math.inf:
        raise ConfigError("central charge must be finite and positive")
    if config.tolerance is not None and not 0 < config.tolerance < math.inf:
        raise ConfigError("tolerance must be finite and positive")
    if config.seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    if config.instances < 1:
        raise ConfigError("instances must be at least 1")
    if config.family_size < 1:
        raise ConfigError("family_size must be at least 1")
    for key in given:
        if key in _KEYS and key not in keys:
            raise ConfigError(f"'{config.kind}' does not read '{key}'")


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
        if key == "kind":
            values["kind"] = raw.strip()
        elif key in _KEYS:
            values[key] = _KEYS[key][0](raw, key)
        else:
            raise ConfigError(f"unknown key '{key}' in [experiment]")
    given = [key for key in values if key != "kind"]

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
    validate_config(config, given)
    return config


def default_config(kind: str, seed: int = 0) -> ExperimentConfig:
    """A runnable config for a kind that reads no lattice sizes (findim-suite)."""
    if kind in KINDS and "sizes" in KINDS[kind].keys:
        raise ConfigError(f"'{kind}' requires a config file (--config)")
    config = ExperimentConfig(kind=kind, seed=seed)
    validate_config(config)
    return config
