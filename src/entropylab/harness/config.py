"""Experiment configuration: one declaration per kind, strict validation.

``KINDS`` declares every experiment kind once: the ``[experiment]`` keys
its runner reads, its tolerance, its arc-count rule, the command
that runs it, its runner, its plot curve and its case table.  The command
line, the runner dispatch and the artifact writer all read it.

A config file has one section, ``[experiment]``, with the physics; where
a run writes and whether it uses the cache are the command line's
``--out`` and ``--no-cache``, not the config's.  Unknown sections or keys
are errors, not warnings, so typos cannot silently fall back to defaults;
so is a key the kind does not read, in the file or as a command-line
override.  The run report echoes the kind, every key the kind reads
(defaults included) and the kind's tolerance, which no config sets.  A
fermion kind's verdicts bind at it wherever they bind at a tolerance.  Of
findim-suite's cases the difference and chain cases bind at it, while the
araki, identity and index cases keep their battery's own (1e-8, 1e-8 or
1e-9 by identity, and 1e-9).  Validation builds every region a run
evaluates and checks its sites at every size, before the cache lookup and
without numpy; only collapse's Moebius images wait for the run, which
draws them.

The file is read by ``_read_ini``, not ``configparser``, whose import is
start-up cost of every CLI call.  It reads what ``ConfigParser(strict=True,
interpolation=None)`` with case-kept keys reads, less ``[DEFAULT]``, which
is an unknown section like any other: no section's keys are merged into
another's.
"""

from __future__ import annotations

import math
from collections import namedtuple
from pathlib import Path

from ..regions import RegionSpec, arc_range, check_size, shrink_arcs, site_ranges, swept_arcs


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
    "seed": (_parse_int, 0),
    "instances": (_parse_int, 20),
    "schedule": (_parse_floats, ()),
    "arc_index": (_parse_int, 0),
    "family_size": (_parse_int, 3),
    "sweep_lengths": (_parse_floats, ()),
}


# One experiment kind.  ``keys`` are the [experiment] keys its runner
# reads, and ``tolerance`` is the one its verdicts bind at (findim-suite's
# difference and chain cases alone; its other batteries keep their own).
# ``arcs`` is the (fewest, most) number of ``arcs`` entries, ``most`` None
# for no bound.  ``runner`` is the ``module.function`` of this package that
# runs it, imported on first use.  ``curve`` is its plot data and ``table``
# its ``cases.csv`` columns (a row per case holding them all), each or None.
# ``command`` is the (name, help) of the CLI subcommand that runs it; a
# command not named after the kind takes the kind as its argument.
_FERMION = ("fermion", "free-fermion chain experiments")
Kind = namedtuple(
    "Kind", "keys tolerance arcs runner curve table command", defaults=(None, None, _FERMION)
)
# A plot curve: points (x, y) of the cases whose inputs and values hold
# both; with ``per_size``, one curve ``<stem>_N<n>`` per lattice size.
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
        keys=("sizes", "arcs", "c"),
        tolerance=5e-3,
        arcs=(2, None),
        runner="fermion_runs.run_duality",
        curve=Curve("deficit_vs_N", "N", "D", False),
        table=("N", "S_I", "S_Icomp", "eta", "D"),
    ),
    "cross-ratio-sweep": Kind(
        keys=("sizes", "arcs", "sweep_lengths"),
        tolerance=1e-9,
        arcs=(2, 2),
        runner="fermion_runs.run_sweep",
        curve=Curve("sweep", "eta", "S_product", True),
    ),
    "c-fit": Kind(
        keys=("sizes",),
        tolerance=0.02,
        arcs=(0, 0),
        runner="fermion_runs.run_cfit",
        curve=Curve("chat_vs_N", "N", "c_hat", False),
    ),
    "shrink": Kind(
        keys=("sizes", "arcs", "arc_index", "schedule"),
        tolerance=1e-2,
        arcs=(2, None),
        runner="fermion_runs.run_shrink",
        curve=Curve("shrink_gap", "length", "gap", True),
    ),
    "collapse": Kind(
        keys=("sizes", "arcs", "family_size", "seed"),
        tolerance=1e-2,
        arcs=(2, 2),
        runner="fermion_runs.run_collapse",
        curve=Curve("collapse_spread_vs_N", "N", "spread", False),
    ),
    "two-d": Kind(
        keys=("sizes", "arcs", "right_arcs", "c"),
        tolerance=1e-2,
        arcs=(2, None),
        runner="fermion_runs.run_twod",
        curve=Curve("deficit2d_vs_N", "N", "D_2d", False),
    ),
}


class ExperimentConfig(
    namedtuple(
        "ExperimentConfig",
        ["kind", *_KEYS],
        defaults=[default for _, default in _KEYS.values()],
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
        """The kind's tolerance: a fermion kind's verdicts bind at it, and of
        findim-suite's cases the difference and chain cases alone."""
        return KINDS[self.kind].tolerance

    def echo(self) -> dict:
        """The kind, every key it reads and its tolerance, for the report and
        the cache key."""
        out = {"kind": self.kind}
        for name in KINDS[self.kind].keys:
            value = getattr(self, name)
            if isinstance(value, tuple):
                value = [list(v) if isinstance(v, tuple) else v for v in value]
            out[name] = value
        out["tolerance"] = self.effective_tolerance
        return out


def cfit_lengths(n: int) -> list[int]:
    """The interval lengths, in sites, that c-fit fits at size ``n``."""
    return [n // 16, n // 8, 3 * n // 16, n // 4, 3 * n // 8, n // 2]


def _region(arcs, what: str) -> RegionSpec:
    try:
        return RegionSpec(arcs)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from None


def check_sites(sizes, regions, last=None) -> None:
    """Raise ConfigError where ``regions.site_ranges`` refuses a region at a
    size.  ``last``, the final step of a shrink schedule of two or more, is
    checked only at the sizes where its scheduled arc holds a site;
    elsewhere the step equals the target.  Its fixed arcs are among
    ``regions``, so an arc of ``last`` without sites at a size that passed
    them is the scheduled one."""
    for n in sizes:
        step = [last] if last and all(arc_range(n, arc)[1] for arc in last.arcs) else []
        for spec in [*regions, *step]:
            try:
                site_ranges(n, spec)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None


def _check_regions(config: ExperimentConfig, keys) -> None:
    """Build every region the run evaluates and check its sites at every size."""
    right = _region(config.right_arcs, "invalid 'right_arcs'")
    spec = _region(config.arcs, "invalid 'arcs'")
    last = None
    if "schedule" in keys:
        # The scheduled arc must stay clear of every other arc.
        others, steps = shrink_arcs(spec, config.arc_index, config.schedule)
        regions = [RegionSpec(others)]
        for length, arc in zip(config.schedule, steps):
            what = f"'schedule' entry {length:g} runs arc {config.arc_index} into the next arc"
            regions.append(_region(others + [arc], what))
        if len(steps) > 1:  # a lone step must hold sites: it is the whole run
            last = regions.pop()
    elif "sweep_lengths" in keys:
        regions = [
            _region(swept_arcs(spec, length), f"invalid 'sweep_lengths' entry {length:g}")
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
        try:
            check_size(n)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
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
    if config.kind == "c-fit" and cfit_lengths(config.sizes[0])[0] < 1:
        raise ConfigError("'c-fit' needs sizes of at least 16")
    if "arc_index" in keys and not 0 <= config.arc_index < len(config.arcs):
        raise ConfigError("'arc_index' out of range for the given arcs")
    for key in ("schedule", "sweep_lengths"):
        for length in getattr(config, key):
            if not 0 < length < math.tau:
                raise ConfigError(
                    f"'{key}' entries are arc lengths in (0, 2*pi), got {length:g}"
                )
    # A sweep case's id names its length by its {:g} form.
    labels = [f"{length:g}" for length in config.sweep_lengths]
    for k, label in enumerate(labels):
        if label in labels[:k]:
            first = config.sweep_lengths[labels.index(label)]
            raise ConfigError(
                f"'sweep_lengths' entries {first!r} and {config.sweep_lengths[k]!r}"
                f" give the same case ids (l{label})"
            )
    _check_regions(config, keys)
    if not 0 < config.c < math.inf:
        raise ConfigError("central charge must be finite and positive")
    if config.seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    if config.instances < 1:
        raise ConfigError("instances must be at least 1")
    if config.family_size < 1:
        raise ConfigError("family_size must be at least 1")
    for key in given:
        if key in _KEYS and key not in keys:
            raise ConfigError(f"'{config.kind}' does not read '{key}'")


def _read_ini(text: str) -> dict[str, dict[str, str]]:
    """``{section: {key: value}}`` of an INI text; ConfigError if malformed.

    Lines end at line feeds only.  A line whose first non-blank character
    is ``#`` or ``;`` is a comment; there are no inline comments.  A line
    indented deeper than the key line above it continues that key's value,
    and blank lines inside a value are kept: the value's lines are joined
    with line feeds and the end stripped.  A header is ``[name]``, anything after
    its last ``]`` ignored.  Otherwise a line is ``key = value`` split at its
    first ``=`` or ``:``, with a nonempty key.  A duplicate section or key,
    ``[DEFAULT]``, or a line before the first header is an error.
    """
    sections: dict[str, dict[str, list[str]]] = {}
    section = value = None  # the open section, and the lines of its last value
    indent = 0  # of the last header or key line
    for number, line in enumerate(text.split("\n"), 1):
        stripped = line.strip()
        if stripped[:1] in ("#", ";"):
            continue
        if not stripped:
            if value is not None:
                value.append("")
            continue
        depth = len(line) - len(line.lstrip())
        if value is not None and depth > indent:
            value.append(stripped)
            continue
        indent, value = depth, None
        close = stripped.rfind("]")
        if stripped[0] == "[" and close > 1:
            name = stripped[1:close]
            if name == "DEFAULT":
                raise ConfigError("unknown section '[DEFAULT]'")
            if name in sections:
                raise ConfigError(f"line {number}: duplicate section '[{name}]'")
            section = sections[name] = {}
            continue
        if section is None:
            raise ConfigError(f"line {number}: text before the first section header")
        cut = min((i for i in (stripped.find("="), stripped.find(":")) if i >= 0), default=0)
        key = stripped[:cut].rstrip()
        if not key:
            raise ConfigError(f"line {number}: expected 'key = value', got {stripped!r}")
        if key in section:
            raise ConfigError(f"line {number}: duplicate key '{key}'")
        value = section[key] = [stripped[cut + 1 :].strip()]
    return {
        name: {key: "\n".join(lines).rstrip() for key, lines in keys.items()}
        for name, keys in sections.items()
    }


def parse_config(path: str | Path, kind: str | None = None) -> ExperimentConfig:
    """Read and validate a config file; ``kind`` must match the file if both given."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        sections = _read_ini(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot parse {path}: not UTF-8 at byte {exc.start}") from None
    except ConfigError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None

    for section in sections:
        if section != "experiment":
            raise ConfigError(f"unknown section '[{section}]'")
    if "experiment" not in sections:
        raise ConfigError("missing [experiment] section")

    values: dict = {}
    for key, raw in sections["experiment"].items():
        if key == "kind":
            values["kind"] = raw.strip()
        elif key in _KEYS:
            values[key] = _KEYS[key][0](raw, key)
        else:
            raise ConfigError(f"unknown key '{key}' in [experiment]")
    given = [key for key in values if key != "kind"]

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


def default_config(kind: str) -> ExperimentConfig:
    """A runnable config for a kind that reads no lattice sizes (findim-suite)."""
    if kind in KINDS and "sizes" in KINDS[kind].keys:
        raise ConfigError(f"'{kind}' requires a config file (--config)")
    config = ExperimentConfig(kind=kind)
    validate_config(config)
    return config
