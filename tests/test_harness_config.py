"""Config parsing and validation for the experiment harness."""

from pathlib import Path

import numpy as np
import pytest

from entropylab.harness import (
    EXPERIMENT_KINDS,
    ConfigError,
    default_config,
    parse_config,
)
from entropylab.harness import config as config_module
from entropylab.lattice import LatticeCircle, arc_sites
from oracles import mask_arc_sites


def _write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


DUALITY = """\
[experiment]
kind = duality
sizes = 64 128
arcs = 0.30 1.45, 2.65 4.10
"""


def test_parse_minimal_duality(tmp_path):
    config = parse_config(_write(tmp_path, DUALITY))
    assert config.kind == "duality"
    assert config.sizes == (64, 128)
    assert config.arcs == ((0.30, 1.45), (2.65, 4.10))
    # defaults fill in
    assert config.c == 2.0
    assert config.r_convention == "chord"
    assert config.seed == 0
    assert config.cache_enabled is True
    assert config.out_dir == ""
    assert config.effective_tolerance == 5e-3


def test_echo_covers_every_physics_field(tmp_path):
    config = parse_config(_write(tmp_path, DUALITY))
    echo = config.echo()
    assert echo["kind"] == "duality"
    assert echo["sizes"] == [64, 128]
    assert echo["arcs"] == [[0.30, 1.45], [2.65, 4.10]]
    assert echo["tolerance"] == 5e-3
    # output settings are delivery, not physics: they stay out of the echo
    assert "out_dir" not in echo
    assert "cache_enabled" not in echo


def test_output_section(tmp_path):
    text = DUALITY + "\n[output]\ndirectory = /tmp/out\ncache = off\n"
    config = parse_config(_write(tmp_path, text))
    assert config.out_dir == "/tmp/out"
    assert config.cache_enabled is False


def test_unknown_key_is_named(tmp_path):
    text = DUALITY + "mystery = 3\n"
    with pytest.raises(ConfigError, match="unknown key 'mystery'"):
        parse_config(_write(tmp_path, text))


def test_unknown_output_key_is_named(tmp_path):
    text = DUALITY + "\n[output]\nout_dir = /tmp/x\n"
    with pytest.raises(ConfigError, match="unknown key 'out_dir' in \\[output\\]"):
        parse_config(_write(tmp_path, text))


def test_unknown_section(tmp_path):
    text = DUALITY + "\n[plotting]\nstyle = fancy\n"
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(_write(tmp_path, text))


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        parse_config("/nonexistent/exp.ini")


def test_missing_experiment_section(tmp_path):
    with pytest.raises(ConfigError, match="missing \\[experiment\\]"):
        parse_config(_write(tmp_path, "[output]\ndirectory = /tmp\n"))


def test_kind_mismatch_with_subcommand(tmp_path):
    with pytest.raises(ConfigError, match="does not match subcommand"):
        parse_config(_write(tmp_path, DUALITY), kind="shrink")


def test_kind_from_subcommand_when_file_omits_it(tmp_path):
    text = "[experiment]\nsizes = 64 128\narcs = 0.30 1.45, 2.65 4.10\n"
    config = parse_config(_write(tmp_path, text), kind="duality")
    assert config.kind == "duality"


def test_odd_size_rejected(tmp_path):
    text = "[experiment]\nkind = duality\nsizes = 63\narcs = 0.3 1.45, 2.65 4.1\n"
    with pytest.raises(ConfigError, match="even and at least 8"):
        parse_config(_write(tmp_path, text))


def test_sizes_must_increase(tmp_path):
    text = "[experiment]\nkind = duality\nsizes = 128 64\narcs = 0.3 1.45, 2.65 4.1\n"
    with pytest.raises(ConfigError, match="strictly increasing"):
        parse_config(_write(tmp_path, text))


def test_geometry_kinds_require_arcs(tmp_path):
    text = "[experiment]\nkind = duality\nsizes = 64 128\n"
    with pytest.raises(ConfigError, match="requires 'arcs'"):
        parse_config(_write(tmp_path, text))


def test_cfit_rejects_arcs(tmp_path):
    text = "[experiment]\nkind = c-fit\nsizes = 64\narcs = 0.3 1.0\n"
    with pytest.raises(ConfigError, match="single intervals"):
        parse_config(_write(tmp_path, text))


def test_two_d_requires_right_arcs(tmp_path):
    text = "[experiment]\nkind = two-d\nsizes = 64\narcs = 0.3 1.45, 2.65 4.1\n"
    with pytest.raises(ConfigError, match="right_arcs"):
        parse_config(_write(tmp_path, text))


def test_shrink_requires_schedule_and_valid_arc_index(tmp_path):
    base = "[experiment]\nkind = shrink\nsizes = 64\narcs = 0.2 1.1, 2.0 2.9\n"
    with pytest.raises(ConfigError, match="requires 'schedule'"):
        parse_config(_write(tmp_path, base))
    with pytest.raises(ConfigError, match="arc_index"):
        parse_config(_write(tmp_path, base + "schedule = 0.9 0.5\narc_index = 5\n"))


def test_sweep_requires_lengths(tmp_path):
    text = "[experiment]\nkind = cross-ratio-sweep\nsizes = 64\narcs = 0.3 1.45, 2.65 4.1\n"
    with pytest.raises(ConfigError, match="sweep_lengths"):
        parse_config(_write(tmp_path, text))


def test_r_convention_choices(tmp_path):
    text = DUALITY + "r_convention = geodesic\n"
    with pytest.raises(ConfigError, match="chord"):
        parse_config(_write(tmp_path, text))
    config = parse_config(_write(tmp_path, DUALITY + "r_convention = arc\n", "b.ini"))
    assert config.r_convention == "arc"


def test_scalar_validation(tmp_path):
    for line, message in [
        ("c = -1.0", "positive"),
        ("seed = -3", "nonnegative"),
        ("c = twelve", "malformed number"),
        ("seed = 1.5", "malformed integer"),
        ("c = nan", "central charge must be finite and positive"),
        ("c = inf", "central charge must be finite and positive"),
        ("tolerance = inf", "tolerance must be finite and positive"),
        ("tolerance = nan", "tolerance must be finite and positive"),
        ("tolerance = -1", "tolerance must be finite and positive"),
    ]:
        with pytest.raises(ConfigError, match=message):
            parse_config(_write(tmp_path, DUALITY + line + "\n"))


def test_malformed_arcs(tmp_path):
    text = "[experiment]\nkind = duality\nsizes = 64 128\narcs = 0.3 1.45 2.65\n"
    with pytest.raises(ConfigError, match="'start end' pairs"):
        parse_config(_write(tmp_path, text))


def test_default_config_only_for_findim():
    config = default_config("findim-suite", seed=5)
    assert config.kind == "findim-suite"
    assert config.seed == 5
    assert config.instances == 20
    for kind in EXPERIMENT_KINDS:
        if kind == "findim-suite":
            continue
        with pytest.raises(ConfigError, match="requires a config file"):
            default_config(kind)


def test_unknown_kind(tmp_path):
    text = "[experiment]\nkind = teleport\nsizes = 64\n"
    with pytest.raises(ConfigError, match="unknown experiment kind"):
        parse_config(_write(tmp_path, text))


# At N = 8 the gap (1.6, 2.3) holds no site.
_SITELESS_GAP = "sizes = 8\narcs = 0.7 1.6, 2.3 5.6\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (DUALITY.replace("1.45", "3.0"), "invalid 'arcs'"),
        (DUALITY.replace("4.10", "nan"), "invalid 'arcs': arc endpoints must be finite"),
        (DUALITY.replace("0.30", "-inf"), "invalid 'arcs': arc endpoints must be finite"),
        (
            "[experiment]\nkind = two-d\nsizes = 64\narcs = 0.3 1.45, 2.65 4.1\n"
            "right_arcs = 0.5 3.5, 3.0 4.4\n",
            "invalid 'right_arcs'",
        ),
        (
            "[experiment]\nkind = cross-ratio-sweep\nsizes = 64\narcs = 0.3 1.45, 2.65 4.1\n"
            "sweep_lengths = 4.0\n",
            "invalid 'sweep_lengths'",
        ),
        (
            "[experiment]\nkind = shrink\nsizes = 64\narcs = 0.2 1.1, 2.0 2.9, 4.1 5.3\n"
            "schedule = 0.5 0.001 0.3\n",
            r"arc \(0.2, 0.201\) holds no sites at N = 64",
        ),
        (
            "[experiment]\nkind = shrink\nsizes = 64\narcs = 0.2 1.1, 2.0 2.05\nschedule = 0.5\n",
            r"arc \(2, 2.05\) holds no sites at N = 64",
        ),
        (
            "[experiment]\nkind = duality\nsizes = 16 32 64\narcs = 0.30 0.35, 2.65 4.10\n",
            r"arc \(0.3, 0.35\) holds no sites at N = 16",
        ),
        (
            "[experiment]\nkind = duality\n" + _SITELESS_GAP,
            r"arc \(1.6, 2.3\) holds no sites at N = 8",
        ),
        (
            "[experiment]\nkind = two-d\nsizes = 16 32\narcs = 0.30 0.35, 2.65 4.10\n"
            "right_arcs = 0.50 1.70, 3.00 4.40\n",
            r"arc \(0.3, 0.35\) holds no sites at N = 16",
        ),
        (
            "[experiment]\nkind = cross-ratio-sweep\nsizes = 16\narcs = 0.30 0.35, 2.65 4.10\n"
            "sweep_lengths = 0.8 1.2\n",
            r"arc \(0.3, 0.35\) holds no sites at N = 16",
        ),
        (
            "[experiment]\nkind = cross-ratio-sweep\nsizes = 8\narcs = 3.1 6.2, 6.23 1.0\n"
            "sweep_lengths = 3.05\n",
            "leaves no site outside it at N = 8",
        ),
        (
            "[experiment]\nkind = shrink\n" + _SITELESS_GAP + "arc_index = 1\nschedule = 3.0 4.2\n",
            "leaves no site outside it at N = 8",
        ),
    ],
    ids=[
        "overlapping-arcs",
        "nan-endpoint",
        "infinite-endpoint",
        "overlapping-right-arcs",
        "sweep-into-first-arc",
        "shrink-schedule-empties-arc-early",
        "shrink-fixed-arc-without-sites",
        "duality-arc-without-sites",
        "duality-complement-arc-without-sites",
        "twod-left-arc-without-sites",
        "sweep-first-arc-without-sites",
        "sweep-region-covers-every-site",
        "shrink-final-step-covers-every-site",
    ],
)
def test_regions_are_built_at_parse_time(tmp_path, text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(_write(tmp_path, text))


_BENCHMARK_CONFIGS = sorted(
    (Path(__file__).resolve().parent.parent / "perfbench" / "configs").glob("*/*.ini")
)


@pytest.mark.parametrize(
    "path", _BENCHMARK_CONFIGS, ids=[f"{p.parent.name}/{p.stem}" for p in _BENCHMARK_CONFIGS]
)
def test_benchmark_config_sites_are_the_float_mask(monkeypatch, path):
    """Every arc of every region a benchmark config's run evaluates, at each
    of its sizes, holds the sites of the float mask over all N angles."""
    checked = []
    check_sites = config_module.check_sites

    def recording(sizes, regions, last=None):
        checked.extend(
            (n, arc) for n in sizes for spec in [*regions, last] if spec for arc in spec.arcs
        )
        check_sites(sizes, regions, last)

    monkeypatch.setattr(config_module, "check_sites", recording)
    config = parse_config(path)
    assert bool(checked) == bool(config.arcs)
    for n, arc in checked:
        expected = mask_arc_sites(n, arc)
        assert np.array_equal(arc_sites(LatticeCircle(n), arc), expected), (n, arc)
