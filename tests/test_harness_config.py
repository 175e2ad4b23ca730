"""Config parsing and validation for the experiment harness."""

import pytest

from entropylab.harness import (
    EXPERIMENT_KINDS,
    ConfigError,
    default_config,
    parse_config,
)


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
    with pytest.raises(ConfigError, match="positive"):
        parse_config(_write(tmp_path, DUALITY + "c = -1.0\n"))
    with pytest.raises(ConfigError, match="nonnegative"):
        parse_config(_write(tmp_path, DUALITY + "seed = -3\n", "b.ini"))
    with pytest.raises(ConfigError, match="malformed number"):
        parse_config(_write(tmp_path, DUALITY + "c = twelve\n", "c.ini"))
    with pytest.raises(ConfigError, match="malformed integer"):
        parse_config(_write(tmp_path, DUALITY + "seed = 1.5\n", "d.ini"))


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


@pytest.mark.parametrize(
    "text, message",
    [
        (DUALITY.replace("1.45", "3.0"), "invalid 'arcs'"),
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
    ],
    ids=["overlapping-arcs", "overlapping-right-arcs", "sweep-into-first-arc"],
)
def test_regions_are_built_at_parse_time(tmp_path, text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(_write(tmp_path, text))
