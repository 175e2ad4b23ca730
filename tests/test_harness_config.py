"""Config parsing and validation for the experiment harness."""

import configparser
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entropylab.harness import (
    ConfigError,
    default_config,
    parse_config,
)
from entropylab.harness import config as config_module
from entropylab.harness.cli import main
from oracles import arc_sites, configparser_sections, mask_arc_sites


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
    assert config.seed == 0
    assert config.effective_tolerance == 5e-3


def test_echo_covers_every_physics_field(tmp_path):
    config = parse_config(_write(tmp_path, DUALITY))
    echo = config.echo()
    assert echo["kind"] == "duality"
    assert echo["sizes"] == [64, 128]
    assert echo["arcs"] == [[0.30, 1.45], [2.65, 4.10]]
    assert echo["tolerance"] == 5e-3
    assert list(echo) == ["kind", "sizes", "arcs", "c", "tolerance"]


def test_output_section(tmp_path, capsys):
    """Where a run writes and whether it uses the cache are the command
    line's --out and --no-cache: [output] is an unknown section."""
    path = _write(tmp_path, DUALITY + "\n[output]\ndirectory = out\ncache = off\n")
    with pytest.raises(ConfigError, match=r"^unknown section '\[output\]'$"):
        parse_config(path)
    out = tmp_path / "out"
    assert main(["fermion", "duality", "--config", str(path), "--no-cache", f"--out={out}"]) == 2
    assert capsys.readouterr().err == "config error: unknown section '[output]'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini"]


def test_unknown_key_is_named(tmp_path):
    text = DUALITY + "mystery = 3\n"
    with pytest.raises(ConfigError, match="unknown key 'mystery'"):
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
        parse_config(_write(tmp_path, "# no section\n"))


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
    with pytest.raises(ConfigError, match=r"arc lengths in \(0, 2\*pi\), got 7$"):
        parse_config(_write(tmp_path, base + "schedule = 0.9 7.0\n"))
    single = base.replace(", 2.0 2.9", "")
    with pytest.raises(ConfigError, match="'shrink' needs at least 2 arcs"):
        parse_config(_write(tmp_path, single + "schedule = 0.5\n"))


def test_sweep_requires_lengths(tmp_path):
    text = "[experiment]\nkind = cross-ratio-sweep\nsizes = 64\narcs = 0.3 1.45, 2.65 4.1\n"
    with pytest.raises(ConfigError, match="sweep_lengths"):
        parse_config(_write(tmp_path, text))


@pytest.mark.parametrize(
    "lengths, first, second",
    [("0.6 0.6000001 0.9", "0.6", "0.6000001"), ("0.9 0.6 0.6", "0.6", "0.6")],
    ids=["equal-at-g", "repeated"],
)
def test_sweep_lengths_must_give_distinct_case_ids(tmp_path, capsys, lengths, first, second):
    """A sweep case's id names its length by its {:g} form, so two lengths
    that share that form would give two cases one id."""
    path = _write(
        tmp_path,
        "[experiment]\nkind = cross-ratio-sweep\nsizes = 64\narcs = 0.30 1.45, 2.65 4.10\n"
        f"sweep_lengths = {lengths}\n",
    )
    message = f"'sweep_lengths' entries {first} and {second} give the same case ids (l0.6)"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(path)
    out = tmp_path / "out"
    assert main(["fermion", "cross-ratio-sweep", "--config", str(path), f"--out={out}"]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini"]


def test_scalar_validation(tmp_path):
    for line, message in [
        ("c = -1.0", "positive"),
        ("seed = -3", "nonnegative"),
        ("c = twelve", "malformed number"),
        ("seed = 1.5", "malformed integer"),
        ("c = nan", "central charge must be finite and positive"),
        ("c = inf", "central charge must be finite and positive"),
    ]:
        with pytest.raises(ConfigError, match=message):
            parse_config(_write(tmp_path, DUALITY + line + "\n"))


def test_malformed_arcs(tmp_path):
    text = "[experiment]\nkind = duality\nsizes = 64 128\narcs = 0.3 1.45 2.65\n"
    with pytest.raises(ConfigError, match="'start end' pairs"):
        parse_config(_write(tmp_path, text))


def test_default_config_only_for_findim():
    config = default_config("findim-suite")
    assert config.kind == "findim-suite"
    assert config.seed == 0
    assert config.instances == 20
    for kind in config_module.KINDS:
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
            # A lone step is the whole run: only the last of two or more may be empty.
            "[experiment]\nkind = shrink\nsizes = 64\narcs = 0.2 1.1, 2.0 2.9, 4.1 5.3\n"
            "schedule = 0.01\n",
            r"^arc \(0.2, 0.21\) holds no sites at N = 64$",
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
        "shrink-lone-step-without-sites",
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
        assert np.array_equal(arc_sites(n, arc), expected), (n, arc)


_DEFAULT_CFIT = "[DEFAULT]\nsizes = 64 128\n[experiment]\nkind = c-fit\n"


@pytest.mark.parametrize(
    "text",
    [_DEFAULT_CFIT, _DEFAULT_CFIT + "[output]\ncache = off\n"],
    ids=["default-and-experiment", "default-experiment-and-output"],
)
def test_default_section_is_an_unknown_section(tmp_path, capsys, text):
    """[DEFAULT] lends its keys to no other section: it is an unknown
    section, not sizes for the c-fit, and reported before [output]."""
    path = _write(tmp_path, text)
    with pytest.raises(ConfigError, match=r"unknown section '\[DEFAULT\]'"):
        parse_config(path)
    assert main(["fermion", "c-fit", "--config", str(path)]) == 2
    assert "unknown section '[DEFAULT]'" in capsys.readouterr().err


def _readme_config() -> str:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    return readme.split("```ini\n", 1)[1].split("```", 1)[0]


def _examples(texts):
    def decorate(test):
        for text in texts:
            test = example(text)(test)
        return test

    return decorate


# Sections whose lines exercise the grammar: headers with and without
# trailing text, both delimiters, keys that differ only in case, comments
# (indented too, and a would-be inline one), blank and continuation lines.
# One line in ten is malformed (an empty key, no delimiter, an empty header)
# and one in ten random, over the grammar's characters and a few non-ASCII
# blanks.  A section or key repeats under two spellings ("[output]" and
# "  [output]", "sizes = 64 128" and "sizes: 64"), and text may precede the
# first header.
_HEADERS = [
    "[experiment]", "[output]", "[a]", "[DEFAULT]", "[experiment] trailing", "[x]y]", "  [output]",
]
_GOOD_LINES = [
    "kind = c-fit", "Kind = duality", "sizes = 64 128", "sizes: 64", "key=value=more", "k : v = w",
    "a =", "# comment", "; comment", "   # indented comment", "\t; indented comment",
    "c = 2.0 # not a comment", "", "   ", "  continued", "\tcontinued", "    deeper = still the value",
]
_BAD_LINES = ["= value of no key", ": value of no key", "no delimiter", "[]"]
_RANDOM_LINE = st.text(alphabet=" \t\r\x0b\x0c\x1c\x85\xa0\u2028\u3000[]=:#;ka", max_size=8)
_BODY_LINE = st.integers(0, 9).flatmap(
    lambda k: _RANDOM_LINE if k == 0 else st.sampled_from(_BAD_LINES if k == 1 else _GOOD_LINES)
)


@st.composite
def _ini_texts(draw):
    lines = draw(st.lists(st.sampled_from(["", "  ", "# comment", "text"]), max_size=1))
    for header in draw(st.lists(st.sampled_from(_HEADERS), max_size=3, unique=True)):
        lines.append(header)
        lines += draw(st.lists(_BODY_LINE, max_size=6, unique=True))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


@settings(max_examples=400, deadline=None)
@given(_ini_texts())
@_examples([_readme_config(), *(p.read_text(encoding="utf-8") for p in _BENCHMARK_CONFIGS)])
@example("[experiment]\nkind = c-fit\n\n  # note\nsizes = 64\n\n  128\n\n")
@example("[experiment]\n    kind = c-fit\n  continued?\n")
def test_read_ini_matches_configparser(text):
    """The config reader reads what ConfigParser(strict=True,
    interpolation=None) with case-kept keys reads, keys in the same order,
    or fails where it fails; it also fails on a [DEFAULT] section."""
    try:
        want = configparser_sections(text)
    except configparser.Error:
        want = None
    if want is None or "DEFAULT" in want:
        with pytest.raises(ConfigError):
            config_module._read_ini(text)
    else:
        got = config_module._read_ini(text)
        assert [(name, list(keys.items())) for name, keys in got.items()] == [
            (name, list(keys.items())) for name, keys in want.items()
        ]
