"""The tracer wraps and restores every binding, and does not change output."""

import sys

import pytest

from entropylab.harness import cli, runner
from entropylab.lattice import RegionSpec, deficit, gaussian
from tracer import Tracer, public_callables, repeat_share, self_times

from conftest import BENCH

REPLAY = BENCH / "configs" / "harness-replay"


def _namespaces() -> dict:
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if module is not None and name.startswith("entropylab")
    }


def test_wraps_every_public_function_wherever_bound_and_restores():
    targets = public_callables()
    before = _namespaces()
    tracer = Tracer("test")
    tracer.install()
    try:
        wrapped = {id(original) for _, _, original in tracer._bindings}
        assert wrapped == set(targets)
        for name, namespace in before.items():
            module = sys.modules[name]
            for attr, value in namespace.items():
                if id(value) in targets:
                    assert getattr(module, attr).__wrapped__ is value, f"{name}.{attr}"
        # The runner reaches region_entropy through three other modules.
        assert runner.entropy_deficit is deficit.entropy_deficit
        corr = gaussian.ground_state_correlations(16)
        runner.entropy_deficit(corr, RegionSpec([(0.30, 1.45), (2.65, 4.10)]), 2.0)
    finally:
        tracer.restore()

    after = _namespaces()
    for name, namespace in before.items():
        assert namespace.keys() == after[name].keys()
        for attr, value in namespace.items():
            assert after[name][attr] is value, f"{name}.{attr} not restored"

    by_index = tracer.spans
    leaf = next(s for s in by_index if s.name == "lattice.gaussian.region_entropy")
    middle = by_index[leaf.parent]
    assert middle.name == "lattice.gaussian.product_state_relative_entropy"
    assert by_index[middle.parent].name == "lattice.deficit.entropy_deficit"
    assert all(s.run_id == "test" and s.end >= s.start for s in by_index)


def test_traced_run_writes_identical_summary(tmp_path, monkeypatch):
    argv = ["fermion", "duality", "--config", str(REPLAY / "duality.ini")]
    monkeypatch.setenv("ENTROPYLAB_CACHE_DIR", str(tmp_path / "cache-plain"))
    assert cli.main(argv + ["--out", str(tmp_path / "plain")]) == 0

    monkeypatch.setenv("ENTROPYLAB_CACHE_DIR", str(tmp_path / "cache-traced"))
    tracer = Tracer("test")
    tracer.install()
    try:
        assert cli.main(argv + ["--out", str(tmp_path / "traced")]) == 0
    finally:
        tracer.restore()

    assert any(s.name == "harness.runner.run_experiment" for s in tracer.spans)
    plain = (tmp_path / "plain" / "summary.json").read_bytes()
    assert (tmp_path / "traced" / "summary.json").read_bytes() == plain


def test_repeat_share_counts_complement_and_equal_length_arc():
    n = 16
    everything = set(range(n))
    calls = [
        (n, [0, 1, 2, 3]),  # new
        (n, sorted(everything - {0, 1, 2, 3})),  # complement: repeat
        (n, [5, 6, 7, 8]),  # same-length arc: repeat
        (n, [14, 15, 0, 1]),  # same length, wrapping through 0: repeat
        (n, [0, 1, 5, 6]),  # two arcs: new
        (n, sorted(everything - {0, 1, 5, 6})),  # its complement: repeat
        (n, [2, 3, 7, 8]),  # two arcs, other gap: new
        (32, [0, 1, 2, 3]),  # other N: new
    ]
    assert repeat_share([(k, sorted(s)) for k, s in calls]) == pytest.approx(4 / 8)
    assert repeat_share([]) == 0.0


def test_self_time_subtracts_covered_child_time():
    spans = [
        {"parent": None, "start": 0.0, "end": 10.0},
        {"parent": 0, "start": 1.0, "end": 3.0},
        {"parent": 0, "start": 5.0, "end": 6.0},
        {"parent": 1, "start": 1.5, "end": 2.0},
    ]
    assert self_times(spans) == pytest.approx([7.0, 1.5, 1.0, 0.5])
