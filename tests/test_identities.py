"""The entropy identities: difference formula, chain additivity, and the
five-part check battery."""

import importlib
import json
import pkgutil
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from entropylab.findim import (
    ConditionalExpectationMap,
    DifferenceInstance,
    VectorStateData,
    build_algebra,
    check_entropy_identity,
    entropy_additivity_chain,
    entropy_difference_identity,
    kosaki_index,
    random_chain_instance,
    random_difference_instance,
    random_unitary,
)
from entropylab import findim
from entropylab.findim import identities
from entropylab.harness.config import default_config, parse_config
from entropylab.harness.runner import run_experiment
from oracles import (
    AXIOM_TOL,
    expectation_superop,
    group_average_expectation,
    group_average_superop,
    leg_unitaries,
    span_equals,
    validate,
)


def _recording_unitaries(monkeypatch):
    drawn = []
    original = identities.random_unitary

    def record(dim, rng):
        u = original(dim, rng)
        drawn.append(u)
        return u

    monkeypatch.setattr(identities, "random_unitary", record)
    return drawn


def _assert_matches_oracle(named, source, units):
    """``named`` is the average over ``units`` on ``source``: the explicit
    D^2 x D^2 average agrees with its superoperator, and discovery finds its
    target."""
    assert named.source is source
    oracle = group_average_superop(named.source, units)
    np.testing.assert_allclose(expectation_superop(named), oracle, rtol=0, atol=1e-12)
    discovered = group_average_expectation(named.source, units).target
    assert span_equals(named.target, discovered)
    assert max(validate(named).values()) <= 1e-10


@contextmanager
def _no_superop(dim):
    """The library forms no D^2 x D^2 superoperator: the map has no such
    method, and the block allocates less than one complex D^2 x D^2 matrix."""
    for name in ("superop", "choi_matrix"):
        assert not hasattr(ConditionalExpectationMap, name), name
    tracemalloc.start()
    try:
        yield
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * dim**4, f"peak allocation {peak} B at D = {dim}"


@pytest.mark.parametrize("side", [2, 3, 4])
def test_difference_identity_residual_tiny(side):
    rng = np.random.default_rng(17 + side)
    inst = random_difference_instance(rng, side=side)
    report = entropy_difference_identity(inst)
    assert report.residual < 1e-10
    # the two single-expectation terms are genuine relative entropies
    assert report.values["s1"] >= -1e-12
    assert report.values["s2"] >= -1e-12


@pytest.mark.parametrize("side", [2, 3, 4])
def test_difference_expectations_match_weyl_group_average(side, monkeypatch):
    drawn = _recording_unitaries(monkeypatch)
    inst = random_difference_instance(np.random.default_rng(60 + side), side=side)
    u1 = np.kron(drawn[0], np.eye(side))
    u2 = np.kron(np.eye(side), drawn[1])
    if side == 4:
        units1 = leg_unitaries(2, 2, 4, conjugator=u1)
        units2 = leg_unitaries(8, 2, 1, conjugator=u2)
    else:
        units1 = leg_unitaries(1, side, side, conjugator=u1)
        units2 = leg_unitaries(side, side, 1, conjugator=u2)
    _assert_matches_oracle(inst.e1, inst.algebra, units1)
    _assert_matches_oracle(inst.e2, inst.algebra.commutant(), units2)


def test_chain_expectations_match_weyl_group_average(monkeypatch):
    drawn = _recording_unitaries(monkeypatch)
    inst = random_chain_instance(np.random.default_rng(61))
    (u,) = drawn
    _assert_matches_oracle(inst.f1, inst.n1, leg_unitaries(4, 2, 2, conjugator=u))
    _assert_matches_oracle(inst.f2, inst.n2, leg_unitaries(2, 2, 4, conjugator=u))


def test_instances_are_built_without_structure_discovery():
    """The library has no structure discovery or group averaging to call,
    and a findim-suite run, instances and index battery, passes every
    verdict without them."""
    modules = [findim] + [
        importlib.import_module(f"{findim.__name__}.{info.name}")
        for info in pkgutil.iter_modules(findim.__path__)
    ]
    modules.append(importlib.import_module("entropylab.harness.findim_runs"))
    for module in modules:
        for name in ("algebra_from_basis", "group_average_expectation"):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    report = run_experiment(default_config("findim-suite"))
    assert report.passed and all(v.passed for v in report.verdicts)
    assert len(report.verdicts) == 5


@pytest.mark.parametrize("side, sub, index", [(5, (1, 25), 25.0), (6, (3, 12), 4.0)])
def test_large_difference_instances_build_no_superoperator(side, sub, index):
    """D = 25 (onto the scalars) and D = 36 (M_3 (x) 1_2 inside M_6), by hand,
    each map certified by validate()."""
    with _no_superop(side * side):
        rng = np.random.default_rng(70 + side)
        algebra = build_algebra([(side, side)])
        v = rng.normal(size=side * side) + 1j * rng.normal(size=side * side)
        omega = VectorStateData(algebra, v / np.linalg.norm(v))
        assert omega.cyclic and omega.separating
        u1 = np.kron(random_unitary(side, rng), np.eye(side))
        u2 = np.kron(np.eye(side), random_unitary(side, rng))
        e1 = ConditionalExpectationMap(algebra, build_algebra([sub]).conjugated(u1))
        swap = np.arange(side * side).reshape(side, side).T.ravel()
        e2 = ConditionalExpectationMap(
            algebra.commutant(), build_algebra([sub]).conjugated(u2[:, swap])
        )
        report = entropy_difference_identity(
            DifferenceInstance(algebra=algebra, omega=omega, e1=e1, e2=e2)
        )
        assert report.residual <= 1e-9
        assert abs(kosaki_index(e1) - index) <= 1e-9
        assert abs(kosaki_index(e2) - index) <= 1e-9
        for e in (e1, e2):
            assert max(validate(e).values()) <= 100 * AXIOM_TOL


def test_findim_suite_builds_no_superoperator():
    """Every instance kind of the suite: difference sides 2-4, chains, the
    five identities and the three group fixed-point index cases; the largest
    instances act on C^16."""
    with _no_superop(16):
        report = run_experiment(default_config("findim-suite")._replace(instances=3))
    assert report.passed
    assert {c.case_id for c in report.cases} >= {
        "difference-000",
        "difference-001",
        "difference-002",
        "chain-000",
        "index-cyclic-2",
        "index-cyclic-3",
        "index-symmetric-3",
    }


def test_evaluation_forms_no_kronecker_product(monkeypatch):
    """On built instances, both identities run on the blocks: np.kron raises."""
    rng = np.random.default_rng(63)
    instances = [random_difference_instance(rng, side=side) for side in (2, 3, 4)]
    chain = random_chain_instance(rng)

    def refuse(*args, **kwargs):
        raise AssertionError("np.kron was called during evaluation")

    monkeypatch.setattr(np, "kron", refuse)
    for inst in instances:
        assert entropy_difference_identity(inst).residual <= 1e-9
    assert entropy_additivity_chain(chain).residual <= 1e-9


def test_findim_suite_matches_the_benchmark_reference():
    """The seed-0 benchmark config, run in-process, has the reference's case
    ids and verdicts, and every value within 1e-10 of it."""
    root = Path(__file__).resolve().parent.parent / "perfbench"
    reference = json.loads((root / "reference" / "findim-suite.json").read_text())
    want = reference["suite"]["seeds"]["0"]["cases"]
    config = parse_config(root / "configs" / "findim-suite" / "suite.ini")._replace(seed=0)
    report = run_experiment(config)
    assert report.passed
    assert [c.case_id for c in report.cases] == [c["case_id"] for c in want]
    for got, case in zip(report.cases, want):
        assert got.passed is case["passed"], got.case_id
        assert got.values.keys() == case["values"].keys(), got.case_id
        for key, value in case["values"].items():
            np.testing.assert_allclose(
                got.values[key], value, rtol=0, atol=1e-10, err_msg=f"{got.case_id}.{key}"
            )
        assert abs(got.residual - case["residual"]) <= 1e-10, got.case_id


def test_difference_identity_many_seeds():
    worst = 0.0
    for k in range(10):
        rng = np.random.default_rng(100 + k)
        rep = entropy_difference_identity(random_difference_instance(rng, side=2 + k % 3))
        worst = max(worst, rep.residual)
    assert worst < 1e-9


def test_chain_additivity():
    rng = np.random.default_rng(23)
    inst = random_chain_instance(rng)
    report = entropy_additivity_chain(inst)
    assert report.residual < 1e-10
    composed, f2, f1 = (report.values[key] for key in ("composed", "f2", "f1"))
    assert composed == pytest.approx(f1 + f2, abs=1e-10)


def test_chain_instances_vary_with_seed():
    a = random_chain_instance(np.random.default_rng(1))
    b = random_chain_instance(np.random.default_rng(2))
    assert not np.allclose(a.omega.vector, b.omega.vector)


def test_chain_instance_deterministic_for_seed():
    a = random_chain_instance(np.random.default_rng(40))
    b = random_chain_instance(np.random.default_rng(40))
    np.testing.assert_allclose(a.omega.vector, b.omega.vector, atol=0)


@pytest.mark.parametrize("which", [1, 2, 3, 4, 5])
def test_named_identity_checks_pass(which):
    report = check_entropy_identity(which, np.random.default_rng(5 * which))
    assert report.residual <= report.tolerance, f"identity {which}: residual {report.residual:.3e}"


def test_filtration_sequence_is_nondecreasing():
    report = check_entropy_identity(2, np.random.default_rng(9))
    seq = report.values["sequence"]
    for earlier, later in zip(seq, seq[1:]):
        assert later >= earlier - 1e-10
    assert seq[-1] == pytest.approx(report.values["full"], abs=1e-9)


def test_domination_bound_value_and_cap():
    report = check_entropy_identity(3, np.random.default_rng(13))
    mu = report.values["mu"]
    assert 0 < mu < 1
    assert report.values["entropy"] <= report.values["bound"] + 1e-9
    assert report.values["bound"] == pytest.approx(np.log(1.0 / mu), abs=1e-12)


def test_restriction_monotonicity_direction():
    report = check_entropy_identity(4, np.random.default_rng(3))
    assert report.values["restricted"] <= report.values["full"] + 1e-10


def _product_vector(algebra):
    """e_0 (x) e_0 in the block frame of a one-block algebra: neither cyclic
    nor separating for it."""
    return VectorStateData(algebra, algebra.structure[0].iso[..., 0, :].conj())


@pytest.mark.parametrize(
    "instance, check, spoil, message",
    [
        (
            lambda rng: random_difference_instance(rng, side=2),
            entropy_difference_identity,
            lambda inst: inst._replace(omega=_product_vector(inst.algebra)),
            "^vector must be cyclic and separating for the algebra$",
        ),
        (
            lambda rng: random_difference_instance(rng, side=3),
            entropy_difference_identity,
            lambda inst: inst._replace(e1=inst.e2, e2=inst.e1),
            "^expectations must be rooted at the algebra and its commutant$",
        ),
        (
            lambda rng: random_difference_instance(rng, side=2),
            entropy_difference_identity,
            lambda inst: inst._replace(algebra=build_algebra([(2, 2)])),
            "^expectations must be rooted at the algebra and its commutant$",
        ),
        (
            random_chain_instance,
            entropy_additivity_chain,
            lambda inst: inst._replace(omega=_product_vector(inst.n2)),
            "^vector must be cyclic and separating for the middle algebra$",
        ),
    ],
    ids=[
        "difference-vector",
        "difference-swapped-expectations",
        "difference-other-algebra",
        "chain-vector",
    ],
)
def test_checks_refuse_an_instance_outside_their_hypotheses(instance, check, spoil, message):
    inst = instance(np.random.default_rng(5))
    assert check(inst).residual < 1e-9
    with pytest.raises(ValueError, match=message):
        check(spoil(inst))


def test_unknown_identity_number_rejected():
    with pytest.raises(ValueError):
        check_entropy_identity(6, np.random.default_rng(0))
