"""Records against their dataclass twins: every record of the package subclasses
``game.Record`` and must read, compare, hash, build and refuse as the frozen
dataclass in ``helpers.RECORD_TWINS`` does, without generated code."""

import copy
import dataclasses
import os
from pathlib import Path
import pickle
import subprocess
import sys
import textwrap
import timeit
import tracemalloc

import numpy as np
import pytest

from modelmarket import entry, equilibrium, fixtures, game, metrics, preferences, synthetic
from modelmarket.errors import MarketGameError
from modelmarket.game import ChoiceRule, GameSpec, Record, ScoreMatrix, UserPopulation

from helpers import RECORD_TWINS

NAN = float("nan")


def _cases() -> dict:
    """Per record name: two argument tuples that give unequal records, and
    argument tuples that its ``__post_init__`` refuses."""
    pop = UserPopulation(("a", "b"), [0.25, 0.75])
    scores = ScoreMatrix([[0.5, 0.2], [0.1, 0.9]], ("g1", "g2"))
    spec = GameSpec(scores, pop, 2)
    step = equilibrium.DynamicsStep(0, 1, (0, 0), 1, True, (0, 1), (0.25, 0.5))
    outcome = equilibrium.DynamicsOutcome("equilibrium", (step,), (0, 0), (), (0, 1))
    shares = (0.25, 0.75)
    score = metrics.ProfileScore(0.75, shares, 0.625, 2, (0.1, 0.2))
    optimum = metrics.SocialOptimum(0.8, (0, 1))
    analysis = metrics.GameAnalysis(((0, 1),), None, optimum, None)
    welfare = metrics.WelfareFigures(0.75, 0.75, 0.75, "equilibrium")
    record = metrics.MetricsRecord({(0, 1): score}, (0, 1), welfare, analysis, 1.0)
    kernel = synthetic.RbfKernel((0.0,), 0.5, 1.0)
    component = synthetic.GmmComponent(1.0, (0.0,), [[1.0]])
    return {
        "UserPopulation": ((("a", "b"), [0.25, 0.75]), (None, [1.0]), []),
        "ScoreMatrix": (([[0.5, 0.2]], ("g1",)), ([[1.0], [0.0]], None), []),
        "ChoiceRule": (("hardmax", None), ("softmax", 0.5),
                       [("bogus", None), ("hardmax", 0.3), ("softmax", 0.0), ("softmax", None)]),
        "GameSpec": ((scores, pop, 2, ChoiceRule("softmax", 0.5)), (scores, pop, 1, ChoiceRule("hardmax")),
                     [(scores, pop, 0, ChoiceRule("hardmax")), (ScoreMatrix([[1.0]]), pop, 1, ChoiceRule("hardmax")),
                      (scores, pop, 2, ChoiceRule("softmax", 1e-310)),
                      (scores, pop, 1.5, ChoiceRule("hardmax"))]),
        "Deviation": ((0, 1, 0.25), (1, 0, 0.5), []),
        "PneCheck": ((False, equilibrium.Deviation(0, 1, 0.25)), (True, None), []),
        "DynamicsStep": ((0, 1, (0, 0), 1, True, (0, 1), (0.25, 0.5)),
                         (1, 0, (0, 1), 0, False, (0, 1), (0.25, 0.5)), []),
        "DynamicsOutcome": (("cycle", (step,), (0, 0), ((0, 1), (1, 1)), None),
                            ("equilibrium", (step,), (0, 0), (), (0, 1)), []),
        "ConditionRow": ((0, 1, 2, 0.5, 0.25), (1, 0, 2, 0.1, 0.2), []),
        "ConditionReport": ((True, (equilibrium.ConditionRow(0, 1, 2, 0.5, 0.25),)), (False, ()), []),
        "CentralizationParams": ((0, 0.1, 0.05), (1, 0.2, 0.0),
                                 [(0, 0.0, 0.1), (0, 0.1, -1.0), (0, NAN, 0.1), (0, 0.1, "x")]),
        "CentralizationResult": ((0.5, True, False), (0.25, False, True), []),
        "MarketShares": ((shares, 0.625, 2), ((1.0,), 1.0, 1), []),
        "SocialOptimum": ((0.8, (0, 1)), (0.5, (1,)), []),
        "GameAnalysis": ((((0, 1),), None, optimum, None), (None, "refused", None, "refused"), []),
        "WelfareFigures": ((0.75, 0.75, 0.75, "equilibrium"), (0.25, 0.25, 0.3, "cycle"), []),
        "ProfileScore": ((0.75, shares, 0.625, 2, (0.1, 0.2)), (0.5, (1.0,), 1.0, 1, (0.5,)), []),
        "MetricsRecord": (({(0, 1): score}, (0, 1), welfare, analysis, 1.0),
                          ({}, None, None, analysis, 1.0),
                          [({(0, 1): score}, (0, 1), welfare, analysis, 2.0),
                           ({(0, 1): metrics.ProfileScore(0.75, shares, 0.5, 2, (0.1, 0.2))}, (0, 1), welfare,
                            analysis, 1.0),
                           ({(0, 1): score}, (0, 1), metrics.WelfareFigures(0.9, 0.9, 0.9, "equilibrium"),
                            analysis, 1.0)]),
        "EntryCheck": ((True, 0.1, 1, (0, 1, 2)), (False, -0.1, 0, (0, 0, 0)), []),
        "ToyGenerator": ((("x1", "x2"), [0.0, 1.0]), (("a", "b", "c"), [0.0, 0.0, 0.0]), []),
        "RewardTable": (([[0.5, 0.5]],), ([[0.1], [0.2]],), []),
        "TrainingConfig": ((4.0, 1.0, 0.4, 5, 50, 2000, 0.05, 0.9, 0.5, 0),
                           (2.0, 0.5, 0.1, 1, 3, 10, 0.1, 0.5, 0.25, 7),
                           [(0.0,), (4.0, 1.0, 0.4, 0), (4.0, 1.0, 0.4, 5, 50, 2000, 0.05, 0.9, 0.5, -1),
                            (4.0, NAN)]),
        "EntryDataset": ((("x1", "x2"), [1, 2], ("u", "v"), ("u", "v"), [[0.5, 0.5]]),
                         (("x1", "x2", "x3"), [1, 1, 1], None, None, None), []),
        "RewardBaseline": ((np.zeros(2), 0.9), (np.ones(3), 0.5), []),
        "EntrantReport": ((spec, 2, (0.5, 0.25), outcome, record, True),
                          (spec, 1, (0.1, 0.2), outcome, record, False), []),
        "RbfKernel": (((0.0,), 0.5, 1.0), ((0.0, 1.0), 0.2, 0.5),
                      [((0.0,), 0.5, 0.0), ((0.0,), NAN, 1.0), ((NAN,), 0.5, 1.0), ("x", 0.5, 1.0)]),
        "RbfModelSpec": ((0.1, (kernel,)), (0.0, (kernel, synthetic.RbfKernel((1.0,), 0.2, 0.5))), []),
        "GmmComponent": ((1.0, (0.0,), [[1.0]]), (0.5, (1.0,), [[2.0]]), []),
        "GmmPopulationSpec": (((component,), 3, 0.5, 1, 100), ((component,), 2, 0.0, 0, 10_000), []),
        "Fixture": (("f", "d", spec, {"pne": [[0, 1]]}, "n"), ("g", "e", spec, {}, ""), []),
        "Check": (("f", "pne", True, (0, 1), (0, 1), None), ("f", "welfare", False, 0.5, 0.25, 1e-9), []),
        "PreferenceTable": ((("c1", "c2"), ("a",), [[0.5, 0.5]]), (("c",), ("a", "b"), [[1.0], [0.0]]), []),
    }


CASES = _cases()
NAMES = sorted(CASES)
REFUSALS = [pytest.param(name, args, id=f"{name}-{i}")
            for name in NAMES for i, args in enumerate(CASES[name][2])]


def _record(name: str) -> type:
    module = next(m for m in (game, equilibrium, metrics, entry, synthetic, fixtures, preferences)
                  if name in vars(m))
    return vars(module)[name]


def _fields(value) -> tuple[str, ...]:
    if dataclasses.is_dataclass(value):
        return tuple(f.name for f in dataclasses.fields(value))
    return type(value).__match_args__


def _bits(value):
    """``value`` with floats as hex strings and arrays as dtype, shape and bytes, so that
    == is bit equality; a record or a twin gives its type name and its fields."""
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (tuple, list)):
        return (type(value).__name__,) + tuple(_bits(v) for v in value)
    if isinstance(value, dict):
        return ("dict",) + tuple((_bits(k), _bits(v)) for k, v in value.items())
    if isinstance(value, Record) or dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(_bits(getattr(value, f)) for f in _fields(value))
    assert value is None or isinstance(value, (bool, int, str)), type(value)
    return value


def _both(name: str):
    return _record(name), RECORD_TWINS[name]


def _package_records() -> list[type]:
    found, stack = [], [Record]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub.__module__.startswith("modelmarket."):
                found.append(sub)
            stack.append(sub)
    return found


def test_every_record_has_a_twin_and_cases():
    found = {sub.__name__ for sub in _package_records()}
    assert len(found) == 32
    assert found == set(RECORD_TWINS) == set(CASES)


def test_every_record_is_built_and_rebuilt_by_record_alone():
    # one constructor checks every argument list, and one reduction rebuilds every
    # record through it; a record checks and normalizes its fields in __post_init__
    assert "__init__" in vars(Record) and "__reduce__" in vars(Record)
    records = _package_records()
    assert len(records) == 32
    assert [sub.__name__ for sub in records if "__init__" in vars(sub)] == []
    assert [sub.__name__ for sub in records if "__reduce__" in vars(sub)] == []


@pytest.mark.parametrize("name", NAMES)
def test_fields_defaults_and_flags_match_the_twin(name):
    record, twin = _both(name)
    names = tuple(f.name for f in dataclasses.fields(twin))
    assert record.__match_args__ == twin.__match_args__ == names
    for f in dataclasses.fields(twin):
        if f.default is not dataclasses.MISSING:
            assert _bits(vars(record)[f.name]) == _bits(f.default)
        elif f.default_factory is not dataclasses.MISSING:
            assert vars(record)[f.name] == f.default_factory()
        else:
            assert f.name not in vars(record)
    identity = record.__eq__ is object.__eq__
    assert identity == (record.__hash__ is object.__hash__) == (not twin.__dataclass_params__.eq)
    assert twin.__dataclass_params__.frozen
    value = record(*CASES[name][0])
    match value:  # a class pattern reads positional fields through __match_args__
        case record(first):
            assert first is getattr(value, names[0])
        case _:
            pytest.fail(f"{name} does not match its own class pattern")


@pytest.mark.parametrize("name", NAMES)
def test_construction_matches_the_twin(name):
    record, twin = _both(name)
    args = CASES[name][0]
    names = record.__match_args__
    positional = record(*args)
    assert repr(positional) == repr(twin(*args))
    assert _bits(positional) == _bits(twin(*args))
    keywords = dict(zip(names, args))
    assert _bits(record(**keywords)) == _bits(twin(**keywords)) == _bits(positional)
    # the required fields alone take every default
    required = len([f for f in dataclasses.fields(twin) if f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING])
    if required < len(names):
        assert repr(record(*args[:required])) == repr(twin(*args[:required]))
        assert _bits(record(*args[:required])) == _bits(twin(*args[:required]))
        split = dict(zip(names[1:required], args[1:required]))
        assert _bits(record(args[0], **split)) == _bits(twin(args[0], **split))


@pytest.mark.parametrize("name", NAMES)
def test_equality_and_hash_match_the_twin(name):
    record, twin = _both(name)
    first, second = CASES[name][:2]
    r1, r2, r3 = record(*first), record(*first), record(*second)
    t1, t2, t3 = twin(*first), twin(*first), twin(*second)
    assert r1 == r1 and not r1 != r1
    assert (r1 == r2, r1 != r2, r1 == r3, r1 != r3) == (t1 == t2, t1 != t2, t1 == t3, t1 != t3)
    assert r1 != t1 and not r1 == t1
    if twin.__dataclass_params__.eq:
        assert r1 == r2 and r1 != r3
        assert hash(r1) == hash(r2) == hash(t1) == hash(t2)
        assert hash(r3) == hash(t3)
    else:
        assert r1 != r2
        assert hash(r1) == object.__hash__(r1) and hash(t1) == object.__hash__(t1)


@pytest.mark.parametrize("name, args", REFUSALS)
def test_post_init_refusals_match_the_twin(name, args):
    record, twin = _both(name)
    with pytest.raises(MarketGameError) as want:
        twin(*args)
    with pytest.raises(MarketGameError) as got:
        record(*args)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name", NAMES)
def test_assignment_and_deletion_are_refused_after_each_round_trip(name):
    record, twin = _both(name)
    args = CASES[name][0]
    reference = twin(*args)
    for f in _fields(reference):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(reference, f, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(reference, f)
    original = record(*args)
    bits = _bits(original)
    for value in (original, pickle.loads(pickle.dumps(original)), copy.copy(original)):
        assert type(value) is record
        assert _bits(value) == bits
        for f in record.__match_args__ + ("unknown",):
            with pytest.raises(MarketGameError, match=f"{name} is frozen: cannot assign '{f}'"):
                setattr(value, f, 0)
            with pytest.raises(MarketGameError, match=f"{name} is frozen: cannot delete '{f}'"):
                delattr(value, f)
        assert _bits(value) == bits


def _arrays(value) -> list:
    """Every array a record holds: its array fields, and a generator's cached probabilities."""
    arrays = [getattr(value, f) for f in _fields(value) if isinstance(getattr(value, f), np.ndarray)]
    if isinstance(value, entry.ToyGenerator):
        arrays.append(value.probabilities())
    return arrays


ARRAY_CASES = [pytest.param(name, i, id=f"{name}-{i}") for name in NAMES for i in range(2)
               if _arrays(_record(name)(*CASES[name][i]))]


def test_every_record_that_holds_an_array_is_round_tripped():
    assert sorted({p.values[0] for p in ARRAY_CASES}) == [
        "EntryDataset", "GmmComponent", "PreferenceTable", "RewardBaseline", "RewardTable",
        "ScoreMatrix", "ToyGenerator", "UserPopulation"]


@pytest.mark.parametrize("name, case", ARRAY_CASES)
def test_a_round_trip_keeps_every_array_as_built(name, case):
    # rebuilt through the record's constructor, so a frozen array comes back frozen;
    # RewardBaseline's averages are updated in place and stay writeable
    original = _record(name)(*CASES[name][case])
    writeable = name == "RewardBaseline"
    assert [a.flags.writeable for a in _arrays(original)] == [writeable] * len(_arrays(original))
    for value in (pickle.loads(pickle.dumps(original)), copy.copy(original), copy.deepcopy(original)):
        assert type(value) is type(original)
        assert _bits(value) == _bits(original)
        assert [_bits(a) for a in _arrays(value)] == [_bits(a) for a in _arrays(original)]
        assert [a.flags.writeable for a in _arrays(value)] == [writeable] * len(_arrays(original))


def _bad_fields(name: str) -> list:
    """For one record: its first required field left out (if it has one), an
    unknown keyword, and its first field given twice, each with its message."""
    record, twin = _both(name)
    args = CASES[name][0]
    first = record.__match_args__[0]
    cases = []
    field = dataclasses.fields(twin)[0]  # a record with a required field has one first
    if field.default is dataclasses.MISSING and field.default_factory is dataclasses.MISSING:
        rest = dict(zip(record.__match_args__[1:], args[1:]))
        cases.append(pytest.param(lambda: record(**rest), f"{name} is missing field {first!r}",
                                  id=f"{name}-missing"))
    cases.append(pytest.param(lambda: record(*args, bogus=1), f"{name} has no field 'bogus'",
                              id=f"{name}-unknown"))
    cases.append(pytest.param(lambda: record(*args, **{first: args[0]}), f"{name} got field {first!r} twice",
                              id=f"{name}-repeated"))
    return cases


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: equilibrium.Deviation(0, 1), "Deviation is missing field 'gain'", id="missing"),
    pytest.param(lambda: equilibrium.Deviation(0, 1, 0.5, 2), "Deviation takes 3 fields (got 4)", id="too-many"),
    pytest.param(lambda: equilibrium.Deviation(0, 1, gain=0.5, bogus=1), "Deviation has no field 'bogus'",
                 id="unknown"),
    pytest.param(lambda: equilibrium.Deviation(0, 1, 0.5, platform=2), "Deviation got field 'platform' twice",
                 id="repeated"),
    pytest.param(lambda: equilibrium.PneCheck(witness=None), "PneCheck is missing field 'is_pne'",
                 id="missing-before-a-default"),
] + [case for name in NAMES for case in _bad_fields(name)])
def test_a_bad_field_is_refused_naming_the_record_and_the_field(call, message):
    with pytest.raises(MarketGameError) as err:
        call()
    assert str(err.value) == message


def test_a_default_is_one_shared_frozen_record():
    scores, pop = ScoreMatrix([[1.0]]), UserPopulation(None, [1.0])
    first, second = GameSpec(scores, pop, 1), GameSpec(scores, pop, 1)
    assert first.choice is second.choice is vars(GameSpec)["choice"]
    assert first.choice == ChoiceRule.hardmax()
    with pytest.raises(MarketGameError):
        first.choice.tau = 1.0  # type: ignore[misc]


def _per_instance(build, number: int = 2000, repeat: int = 9) -> float:
    return min(timeit.repeat(build, number=number, repeat=repeat)) / number


@pytest.mark.parametrize("name", ["DynamicsStep", "MarketShares", "ProfileScore"])
def test_construction_costs_at_most_one_microsecond_more_than_the_twin(name):
    # the program builds these three positionally, once per dynamics turn or scored profile
    record, twin = _both(name)
    args = CASES[name][0]
    record_s = twin_s = float("inf")
    for _ in range(3):  # alternate, so that a slow spell of the machine hits both
        record_s = min(record_s, _per_instance(lambda: record(*args)))
        twin_s = min(twin_s, _per_instance(lambda: twin(*args)))
    assert record_s - twin_s <= 1e-6, (record_s, twin_s)


def _traced_bytes(build, count: int = 10_000, runs: int = 3) -> float:
    # the least of a few runs: the interpreter's own one-off allocations (a table
    # it grows once) can land in any one run, on either side of a comparison
    used = []
    for _ in range(runs):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [build() for _ in range(count)]
            used.append(tracemalloc.get_traced_memory()[0] - before)
        finally:
            tracemalloc.stop()
        assert len(kept) == count
        del kept
    return min(used) / count


def test_a_dynamics_step_is_no_larger_than_its_twin():
    # fields stored with object.__setattr__ stay in the instance's inline values;
    # writing them through __dict__ would build a dict per instance
    record, twin = _both("DynamicsStep")
    args = CASES["DynamicsStep"][0]
    assert _traced_bytes(lambda: record(*args)) <= _traced_bytes(lambda: twin(*args))


def test_importing_the_package_runs_no_generated_source():
    # dataclasses and namedtuple exec the source text of the methods they build
    # (dataclasses in a function named __create_fn__, namedtuple a __new__ lambda);
    # the audit hook sees every exec of such text, whose code comes from "<string>"
    script = textwrap.dedent("""
        import sys
        import numpy
        built = []

        def hook(event, args):
            if event == "exec" and getattr(args[0], "co_filename", "") == "<string>":
                built.append(args[0])

        sys.addaudithook(hook)
        import modelmarket, modelmarket.cli
        print(len(built))
    """)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(Path(game.__file__).resolve().parents[1])})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"
