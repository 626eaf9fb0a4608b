"""The run-config and fixture-record tables of every block and field, and one walker.

Each table maps the keys of a block to a ``Field``: its kind, its default (or
``REQUIRED``) and its lower bound.  ``walk`` checks a block against its table
and returns a copy with the defaults filled in.  It converts no value, so
``"beta": 4`` stays the int 4 in the outputs that echo it.  A failed check
raises ``ConfigError`` naming the field by its dotted path.  Checks that
depend on other fields or on the instance stay with the code that builds the
objects and call ``check`` for any kind check; ``entry.TrainingConfig``
checks the values of ``training.params``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from typing import Any, NamedTuple

from .entry import TrainingConfig
from .errors import ConfigError

# kinds; a LIST's entries and an ANY value are checked where they are used
INT, NUMBER, STRING, ENUM = "int", "number", "string", "enum"
NUMBERS, MATRIX, STRINGS, INTS = "list of numbers", "matrix", "list of strings", "list of ints"
ENUM_OR_INTS, LIST, ANY = "enum or list of ints", "list", "any"
BLOCK, BLOCKS = "block", "list of blocks"

# defaults that are not values; a field whose default is None takes a JSON
# null for it, and a block needs exactly one of its ONE_OF fields
REQUIRED, OPTIONAL, ONE_OF = "required", "optional", "one of"

_SCALARS = {INT: ((int,), "an integer"), NUMBER: ((int, float), "a number"),
            STRING: ((str,), "a string")}
_ENTRIES = {NUMBERS: NUMBER, MATRIX: NUMBER, STRINGS: STRING, INTS: INT}


class Field(NamedTuple):
    kind: str
    default: Any = REQUIRED
    minimum: int | None = None  # of the value, or of each entry of INTS
    above: float | None = None  # an exclusive lower bound of a NUMBER
    table: dict | None = None  # the fields of a BLOCK, or of each of BLOCKS
    choices: tuple = ()  # the values of an ENUM


CHOICE = {"kind": Field(ENUM, choices=("hardmax", "softmax")),
          "tau": Field(NUMBER, OPTIONAL)}  # needed by softmax
KERNEL = {"center": Field(NUMBERS), "amplitude": Field(NUMBER), "width": Field(NUMBER)}
COMPONENT = {"weight": Field(NUMBER), "mean": Field(NUMBERS), "covariance": Field(MATRIX)}
RBF_GMM = {
    "models": Field(BLOCKS, table={"bias": Field(NUMBER, 0.0),
                                   "kernels": Field(BLOCKS, table=KERNEL)}),
    "gmm": Field(BLOCK, table={
        "components": Field(BLOCKS, table=COMPONENT), "k_types": Field(INT),
        "dx": Field(NUMBER, 0.0), "seed": Field(INT, 0, minimum=0),
        "sample_size": Field(INT, 10_000)}),
}
# instance.synthetic, and the synthetic game of a fixture record
SYNTHETIC = Field(BLOCK, ONE_OF, table={**RBF_GMM, "n_platforms": Field(INT)})

# the file ``instance.file`` names; its fields are named instance.<key>
INSTANCE_FILE = {
    "scores": Field(MATRIX), "weights": Field(NUMBERS), "n_platforms": Field(INT),
    "model_labels": Field(STRINGS, None), "type_labels": Field(STRINGS, None),
    "choice": Field(BLOCK, None, table=CHOICE),
}

# a fixture's expectation keys; fixtures.verify_fixture checks their values
EXPECTED = {**dict.fromkeys(
    "pne payoffs average_scores pair_deltas welfare canonical_pne social_optimum social_optimum_profile "
    "hhi support differentiated_condition homogeneous_condition".split(), Field(ANY, OPTIONAL)),
    "dynamics": Field(BLOCK, OPTIONAL, table={"start": Field(ANY), "kind": Field(ANY), **dict.fromkeys(
        "cycle_profile_set cycle_multisets welfare_interval welfare_state_average "
        "welfare_multiset_average".split(), Field(ANY, OPTIONAL))})}

# a fixture record under data/: its game as an instance file, a synthetic
# block, or scores derived from per-criterion performance and preferences
FIXTURE_RECORD = {
    "description": Field(STRING, ""), "notes": Field(STRING, ""), "expected": Field(BLOCK, table=EXPECTED),
    "explicit": Field(BLOCK, ONE_OF, table=INSTANCE_FILE),
    "synthetic": SYNTHETIC,
    "preferences": Field(BLOCK, ONE_OF, table={
        **{key: field for key, field in INSTANCE_FILE.items() if key != "scores"},
        "performance": Field(MATRIX), "criteria": Field(STRINGS),
        "preference_weights": Field(MATRIX)}),
}

# the kind of a sweep value, by axis
SWEEP_VALUES = {"models": Field(INT), "platforms": Field(INT, minimum=1),
                "population": Field(NUMBERS), "tau": Field(NUMBER, above=0)}

# the keys of training.params: TrainingConfig's fields, with lambda in place of lam
RENAMED = {"lambda": "lam"}
PARAMS = {name: Field(ANY, OPTIONAL) for name in list(RENAMED) + [
    f.name for f in dataclasses.fields(TrainingConfig) if f.name not in RENAMED.values()]}

RUN_CONFIG = {
    "instance": Field(BLOCK, table={
        "builtin": Field(STRING, ONE_OF),
        "file": Field(STRING, ONE_OF),
        "synthetic": SYNTHETIC,
    }),
    "choice": Field(BLOCK, None, table=CHOICE),
    "dynamics": Field(BLOCK, {}, table={
        "start": Field(INTS, None),
        "order": Field(ENUM_OR_INTS, "round_robin", choices=("round_robin",)),
        "max_steps": Field(INT, 1000, minimum=1),
        "seed": Field(INT, 0, minimum=0),
    }),
    "sweep": Field(BLOCK, OPTIONAL, table={
        "axis": Field(ENUM, choices=tuple(SWEEP_VALUES)),
        "values": Field(LIST),
        "repetitions": Field(INT, 1, minimum=1),
        "seeds": Field(INTS, None, minimum=0),  # one per repetition
    }),
    "training": Field(BLOCK, OPTIONAL, table={
        "method": Field(ENUM, "both", choices=("resampling", "direct", "both")),
        "estimator": Field(ENUM, "exact", choices=("exact", "reinforce")),
        "outcomes": Field(STRINGS),
        "rewards": Field(MATRIX),
        "dataset": Field(BLOCK, table={
            "counts": Field(NUMBERS),
            "attributes": Field(STRINGS, None),
            "attribute_labels": Field(STRINGS, None),
            "type_preferences": Field(MATRIX, None),
        }),
        "params": Field(BLOCK, {}, table=PARAMS),
        "n_platforms": Field(INT, 3),
    }),
    "output": Field(BLOCK, {}, table={"dir": Field(STRING, OPTIONAL),
                                      "prefix": Field(STRING, OPTIONAL)}),
}

# each command's run config: the block the command works from is required
COMMANDS = {"run": RUN_CONFIG, **{
    command: {**RUN_CONFIG, block: RUN_CONFIG[block]._replace(default=REQUIRED)}
    for command, block in (("sweep", "sweep"), ("entry", "training"))}}


def _scalar(value, kind: str, field: Field, name: str) -> None:
    types, noun = _SCALARS[kind]
    # a bool is an int to Python, but never a count, a weight or a label here
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{name} must be {noun} (got {value!r})")
    # json.load takes NaN, Infinity and ints too large for a float
    if kind == NUMBER and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name} must be finite (got {value!r})")
    if field.minimum is not None and value < field.minimum:
        raise ConfigError(f"{name} must be >= {field.minimum} (got {value!r})")
    if field.above is not None and not value > field.above:
        raise ConfigError(f"{name} must be > {field.above} (got {value!r})")


def _list(value, name: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list (got {value!r})")
    return value


def check(value, field: Field, path: str):
    """``value`` once it has ``field``'s kind and bound, or a ConfigError
    naming ``path``.  A block comes back walked; any other value as it is."""
    kind = field.kind
    if (value is None and field.default is None) or kind == ANY:
        return value
    if kind == BLOCK:
        return walk(value, field.table, path)
    if kind == BLOCKS:
        return [walk(v, field.table, f"{path}[{i}]") for i, v in enumerate(_list(value, path))]
    if kind == ENUM_OR_INTS and isinstance(value, list):
        kind = INTS
    if kind in (ENUM, ENUM_OR_INTS):
        if value not in field.choices:
            also = " or a list of integers" if kind == ENUM_OR_INTS else ""
            raise ConfigError(f"{path} must be one of {', '.join(map(repr, field.choices))}"
                              f"{also} (got {value!r})")
    elif kind in _SCALARS:
        _scalar(value, kind, field, path)
    else:
        rows = [_list(value, path)]
        if kind == MATRIX:
            rows = [_list(row, f"a row of {path}") for row in value]
            if len({len(row) for row in rows}) > 1:
                raise ConfigError(f"the rows of {path} must have equal lengths")
        if kind != LIST:
            name = f"an entry of {path}"
            for entry in (entry for row in rows for entry in row):
                _scalar(entry, _ENTRIES[kind], field, name)
    return value


def walk(block, table: dict, path: str = "", name: str | None = None) -> dict:
    """``block`` checked against ``table``, as a copy with the defaults filled
    in.  Its fields are named ``<path>.<key>``; the block itself is named
    ``name``, by default its path."""
    name = name or path or "top-level"
    if not isinstance(block, dict):
        raise ConfigError(f"the {name} block must be a JSON object")
    for key in block:
        if key not in table:
            raise ConfigError(f"unknown key {key!r} in the {name} block")
    sources = [key for key, field in table.items() if field.default == ONE_OF]
    if sources and sum(key in block for key in sources) != 1:
        raise ConfigError(f"{name} block needs exactly one of: {', '.join(sources)}")
    checked = dict(block)
    for key, field in table.items():
        if key not in block and field.default == REQUIRED:
            raise ConfigError(f"missing {key!r} in the {name} block")
        if key in block or field.default not in (OPTIONAL, ONE_OF):
            checked[key] = check(block.get(key, field.default), field,
                                 f"{path}.{key}" if path else key)
    return checked


def load(path, table: dict, prefix: str = "", name: str | None = None) -> dict:
    """The JSON file ``name`` (a config file by default) at ``path``, walked against ``table``."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"{name or 'config file'} not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    return walk(data, table, prefix, name)
