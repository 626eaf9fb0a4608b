"""The tables of every parameter, run-config block and fixture-record field, and one walker.

Each table maps the keys of a block to a ``Field``: its kind, its default (or
``REQUIRED``) and its bounds.  ``walk`` checks a block against its table and
returns a copy with the defaults filled in.  It converts no value, so
``"beta": 4`` stays the int 4 in the outputs that echo it.  A failed check
raises ``MarketGameError`` naming the field by its dotted path.  The library's
records check their scalar parameters with the same fields through ``check``,
and fail with the same error, so each bound is written once.  Checks that depend
on other fields, on the instance or on whole arrays stay where the objects are built.
"""

from __future__ import annotations

import json
import numbers
import operator
import sys
from typing import Any

from .errors import MarketGameError

# kinds; a LIST's entries and an ANY value are checked where they are used
INT, NUMBER, STRING, ENUM = "int", "number", "string", "enum"
NUMBERS, MATRIX, STRINGS, INTS = "list of numbers", "matrix", "list of strings", "list of ints"
LIST, ANY = "list", "any"
BLOCK, BLOCKS = "block", "list of blocks"

# defaults that are not values; a field whose default is None takes a JSON
# null for it, and a block needs exactly one of its ONE_OF fields
REQUIRED, OPTIONAL, ONE_OF = "required", "optional", "one of"

# numbers.* admit numpy scalars from library callers; JSON yields only int and float
_SCALARS = {INT: ((numbers.Integral,), "an integer"), NUMBER: ((numbers.Real,), "a number"),
            STRING: ((str,), "a string")}
_ENTRIES = {NUMBERS: NUMBER, MATRIX: NUMBER, STRINGS: STRING, INTS: INT}


class Field:
    """A table entry: its kind, its default and its bounds; ``_replace`` copies
    it with some of them changed.  A plain class, so that importing config
    runs no generated source."""

    __slots__ = ("kind", "default", "minimum", "above", "maximum", "below", "table", "choices")

    def __init__(self, kind: str, default: Any = REQUIRED,
                 minimum: float | None = None,  # of the value, or of each entry of INTS
                 above: float | None = None,  # an exclusive lower bound of a NUMBER
                 maximum: float | None = None,  # an upper bound of a NUMBER
                 below: float | None = None,  # an exclusive upper bound of a NUMBER
                 table: dict | None = None,  # the fields of a BLOCK, or of each of BLOCKS
                 choices: tuple = ()):  # the values of an ENUM
        self.kind, self.default, self.minimum, self.above = kind, default, minimum, above
        self.maximum, self.below, self.table, self.choices = maximum, below, table, choices

    def _replace(self, **changes) -> Field:
        return Field(**{**{name: getattr(self, name) for name in self.__slots__}, **changes})


N_PLATFORMS = Field(INT, minimum=1)  # GameSpec's; an instance's, a sweep's and training's
CHOICE = {"kind": Field(ENUM, choices=("hardmax", "softmax")),
          "tau": Field(NUMBER, OPTIONAL, above=0)}  # needed by softmax
KERNEL = {"center": Field(NUMBERS), "amplitude": Field(NUMBER), "width": Field(NUMBER, above=0)}
COMPONENT = {"weight": Field(NUMBER, minimum=0), "mean": Field(NUMBERS), "covariance": Field(MATRIX)}
GMM = {"components": Field(BLOCKS, table=COMPONENT), "k_types": Field(INT, minimum=1),
       "dx": Field(NUMBER, 0.0), "seed": Field(INT, 0, minimum=0), "sample_size": Field(INT, 10_000)}
RBF_GMM = {
    "models": Field(BLOCKS, table={"bias": Field(NUMBER, 0.0),
                                   "kernels": Field(BLOCKS, table=KERNEL)}),
    "gmm": Field(BLOCK, table=GMM),
}
# instance.synthetic, and the synthetic game of a fixture record
SYNTHETIC = Field(BLOCK, ONE_OF, table={**RBF_GMM, "n_platforms": N_PLATFORMS})

# the file ``instance.file`` names; its fields are named instance.<key>
INSTANCE_FILE = {
    "scores": Field(MATRIX), "weights": Field(NUMBERS), "n_platforms": N_PLATFORMS,
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
SWEEP_VALUES = {"models": Field(INT), "platforms": N_PLATFORMS,
                "population": Field(NUMBERS), "tau": CHOICE["tau"]}

# training.params: entry.TrainingConfig's fields, which default there; lambda is lam
RENAMED = {"lambda": "lam"}
PARAMS = {"beta": Field(NUMBER, OPTIONAL, above=0), "gamma": Field(NUMBER, OPTIONAL, minimum=0),
          "lambda": Field(NUMBER, OPTIONAL, minimum=0), "outer_rounds": Field(INT, OPTIONAL, minimum=1),
          "inner_epochs": Field(INT, OPTIONAL, minimum=0), "eval_budget": Field(INT, OPTIONAL, minimum=1),
          "learning_rate": Field(NUMBER, OPTIONAL, above=0),
          "baseline_decay": Field(NUMBER, OPTIONAL, minimum=0, below=1),
          "blend": Field(NUMBER, OPTIONAL, above=0, maximum=1), "seed": Field(INT, OPTIONAL, minimum=0)}

BUDGET = Field(INT, minimum=0)  # enumerate_pne's count of profiles, social_optimum's of multisets
DYNAMICS = {"start": Field(INTS, None), "max_steps": Field(INT, 1000, minimum=1),
            "seed": Field(INT, OPTIONAL, minimum=0)}

# CentralizationParams' fields, which no config file sets
CENTRALIZATION = {"rho": Field(NUMBER, above=0), "gamma_cap": Field(NUMBER, minimum=0)}

# every block of a run config; COMMANDS gives each command the ones it reads
_BLOCKS = {
    "instance": Field(BLOCK, table={
        "builtin": Field(STRING, ONE_OF),
        "file": Field(STRING, ONE_OF),
        "synthetic": SYNTHETIC,
    }),
    "choice": Field(BLOCK, None, table=CHOICE),
    "dynamics": Field(BLOCK, {}, table=DYNAMICS),
    "sweep": Field(BLOCK, table={
        "axis": Field(ENUM, choices=tuple(SWEEP_VALUES)),
        "values": Field(LIST),
        "repetitions": Field(INT, 1, minimum=1),
    }),
    "training": Field(BLOCK, table={
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
        "n_platforms": N_PLATFORMS._replace(default=3),
    }),
    "output": Field(BLOCK, {}, table={"prefix": Field(STRING, OPTIONAL)}),
}

# each command's run config: the blocks it reads and no other
COMMANDS = {command: {block: _BLOCKS[block] for block in blocks.split()} for command, blocks in (
    ("run", "instance choice dynamics output"),
    ("sweep", "instance choice dynamics sweep output"),
    ("entry", "instance choice training output"))}
# a sweep draws every cell's start from the cell's seed
COMMANDS["sweep"]["dynamics"] = Field(BLOCK, {}, table={
    key: field for key, field in DYNAMICS.items() if key != "start"})


# each bound as (its Field attribute, the test a value fails it by, the relation it states)
_BOUNDS = (("minimum", operator.lt, ">="), ("above", operator.le, ">"),
           ("maximum", operator.gt, "<="), ("below", operator.ge, "<"))


def _scalar(value, kind: str, field: Field, name: str) -> None:
    types, noun = _SCALARS[kind]
    # a bool is an int to Python, but never a count, a weight or a label here
    if isinstance(value, bool) or not isinstance(value, types):
        raise MarketGameError(f"{name} must be {noun} (got {value!r})")
    # json.load takes NaN, Infinity and ints too large for a float; any other
    # number is compared as a float, as numpy warns casting the bound to float32
    if kind == NUMBER and not abs(value if isinstance(value, int) else float(value)) <= sys.float_info.max:
        raise MarketGameError(f"{name} must be finite (got {value!r})")
    for attribute, fails, relation in _BOUNDS:
        bound = getattr(field, attribute)
        if bound is not None and fails(value, bound):
            raise MarketGameError(f"{name} must be {relation} {bound} (got {value!r})")


def _list(value, name: str) -> list:
    if not isinstance(value, list):
        raise MarketGameError(f"{name} must be a list (got {value!r})")
    return value


def check(value, field: Field, path: str):
    """``value`` once it has ``field``'s kind and bounds, or a ``MarketGameError``
    naming ``path``.  A block comes back walked; any other value as it is."""
    kind = field.kind
    if (value is None and field.default is None) or kind == ANY:
        return value
    if kind == BLOCK:
        return walk(value, field.table, path)
    if kind == BLOCKS:
        return [walk(v, field.table, f"{path}[{i}]") for i, v in enumerate(_list(value, path))]
    if kind == ENUM:
        if value not in field.choices:
            choices = ", ".join(map(repr, field.choices))
            raise MarketGameError(f"{path} must be one of {choices} (got {value!r})")
    elif kind in _SCALARS:
        _scalar(value, kind, field, path)
    else:
        rows = [_list(value, path)]
        if kind == MATRIX:
            rows = [_list(row, f"a row of {path}") for row in value]
            if len({len(row) for row in rows}) > 1:
                raise MarketGameError(f"the rows of {path} must have equal lengths")
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
        raise MarketGameError(f"the {name} block must be a JSON object")
    for key in block:
        if key not in table:
            raise MarketGameError(f"unknown key {key!r} in the {name} block")
    sources = [key for key, field in table.items() if field.default == ONE_OF]
    if sources and sum(key in block for key in sources) != 1:
        raise MarketGameError(f"{name} block needs exactly one of: {', '.join(sources)}")
    checked = dict(block)
    for key, field in table.items():
        if key not in block and field.default == REQUIRED:
            raise MarketGameError(f"missing {key!r} in the {name} block")
        if key in block or field.default not in (OPTIONAL, ONE_OF):
            checked[key] = check(block.get(key, field.default), field,
                                 f"{path}.{key}" if path else key)
    return checked


def load(path, table: dict, prefix: str = "", name: str | None = None) -> dict:
    """The JSON file ``name`` (a config file by default) at ``path``, walked against ``table``."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except FileNotFoundError:
        raise MarketGameError(f"{name or 'config file'} not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise MarketGameError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MarketGameError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise MarketGameError(f"{path}: nested too deeply to read") from None
    except ValueError:  # json reads no integer past sys.get_int_max_str_digits() digits
        raise MarketGameError(f"{path}: an integer has too many digits to read") from None
    return walk(data, table, prefix, name)
