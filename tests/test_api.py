"""The names other code binds: every module's ``__all__``, the functions
that ``benchmarks/tracer.py`` wraps together with the arguments its hooks read,
and the config fields that the benchmark's configs set.

The tracer is read as source, never imported, so a deletion or a renamed
parameter in the package fails here instead of breaking a traced benchmark
run.  ``benchmarks/workloads.py`` is loaded by path and only its config
builders are called, so nothing is written under ``benchmarks/``.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import pkgutil
from pathlib import Path

import pytest

import modelmarket
from modelmarket import config

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "benchmarks" / "tracer.py"

EXPORTING = [name for name in (f"modelmarket.{m.name}" for m in pkgutil.iter_modules(modelmarket.__path__))
             if hasattr(importlib.import_module(name), "__all__")]


def _assigned(tree: ast.Module, name: str) -> ast.expr:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise LookupError(f"{TRACER} assigns no {name}")


def traced_functions() -> list[tuple[str, str, frozenset[str]]]:
    """(layer, function, argument names its hook reads) for every entry of ``LAYERS``."""
    tree = ast.parse(TRACER.read_text())
    layers = ast.literal_eval(_assigned(tree, "LAYERS"))
    hooks = _assigned(tree, "HOOKS")
    hook_of = {ast.literal_eval(k): v.id for k, v in zip(hooks.keys, hooks.values)}
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    out = []
    for layer, functions in layers.items():
        for fname in functions:
            reads = set()
            hook = hook_of.get(f"{layer}.{fname}")
            if hook is not None:
                # hooks are called as hook(counts, bound_arguments, result, exc)
                arguments = defs[hook].args.args[1].arg
                for node in ast.walk(defs[hook]):
                    if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                            and node.value.id == arguments):
                        reads.add(ast.literal_eval(node.slice))
            out.append((layer, fname, frozenset(reads)))
    return out


TRACED = traced_functions()


@pytest.mark.parametrize("module_name", EXPORTING)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.parametrize("layer, fname, reads", TRACED,
                         ids=[f"{layer}.{fname}" for layer, fname, _ in TRACED])
def test_traced_function_exists_with_the_arguments_its_hook_reads(layer, fname, reads):
    function = getattr(importlib.import_module(f"modelmarket.{layer}"), fname, None)
    assert callable(function), f"modelmarket.{layer}.{fname} is gone"
    assert reads <= set(inspect.signature(function).parameters)


def test_tracer_hooks_are_found():
    # guards the source reading above: an empty parse would pass every case
    reads = set().union(*(r for _, _, r in TRACED))
    assert {"spec", "profile", "platform", "n_samples"} <= reads
    assert ("game", "deviation_advantage") in {(layer, f) for layer, f, _ in TRACED}


def _benchmark_configs():
    """(id, table, document) for every document the benchmark loads: the
    runnable shipped configs and their instance file, which the CI steps run,
    and the configs and instance files that ``workloads.py`` writes, for a
    few variants."""
    spec = importlib.util.spec_from_file_location("benchmark_workloads", ROOT / "benchmarks" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    cases = []
    for path in sorted((ROOT / "configs").glob("*.json")):
        command = path.name.partition("_")[0]
        table = config.COMMANDS.get(command, config.INSTANCE_FILE)
        cases.append((f"configs/{path.name}", table, json.loads(path.read_text())))
    for variant in (0, 1, 127):
        entry, incumbents = workloads.entry_config(variant)
        cases += [(f"sweep_config({variant})", config.COMMANDS["sweep"], workloads.sweep_config(variant)),
                  (f"entry_config({variant})", config.COMMANDS["entry"], entry),
                  (f"entry_config({variant}) incumbents", config.INSTANCE_FILE, incumbents)]
    return cases


BENCHMARK_CONFIGS = _benchmark_configs()


@pytest.mark.parametrize("table, document", [case[1:] for case in BENCHMARK_CONFIGS],
                         ids=[case[0] for case in BENCHMARK_CONFIGS])
def test_every_config_the_benchmark_loads_walks_under_its_table(table, document):
    # only the tables are walked: no instance is built and no game is solved
    config.walk(document, table)
