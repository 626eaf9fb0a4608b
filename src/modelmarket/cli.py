"""Command-line front end.

Subcommands:

* ``run``             one instance: best-response dynamics plus metrics
* ``sweep``           grid over pool size, platform count, population, or softmax tau
* ``entry``           entry training plus before/after market comparison
* ``verify-fixtures`` re-derive every built-in expectation record
* ``list-fixtures``   show the fixture registry

Configs are single JSON files holding the blocks their command reads, as
``config.COMMANDS`` lists them (see README for the schema and annotated examples).
Given the same config, emitted CSV/JSON files are byte-for-byte identical;
there are no timestamps in any output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import sys
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .errors import MarketGameError
from .game import ChoiceRule, GameSpec, UserPopulation
from .equilibrium import DynamicsOutcome, run_dynamics
from .metrics import GameAnalysis, MetricsRecord, analyze, outcome_metrics
from .fixtures import (
    builtin_instance,
    choice_from_block,
    fixture_names,
    game_spec,
    verify_fixture,
)
from . import config as config_mod
from . import entry as entry_mod

STEP_COLUMNS = [
    "run_id", "seed", "sweep_axis", "sweep_value", "repetition", "step",
    "mover", "changed", "profile", "utilities", "coverage", "hhi", "support",
]


def _fmt(x: float) -> str:
    return f"{x:.9g}"


# ---------------------------------------------------------------------------
# instance construction
# ---------------------------------------------------------------------------

def _build_instance(cfg: dict, base_dir: str | Path = ".") -> tuple[GameSpec, str, str]:
    """Returns (spec, instance_name, fixture_notes).

    Instance file paths resolve relative to the config file's directory.
    """
    block = cfg["instance"]
    if "builtin" in block:
        fixture = builtin_instance(block["builtin"])
        spec, name, notes = fixture.spec, fixture.name, fixture.notes
    elif "file" in block:
        path = Path(base_dir) / _no_nul(block["file"], "instance.file")
        explicit = config_mod.load(path, config_mod.INSTANCE_FILE, "instance", "instance file")
        spec, name, notes = game_spec("explicit", explicit), path.stem, ""
    else:
        spec, name, notes = game_spec("synthetic", block["synthetic"]), "synthetic", ""
    override = choice_from_block(cfg["choice"])
    if override is not None:
        spec = spec.with_choice(override)
    return spec, name, notes


# ---------------------------------------------------------------------------
# single runs
# ---------------------------------------------------------------------------

def _base_seed(dynamics: dict) -> int:
    """``dynamics.seed``, 0 when not given; refused beside a ``dynamics.start``, which fixes the start."""
    if dynamics.get("start") is not None and "seed" in dynamics:
        raise MarketGameError("dynamics.start leaves dynamics.seed nothing to draw: give one of the two")
    return dynamics.get("seed", 0)


def _record_run(spec: GameSpec, analysis: GameAnalysis | None, start, dynamics: dict, run_id: str,
                seed: int, instance_name: str,
                sweep: tuple = ("", "", 0)) -> tuple[DynamicsOutcome, list[dict], dict]:
    """One recorded run: the dynamics from ``start`` (None: drawn from
    ``seed``), their outcome scored against ``analysis`` (None: the game is
    analyzed after the dynamics, so a bad start fails before any solve), its
    step rows at the ``sweep`` coordinates (axis, value, repetition) and its summary."""
    if start is None:
        start = np.random.default_rng(seed).integers(0, spec.n_models, size=spec.n_platforms).tolist()
    outcome = run_dynamics(spec, start, max_steps=dynamics["max_steps"])
    record = outcome_metrics(spec, outcome, analysis or analyze(spec),
                             [s.profile_after for s in outcome.trajectory])
    # dynamics revisit profiles (every silent turn repeats one), so each
    # distinct profile is formatted once
    cells = {profile: {"profile": "|".join(spec.profile_labels(profile)),
                       "utilities": "|".join(_fmt(u) for u in score.utilities),
                       "coverage": _fmt(score.coverage), "hhi": _fmt(score.hhi),
                       "support": score.support}
             for profile, score in record.scores.items()}
    run = dict(zip(STEP_COLUMNS, (run_id, seed, *sweep)))  # the first five columns
    rows = [{**run, "step": step.index, "mover": step.mover + 1, "changed": int(step.changed),
             **cells[step.profile_after]} for step in outcome.trajectory]
    return outcome, rows, _summarize(spec, outcome, record, run_id, seed, instance_name)


def _analysis_fields(spec: GameSpec, analysis: GameAnalysis) -> dict:
    """The PNE list and the optimum's value; one a budget refused is None with a note."""
    if analysis.pne is None:
        fields: dict[str, Any] = {"pne": None, "pne_note": analysis.pne_note}
    else:
        fields = {"pne": [list(spec.profile_labels(p)) for p in analysis.pne]}
    if analysis.optimum is None:
        return {**fields, "social_optimum": None, "social_optimum_note": analysis.optimum_note}
    return {**fields, "social_optimum": analysis.optimum.value}


def _summarize(spec: GameSpec, outcome: DynamicsOutcome, record: MetricsRecord, run_id: str,
               seed: int, instance_name: str) -> dict:
    summary: dict[str, Any] = {
        "run_id": run_id,
        "instance": instance_name,
        "seed": seed,
        "n_models": spec.n_models,
        "n_platforms": spec.n_platforms,
        "choice": {"kind": spec.choice.kind, "tau": spec.choice.tau},
        "start": list(spec.profile_labels(outcome.start)),
        "outcome_kind": outcome.kind,
        **_analysis_fields(spec, record.analysis),
    }
    if record.analysis.optimum is not None:
        summary["social_optimum_profile"] = list(spec.profile_labels(record.analysis.optimum.profile))
    if record.analysis.pne is not None:
        summary["pne_count"] = len(record.analysis.pne)
    if record.welfare is None:
        summary["welfare"] = None
        return summary
    summary.update(welfare=record.welfare.value, welfare_state_average=record.welfare.state_average,
                   welfare_multiset_average=record.welfare.multiset_average)
    if outcome.kind == "equilibrium":
        summary["equilibrium_profile"] = list(spec.profile_labels(record.anchor))
    else:
        summary["cycle_profiles"] = [list(spec.profile_labels(p)) for p in outcome.cycle_profiles]
    anchor = record.scores[record.anchor]
    summary.update(hhi=anchor.hhi, support=anchor.support, shares=list(anchor.shares),
                   final_utilities=list(anchor.utilities))
    return summary


def _no_nul(path: str | None, field: str) -> str | None:
    """``path`` as given; one holding a NUL, which ``open`` refuses with a bare
    ``ValueError``, is refused here by its ``field``."""
    if path is not None and "\0" in path:
        raise MarketGameError(f"{field} must not hold a NUL (got {path!r})")
    return path


def _prefix(cfg: dict, default: str) -> str:
    """``output.prefix``, read before any game is solved; it starts file names, so it holds no separator."""
    prefix = cfg["output"].get("prefix", default)
    if {os.sep, os.altsep, "\0"} & set(prefix):
        raise MarketGameError(f"output.prefix must not hold a path separator or NUL (got {prefix!r})")
    return prefix


def _write(out: Path, prefix: str, tables: dict, report_name: str, report, done: str) -> None:
    """Writes each of ``tables`` (name: (columns, rows)) to ``<prefix>_<name>.csv`` and then
    ``report`` to ``<prefix>_<report_name>.json`` in ``out``, made if missing.

    All or nothing: each file is written under a temporary name in ``out``, and
    all are renamed into place only after the last write succeeds.  On any
    failure the temporaries and every file already renamed are removed."""
    out.mkdir(parents=True, exist_ok=True)
    staged: list[tuple[Path, Path]] = []  # (temporary, file), in writing order
    placed: list[Path] = []

    def stage(name: str, **kwargs):
        staged.append((out / f".{name}.{os.getpid()}.tmp", out / name))
        return open(staged[-1][0], "w", **kwargs)

    try:
        for name, (columns, rows) in tables.items():
            with stage(f"{prefix}_{name}.csv", newline="") as handle:
                writer = csv.DictWriter(handle, fieldnames=columns)
                writer.writeheader()
                writer.writerows(rows)
        with stage(f"{prefix}_{report_name}.json") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        for temporary, path in staged:
            os.replace(temporary, path)
            placed.append(path)
    except BaseException:
        for path in [temporary for temporary, _ in staged] + placed:
            path.unlink(missing_ok=True)
        raise
    print(f"{prefix}: {done}; files in {out}")


def cmd_run(args) -> int:
    cfg = config_mod.load(args.config, config_mod.COMMANDS[args.command])
    dynamics = cfg["dynamics"]
    seed = _base_seed(dynamics)
    spec, instance_name, notes = _build_instance(cfg, Path(args.config).parent)
    prefix = _prefix(cfg, f"run_{instance_name}")
    outcome, rows, summary = _record_run(spec, None, dynamics["start"], dynamics, prefix, seed, instance_name)
    if notes:
        summary["fixture_notes"] = notes
    _write(Path(args.out), prefix, {"steps": (STEP_COLUMNS, rows)}, "summary", summary,
           f"{outcome.kind} after {len(outcome.trajectory)} steps; welfare={summary.get('welfare')}")
    return 0


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _sweep_cells(cfg: dict) -> list[dict]:
    sweep = cfg["sweep"]
    axis, reps = sweep["axis"], sweep["repetitions"]
    if not sweep["values"]:
        raise MarketGameError("sweep.values must list at least one value")
    base_seed = _base_seed(cfg["dynamics"])
    cells = []
    for vi, value in enumerate(sweep["values"]):
        config_mod.check(value, config_mod.SWEEP_VALUES[axis], f"sweep.values[{vi}]")
        for rep in range(reps):
            cells.append({"axis": axis, "value_index": vi, "value": value,
                          "repetition": rep, "seed": base_seed + 1000 * vi + rep})
    return cells


def _apply_axis(spec: GameSpec, axis: str, value) -> GameSpec:
    if axis == "models":
        return spec.with_models(value)
    if axis == "platforms":
        return spec.with_platforms(value)
    if axis == "tau":
        return spec.with_choice(ChoiceRule.softmax(value))
    population = UserPopulation(spec.population.type_labels, value)
    return GameSpec(spec.scores, population, spec.n_platforms, spec.choice)


def _run_sweep_cell(payload: tuple) -> tuple[list[dict], dict]:
    spec, analysis, instance_name, dynamics, cell = payload
    axis, value, rep = cell["axis"], cell["value"], cell["repetition"]
    run_id = f"{instance_name}_{axis}_{cell['value_index']}_r{rep}"
    value_str = json.dumps(value) if isinstance(value, list) else str(value)
    _, rows, summary = _record_run(spec, analysis, None, dynamics, run_id, cell["seed"], instance_name,
                                   (axis, value_str, rep))
    return rows, {**summary, "sweep_axis": axis, "sweep_value": value, "repetition": rep}


def cmd_sweep(args) -> int:
    cfg = config_mod.load(args.config, config_mod.COMMANDS[args.command])
    cells = _sweep_cells(cfg)
    prefix = _prefix(cfg, "sweep")
    # one instance build per sweep; every value's spec is derived, and so
    # validated, here before any game is solved
    spec, instance_name, _ = _build_instance(cfg, Path(args.config).parent)
    specs = [_apply_axis(spec, cfg["sweep"]["axis"], value) for value in cfg["sweep"]["values"]]
    # a worker per cell and per CPU at most: a fork-based pool starts every
    # worker it may use
    workers = min(args.jobs, len(cells), os.cpu_count() or 1)
    if workers > 1:  # imported only for a pool, so that no other run loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    with pool or contextlib.nullcontext():
        pool_map = pool.map if pool else map
        # every repetition of a value plays the same game, solved once
        analyses = list(pool_map(analyze, specs))
        payloads = [(specs[cell["value_index"]], analyses[cell["value_index"]], instance_name,
                     cfg["dynamics"], cell) for cell in cells]
        results = list(pool_map(_run_sweep_cell, payloads))
    # map keeps cell order, (value_index, repetition), with or without workers
    rows = [row for cell_rows, _ in results for row in cell_rows]
    summaries = [summary for _, summary in results]
    _write(Path(args.out), prefix, {"long": (STEP_COLUMNS, rows)}, "summary", summaries,
           f"{len(cells)} cells, {len(rows)} step rows")
    return 0


# ---------------------------------------------------------------------------
# entry training
# ---------------------------------------------------------------------------

def _entry_market_section(report: entry_mod.EntrantReport) -> dict:
    record = report.metrics
    anchor = record.scores.get(record.anchor)
    return {
        "adopted": report.adopted,
        "entrant_scores": list(report.entrant_score_row),
        **_analysis_fields(report.spec, record.analysis),
        "outcome_kind": report.outcome.kind,
        "welfare": None if record.welfare is None else record.welfare.value,
        "hhi": None if anchor is None else anchor.hhi,
        "support": None if anchor is None else anchor.support,
    }


def _trace_csv(trace: list[dict], type_labels: Sequence[str]) -> tuple[list[str], list[dict]]:
    """Columns and rows of a training trace: each row's scalar entries in its
    dict order, ints as they are and floats through ``_fmt``, then one
    ``score_<type>`` column per user type."""
    rows = [{**{k: _fmt(v) if isinstance(v, float) else v for k, v in r.items() if k != "scores"},
             **{f"score_{t}": _fmt(s) for t, s in zip(type_labels, r["scores"])}}
            for r in trace]
    return list(rows[0]), rows


def cmd_entry(args) -> int:
    cfg = config_mod.load(args.config, config_mod.COMMANDS[args.command])
    spec, instance_name, _ = _build_instance(cfg, Path(args.config).parent)
    prefix = _prefix(cfg, f"entry_{instance_name}")
    block = cfg["training"]
    ds = block["dataset"]
    dataset = entry_mod.EntryDataset(block["outcomes"], ds["counts"], attributes=ds["attributes"],
                                     attribute_labels=ds["attribute_labels"],
                                     type_attribute_prefs=ds["type_preferences"])
    rewards = entry_mod.RewardTable(block["rewards"])
    config = entry_mod.TrainingConfig(**{config_mod.RENAMED.get(k, k): v
                                         for k, v in block["params"].items()})
    if spec.population.n_types != rewards.n_types:
        raise MarketGameError("training rewards and instance population disagree on user types")
    base_spec = spec.with_platforms(block["n_platforms"])
    report_json: dict[str, Any] = {
        "instance": instance_name,
        "n_platforms": base_spec.n_platforms,
        "config": {name: getattr(config, name) for name in config.__match_args__},
        "pre_entry": _analysis_fields(base_spec, analyze(base_spec)),
    }
    # every method trains and is evaluated before any file is written
    traces = {}
    methods = ["resampling", "direct"] if block["method"] == "both" else [block["method"]]
    for method in methods:
        if method == "resampling":
            gen, traces[method] = entry_mod.train_resampling(dataset, rewards, base_spec, config)
        else:
            gen, traces[method] = entry_mod.train_direct_gradient(
                dataset, rewards, base_spec, config, estimator=block["estimator"])
        report_json[method] = _entry_market_section(
            entry_mod.evaluate_entrant(gen, rewards, base_spec, entrant_label=f"entrant_{method}"))
    tables = {f"trace_{method}": _trace_csv(trace, base_spec.population.type_labels)
              for method, trace in traces.items()}
    _write(Path(args.out), prefix, tables, "report", report_json, f"trained {', '.join(traces)}")
    return 0


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def cmd_verify_fixtures(args) -> int:
    failures = 0
    for name in fixture_names():
        checks = verify_fixture(name)
        bad = [c for c in checks if not c.passed]
        status = "ok" if not bad else "MISMATCH"
        print(f"{name}: {status} ({len(checks) - len(bad)}/{len(checks)} checks)")
        for c in bad:
            tol = f" tol={c.tol}" if c.tol is not None else ""
            print(f"  {c.name}: expected {c.expected!r}, actual {c.actual!r}{tol}")
        failures += len(bad)
    print(f"verify-fixtures: {'PASS' if failures == 0 else f'{failures} mismatches'}")
    return 0 if failures == 0 else 1


def cmd_list_fixtures(args) -> int:
    for name in fixture_names():
        fixture = builtin_instance(name)
        spec = fixture.spec
        print(f"{name}: M={spec.n_models} K={spec.population.n_types} N={spec.n_platforms} "
              f"choice={spec.choice.kind} -- {fixture.description}")
        if fixture.notes:
            print(f"    note: {fixture.notes}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache  # parsing leaves the parser as it was; build it once per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modelmarket",
        description="Deterministic simulator for model-platform-user market games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, about in (
            ("run", cmd_run, "run dynamics and metrics on one instance"),
            ("sweep", cmd_sweep, "sweep pool size, platform count, population, or softmax tau"),
            ("entry", cmd_entry, "train an entrant and compare the market before/after")):
        p = sub.add_parser(name, help=about)
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        if name != "run":
            p.add_argument("--jobs", type=int, default=1,
                           help="parallel sweep workers (only sweep uses it; entry ignores it)")
        p.set_defaults(func=func)

    for name, func, about in (
            ("verify-fixtures", cmd_verify_fixtures, "re-derive every built-in expectation record"),
            ("list-fixtures", cmd_list_fixtures, "list the built-in instances")):
        sub.add_parser(name, help=about).set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise MarketGameError(f"--jobs must be at least 1 (got {args.jobs})")
        for flag in ("config", "out"):
            _no_nul(getattr(args, flag, None), f"--{flag}")
        status = args.func(args)
        # a closed pipe shows up at the latest here, not at interpreter exit
        sys.stdout.flush()
        return status
    except MarketGameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # an OSError, so caught ahead of the clause below
        # the reader stopped reading (`modelmarket list-fixtures | head -1`):
        # point stdout at /dev/null so the exit-time flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except OSError as exc:  # a path refused: a directory as config, a file as output directory
        # a failed os.replace names its source and then its target, the path refused
        path = exc.filename2 or exc.filename
        print(f"error: {path}: {exc.strerror}" if path else f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
