"""Command-line front end.

Subcommands:

* ``run``             one instance: best-response dynamics plus metrics
* ``sweep``           grid over pool size, platform count, or population
* ``entry``           entry training plus before/after market comparison
* ``verify-fixtures`` re-derive every built-in expectation record
* ``list-fixtures``   show the fixture registry

Configs are single JSON files with ``instance`` / ``choice`` / ``dynamics`` /
``sweep`` / ``training`` / ``output`` blocks (see README for the schema and
annotated examples).  Given the same config and seed, emitted CSV/JSON files
are byte-for-byte identical; there are no timestamps in any output.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .errors import ConfigError, MarketGameError
from .game import ChoiceRule, GameSpec, ScoreMatrix, UserPopulation
from .equilibrium import DynamicsOutcome, enumerate_pne, run_dynamics
from .metrics import MetricsRecord, outcome_metrics, social_optimum
from .fixtures import (
    builtin_instance,
    check_keys,
    choice_from_block,
    config_float,
    config_int,
    config_list,
    fixture_names,
    rbf_gmm_instance,
    require,
    verify_fixture,
)
from . import entry as entry_mod

OUT_DIR_ENV = "MODELMARKET_OUT"

# the PNE list's budget, in profiles, in run and sweep summaries
PNE_BUDGET = 1_000_000

STEP_COLUMNS = [
    "run_id", "seed", "sweep_axis", "sweep_value", "repetition", "step",
    "mover", "changed", "profile", "utilities", "coverage", "hhi", "support",
]


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _load_config(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None


def _load_run_config(path: str) -> dict:
    """A run configuration whose top level and ``output`` block are checked."""
    cfg = _load_config(path)
    check_keys(cfg, ("instance", "choice", "dynamics", "sweep", "training", "output"), "top-level")
    check_keys(cfg.get("output", {}), ("dir", "prefix"), "output")
    return cfg


def _optional_list(block: dict, key: str, where: str) -> list | None:
    """``block[key]``, checked to be a list, or None when it is absent or null."""
    value = block.get(key)
    return None if value is None else config_list(value, f"{where}.{key}")


# ---------------------------------------------------------------------------
# instance construction
# ---------------------------------------------------------------------------

def _spec_from_file_block(block: dict) -> GameSpec:
    check_keys(block, ("scores", "weights", "n_platforms", "model_labels", "type_labels", "choice"),
               "instance file")
    scores = ScoreMatrix(config_list(require(block, "scores", "instance"), "instance.scores"),
                         _optional_list(block, "model_labels", "instance"))
    weights = config_list(require(block, "weights", "instance"), "instance.weights")
    labels = (_optional_list(block, "type_labels", "instance")
              or [f"t{i + 1}" for i in range(len(weights))])
    population = UserPopulation(labels, weights)
    choice = choice_from_block(block.get("choice")) or ChoiceRule.hardmax()
    n_platforms = config_int(require(block, "n_platforms", "instance"), "instance.n_platforms")
    return GameSpec(scores, population, n_platforms, choice)


def _spec_from_synthetic_block(block: dict) -> GameSpec:
    check_keys(block, ("models", "gmm", "n_platforms"), "synthetic")
    population, scores = rbf_gmm_instance(block, "synthetic")
    return GameSpec(scores, population,
                    config_int(require(block, "n_platforms", "synthetic"), "synthetic.n_platforms"))


def _build_instance(cfg: dict, base_dir: str | Path = ".") -> tuple[GameSpec, str, str]:
    """Returns (spec, instance_name, fixture_notes).

    Instance file paths resolve relative to the config file's directory.
    """
    block = require(cfg, "instance", "top-level")
    check_keys(block, ("builtin", "file", "synthetic"), "instance")
    sources = [k for k in ("builtin", "file", "synthetic") if k in block]
    if len(sources) != 1:
        raise ConfigError("instance block needs exactly one of: builtin, file, synthetic")
    if sources[0] == "builtin":
        fixture = builtin_instance(block["builtin"])
        spec, name, notes = fixture.spec, fixture.name, fixture.notes
    elif sources[0] == "file":
        path = Path(base_dir) / block["file"]
        spec, name, notes = _spec_from_file_block(_load_config(str(path))), path.stem, ""
    else:
        spec, name, notes = _spec_from_synthetic_block(block["synthetic"]), "synthetic", ""
    override = choice_from_block(cfg.get("choice"))
    if override is not None:
        spec = spec.with_choice(override)
    return spec, name, notes


# ---------------------------------------------------------------------------
# single runs
# ---------------------------------------------------------------------------

def _draw_start(spec: GameSpec, seed: int) -> tuple[int, ...]:
    rng = np.random.default_rng(seed)
    return tuple(int(x) for x in rng.integers(0, spec.n_models, size=spec.n_platforms))


def _dynamics_params(cfg: dict, seed_override: int | None) -> tuple[Any, Any, int, int]:
    block = cfg.get("dynamics", {})
    check_keys(block, ("start", "order", "max_steps", "seed"), "dynamics")
    max_steps = config_int(block.get("max_steps", 1000), "dynamics.max_steps")
    if max_steps < 1:
        raise ConfigError("dynamics.max_steps must be at least 1")
    order = block.get("order", "round_robin")
    seed = config_int(seed_override if seed_override is not None else block.get("seed", 0),
                      "dynamics.seed")
    return _optional_list(block, "start", "dynamics"), order, max_steps, seed


def _trajectory_rows(spec: GameSpec, outcome: DynamicsOutcome, record: MetricsRecord, run_id: str,
                     seed: int, sweep_axis: str = "", sweep_value: str = "",
                     repetition: int = 0) -> list[dict]:
    # dynamics revisit profiles (every silent turn repeats one), so each
    # distinct profile is formatted once
    cells = {profile: {"profile": "|".join(spec.profile_labels(profile)),
                       "utilities": "|".join(_fmt(u) for u in score.utilities),
                       "coverage": _fmt(score.coverage), "hhi": _fmt(score.hhi),
                       "support": score.support}
             for profile, score in record.scores.items()}
    run = {"run_id": run_id, "seed": seed, "sweep_axis": sweep_axis, "sweep_value": sweep_value,
           "repetition": repetition}
    return [{**run, "step": step.index, "mover": step.mover + 1, "changed": int(step.changed),
             **cells[step.profile_after]} for step in outcome.trajectory]


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
    }
    if record.optimum is None:
        summary.update(social_optimum=None, social_optimum_note=record.optimum_note)
    else:
        summary.update(social_optimum=record.optimum.value,
                       social_optimum_profile=list(spec.profile_labels(record.optimum.profile)))
    try:
        pne = enumerate_pne(spec, budget=PNE_BUDGET)
        summary["pne"] = [list(spec.profile_labels(p)) for p in pne]
        summary["pne_count"] = len(pne)
    except MarketGameError as exc:
        summary["pne"] = None
        summary["pne_note"] = str(exc)
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


def _out_dir(args, cfg: dict) -> Path:
    if args.out:
        base = args.out
    elif cfg.get("output", {}).get("dir"):
        base = cfg["output"]["dir"]
    else:
        base = os.environ.get(OUT_DIR_ENV, "out")
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path: Path, columns: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def _write_json(path: Path, payload) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def cmd_run(args) -> int:
    cfg = _load_run_config(args.config)
    spec, instance_name, notes = _build_instance(cfg, Path(args.config).parent)
    start_cfg, order, max_steps, seed = _dynamics_params(cfg, args.seed)
    start = tuple(start_cfg) if start_cfg is not None else _draw_start(spec, seed)
    outcome = run_dynamics(spec, start, order=order, max_steps=max_steps)
    prefix = cfg.get("output", {}).get("prefix", f"run_{instance_name}")
    out = _out_dir(args, cfg)
    record = outcome_metrics(spec, outcome, [s.profile_after for s in outcome.trajectory])
    rows = _trajectory_rows(spec, outcome, record, prefix, seed)
    summary = _summarize(spec, outcome, record, prefix, seed, instance_name)
    if notes:
        summary["fixture_notes"] = notes
    _write_csv(out / f"{prefix}_steps.csv", STEP_COLUMNS, rows)
    _write_json(out / f"{prefix}_summary.json", summary)
    print(f"{prefix}: {outcome.kind} after {len(outcome.trajectory)} steps; "
          f"welfare={summary.get('welfare')}; files in {out}")
    return 0


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _sweep_cells(cfg: dict, base_seed: int) -> list[dict]:
    sweep = require(cfg, "sweep", "top-level")
    check_keys(sweep, ("axis", "values", "repetitions", "seeds"), "sweep")
    axis = require(sweep, "axis", "sweep")
    if axis not in ("models", "platforms", "population"):
        raise ConfigError(f"unknown sweep axis {axis!r}")
    values = config_list(require(sweep, "values", "sweep"), "sweep.values")
    reps = config_int(sweep.get("repetitions", 1), "sweep.repetitions")
    if reps < 1:
        raise ConfigError("sweep.repetitions must be at least 1")
    seeds = _optional_list(sweep, "seeds", "sweep")
    if seeds is not None and len(seeds) != reps:
        raise ConfigError("sweep.seeds must list one seed per repetition")
    cells = []
    for vi, value in enumerate(values):
        for rep in range(reps):
            seed = (config_int(seeds[rep], "sweep.seeds") if seeds is not None
                    else base_seed + 1000 * vi + rep)
            cells.append({"axis": axis, "value_index": vi, "value": value,
                          "repetition": rep, "seed": seed})
    return cells


def _apply_axis(spec: GameSpec, axis: str, value) -> GameSpec:
    if axis == "models":
        m = config_int(value, "a models sweep value")
        if not 1 <= m <= spec.n_models:
            raise ConfigError(f"model-pool size {m} out of range [1, {spec.n_models}]")
        return spec.with_models(m)
    if axis == "platforms":
        n = config_int(value, "a platforms sweep value")
        if n < 1:
            raise ConfigError("platform count must be at least 1")
        return spec.with_platforms(n)
    if not isinstance(value, list):
        raise ConfigError(f"a population sweep value must be a list of weights (got {value!r})")
    weights = [config_float(x, "a population sweep weight") for x in value]
    population = UserPopulation(spec.population.type_labels, weights)
    return GameSpec(spec.scores, population, spec.n_platforms, spec.choice)


def _run_sweep_cell(payload: tuple[GameSpec, str, Any, int, dict]) -> tuple[list[dict], dict]:
    spec, instance_name, order, max_steps, cell = payload
    start = _draw_start(spec, cell["seed"])
    outcome = run_dynamics(spec, start, order=order, max_steps=max_steps)
    run_id = f"{instance_name}_{cell['axis']}_{cell['value_index']}_r{cell['repetition']}"
    value_str = json.dumps(cell["value"]) if isinstance(cell["value"], list) else str(cell["value"])
    record = outcome_metrics(spec, outcome, [s.profile_after for s in outcome.trajectory])
    rows = _trajectory_rows(spec, outcome, record, run_id, cell["seed"], cell["axis"],
                            value_str, cell["repetition"])
    summary = _summarize(spec, outcome, record, run_id, cell["seed"], instance_name)
    summary["sweep_axis"] = cell["axis"]
    summary["sweep_value"] = cell["value"]
    summary["repetition"] = cell["repetition"]
    return rows, summary


def cmd_sweep(args) -> int:
    cfg = _load_run_config(args.config)
    _, order, max_steps, seed = _dynamics_params(cfg, args.seed)
    cells = _sweep_cells(cfg, seed)
    # one instance build per sweep; every cell's spec is derived, and so
    # validated, here before any cell runs
    spec, instance_name, _ = _build_instance(cfg, Path(args.config).parent)
    payloads = [(_apply_axis(spec, cell["axis"], cell["value"]), instance_name, order,
                 max_steps, cell) for cell in cells]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_run_sweep_cell, payloads))
    else:
        results = [_run_sweep_cell(p) for p in payloads]
    # map keeps cell order, (value_index, repetition), with or without workers
    rows = [row for cell_rows, _ in results for row in cell_rows]
    summaries = [summary for _, summary in results]
    prefix = cfg.get("output", {}).get("prefix", "sweep")
    out = _out_dir(args, cfg)
    _write_csv(out / f"{prefix}_long.csv", STEP_COLUMNS, rows)
    _write_json(out / f"{prefix}_summary.json", summaries)
    print(f"{prefix}: {len(cells)} cells, {len(rows)} step rows; files in {out}")
    return 0


# ---------------------------------------------------------------------------
# entry training
# ---------------------------------------------------------------------------

def _training_payload(cfg: dict) -> dict:
    block = require(cfg, "training", "top-level")
    check_keys(block, ("method", "estimator", "outcomes", "rewards", "dataset", "params",
                       "n_platforms"), "training")
    method = block.get("method", "both")
    if method not in ("resampling", "direct", "both"):
        raise ConfigError(f"unknown training method {method!r}")
    outcomes = config_list(require(block, "outcomes", "training"), "training.outcomes")
    rewards = entry_mod.RewardTable(
        config_list(require(block, "rewards", "training"), "training.rewards"))
    ds = require(block, "dataset", "training")
    check_keys(ds, ("counts", "attributes", "attribute_labels", "type_preferences"),
               "training.dataset")
    dataset = entry_mod.EntryDataset(
        outcomes,
        config_list(require(ds, "counts", "training.dataset"), "training.dataset.counts"),
        attributes=_optional_list(ds, "attributes", "training.dataset"),
        attribute_labels=_optional_list(ds, "attribute_labels", "training.dataset") or (),
        type_attribute_prefs=_optional_list(ds, "type_preferences", "training.dataset"),
    )
    params = block.get("params", {})
    rename = {"lambda": "lam"}
    known = {f.name for f in dataclasses.fields(entry_mod.TrainingConfig)}
    check_keys(params, known | set(rename), "training.params")
    kwargs = {rename.get(k, k): v for k, v in params.items()}
    config = entry_mod.TrainingConfig(**kwargs)
    return {
        "methods": ["resampling", "direct"] if method == "both" else [method],
        "estimator": block.get("estimator", "exact"),
        "rewards": rewards,
        "dataset": dataset,
        "config": config,
        "n_platforms": config_int(block.get("n_platforms", 3), "training.n_platforms"),
    }


def _entry_market_section(report: entry_mod.EntrantReport) -> dict:
    record = report.metrics
    anchor = record.scores.get(record.anchor)
    return {
        "adopted": report.adopted,
        "entrant_scores": list(report.entrant_score_row),
        "pne": [list(report.spec.profile_labels(p)) for p in report.pne],
        "outcome_kind": report.outcome.kind,
        "welfare": None if record.welfare is None else record.welfare.value,
        "social_optimum": None if record.optimum is None else record.optimum.value,
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
    cfg = _load_run_config(args.config)
    spec, instance_name, _ = _build_instance(cfg, Path(args.config).parent)
    payload = _training_payload(cfg)
    if spec.population.n_types != payload["rewards"].n_types:
        raise ConfigError("training rewards and instance population disagree on user types")
    config: entry_mod.TrainingConfig = payload["config"]
    base_spec = spec.with_platforms(payload["n_platforms"])
    report_json: dict[str, Any] = {
        "instance": instance_name,
        "n_platforms": base_spec.n_platforms,
        "config": {k: getattr(config, k) for k in (
            "beta", "gamma", "lam", "outer_rounds", "inner_epochs", "eval_budget",
            "learning_rate", "baseline_decay", "blend", "seed")},
        "pre_entry": {
            "pne": [list(base_spec.profile_labels(p)) for p in enumerate_pne(base_spec)],
            "social_optimum": social_optimum(base_spec).value,
        },
    }
    # every method trains and is evaluated before any file is written, so a
    # failing method leaves no partial output
    traces = {}
    for method in payload["methods"]:
        if method == "resampling":
            gen, traces[method] = entry_mod.train_resampling(
                payload["dataset"], payload["rewards"], base_spec, config)
        else:
            gen, traces[method] = entry_mod.train_direct_gradient(
                payload["dataset"], payload["rewards"], base_spec, config,
                estimator=payload["estimator"])
        report = entry_mod.evaluate_entrant(gen, payload["rewards"], base_spec,
                                            entrant_label=f"entrant_{method}")
        report_json[method] = _entry_market_section(report)
    out = _out_dir(args, cfg)
    prefix = cfg.get("output", {}).get("prefix", f"entry_{instance_name}")
    for method, trace in traces.items():
        _write_csv(out / f"{prefix}_trace_{method}.csv",
                   *_trace_csv(trace, base_spec.population.type_labels))
    _write_json(out / f"{prefix}_report.json", report_json)
    print(f"{prefix}: trained {', '.join(traces)}; files in {out}")
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

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modelmarket",
        description="Deterministic simulator for model-platform-user market games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override the dynamics seed")
        p.add_argument("--out", default=None, help=f"output directory (default: ${OUT_DIR_ENV} or ./out)")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel sweep workers (only sweep uses it; run and entry ignore it)")

    p_run = sub.add_parser("run", help="run dynamics and metrics on one instance")
    add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep pool size, platform count, or population")
    add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_entry = sub.add_parser("entry", help="train an entrant and compare the market before/after")
    add_common(p_entry)
    p_entry.set_defaults(func=cmd_entry)

    p_verify = sub.add_parser("verify-fixtures", help="re-derive every built-in expectation record")
    p_verify.set_defaults(func=cmd_verify_fixtures)

    p_list = sub.add_parser("list-fixtures", help="list the built-in instances")
    p_list.set_defaults(func=cmd_list_fixtures)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ConfigError(f"--jobs must be at least 1 (got {args.jobs})")
        return args.func(args)
    except MarketGameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
