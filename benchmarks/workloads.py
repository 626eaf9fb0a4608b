"""Seeded inputs and jobs for the three benchmark workloads.

Every job input comes from a fixed catalogue of job variants, each a pure
function of its variant number.  A run's ``--seed`` picks which variants it
runs and in which order, so any seed reproduces the same inputs, and every
job's output can be compared with a digest recorded for its variant
(``reference.json``, written by ``record_reference.py``).

* ``sweep-pool``: one CLI ``sweep`` over the model-pool axis per job, on a
  synthetic RBF/GMM hardmax instance.
* ``dynamics-large``: one library ``run_dynamics`` per job from a seeded
  start on one fixed hardmax RBF/GMM instance with M=50, N=10, K=100, plus
  the per-step coverage and market shares and the outcome's welfare.
* ``entry-softmax``: one CLI ``entry`` run per job with both training
  methods and the REINFORCE estimator, under a softmax choice override.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

WORKLOADS = ("sweep-pool", "dynamics-large", "entry-softmax")

# Job runs per second: the typical rate at the commit that recorded the
# reference digests, on a shared 2-vCPU x86-64 machine, so that an untraced
# run's passes last about --seconds there.  The job list depends only on
# --seed and --seconds, never on timing.
JOBS_PER_SECOND = {"sweep-pool": 11.0, "dynamics-large": 11.5, "entry-softmax": 8.0}
MIN_JOBS = 12

CATALOGUE_SIZE = {"sweep-pool": 128, "dynamics-large": 512, "entry-softmax": 128}
DYNAMICS_MAX_STEPS = 1000

SWEEP_VALUES = [3, 5, 6]
SWEEP_PLATFORMS = 4
SWEEP_TYPES = 8
SWEEP_SAMPLE_SIZE = 800

DYN_MODELS, DYN_PLATFORMS, DYN_TYPES = 50, 10, 100

ENTRY_MODELS, ENTRY_TYPES, ENTRY_PLATFORMS = 5, 6, 4
ENTRY_OUTCOMES = 40
ENTRY_TAU = 0.05

# Offsets that keep the random streams of different workloads apart.
_STREAM = {"sweep-pool": 1_000_003, "dynamics-large": 2_000_003, "entry-softmax": 3_000_017}


def job_count(workload: str, seconds: float) -> int:
    return max(MIN_JOBS, math.ceil(seconds * JOBS_PER_SECOND[workload]))


def job_variants(workload: str, seed: int, n_jobs: int) -> list[int]:
    """The variants a run with this seed uses, in order: a seeded permutation
    of the catalogue, repeated when the run holds more jobs than it."""
    order = list(range(CATALOGUE_SIZE[workload]))
    random.Random(f"{workload}/{seed}").shuffle(order)
    return [order[i % len(order)] for i in range(n_jobs)]


def _rng(workload: str, *parts: int) -> random.Random:
    return random.Random("/".join(str(p) for p in (_STREAM[workload],) + parts))


# ---------------------------------------------------------------------------
# generated inputs
# ---------------------------------------------------------------------------

def synthetic_block(rng: random.Random, n_models: int, k_types: int, n_platforms: int,
                    sample_size: int) -> dict:
    """An RBF/GMM ``synthetic`` instance block over the unit square."""
    models = [
        {"bias": rng.uniform(0.05, 0.3),
         "kernels": [{"center": [rng.random(), rng.random()],
                      "amplitude": rng.uniform(0.3, 0.7),
                      "width": rng.uniform(0.1, 0.35)} for _ in range(2)]}
        for _ in range(n_models)
    ]
    raw = [rng.uniform(0.5, 1.5) for _ in range(3)]
    weights = [w / sum(raw) for w in raw]
    components = []
    for w in weights:
        var = [rng.uniform(0.01, 0.04), rng.uniform(0.01, 0.04)]
        components.append({"weight": w, "mean": [rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8)],
                           "covariance": [[var[0], 0.0], [0.0, var[1]]]})
    return {"models": models,
            "gmm": {"components": components, "k_types": k_types, "dx": 0.0,
                    "seed": rng.randrange(2**31), "sample_size": sample_size},
            "n_platforms": n_platforms}


def sweep_config(variant: int) -> dict:
    rng = _rng("sweep-pool", variant)
    block = synthetic_block(rng, max(SWEEP_VALUES), SWEEP_TYPES, SWEEP_PLATFORMS, SWEEP_SAMPLE_SIZE)
    return {
        "instance": {"synthetic": block},
        "dynamics": {"max_steps": 500, "seed": rng.randrange(10**6)},
        "sweep": {"axis": "models", "values": SWEEP_VALUES, "repetitions": 1},
        "output": {"prefix": "pool"},
    }


def entry_config(variant: int) -> tuple[dict, dict]:
    """The entry config and its incumbents instance file."""
    rng = _rng("entry-softmax", variant)
    scores = [[rng.uniform(0.1, 0.9) for _ in range(ENTRY_TYPES)] for _ in range(ENTRY_MODELS)]
    raw = [rng.uniform(0.5, 1.5) for _ in range(ENTRY_TYPES)]
    incumbents = {
        "scores": scores,
        "weights": [w / sum(raw) for w in raw],
        "n_platforms": ENTRY_PLATFORMS,
    }
    outcomes = [f"x{i + 1}" for i in range(ENTRY_OUTCOMES)]
    rewards = [[rng.random() for _ in outcomes] for _ in range(ENTRY_TYPES)]
    counts = [rng.randrange(50, 1000) for _ in outcomes]
    return {
        "instance": {"file": f"incumbents_{variant}.json"},
        "choice": {"kind": "softmax", "tau": ENTRY_TAU},
        "training": {
            "method": "both",
            "estimator": "reinforce",
            "outcomes": outcomes,
            "rewards": rewards,
            "dataset": {"counts": counts},
            "params": {"beta": 4.0, "gamma": 1.0, "lambda": 1.0, "outer_rounds": 5,
                       "inner_epochs": 40, "eval_budget": 500, "learning_rate": 0.2,
                       "baseline_decay": 0.9, "seed": rng.randrange(10**6)},
            "n_platforms": ENTRY_PLATFORMS,
        },
        "output": {"prefix": "entry"},
    }, incumbents


def write_cli_inputs(workload: str, variants: list[int], directory: Path) -> dict[int, Path]:
    """Write one config per distinct variant; returns variant -> config path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for v in dict.fromkeys(variants):
        path = directory / f"config_{v}.json"
        if workload == "sweep-pool":
            cfg = sweep_config(v)
        else:
            cfg, incumbents = entry_config(v)
            (directory / cfg["instance"]["file"]).write_text(json.dumps(incumbents))
        path.write_text(json.dumps(cfg))
        paths[v] = path
    return paths


def dynamics_instance(mm):
    """The hardmax RBF/GMM ``GameSpec`` of the dynamics-large workload.

    ``mm`` is the imported ``modelmarket`` package; the instance is built
    through its public synthetic-instance API.  The instance is the same for
    every seed: from every start tried, its dynamics reach an equilibrium in
    18-28 steps, while instances drawn from other streams cycle for 110-190
    steps, so letting the seed pick the instance would make a run's cost
    depend mostly on that one pick.
    """
    block = synthetic_block(_rng("dynamics-large", 0), DYN_MODELS, DYN_TYPES,
                            DYN_PLATFORMS, 10_000)
    models = [mm.RbfModelSpec(m["bias"], [mm.RbfKernel(tuple(k["center"]), k["amplitude"], k["width"])
                                          for k in m["kernels"]])
              for m in block["models"]]
    g = block["gmm"]
    gmm = mm.GmmPopulationSpec(
        [mm.GmmComponent(c["weight"], c["mean"], c["covariance"]) for c in g["components"]],
        k_types=g["k_types"], dx=g["dx"], seed=g["seed"], sample_size=g["sample_size"])
    population, anchors = mm.gmm_population(gmm)
    return mm.GameSpec(mm.rbf_scores(models, anchors), population, block["n_platforms"])


def dynamics_start(variant: int) -> tuple[int, ...]:
    rng = _rng("dynamics-large", 0, variant)
    return tuple(rng.randrange(DYN_MODELS) for _ in range(DYN_PLATFORMS))


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------

def short_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def files_digest(directory: Path) -> tuple[str, int]:
    """Digest over the names and sha256 of every file in a job's output
    directory, and their total size in bytes."""
    lines, size = [], 0
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        size += len(data)
        lines.append(f"{path.name} {hashlib.sha256(data).hexdigest()}\n")
    return short_digest("".join(lines).encode()), size


def dynamics_digest(outcome, per_step, figures) -> str:
    """Digest of a trajectory, its per-step coverage and shares, and its
    welfare; floats enter with ``repr``, so every bit counts."""
    parts = [outcome.kind, repr(outcome.start), repr(outcome.cycle_profiles),
             repr(outcome.equilibrium_profile)]
    for step, (coverage, shares) in zip(outcome.trajectory, per_step):
        parts.append(repr((step.mover, step.chosen, step.changed, step.profile_after,
                           step.utilities, coverage, shares.shares, shares.hhi, shares.support)))
    if figures is not None:
        parts.append(repr((figures.value, figures.state_average, figures.multiset_average,
                           figures.kind)))
    return short_digest("\n".join(parts).encode())
