"""Benchmark of modelmarket: seeded workloads, end-to-end metrics, traced layers.

Run from the repository root:

    python3 benchmarks/run.py --workload sweep-pool --seed 1 --seconds 25 --trace 0

Workloads: ``sweep-pool``, ``dynamics-large`` and ``entry-softmax`` (see
``workloads.py`` and ``README.md``).  A run uses no worker pool.  It imports
``modelmarket`` from ``src/`` next to this directory, builds the workload's
inputs from ``--seed``, and checks the program against the built-in fixtures
and the shipped configs.  Then a child process forked at that point runs the
jobs one after another, while the parent waits, and compares every job's
output with the digest recorded for it.

``--seconds`` sizes one job list so that four passes over it take about
that long at the reference commit.  ``--trace 0`` runs the list four times
and reports the end-to-end metrics, with each job timed at its median over
the passes.  ``--trace 1`` runs the list once untraced and once traced, and
reports per-layer calls, self times and derived counts plus the tracing
overhead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; files a run leaves
behind go to ``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import os

# One BLAS thread: the jobs run one after another in one process, and on a
# small shared machine a second BLAS thread mostly measures the neighbours.
# Set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy

import workloads as W
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
PASSES = 4
TAIL_BEYOND = 10

# Untimed correctness gate: the shipped configs, each compared with the
# digest of its outputs recorded in reference.json.
GATE = {
    "run": ["run", "--config", "configs/run_reference_cycle.json"],
    "sweep": ["sweep", "--config", "configs/sweep_pool_growth.json", "--jobs", "1"],
    "entry": ["entry", "--config", "configs/entry_underserved_type.json"],
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of an untraced run at the reference commit; "
                             "sets the number of jobs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(seed: int) -> dict:
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "seed": seed,
        "loadavg": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# set-up and jobs
# ---------------------------------------------------------------------------

def set_up(workload: str, variants: list[int], directory: Path):
    """Import modelmarket afresh and build the job list; returns (package, jobs).

    Each job is a callable of its output directory.
    """
    for name in [n for n in sys.modules if n == "modelmarket" or n.startswith("modelmarket.")]:
        del sys.modules[name]
    mm = importlib.import_module("modelmarket")
    importlib.import_module("modelmarket.cli")
    if workload == "dynamics-large":
        spec = W.dynamics_instance(mm)
        return mm, [_dynamics_job(mm, spec, W.dynamics_start(v)) for v in variants]
    command = "sweep" if workload == "sweep-pool" else "entry"
    paths = W.write_cli_inputs(workload, variants, directory)
    return mm, [_cli_job(mm, [command, "--config", str(paths[v]), "--jobs", "1"]) for v in variants]


def _cli_job(mm, argv):
    def job(out: Path):
        return mm.cli.main(argv + ["--out", str(out)])
    return job


def _dynamics_job(mm, spec, start):
    def job(out: Path):
        outcome = mm.equilibrium.run_dynamics(spec, start, max_steps=W.DYNAMICS_MAX_STEPS)
        per_step = [(mm.metrics.coverage_value(spec, s.profile_after),
                     mm.metrics.market_shares(spec, s.profile_after))
                    for s in outcome.trajectory]
        figures = None if outcome.kind == "timeout" else mm.metrics.welfare_figures(spec, outcome)
        return spec, outcome, per_step, figures
    return job


def timed_pass(jobs, out: Path, tracer=None):
    """Run every job once, in order; returns (wall seconds, job seconds, results)."""
    times, results = [], []
    with contextlib.redirect_stdout(io.StringIO()):
        begin = perf_counter()
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job_id = i
            t0 = perf_counter()
            try:
                results.append(job(out / f"job{i}"))
            except Exception as exc:  # a job that raises counts as failed
                results.append(exc)
            times.append(perf_counter() - t0)
        wall = perf_counter() - begin
    return wall, times, results


def job_digest(mm, result, out: Path, verified: dict | None) -> tuple[str | None, int]:
    """Digest of one job's output and the bytes it wrote; the digest is None
    when the job raised, returned non-zero, or reached an equilibrium that
    fails ``verify_pne``.  ``verified`` caches the check per equilibrium
    profile; with None the check is skipped."""
    if isinstance(result, tuple):
        spec, outcome, per_step, figures = result
        if verified is not None and outcome.kind == "equilibrium":
            profile = outcome.equilibrium_profile
            if profile not in verified:
                verified[profile] = mm.equilibrium.verify_pne(spec, profile).is_pne
            if not verified[profile]:
                return None, 0
        return W.dynamics_digest(outcome, per_step, figures), 0
    if result == 0:
        return W.files_digest(out)
    return None, 0


def check_pass(mm, results, variants, reference: dict, out: Path, verify: bool):
    """Compare every job's output digest with the reference; returns
    (digests, failed job count, bytes written by CLI jobs)."""
    digests, failed, size = [], 0, 0
    verified = {} if verify else None
    for i, (result, v) in enumerate(zip(results, variants)):
        digest, nbytes = job_digest(mm, result, out / f"job{i}", verified)
        digests.append(digest)
        size += nbytes
        failed += digest is None or digest != reference[str(v)]
    shutil.rmtree(out, ignore_errors=True)
    return digests, failed, size


def run_gate(mm, out: Path) -> tuple[bool, dict[str, str | None]]:
    """Run verify-fixtures and the shipped configs, untimed; returns whether
    verify-fixtures passed and the output digest of each config (None when
    the command failed)."""
    digests = {}
    with contextlib.redirect_stdout(io.StringIO()):
        fixtures_ok = mm.cli.main(["verify-fixtures"]) == 0
        for name, argv in GATE.items():
            argv = [argv[0], "--config", str(ROOT / argv[2]), *argv[3:], "--out", str(out / name)]
            digests[name] = W.files_digest(out / name)[0] if mm.cli.main(argv) == 0 else None
    shutil.rmtree(out, ignore_errors=True)
    return fixtures_ok, digests


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def tail(times: list[float]) -> tuple[float, int, float]:
    """The highest percentile with at least TAIL_BEYOND jobs beyond it:
    (value, 1-based rank, percentile)."""
    ordered = sorted(times)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], rank, 100.0 * rank / len(ordered)


def _print_layers(layers: dict, traced_wall: float) -> None:
    print(f"{'layer function':<40} {'calls':>10} {'self_s':>10} {'share':>7}")
    rows = sorted({k.rsplit(".", 1)[0] for k in layers if k.endswith(".self_s")},
                  key=lambda f: -layers[f + ".self_s"][0])
    for f in rows:
        self_s = layers[f + ".self_s"][0]
        print(f"{f:<40} {layers[f + '.calls'][0]:>10} {self_s:>10.4f} "
              f"{100 * self_s / traced_wall:>6.1f}%")
    for key, (value, unit) in layers.items():
        if not key.endswith((".calls", ".self_s")):
            print(f"{key:<51} {value:>10.6g} {unit}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "modelmarket" / "__init__.py").is_file():
        print(f"error: no modelmarket package under {SRC}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    reference = json.loads((HERE / "reference.json").read_text())
    sys.path.insert(0, str(SRC))
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)

    n_jobs = W.job_count(args.workload, args.seconds / PASSES)
    variants = W.job_variants(args.workload, args.seed, n_jobs)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        mm, jobs = set_up(args.workload, variants, run_dir / "inputs")
        setup_times.append(perf_counter() - t0)
    fixtures_ok, gate = run_gate(mm, run_dir / "gate")
    problems = [] if fixtures_ok else ["verify-fixtures"]
    problems += [name for name, digest in gate.items() if digest != reference["gate"][name]]
    print(f"env: {json.dumps(env)}")
    print(f"gate: {'ok' if not problems else 'FAILED ' + ', '.join(problems)}")
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "env": env, "gate_problems": problems, "setup_times": setup_times}
    return in_child(lambda: measure(args, mm, jobs, variants, reference[args.workload],
                                    run_dir, record))


def in_child(body) -> int:
    """Run ``body()`` in a forked child and return its exit code.

    The passes run in a child forked after set-up and the gate, so that
    ``peak_rss_mb`` is the peak of the passes alone: a child's ``ru_maxrss``
    starts from its resident size at the fork, not from the parent's peak.
    The process runs no other thread (numpy has one BLAS thread), so the
    fork is safe.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid:
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    try:
        code = body()
    except Exception:
        traceback.print_exc()
        code = 1
    with contextlib.suppress(OSError):
        sys.stdout.flush()
        sys.stderr.flush()
    os._exit(code)


def measure(args, mm, jobs, variants, expected: dict, run_dir: Path, record: dict) -> int:
    """Run the passes, check their outputs, and print and record the metrics."""
    n_jobs = len(jobs)
    problems = record["gate_problems"]
    # Untimed passes of a traced run: one; the second pass is traced.
    walls, job_times, pass_digests, failed = [], [], [], 0
    for p in range(1 if args.trace else PASSES):
        wall, times, results = timed_pass(jobs, run_dir / "jobs")
        digests, pass_failed, out_bytes = check_pass(mm, results, variants, expected,
                                                     run_dir / "jobs", verify=p == 0)
        del results
        walls.append(wall)
        job_times.append(times)
        pass_digests.append(digests)
        failed += pass_failed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record.update(pass_walls=walls, job_times=job_times, digests=pass_digests[0])
    if args.trace:
        tracer = Tracer()
        tracer.install()
        traced_wall, _, traced = timed_pass(jobs, run_dir / "jobs", tracer)
        traced_digests, traced_failed, _ = check_pass(mm, traced, variants, expected,
                                                      run_dir / "jobs", verify=False)
        del traced
        record["traced_digests"] = traced_digests
        pass_digests.append(traced_digests)
        failed += traced_failed
        layers = tracer.layer_metrics(n_jobs, out_bytes)
        layers["trace.overhead_s"] = (traced_wall - walls[0], "s")
        tracer.save(run_dir / "spans.npz")
        print(f"{args.workload}: {n_jobs} jobs traced in {traced_wall:.3f} s "
              f"(untraced {walls[0]:.3f} s)")
        _print_layers(layers, traced_wall)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        # On a shared machine the speed swings over seconds to minutes, and
        # a burst can slow a whole pass; each job counts at its median time
        # over the passes, which damps both.
        per_job = [statistics.median(ts) for ts in zip(*job_times)]
        tail_s, rank, pct = tail(per_job)
        metrics = {
            "setup_s": {"value": statistics.median(record["setup_times"]), "unit": "s"},
            "wall_s": {"value": sum(per_job), "unit": "s"},
            "job_s_p50": {"value": statistics.median(per_job), "unit": "s"},
            "job_s_tail": {"value": tail_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print(f"{args.workload}: {n_jobs} jobs x {PASSES} passes, seed {args.seed}")
        for name, m in metrics.items():
            print(f"  {name:<12} {m['value']:>12.6g} {m['unit']}")
        print(f"  {'':<12} job_s_tail is p{pct:.0f}: rank {rank} of {n_jobs} jobs")
    if any(d != pass_digests[0] for d in pass_digests):
        problems.append("passes gave different outputs")
    attempted = n_jobs * len(pass_digests)
    print(f"  {'failed_ratio':<12} {failed / attempted:>12.6g} ({failed} of {attempted} jobs)")
    record.update(metrics=metrics, attempted=attempted, failed=failed)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "result.json").write_text(json.dumps(record, indent=1))
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
