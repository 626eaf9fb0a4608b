"""Spans and counts recorded around the public functions of each layer.

The tracer wraps functions from outside the program: every module of the
``modelmarket`` package that binds a traced function (by definition or by a
``from ... import``) gets the wrapper in its place, so calls made inside the
package are traced too.  Each call records one span (name, start, end, parent
span, job id) in flat arrays kept in memory; ``save`` writes them out.  Self
time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = {
    "game": ("platform_utilities", "allocate", "as_profile", "deviation_advantage",
             "average_scores"),
    "equilibrium": ("run_dynamics", "best_response", "verify_pne", "enumerate_pne"),
    "metrics": ("coverage_value", "market_shares", "social_optimum", "welfare_figures",
                "outcome_metrics"),
    "synthetic": ("gmm_population", "rbf_scores"),
    "entry": ("train_resampling", "train_direct_gradient", "grad_s_reinforce", "grad_f_exact",
              "objective_f", "evaluate_entrant"),
    "cli": ("main",),
}


# Hooks that count work from the arguments and result (or exception) of a call.
def _enumerate_pne(counts, a, result, exc):
    spec = a["spec"]
    if exc is not None:
        counts["pne_refused"] += type(exc).__name__ == "BudgetExceededError"
        return
    counts["profiles"] += spec.n_models ** spec.n_platforms
    counts["pne_found"] += len(result)


def _best_response(counts, a, result, exc):
    if exc is None:
        counts["br_changed"] += result != int(list(a["profile"])[a["platform"]])


def _run_dynamics(counts, a, result, exc):
    if exc is None:
        counts["steps"] += len(result.trajectory)
        counts["cycles"] += result.kind == "cycle"
        counts["timeouts"] += result.kind == "timeout"


def _social_optimum(counts, a, result, exc):
    if exc is None:
        spec = a["spec"]
        counts["multisets"] += math.comb(spec.n_models + spec.n_platforms - 1, spec.n_platforms)


def _gmm_population(counts, a, result, exc):
    if exc is None:
        counts["samples"] += a["spec"].sample_size


def _grad_s_reinforce(counts, a, result, exc):
    if exc is None:
        counts["draws"] += int(a["n_samples"])


HOOKS = {
    "equilibrium.enumerate_pne": _enumerate_pne,
    "equilibrium.best_response": _best_response,
    "equilibrium.run_dynamics": _run_dynamics,
    "metrics.social_optimum": _social_optimum,
    "synthetic.gmm_population": _gmm_population,
    "entry.grad_s_reinforce": _grad_s_reinforce,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.job_id = -1
        self._stack: list[int] = []

    def install(self) -> None:
        """Replace every binding of each traced function in the imported
        modules of ``modelmarket`` with a tracing wrapper."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "modelmarket" or n.startswith("modelmarket."))]
        for layer, functions in LAYERS.items():
            owner = sys.modules[f"modelmarket.{layer}"]
            for fname in functions:
                original = getattr(owner, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        hook = HOOKS.get(qualname)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.job.append(self.job_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(sid, t0)
                if hook is not None:
                    hook(self.counts, signature.bind(*args, **kwargs).arguments, None, exc)
                raise
            self._close(sid, t0)
            if hook is not None:
                hook(self.counts, signature.bind(*args, **kwargs).arguments, result, None)
            return result

        return wrapper

    def _close(self, sid: int, t0: float) -> None:
        self.end[sid] = perf_counter()
        self.start[sid] = t0
        self._stack.pop()

    def layer_metrics(self, job_count: int, output_bytes: int) -> dict[str, tuple[float, str]]:
        """Per-function calls and self time, then the counts derived from
        arguments and results, as name -> (value, unit)."""
        start = np.frombuffer(self.start, dtype=float)
        duration = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent],
                            minlength=len(duration))
        self_time = duration - child
        calls = np.bincount(name, minlength=len(self.names))
        self_s = np.bincount(name, weights=self_time, minlength=len(self.names))
        out: dict[str, tuple[float, str]] = {}
        for i, qualname in enumerate(self.names):
            out[f"{qualname}.calls"] = (int(calls[i]), "count")
            out[f"{qualname}.self_s"] = (float(self_s[i]), "s")
        c = self.counts
        br_calls = out["equilibrium.best_response.calls"][0]
        derived = (
            ("equilibrium.enumerate_pne.profiles", c["profiles"], "count"),
            ("equilibrium.enumerate_pne.refused", c["pne_refused"], "count"),
            ("equilibrium.enumerate_pne.pne_per_profile",
             c["pne_found"] / c["profiles"] if c["profiles"] else 0.0, "ratio"),
            ("equilibrium.best_response.changed_ratio",
             c["br_changed"] / br_calls if br_calls else 0.0, "ratio"),
            ("equilibrium.run_dynamics.steps", c["steps"], "count"),
            ("equilibrium.run_dynamics.cycles", c["cycles"], "count"),
            ("equilibrium.run_dynamics.timeouts", c["timeouts"], "count"),
            ("metrics.social_optimum.multisets", c["multisets"], "count"),
            ("synthetic.gmm_population.samples", c["samples"], "count"),
            ("entry.grad_s_reinforce.draws", c["draws"], "count"),
            ("cli.output_bytes", output_bytes / job_count if job_count else 0.0, "B"),
        )
        for key, value, unit in derived:
            out[key] = (value, unit)
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 job=np.frombuffer(self.job, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float))
