"""Self-checks of the benchmark, for each workload:

1. Two traced runs with one seed report identical call counts and derived
   counts (every per-layer metric except the times).
2. A traced run and an untraced run of the same job list give identical
   output digests, so tracing does not change results.

Run from the repository root (takes a few minutes):

    python3 benchmarks/selfcheck.py
"""

from __future__ import annotations

import json
import subprocess
import sys

import run as R
import workloads as W

SEED = 7
SECONDS = 6


def bench(workload: str, trace: int) -> tuple[dict, dict]:
    """Run the benchmark once; returns (last-line result, result.json record)."""
    proc = subprocess.run(
        [sys.executable, str(R.HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, cwd=R.ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((R.OUT / f"{workload}-seed{SEED}-trace{trace}" / "result.json").read_text())
    return result, record


def counts(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items() if not k.endswith("_s")}


def main() -> int:
    failures = 0
    for workload in W.WORKLOADS:
        first, traced = bench(workload, 1)
        second, _ = bench(workload, 1)
        _, untraced = bench(workload, 0)
        same_counts = counts(first) == counts(second)
        same_digests = traced["traced_digests"] == untraced["digests"]
        print(f"{workload}: counts repeat {'ok' if same_counts else 'DIFFER'}; "
              f"traced digests {'ok' if same_digests else 'DIFFER'} "
              f"({len(untraced['digests'])} jobs)")
        failures += (not same_counts) + (not same_digests)
    print("selfcheck: " + ("PASS" if failures == 0 else f"{failures} failures"))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
