"""Record ``reference.json``: the output digest of every catalogue variant of
every workload and of each shipped config, as the current sources produce them.

    python3 benchmarks/record_reference.py

Outputs are meant to stay byte-identical, so re-record only when a change is
meant to alter them, and say so where the change is described.  Recording
fails if any job fails or any equilibrium fails ``verify_pne``.
"""

from __future__ import annotations

import json
import sys
from collections import Counter

import run as R
import workloads as W


def main() -> int:
    sys.path.insert(0, str(R.SRC))
    base = R.OUT / "record"
    mm, _ = R.set_up("sweep-pool", [], base)
    fixtures_ok, gate = R.run_gate(mm, base / "gate")
    if not fixtures_ok or None in gate.values():
        print(f"error: gate failed: verify-fixtures ok={fixtures_ok}, {gate}", file=sys.stderr)
        return 1
    reference = {"gate": gate}
    for workload in W.WORKLOADS:
        variants = list(range(W.CATALOGUE_SIZE[workload]))
        mm, jobs = R.set_up(workload, variants, base / workload / "inputs")
        wall, _, results = R.timed_pass(jobs, base / workload / "jobs")
        digests, kinds, verified = {}, Counter(), {}
        for i, (v, result) in enumerate(zip(variants, results)):
            digest, _ = R.job_digest(mm, result, base / workload / "jobs" / f"job{i}", verified)
            if digest is None:
                print(f"error: {workload} variant {v} failed: {result!r}", file=sys.stderr)
                return 1
            digests[str(v)] = digest
            if isinstance(result, tuple):
                kinds[f"{result[1].kind} in {len(result[1].trajectory)} steps"] += 1
        reference[workload] = digests
        print(f"{workload}: {len(variants)} variants in {wall:.1f} s"
              + (f"; {dict(sorted(kinds.items()))}" if kinds else ""))
    (R.HERE / "reference.json").write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
