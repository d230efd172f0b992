"""Record ``golden.json``: for every fixed benchmark system (one whose problem
text no seed changes), the sha256 of its text, of its reduced basis (from
the Buchberger reference) and of the compact JSON Lines event log that its
workload's run emits.

    python3 perfbench/golden.py

Re-record only when the inputs change.  A change that keeps the engine's
behaviour keeps every event log byte-identical, so ``bench.mismatch.trace_log``
stays 0 against the recorded digests.
"""

from __future__ import annotations

import json
import sys

from run import GOLDEN, basis_digest, sha256
from spans import Tracer, events_digest
from workloads import WORKLOADS


def record() -> dict:
    from f5gb import cli, oracle

    golden = {}
    for workload in WORKLOADS.values():
        for name, text in workload.fixed():
            problem = cli.parse_problem(text)
            tracer = Tracer()
            with tracer.installed():
                workload.run(problem)
            (events,) = tracer.event_logs
            entry = {
                "text_sha256": sha256(text),
                "basis_sha256": basis_digest(oracle.buchberger(problem.polynomials)),
                "trace_sha256": events_digest(events),
            }
            if golden.setdefault(name, entry) != entry:
                raise RuntimeError(f"{name}: workloads disagree on the recorded digests")
            print(name, entry["trace_sha256"][:16], file=sys.stderr)
    return golden


if __name__ == "__main__":
    golden = record()
    with open(GOLDEN, "w", encoding="utf-8") as fp:
        json.dump(golden, fp, indent=1, sort_keys=True)
        fp.write("\n")
