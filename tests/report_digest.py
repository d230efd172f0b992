"""One sha256 per group of ``f5gb check`` reports, for telling whether a
change keeps every report as it was.

    python tests/report_digest.py

Each system of a group goes through ``cli.run_check`` with the descent
settings of perfbench's check-small workload (25 samples, seed 0), and its
report is hashed as sorted compact JSON without ``elapsed_s``, the one field
that changes from run to run; a budget exit is hashed as its message.  The
groups are check-small seeds 0 and 1 (the suite and 600 small random systems
each, at its ``max_degree`` 12) and homogenized cyclic-5 and katsura-5 (at
the default budgets, as cyclic-5 steps past degree 12).
The inputs come from ``perfbench/workloads.py``, read and not changed.
Running the script on two versions of the program and comparing its lines
tells whether they give the same reports.  pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from f5gb import cli, engine  # noqa: E402
from perfbench import workloads as w  # noqa: E402


def digest(texts, config: engine.EngineConfig) -> str:
    h = hashlib.sha256()
    for text in texts:
        problem = cli.parse_problem(text)
        try:
            report = cli.run_check(
                problem, config, w.DESCENT_SAMPLES, w.DESCENT_CAP, w.DESCENT_SEED
            )
            report.pop("elapsed_s")
        except engine.BudgetExceeded as exc:
            report = {"budget_exit": str(exc)}
        h.update(json.dumps(report, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def main() -> None:
    small, large = engine.EngineConfig(max_degree=w.CHECK_MAX_DEGREE), engine.EngineConfig()
    check_small = w.WORKLOADS["check-small"]
    groups = [(f"check-small seed {seed}", [text for _, text in check_small.inputs(seed)], small)
              for seed in (0, 1)]
    groups += [("cyclic5", [w.cyclic_text(5)], large), ("katsura5", [w.katsura_text(5)], large)]
    for name, texts, config in groups:
        print(f"{name} ({len(texts)} systems): {digest(texts, config)}", flush=True)


if __name__ == "__main__":
    main()
