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
A fifth line hashes the stdout of ``f5gb descend --snapshot k`` for every
snapshot k of homogenized cyclic-4 and katsura-3, in that order.
The inputs come from ``perfbench/workloads.py``, read and not changed.
Running the script on two versions of the program and comparing its lines
tells whether they give the same reports.  pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

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


def descend_digest(texts) -> str:
    """One sha256 over the stdout of ``f5gb descend --snapshot k`` for each
    system and each of its snapshots k, one per Done insertion of its run."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for n, text in enumerate(texts):
            path = os.path.join(tmp, f"system{n}.txt")
            with open(path, "w", encoding="utf-8") as fp:
                fp.write(text)
            events = engine.incremental_f5(cli.parse_problem(text).polynomials).events
            for k in range(sum(ev["kind"] == "DoneInserted" for ev in events)):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    cli.main(["descend", path, "--snapshot", str(k)])
                h.update(out.getvalue().encode())
    return h.hexdigest()


def main() -> None:
    small, large = engine.EngineConfig(max_degree=w.CHECK_MAX_DEGREE), engine.EngineConfig()
    check_small = w.WORKLOADS["check-small"]
    groups = [(f"check-small seed {seed}", [text for _, text in check_small.inputs(seed)], small)
              for seed in (0, 1)]
    groups += [("cyclic5", [w.cyclic_text(5)], large), ("katsura5", [w.katsura_text(5)], large)]
    for name, texts, config in groups:
        print(f"{name} ({len(texts)} systems): {digest(texts, config)}", flush=True)
    print(f"descend cyclic4, katsura3: {descend_digest([w.cyclic_text(4), w.katsura_text(3)])}")


if __name__ == "__main__":
    main()
