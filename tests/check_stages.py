"""Seconds per stage of ``cli.run_check`` over the check-small systems.

    python tests/check_stages.py [SEED] [N]

Each system of perfbench's check-small workload for SEED (default 0) goes
through ``cli.run_check``, with the workload's descent settings and
``max_degree``, in N passes (default 3); a budget exit counts as its engine
time.  Every function that ``run_check`` calls from the ``cli`` module is
wrapped from outside with a timer, and none of them calls another, so the
stages add up to a pass but for ``run_check``'s own glue.  For each stage,
and for the whole pass, the best of the N passes is printed, which keeps
most of a shared machine's speed changes out.  Module vector replays
(``sig.apply_ops``) run inside the stages that first read a vector, so they
are printed apart, with their count of operations per pass and the count
of operations in the logs of the runs that read a vector.  The inputs
come from ``perfbench/workloads.py``, read and not changed.  pytest does
not collect this script; ``test_cli.py::TestStageScripts`` runs one pass.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from f5gb import cli, engine, sig  # noqa: E402
from perfbench import workloads as w  # noqa: E402

# (stage, names in ``cli`` that run it)
STAGES = (
    ("engine", ("incremental_f5",)),
    ("buchberger", ("buchberger",)),
    ("ideal_equal", ("ideal_equal",)),
    ("log walk", ("build_registry",)),
    ("snapshots", ("done_snapshots",)),
    ("admissible", ("all_admissible",)),
    ("the other checkers", ("run_all_checkers",)),
    ("seed harvest", ("harvest_descent_seeds",)),
    ("descents", ("descend",)),
    ("thm4 scan", ("find_thm4_pairs_in_snapshot", "find_unrejected_reductor")),
)


def timed(fn, key: str, seconds: dict):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds[key] += time.perf_counter() - t0

    return wrapper


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    passes = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    problems = [cli.parse_problem(text) for _, text in w.WORKLOADS["check-small"].inputs(seed)]
    config = engine.EngineConfig(max_degree=w.CHECK_MAX_DEGREE)
    best: dict = defaultdict(lambda: float("inf"))
    seconds: dict = defaultdict(float)
    vector_ops = [0]
    apply_ops = sig.apply_ops

    def counted_ops(ring, m, ops, vectors):
        vector_ops[0] += len(ops)
        return apply_ops(ring, m, ops, vectors)

    # the operations of the runs that read a vector; runs go one at a time,
    # each with one ``ReplayedVectors``, so a new reader is a new run
    read_ops, reader = [0], [None]
    getitem = sig.ReplayedVectors.__getitem__

    def counted_read(vectors, pos):
        if vectors is not reader[0]:
            reader[0] = vectors
            read_ops[0] += len(vectors.ops)
        return getitem(vectors, pos)

    saved = [(cli, name, getattr(cli, name)) for _, names in STAGES for name in names]
    saved += [(sig, "apply_ops", apply_ops), (sig.ReplayedVectors, "__getitem__", getitem)]
    try:
        for stage, names in STAGES:
            for name in names:
                setattr(cli, name, timed(getattr(cli, name), stage, seconds))
        sig.apply_ops = timed(counted_ops, "vectors", seconds)
        sig.ReplayedVectors.__getitem__ = counted_read
        for _ in range(passes):
            seconds.clear()
            vector_ops[0] = read_ops[0] = exits = 0
            t0 = time.perf_counter()
            for problem in problems:
                try:
                    cli.run_check(problem, config, w.DESCENT_SAMPLES, w.DESCENT_CAP,
                                  w.DESCENT_SEED)
                except engine.BudgetExceeded:
                    exits += 1
            seconds["pass"] = time.perf_counter() - t0
            for key in [stage for stage, _ in STAGES] + ["vectors", "pass"]:
                best[key] = min(best[key], seconds[key])
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)
    print(f"check-small seed {seed}: {len(problems)} systems, {exits} budget exits,"
          f" best of {passes} passes")
    for stage, _ in STAGES:
        print(f"  {stage:<26} {best[stage]:7.3f} s")
    print(f"  {'whole pass':<26} {best['pass']:7.3f} s")
    print(f"  vector replays, within the above: {best['vectors']:.3f} s,"
          f" {vector_ops[0]} operations of the {read_ops[0]} in the runs that read one")


if __name__ == "__main__":
    main()
