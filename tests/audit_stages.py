"""Seconds and peak memory per stage of perfbench's audit-cyclic5 workload.

    python tests/audit_stages.py [N]

Homogenized cyclic-5 goes through the workload's path one stage at a time,
in N passes (default 3): the engine, the JSON Lines write
(``Trace.to_jsonl``) and read (``events_from_jsonl``) through a file, the
log's one walk (``build_registry``: the registry and the replay), each other
checker in ``run_all_checkers``' order, the Buchberger reference and
``ideal_equal``.  Each stage's result is kept to
the end of its pass, as the workload keeps them.  For each stage the best
of the N passes is printed; then the seconds the garbage collector ran
inside the stage, per pass on average (timed through ``gc.callbacks``), so
a collection that the allocations of one stage set off in another shows
where it lands; the process's peak resident set (``ru_maxrss``) just
after the stage in the first pass, so the stage at which that figure
rises is the one that sets the peak; and the GC-tracked objects the stage
adds (``len(gc.get_objects())`` after it less before it, each count just
after a ``gc.collect()``), counted in one more pass that is not timed, so
the collections and the lists of the count touch neither the seconds nor
the peak.  The same untimed pass, under ``tracemalloc``, gives the MiB of
Python allocations each stage retains (traced memory after it less before
it, each just after the collection): the engine's result with its log, the
read-back log, the registry.  The input comes
from ``perfbench/workloads.py``, read and not changed.  pytest does not
collect this script; ``test_cli.py::TestStageScripts`` runs one timed pass.
"""

from __future__ import annotations

import gc
import os
import resource
import sys
import tempfile
import time
import tracemalloc
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from f5gb import cli, engine, oracle, trace  # noqa: E402
from perfbench import workloads as w  # noqa: E402


def one_pass(problem, path: str, timed) -> list:
    """The workload's path on ``problem``, each stage through ``timed``; the
    stages' results, kept until the pass ends."""
    ring = problem.ring
    result = timed("engine", engine.incremental_f5, problem.polynomials, engine.EngineConfig())
    log = trace.Trace()
    log.events = result.events
    with open(path, "w", encoding="utf-8") as fp:
        timed("to_jsonl", log.to_jsonl, fp)
    with open(path, "r", encoding="utf-8") as fp:
        events = timed("events_from_jsonl", trace.events_from_jsonl, fp)
    registry = timed("log walk", trace.build_registry, events, ring)
    kept = [
        result, events, registry,
        timed("d_progression", trace.check_d_progression, registry),
        timed("signature_safety", trace.check_signature_safety, registry),
        timed("rule_degrees", trace.check_rule_degrees, registry),
        timed("genealogy", trace.check_genealogy, registry),
        timed("chains", trace.check_chains, registry),
        timed("done_insertion_audit", trace.done_insertion_audit, registry),
        timed("thm5_exhaustive", trace.check_thm5_exhaustive, registry),
    ]
    f5_basis = result.basis_polynomials()
    reference = timed("buchberger", oracle.buchberger, problem.polynomials)
    return kept + [reference, timed("ideal_equal", oracle.ideal_equal, f5_basis, reference)]


def main() -> None:
    passes = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    [(name, text)] = w.WORKLOADS["audit-cyclic5"].inputs(0)
    problem = cli.parse_problem(text)
    best: dict = defaultdict(lambda: float("inf"))
    gc_s: dict = defaultdict(float)  # stage -> collector seconds inside it, all passes
    peak_after: dict = {}  # stage -> ru_maxrss in MiB just after it, first pass
    stages: list = []
    collecting = [0.0, 0.0]  # the collector's seconds so far, the start of its run

    def on_gc(phase: str, info: dict) -> None:
        if phase == "start":
            collecting[1] = time.perf_counter()
        else:
            collecting[0] += time.perf_counter() - collecting[1]

    def timed(stage: str, fn, *args):
        g0, t0 = collecting[0], time.perf_counter()
        out = fn(*args)
        best[stage] = min(best[stage], time.perf_counter() - t0)
        gc_s[stage] += collecting[0] - g0
        if stage not in peak_after:
            stages.append(stage)
            # Linux reports ru_maxrss in KiB
            peak_after[stage] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return out

    start_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    gc.callbacks.append(on_gc)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.jsonl")
            for _ in range(passes):
                g0, t0 = collecting[0], time.perf_counter()
                one_pass(problem, path, timed)
                best["pass"] = min(best["pass"], time.perf_counter() - t0)
                gc_s["pass"] += collecting[0] - g0
            added: dict = {}  # stage -> GC-tracked objects it adds
            kept: dict = {}  # stage -> MiB of allocations it retains

            def counted(stage: str, fn, *args):
                gc.collect()
                before, traced = len(gc.get_objects()), tracemalloc.get_traced_memory()[0]
                out = fn(*args)
                gc.collect()
                added[stage] = len(gc.get_objects()) - before
                kept[stage] = (tracemalloc.get_traced_memory()[0] - traced) / 2**20
                return out

            tracemalloc.start()
            one_pass(problem, path, counted)
    finally:
        tracemalloc.stop()
        gc.callbacks.remove(on_gc)
    print(f"audit-cyclic5 ({name}): best of {passes} passes; collector seconds per"
          f" pass; peak RSS after the first pass's stage, from {start_rss:.1f} MiB at"
          " the start; GC-tracked objects the stage adds and MiB it retains, in an"
          " untimed pass")
    for stage in stages:
        print(f"  {stage:<22} {best[stage]:7.3f} s  gc {gc_s[stage] / passes:6.3f} s"
              f"  {peak_after[stage]:7.1f} MiB  {added[stage]:+8d} objects"
              f"  {kept[stage]:+7.2f} MiB kept")
    print(f"  {'whole pass':<22} {best['pass']:7.3f} s  gc {gc_s['pass'] / passes:6.3f} s")


if __name__ == "__main__":
    main()
