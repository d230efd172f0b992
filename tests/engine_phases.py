"""Seconds per engine phase, and the φ pass counts, on the solve-large systems.

    python tests/engine_phases.py [N]

Each of perfbench's solve-large systems (homogenized cyclic-5 and
katsura-5, and the dense 6x6 quadric system of seed 0) runs through
``engine.incremental_f5`` once to count φ passes, then N times (default 15)
in turns with the others.  ``Engine._pairs``, ``_spol``, ``_phi_reduce``
and ``_top_reduction`` are wrapped from outside with a timer, none of them
calls another, and for each the best of the N runs' totals is printed,
beside the best whole run.  Every ``_phi_reduce`` call is one φ pass, a
pass with no step logs no ``PhiPreReduce`` event, and a pass's terms are
those of the polynomial passed in.  The counts depend on the engine's
decisions alone, so two versions that log the same events print the same
counts.  The inputs come from ``perfbench/workloads.py``, read and not
changed.  pytest does not collect this script.
"""

from __future__ import annotations

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from f5gb import cli, engine  # noqa: E402
from perfbench import workloads as w  # noqa: E402

PHASES = ("_pairs", "_spol", "_phi_reduce", "_top_reduction")


def timed(name: str, seconds: dict):
    method = getattr(engine.Engine, name)

    def wrapper(self, *args):
        t0 = time.perf_counter()
        try:
            return method(self, *args)
        finally:
            seconds[name] += time.perf_counter() - t0

    return wrapper


def counted(method, passes: list):
    def wrapper(self, h, i):
        terms, before = len(h.poly.terms), self.trace.counts["PhiPreReduce"]
        method(self, h, i)
        passes.append((terms, self.trace.counts["PhiPreReduce"] == before))

    return wrapper


def run(problem, seconds: dict) -> None:
    """One engine run of ``problem`` with every phase timed into
    ``seconds``, and the whole run as ``engine``."""
    saved = {name: getattr(engine.Engine, name) for name in PHASES}
    try:
        for name in PHASES:
            setattr(engine.Engine, name, timed(name, seconds))
        t0 = time.perf_counter()
        engine.incremental_f5(problem.polynomials, engine.EngineConfig())
        seconds["engine"] = time.perf_counter() - t0
    finally:
        for name, method in saved.items():
            setattr(engine.Engine, name, method)


def main() -> None:
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 15
    systems = [(name, cli.parse_problem(text))
               for name, text in w.WORKLOADS["solve-large"].inputs(0)]
    passes: dict = {}
    phi_reduce = engine.Engine._phi_reduce
    try:
        for name, problem in systems:
            passes[name] = []
            engine.Engine._phi_reduce = counted(phi_reduce, passes[name])
            engine.incremental_f5(problem.polynomials, engine.EngineConfig())
    finally:
        engine.Engine._phi_reduce = phi_reduce
    # the systems take turns, so a change in machine speed during the
    # script reaches every system alike
    best = {name: dict.fromkeys(("engine",) + PHASES, float("inf")) for name, _ in systems}
    for _ in range(runs):
        for name, problem in systems:
            seconds = dict.fromkeys(PHASES, 0.0)
            run(problem, seconds)
            best[name] = {k: min(v, seconds[k]) for k, v in best[name].items()}
    print(f"best of {runs} runs, seconds; φ passes: all, with no step, and their terms")
    print(f"{'system':16}" + "".join(f"{k:>15}" for k in ("engine",) + PHASES)
          + f"{'passes':>8}{'no step':>8}{'terms':>8}{'no step':>8}")
    totals = [0, 0, 0, 0]
    for name, _ in systems:
        idle = [terms for terms, no_step in passes[name] if no_step]
        counts = [len(passes[name]), len(idle), sum(t for t, _ in passes[name]), sum(idle)]
        totals = [a + b for a, b in zip(totals, counts)]
        print(f"{name:16}" + "".join(f"{best[name][k]:15.4f}" for k in ("engine",) + PHASES)
              + "".join(f"{c:8d}" for c in counts))
    print(f"{'total':16}" + " " * 15 * (1 + len(PHASES)) + "".join(f"{c:8d}" for c in totals))


if __name__ == "__main__":
    main()
