"""f5gb benchmark: one command, three workloads, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from ``src/``.
Inputs are generated from ``--seed`` as problem text and parsed with
``f5gb.cli.parse_problem``.  A closed loop with one client runs the
workload's systems one after the other, in passes: as many as fill
``--seconds`` at the workload's nominal pass time (at least one), so the
number of passes, and with it ``attempted`` and ``failed``, never depends
on how fast a run happens to go.  Every system's output is checked
outside the timed region: the reduced engine basis must hash to the
digest of the Buchberger reference.  End-to-end times are scaled to a
reference machine speed measured while the passes run (see
``CAL_REFERENCE_S``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one untraced
and one traced pass and prints the per-layer metrics.  Metric names and units
come from ``BENCHMARK.json``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (after the path set-up above)
from spans import CHECKERS, Tracer, events_digest  # noqa: E402

SETUP_PROBES_FIRST = 3
SETUP_PROBES_MIN = 7
# On a shared virtual machine the speed can drift by half within a minute,
# between runs as well as inside one.  While passes run, a SIGALRM handler
# times a fixed loop every CAL_INTERVAL_S.  Each system's time is scaled by
# the mean of CAL_REFERENCE_S / (loop time) over the samples taken within
# CAL_WINDOW_S of its run, i.e. to the speed at which the loop takes
# CAL_REFERENCE_S (about its time on the machine the baseline was recorded
# on).  The handler's own time is subtracted from every timed region.
CAL_INTERVAL_S = 0.25
CAL_WINDOW_S = 1.0
CAL_STEPS = 4000
CAL_REFERENCE_S = 0.0050
GOLDEN = os.path.join(HERE, "golden.json")
VERDICTS = tuple(label for _, label in CHECKERS) + (
    "ideal_equal", "admissible", "descents", "thm4_reductors",
)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def setup(workload, seed):
    """Import the program, then generate and parse the workload's inputs."""
    from f5gb import cli

    return [(name, text, cli.parse_problem(text)) for name, text in workload.inputs(seed)]


def setup_probe(workload, seed) -> float:
    """Seconds from process start to parsed inputs, in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload.name, "--seed", str(seed)]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def calibration_loop() -> float:
    """Seconds for a fixed pure-Python loop that shares no code with f5gb:
    tuple-keyed dict updates, modular arithmetic, small objects made through
    a call, and sorts of a short list, roughly the mix the program runs."""
    t0 = time.perf_counter()
    acc, recent = {}, []
    for i in range(CAL_STEPS):
        key = (i % 61, i % 53)
        acc[key] = (acc.get(key, 0) + i * i) % 32003
        recent.append(_Pair(key[0], (i * 31) % 101))
        if len(recent) > 48:
            recent.sort(key=_Pair.order)
            del recent[:24]
    return time.perf_counter() - t0


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def order(self):
        return (self.b, self.a)


class SpeedSampler:
    """Samples ``calibration_loop`` from a SIGALRM handler while active."""

    def __init__(self):
        self.samples = []  # (when, speed relative to CAL_REFERENCE_S)
        self.stolen = 0.0  # seconds spent in the handler, to subtract

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        dt = calibration_loop()
        self.samples.append((t0 + dt / 2, CAL_REFERENCE_S / dt))
        self.stolen += time.perf_counter() - t0

    @contextlib.contextmanager
    def active(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def speed(self, start=None, end=None) -> float:
        """Mean speed of the samples within CAL_WINDOW_S of [start, end], or
        of all samples when none is that close or no interval is given."""
        near = [v for t, v in self.samples
                if start is not None and start - CAL_WINDOW_S <= t <= end + CAL_WINDOW_S]
        return statistics.fmean(near or [v for _, v in self.samples])


def basis_digest(polys) -> str:
    from f5gb import oracle

    return sha256("\n".join(q.text() for q in oracle.reduced_basis(polys)))


class References:
    """Digest of each system's reduced basis, recorded once: from
    ``golden.json`` when the problem text matches, else from the Buchberger
    reference computed on first use."""

    def __init__(self):
        with open(GOLDEN, encoding="utf-8") as fp:
            self.golden = json.load(fp)
        self.cache = {}

    def entry(self, name, text):
        g = self.golden.get(name)
        return g if g is not None and g["text_sha256"] == sha256(text) else None

    def basis(self, name, text, problem) -> str:
        g = self.entry(name, text)
        if g is not None:
            return g["basis_sha256"]
        key = sha256(text)
        if key not in self.cache:
            from f5gb import oracle

            self.cache[key] = basis_digest(oracle.buchberger(problem.polynomials))
        return self.cache[key]


class Tally:
    """Systems attempted and failed, with every failure counted by cause."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.causes = {"budget_exit": 0, "exception": 0, "digest_mismatch": 0}
        self.causes.update({f"verdict.{v}": 0 for v in VERDICTS})
        self.trace_log_mismatch = 0  # event logs that differ from golden.json

    def record(self, name, text, problem, outcome, error, refs):
        self.attempted += 1
        causes = []
        if error is not None:
            causes.append("exception")
        elif outcome.budget_exit:
            causes.append("budget_exit")
        else:
            causes += [f"verdict.{k}" for k, ok in outcome.verdicts.items() if not ok]
            basis = outcome.basis
            if basis is None:
                basis = parse_basis(problem, outcome.basis_text)
            if basis_digest(basis) != refs.basis(name, text, problem):
                causes.append("digest_mismatch")
        for cause in causes:  # a verdict added to the program later is counted too
            self.causes[cause] = self.causes.get(cause, 0) + 1
        self.failed += bool(causes)

    @property
    def correct(self) -> bool:
        return self.causes["exception"] == 0 and self.causes["digest_mismatch"] == 0


def parse_basis(problem, lines):
    from f5gb import cli

    text = workloads.problem_text(problem.p, problem.variables, problem.order, lines)
    return cli.parse_problem(text, allow_affine=True).polynomials


def run_pass(workload, systems, refs, tally, tracer=None, sampler=None):
    """One pass over the systems.  Returns (start, end, seconds) per system,
    where seconds exclude the checks and the time an active ``sampler`` took."""
    sampler = sampler or SpeedSampler()  # an inactive sampler takes no time
    timings = []
    for name, text, problem in systems:
        outcome = error = None
        with tracer.installed() if tracer else contextlib.nullcontext():
            stolen = sampler.stolen
            t0 = time.perf_counter()
            try:
                outcome = workload.run(problem)
            except Exception as exc:  # one failing system must not end the run
                error = exc
            t1 = time.perf_counter()
            timings.append((t0, t1, t1 - t0 - (sampler.stolen - stolen)))
        if error is not None:
            traceback.print_exception(error, file=sys.stderr)
        tally.record(name, text, problem, outcome, error, refs)
        if tracer:
            logs = [events_digest(events) for events in tracer.event_logs]
            tracer.event_logs.clear()
            g = refs.entry(name, text)
            if g is not None and logs != [g["trace_sha256"]]:
                tally.trace_log_mismatch += 1
    return timings


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def pass_count(workload, seconds) -> int:
    """Passes that take about ``seconds`` at the reference speed."""
    return max(1, math.ceil(seconds / workload.pass_s - 1e-9))


def end_to_end(workload, seed, systems, refs, tally, seconds):
    """``pass_count`` passes.  A system's time is the median over the passes
    of its scaled time, which damps bursts of machine noise; the set-up
    probes are spread between the passes for the same reason and scaled by
    the run's mean speed."""
    sampler = SpeedSampler()
    setup_s = [setup_probe(workload, seed) for _ in range(SETUP_PROBES_FIRST)]
    per_system = [[] for _ in systems]
    timed = 0.0
    for _ in range(pass_count(workload, seconds)):
        with sampler.active():
            timings = run_pass(workload, systems, refs, tally, sampler=sampler)
        for samples, (start, end, t) in zip(per_system, timings):
            samples.append(t * sampler.speed(start, end))
        timed += sum(t for _, _, t in timings)
        setup_s.append(setup_probe(workload, seed))
    while len(setup_s) < SETUP_PROBES_MIN:
        setup_s.append(setup_probe(workload, seed))
    medians = [statistics.median(samples) for samples in per_system]
    speed = sampler.speed()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{workload.name}: {len(per_system[0])} passes over {len(systems)} systems, "
          f"{len(setup_s)} set-up probes, {len(sampler.samples)} speed samples, "
          f"mean speed {speed:.3f}, {timed:.3f} s timed unscaled, "
          f"{tally.failed}/{tally.attempted} failed "
          f"{ {k: n for k, n in tally.causes.items() if n} }")
    return {
        "setup_s": statistics.median(setup_s) * speed,
        "wall_s": sum(medians),
        "system_p50_s": percentile(medians, 50),
        "system_p90_s": percentile(medians, 90),
        "peak_rss_mib": peak,
    }


def per_layer(workload, systems, refs, tally):
    """One untraced pass, then the same pass and the parsing traced."""
    from f5gb import cli

    sampler = SpeedSampler()
    with sampler.active():
        untraced = run_pass(workload, systems, refs, tally, sampler=sampler)
    tracer = Tracer(sampler)
    with sampler.active():
        traced = run_pass(workload, systems, refs, tally, tracer, sampler)
    coverage = tracer.top_s / sum(t for _, _, t in traced)
    with tracer.installed():
        for _, text, _ in systems:
            cli.parse_problem(text)
    out = tracer.metrics()
    c = tracer.counts
    out["engine.spol_per_pair"] = c["engine.spol_created"] / max(1, c["engine.pairs_created"])
    reduced = c["engine.spol_created"] + c["engine.new_from_top_reduction"]
    out["engine.zero_reduction_ratio"] = c["engine.reductions_to_zero"] / max(1, reduced)
    # pass times scaled like the end-to-end times
    untraced_s = sum(t * sampler.speed(a, b) for a, b, t in untraced)
    traced_s = sum(t * sampler.speed(a, b) for a, b, t in traced)
    out["bench.untraced_wall_s"] = untraced_s
    out["bench.traced_wall_s"] = traced_s
    out["bench.trace_overhead_s"] = traced_s - untraced_s
    out["bench.top_span_coverage"] = coverage
    out["bench.fail_ratio"] = tally.failed / tally.attempted
    out["bench.mismatch.trace_log"] = tally.trace_log_mismatch
    for cause, n in tally.causes.items():
        out[f"bench.failures.{cause}"] = n
    print(f"{workload.name}: untraced {untraced_s:.3f} s, traced {traced_s:.3f} s (scaled), "
          f"top-level spans cover {coverage:.1%}, {tally.failed}/{tally.attempted} failed")
    return out


def declared_metrics(trace: bool) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        spec = json.load(fp)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        setup(workload, args.seed)
        return 0

    declared = declared_metrics(args.trace == 1)
    systems = setup(workload, args.seed)
    refs = References()
    tally = Tally()
    if args.trace:
        values = per_layer(workload, systems, refs, tally)
    else:
        values = end_to_end(workload, args.seed, systems, refs, tally, args.seconds)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
