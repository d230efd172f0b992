"""Spans and counters around the public functions of each f5gb layer.

A ``Tracer`` replaces each listed function, in every module namespace that
holds it (``engine`` imports ``poly_axpy`` from ``poly``, ``cli`` imports
``descend`` from ``oracle``, and so on), with a wrapper that records the
call's duration, the time its child spans cover, and counts read from its
result.  Methods are replaced on their class.  ``Tracer.installed`` restores
every original on exit.

Spans are aggregated per name in memory: total seconds, calls and child
seconds, from which self time follows.  Monomial-level calls are not wrapped;
they run millions of times and a wrapper would swamp the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from collections import defaultdict

CHECKERS = (
    ("check_d_progression", "d_progression"),
    ("check_signature_safety", "signature_safety"),
    ("check_rule_degrees", "rule_degrees"),
    ("check_genealogy", "genealogy"),
    ("check_replay", "trail_replay"),
    ("check_chains", "chains"),
    ("done_insertion_audit", "done_insertion_audit"),
    ("check_thm5_exhaustive", "thm5_exhaustive"),
)

ENGINE_COUNTERS = (
    "pairs_created", "f5_rejections", "rewritten_rejections", "spol_created",
    "new_from_top_reduction", "reduction_steps", "phi_steps", "reductions_to_zero",
)


COUNTS = tuple(f"engine.{key}" for key in ENGINE_COUNTERS) + (
    "engine.events", "engine.basis_size", "engine.budget_exits",
    "trace.checker_failures", "trace.jsonl_bytes",
    "oracle.descent_steps", "oracle.descent_failures",
) + tuple(f"trace.{label}.checked" for _, label in CHECKERS)


def namespaces():
    """The f5gb modules, each of which may hold a wrapped name."""
    import f5gb
    from f5gb import cli, engine, oracle, poly, sig, trace

    return [f5gb, poly, sig, engine, trace, oracle, cli]


def events_digest(events) -> str:
    """sha256 of the compact JSON Lines form ``Trace.to_jsonl`` writes."""
    h = hashlib.sha256()
    for ev in events:
        h.update(json.dumps(ev, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


class _NoSampler:
    stolen = 0.0


class Tracer:
    def __init__(self, sampler=_NoSampler):
        # time the sampler's signal handler takes is left out of every span
        self._sampler = sampler
        self.spans = defaultdict(lambda: [0.0, 0, 0.0])  # name -> [s, calls, child s]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.top_s = 0.0  # time covered by spans with no parent
        self.event_logs = []  # each engine run's event list, in call order
        self._stack = []

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn, on_result=None, on_error=None):
        spans, stack, sampler = self.spans, self._stack, self._sampler

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            stolen = sampler.stolen
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                dt = time.perf_counter() - t0 - (sampler.stolen - stolen)
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                else:
                    self.top_s += dt
                rec = spans[name]
                rec[0] += dt
                rec[1] += 1
                rec[2] += frame[0]
            if on_result is not None:
                on_result(out, args)
            return out

        return wrapper

    def _engine_done(self, result, args):
        self._engine_counts(result.counters, result.events)
        self.counts["engine.basis_size"] += len(result.basis)

    def _engine_error(self, exc):
        from f5gb.engine import BudgetExceeded

        if isinstance(exc, BudgetExceeded):
            self.counts["engine.budget_exits"] += 1
            self._engine_counts(exc.counters, exc.events)

    def _engine_counts(self, counters, events):
        for key in ENGINE_COUNTERS:
            self.counts["engine." + key] += counters[key]
        self.counts["engine.events"] += len(events)
        self.event_logs.append(events)

    def _checker_done(self, label):
        def hook(report, args):
            self.counts[f"trace.{label}.checked"] += report.checked
            self.counts["trace.checker_failures"] += not report.passed
        return hook

    def _descent_done(self, result, args):
        self.counts["oracle.descent_steps"] += result.step_count

    def _descent_error(self, exc):
        self.counts["oracle.descent_failures"] += 1

    def _jsonl_written(self, out, args):
        self.counts["trace.jsonl_bytes"] += args[1].tell()

    # -- installation -----------------------------------------------------

    def _targets(self):
        """(span name, owner, attribute, hooks) for every wrapped function."""
        from f5gb import cli, engine, oracle, poly, sig, trace

        fns = [
            ("engine.incremental_f5", engine, "incremental_f5",
             self._engine_done, self._engine_error),
            ("poly.poly_axpy", poly, "poly_axpy", None, None),
            ("poly.normal_form", poly, "normal_form", None, None),
            ("sig.check_admissible", sig, "check_admissible", None, None),
            ("trace.build_registry", trace, "build_registry", None, None),
            ("trace.run_all_checkers", trace, "run_all_checkers", None, None),
            ("trace.events_from_jsonl", trace, "events_from_jsonl", None, None),
            ("oracle.descend", oracle, "descend", self._descent_done, self._descent_error),
            ("oracle.repr_sum_check", oracle, "repr_sum_check", None, None),
            ("oracle.harvest_descent_seeds", oracle, "harvest_descent_seeds", None, None),
            ("oracle.find_thm4_pairs_in_snapshot", oracle, "find_thm4_pairs_in_snapshot",
             None, None),
            ("oracle.find_unrejected_reductor", oracle, "find_unrejected_reductor",
             None, None),
            ("oracle.buchberger", oracle, "buchberger", None, None),
            ("oracle.ideal_equal", oracle, "ideal_equal", None, None),
            ("oracle.reduced_basis", oracle, "reduced_basis", None, None),
            ("cli.parse_problem", cli, "parse_problem", None, None),
            ("cli.run_check", cli, "run_check", None, None),
        ]
        fns += [(f"trace.{label}", trace, attr, self._checker_done(label), None)
                for attr, label in CHECKERS]
        methods = [
            ("poly.Ring.poly", poly.Ring, "poly", None),
            ("poly.Polynomial.add", poly.Polynomial, "add", None),
            ("poly.Polynomial.term_mul", poly.Polynomial, "term_mul", None),
            ("sig.ModuleVector.axpy", sig.ModuleVector, "axpy", None),
            ("trace.to_jsonl", trace.Trace, "to_jsonl", self._jsonl_written),
            ("oracle.GgSnapshot.from_result", oracle.GgSnapshot, "from_result", None),
        ]
        return fns, methods

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target in each f5gb module that holds it, and methods
        on their class."""
        fns, methods = self._targets()
        undo = []
        try:
            for name, module, attr, on_result, on_error in fns:
                self.spans[name]  # report a span that was never entered as 0
                original = getattr(module, attr)
                wrapped = self._wrap(name, original, on_result, on_error)
                for ns in namespaces():
                    if getattr(ns, attr, None) is original:
                        undo.append((ns, attr, original))
                        setattr(ns, attr, wrapped)
            for name, cls, attr, on_result in methods:
                self.spans[name]
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, on_result))
                else:
                    wrapped = self._wrap(name, raw, on_result)
                undo.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Seconds, calls and self seconds of every span, and every count."""
        out = dict(self.counts)
        for name, (s, calls, child) in self.spans.items():
            out[f"{name}.s"] = s
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = s - child
        return out
