"""Reports of ``cli.run_check`` on a family of forged event logs.

    python tests/forged_logs.py [SYSTEM [FAMILY]]

Cyclic-4, katsura-3 and the two-generator demo (``systems.py``, over
GF(32003)) are each run once; their logs are then forged one change at a
time, in these families:

  unforged        the log itself
  drop            each event dropped
  position        each position field set to 1,000,000
  call            each ``call`` set to 9
  empty           each polynomial emptied
  malformed       each polynomial's first term given a third value
  reversed        each polynomial of two or more terms reversed
  g_next          each ``CallBegin.g_next`` extended by its input
  rule_mono       each ``RuleAdded`` monomial raised by x0
  sig_mono        each creation signature's monomial raised by x0
  sig_index       each signature's index raised by one
  step_after      a ``PhiPreReduce`` of each Done-inserted h, by x0^2 times
                  the log's first input, before the last ``CallEnd``

Each log goes through ``run_check`` with the engine patched to return it,
and the workload's descent settings of the tests (25 samples, cap 10^5,
seed 0).  One line per system and family gives the count of logs, how many
raised instead of giving a report, how many reports are ``ok``, and one
sha256 of the reports without ``elapsed_s`` (an exception's repr in place of
a raised one's report), in log order; a last line gives the same over every
log run.  SYSTEM and FAMILY select a slice.  pytest does not collect this
script; ``test_cli.py::TestStageScripts`` runs katsura-3's drop slice.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import sys
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from f5gb import cli, trace  # noqa: E402
from f5gb.engine import EngineConfig, incremental_f5  # noqa: E402
from systems import CYCLIC4, SUITE, problem_text  # noqa: E402

SYSTEMS = {"cyclic4": CYCLIC4, "katsura3": SUITE["katsura3_homog"],
           "two_gen_demo": SUITE["two_gen_demo"]}
# the fields that name one position
POSITION_FIELDS = ("input_pos", "pos", "p1", "p2", "j", "h", "cand", "blocked_by", "rewriter",
                   "reductor")
SIGNATURE_FIELDS = ("sig", "sig1", "sig2", "msig", "h_sig")


def _changed(events: list, k: int, change) -> list:
    """The log with event ``k`` replaced by a copy that ``change`` edits."""
    ev = copy.deepcopy(events[k])
    change(ev)
    return events[:k] + [ev] + events[k + 1:]


def _raised(vector) -> tuple:
    return (vector[0] + 1, *vector[1:])


def step_after(events: list, outcome: dict) -> list:
    """The log with a φ step of the position h of ``outcome``, a
    ``DoneInserted`` or ``ReductionToZero``, by x0^2 times the first input
    the log begins a call with, coefficient 1, inserted before the last
    ``CallEnd``; the events are renumbered.  The engine never steps an
    element after its outcome."""
    first = next(ev for ev in events if ev["kind"] == "CallBegin")
    sig = outcome["sig"]
    step = {"seq": None, "kind": "PhiPreReduce", "call": outcome["call"], "h": outcome["pos"],
            "h_sig": sig, "h_index": sig["index"], "reductor": first["input_pos"],
            "reductor_index": first["call"], "mult": (2,) + (0,) * (len(sig["mono"]) - 1),
            "coeff": 1}
    last = max(k for k, ev in enumerate(events) if ev["kind"] == "CallEnd")
    forged = events[:last] + [step] + events[last:]
    return [{**ev, "seq": seq} for seq, ev in enumerate(forged)]


def families(events: list) -> dict:
    """Family name -> its forged logs, in log order, over the log ``events``."""
    out = {name: [] for name in ("unforged", "drop", "position", "call", "empty", "malformed",
                                 "reversed", "g_next", "rule_mono", "sig_mono", "sig_index",
                                 "step_after")}
    out["unforged"].append(events)
    for k, ev in enumerate(events):
        def forge(family, change):
            out[family].append(_changed(events, k, change))

        out["drop"].append(events[:k] + events[k + 1:])
        for name in POSITION_FIELDS:
            if name in ev:
                forge("position", lambda e, name=name: e.update({name: 1_000_000}))
        if "call" in ev:
            forge("call", lambda e: e.update(call=9))
        for name in trace._POLY_FIELDS[ev["kind"]]:
            if ev[name]:
                forge("empty", lambda e, name=name: e.update({name: []}))
                forge("malformed", lambda e, name=name: e[name][0].append(1))
            if len(ev[name]) > 1:
                forge("reversed", lambda e, name=name: e[name].reverse())
        if ev["kind"] == "CallBegin":
            forge("g_next", lambda e: e["g_next"].append(e["input_pos"]))
        elif ev["kind"] == "RuleAdded":
            forge("rule_mono", lambda e: e.update(mono=_raised(e["mono"])))
        elif ev["kind"] == "DoneInserted":
            out["step_after"].append(step_after(events, ev))
        if ev["kind"] in trace.CREATION_FIELDS:
            forge("sig_mono", lambda e: e["sig"].update(mono=_raised(e["sig"]["mono"])))
        for name in SIGNATURE_FIELDS:
            if name in ev:
                forge("sig_index", lambda e, name=name: e[name].update(index=e[name]["index"] + 1))
    return out


def check(text: str, events: list, counters: dict) -> dict:
    """``run_check``'s report on ``text`` with the engine returning
    ``events``, without ``elapsed_s``; {"raised": repr} if it raises."""
    run = cli.incremental_f5
    cli.incremental_f5 = lambda *args: SimpleNamespace(events=events, counters=counters)
    try:
        report = cli.run_check(cli.parse_problem(text), EngineConfig(), 25, 10**5, 0)
        del report["elapsed_s"]
    except Exception as exc:  # every raise is counted, whatever it is
        report = {"raised": repr(exc)}
    finally:
        cli.incremental_f5 = run
    return report


def main() -> None:
    only_system = sys.argv[1] if len(sys.argv) > 1 else None
    only_family = sys.argv[2] if len(sys.argv) > 2 else None
    total, total_raised, total_ok, everything = 0, 0, 0, hashlib.sha256()
    for system, (names, texts) in SYSTEMS.items():
        if only_system not in (None, system):
            continue
        text = problem_text(32003, names, texts)
        result = incremental_f5(cli.parse_problem(text).polynomials)
        for family, logs in families(result.events).items():
            if only_family not in (None, family):
                continue
            digest, raised, ok = hashlib.sha256(), 0, 0
            for events in logs:
                report = check(text, events, result.counters)
                raised += "raised" in report
                ok += report.get("ok") is True
                line = json.dumps(report, sort_keys=True, separators=(",", ":")).encode() + b"\n"
                digest.update(line)
                everything.update(line)
            total, total_raised, total_ok = total + len(logs), total_raised + raised, total_ok + ok
            print(f"{system} {family}: {len(logs)} logs, {raised} raised, {ok} ok,"
                  f" sha256 {digest.hexdigest()}", flush=True)
    print(f"all: {total} logs, {total_raised} raised, {total_ok} ok,"
          f" sha256 {everything.hexdigest()}")


if __name__ == "__main__":
    main()
