"""Reports of ``cli.run_check`` on a family of forged event logs.

    python tests/forged_logs.py [--ledger] [SYSTEM [FAMILY]]

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
  where           each rejection's ``where`` set to its kind's other row's
  key             the first event of each row without its last key

Each log goes through ``run_check`` with the engine patched to return it,
and the workload's descent settings of the tests (25 samples, cap 10^5,
seed 0).  One line per system and family gives the count of logs, how many
raised instead of giving a report, how many reports are ``ok``, and one
sha256 of the reports without ``elapsed_s`` (an exception's repr in place of
a raised one's report), in log order; a last line gives the same over every
log run.  SYSTEM and FAMILY select a slice.

The position fields (roles ``new``, ``pos`` and ``owner``) and the
signature fields are read off each event's row of ``trace.EVENT_SHAPES``.

Each forged log also falls in one ledger row: its system, family, the kind
of the event it forges, and the field it changes, or for a dropped event and
a forged ``where`` its ``where`` ("-" when it has none, and for the unforged
log).  ``--ledger`` prints one line per row, with its count of logs and of
``ok`` reports, in place of the family lines; a row above 0 ``ok`` ends with
a note that names the ROADMAP item expected to bring it to 0 (``EXPECTED``).
``forged_ledger.txt`` is that output on every system.  Each run compares its
rows with the committed ones, notes aside: a row whose counts differ, or
that the file lacks, is printed on stderr, and the script exits 1 if any
row's ``ok`` count is above the committed one.  To commit new counts, run
``python tests/forged_logs.py --ledger > tests/forged_ledger.txt``; a change
may only lower a row's ``ok`` count, or add rows.  pytest does not collect
this script; ``test_cli.py::TestStageScripts`` runs katsura-3's drop slice
and its ledger.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import re
import sys
from collections import Counter
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from f5gb import cli, trace  # noqa: E402
from f5gb.engine import EngineConfig, incremental_f5  # noqa: E402
from systems import CYCLIC4, SUITE, problem_text  # noqa: E402

SYSTEMS = {"cyclic4": CYCLIC4, "katsura3": SUITE["katsura3_homog"],
           "two_gen_demo": SUITE["two_gen_demo"]}
ROWS = trace._rows()
LEDGER = os.path.join(ROOT, "tests", "forged_ledger.txt")
# a ledger line: system, family, kind and field or ``where``; logs; ok; a
# note, if any
LEDGER_ROW = re.compile(r"^(\S+ \S+ \S+ \S+): (\d+) logs, (\d+) ok(?:  # .*)?$", re.M)
# (family, kind, field or ``where``) -> what is expected to bring the ledger
# row of each system to 0 ``ok``: the ROADMAP item that would catch its
# forgeries
EXPECTED = {
    ("unforged", "-", "-"): "none: the log itself",
    ("drop", "CritPairCreated", "-"): "item 14",
    ("drop", "DegreeStep", "-"): "item 14",
    ("drop", "F5CritPairReject", "crit_pair"): "item 14",
    ("drop", "RewrittenReject", "spol"): "item 7",
    ("drop", "RewrittenReject", "is_reducible"): "item 7",
}


def _changed(events: list, k: int, change) -> list:
    """The log with event ``k`` replaced by a copy that ``change`` edits.
    Each field is copied on its own: an event may hold one shared payload in
    two fields (a pair's equal ``sig1`` and ``sig2``), and a forgery changes
    only the field it names."""
    ev = {name: copy.deepcopy(value) for name, value in events[k].items()}
    change(ev)
    return events[:k] + [ev] + events[k + 1:]


def _raised(vector) -> tuple:
    return (vector[0] + 1, *vector[1:])


def step_after(events: list, outcome: dict) -> list:
    """The log with a φ step of the position h of ``outcome``, a
    ``DoneInserted`` or ``ReductionToZero``, by x0^2 times the first input
    the log begins a call with, coefficient 1, inserted before the last
    ``CallEnd``, in the call that CallEnd ends; the events are renumbered.
    The engine never steps an element after its outcome."""
    first = next(ev for ev in events if ev["kind"] == "CallBegin")
    last = max(k for k, ev in enumerate(events) if ev["kind"] == "CallEnd")
    sig = outcome["sig"]
    step = {"seq": None, "kind": "PhiPreReduce", "call": events[last]["call"],
            "h": outcome["pos"], "h_sig": sig, "h_index": sig["index"],
            "reductor": first["input_pos"], "reductor_index": first["call"],
            "mult": (2,) + (0,) * (len(sig["mono"]) - 1), "coeff": 1}
    forged = events[:last] + [step] + events[last:]
    return [{**ev, "seq": seq} for seq, ev in enumerate(forged)]


def families(events: list) -> dict:
    """Family name -> (kind, field or ``where``, forged log) of each of its
    logs, in log order, over the log ``events``."""
    out = {name: [] for name in ("unforged", "drop", "position", "call", "empty", "malformed",
                                 "reversed", "g_next", "rule_mono", "sig_mono", "sig_index",
                                 "step_after", "where", "key")}
    out["unforged"].append(("-", "-", events))
    first_of_row = set()
    for k, ev in enumerate(events):
        kind = ev["kind"]
        keys = tuple(ev)
        row = ROWS[keys]

        def forge(family, name, change):
            out[family].append((kind, name, _changed(events, k, change)))

        out["drop"].append((kind, ev.get("where", "-"), events[:k] + events[k + 1:]))
        for name, role in row.roles.items():
            if role in ("new", "pos", "owner"):
                forge("position", name, lambda e, name=name: e.update({name: 1_000_000}))
        if "call" in ev:
            forge("call", "call", lambda e: e.update(call=9))
        for name in [name for name, shape in row.fields if shape == "polynomial"]:
            if ev[name]:
                forge("empty", name, lambda e, name=name: e.update({name: []}))
                forge("malformed", name, lambda e, name=name: e[name][0].append(1))
            if len(ev[name]) > 1:
                forge("reversed", name, lambda e, name=name: e[name].reverse())
        if kind == "CallBegin":
            forge("g_next", "g_next", lambda e: e["g_next"].append(e["input_pos"]))
        elif kind == "RuleAdded":
            forge("rule_mono", "mono", lambda e: e.update(mono=_raised(e["mono"])))
        elif kind == "DoneInserted":
            out["step_after"].append((kind, "-", step_after(events, ev)))
        if kind in trace.CREATION_FIELDS:
            forge("sig_mono", "sig", lambda e: e["sig"].update(mono=_raised(e["sig"]["mono"])))
        for name, shape in row.fields:
            if shape == "signature":
                forge("sig_index", name,
                      lambda e, name=name: e[name].update(index=e[name]["index"] + 1))
        if row.where is not None:
            other = next(r.where for r in ROWS.values()
                         if r.kind == kind and r.where not in (None, row.where))
            out["where"].append((kind, row.where, _changed(events, k,
                                                           lambda e: e.update(where=other))))
        if keys not in first_of_row:
            first_of_row.add(keys)
            forge("key", keys[-1], lambda e: e.pop(keys[-1]))
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


def moved_rows(logs: Counter, ok: Counter) -> tuple[list[str], bool]:
    """The lines of each row of this run whose counts are not the committed
    ones, and whether any row's ``ok`` count went up."""
    with open(LEDGER, encoding="utf-8") as fp:
        committed = {row: (int(n), int(k)) for row, n, k in LEDGER_ROW.findall(fp.read())}
    lines, up = [], False
    for row in logs:
        now = (logs[row], ok[row])
        if committed.get(row) != now:
            was = committed.get(row)
            up = up or was is not None and now[1] > was[1]
            lines.append(f"moved: {row}: {now[0]} logs, {now[1]} ok"
                         + (" (a new row)" if was is None
                            else f" (committed: {was[0]} logs, {was[1]} ok)"))
    return lines, up


def main() -> None:
    args = sys.argv[1:]
    ledger = "--ledger" in args
    if ledger:
        args.remove("--ledger")
    only_system = args[0] if args else None
    only_family = args[1] if len(args) > 1 else None
    total, total_raised, total_ok, everything = 0, 0, 0, hashlib.sha256()
    row_logs, row_ok = Counter(), Counter()
    for system, (names, texts) in SYSTEMS.items():
        if only_system not in (None, system):
            continue
        text = problem_text(32003, names, texts)
        result = incremental_f5(cli.parse_problem(text).polynomials)
        for family, logs in families(result.events).items():
            if only_family not in (None, family):
                continue
            digest, raised, ok = hashlib.sha256(), 0, 0
            for kind, name, events in logs:
                report = check(text, events, result.counters)
                raised += "raised" in report
                ok += report.get("ok") is True
                row = f"{system} {family} {kind} {name}"
                row_logs[row] += 1
                row_ok[row] += report.get("ok") is True
                line = json.dumps(report, sort_keys=True, separators=(",", ":")).encode() + b"\n"
                digest.update(line)
                everything.update(line)
            total, total_raised, total_ok = total + len(logs), total_raised + raised, total_ok + ok
            if not ledger:
                print(f"{system} {family}: {len(logs)} logs, {raised} raised, {ok} ok,"
                      f" sha256 {digest.hexdigest()}", flush=True)
    if ledger:
        print("# python tests/forged_logs.py --ledger: system family kind field-or-where:"
              " forged logs, ok reports")
        for row in row_logs:
            note = EXPECTED.get(tuple(row.split()[1:]), "no item yet") if row_ok[row] else None
            print(f"{row}: {row_logs[row]} logs, {row_ok[row]} ok"
                  + (f"  # {note}" if note else ""))
    print(f"all: {total} logs, {total_raised} raised, {total_ok} ok,"
          f" sha256 {everything.hexdigest()}")
    moved, up = moved_rows(row_logs, row_ok)
    for line in moved:
        print(line, file=sys.stderr)
    if up:
        sys.exit(1)


if __name__ == "__main__":
    main()
