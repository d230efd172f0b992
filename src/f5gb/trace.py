"""Append-only event log plus independent checkers.

The engine emits one event per decision; every run-time-observable claim the
engine is supposed to satisfy is then re-verified here, post hoc, from the
serialized log alone.  Events are plain dicts with stable field names so the
log round-trips through JSON Lines.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from functools import partial
from itertools import permutations
from operator import itemgetter
from typing import Mapping, NamedTuple, Optional, Sequence

from .poly import (Layout, Lazy, Monomial, Polynomial, Ring, overflow_error, poly_axpy,
                   quotient_key)
from .sig import ModuleVector, Signature, check_admissible, key_index, sig_divides, sig_key, sig_mul

EVENT_KINDS = (
    "CallBegin",
    "CallEnd",
    "DegreeStep",
    "RuleAdded",
    "CritPairCreated",
    "F5CritPairReject",
    "RewrittenReject",
    "SPolCreated",
    "PhiPreReduce",
    "ReductionStep",
    "NewFromTopReduction",
    "ReductionToZero",
    "DoneInserted",
)


class ExponentFields(NamedTuple):
    """The payload fields of one kind that hold exponent vectors, by shape.
    A field can be absent from some events of its kind."""

    monos: tuple[str, ...] = ()  # one vector
    sigs: tuple[str, ...] = ()  # a signature {"mono": vector, "index": i}
    polys: tuple[str, ...] = ()  # a list of [c, vector] terms
    # a list of reduction steps, each ["monic", s] or [kind, c, vector, reductor]
    trails: tuple[str, ...] = ()


# the rejections log a pair's t, u1 and u2 at pair or S-polynomial creation
# only, and h_head only during a top-reduction
_REJECT_FIELDS = ExponentFields(monos=("h_head", "mult", "t", "u1", "u2"), sigs=("msig",))
EXPONENT_FIELDS = {
    "CallBegin": ExponentFields(sigs=("sig",), polys=("poly",)),
    "CallEnd": ExponentFields(),
    "DegreeStep": ExponentFields(),
    "RuleAdded": ExponentFields(monos=("mono",)),
    "CritPairCreated": ExponentFields(monos=("t", "u1", "u2"), sigs=("sig1", "sig2")),
    "F5CritPairReject": _REJECT_FIELDS,
    "RewrittenReject": _REJECT_FIELDS,
    "SPolCreated": ExponentFields(monos=("u1", "u2"), sigs=("sig",), polys=("poly",)),
    "PhiPreReduce": ExponentFields(monos=("mult",), sigs=("h_sig",)),
    "ReductionStep": ExponentFields(monos=("mult",), sigs=("h_sig", "msig")),
    "NewFromTopReduction": ExponentFields(
        monos=("u", "u_under"), sigs=("sig",), polys=("poly",)
    ),
    "ReductionToZero": ExponentFields(sigs=("sig",)),
    "DoneInserted": ExponentFields(
        sigs=("sig",), polys=("poly", "creation_poly"), trails=("trail",)
    ),
}


class CreationFields(NamedTuple):
    """The payload fields of a kind that creates a labeled polynomial."""

    pos: str  # the new position
    # the greater part, the smaller part and their two multipliers; an input
    # has none
    genealogy: Optional[tuple[str, str, str, str]] = None


CREATION_FIELDS = {
    "CallBegin": CreationFields("input_pos"),
    "SPolCreated": CreationFields("pos", ("p1", "p2", "u1", "u2")),
    "NewFromTopReduction": CreationFields("pos", ("j", "h", "u", "u_under")),
}

# the JSON Lines codec writes and decodes this many lines at a time: one
# json.loads per chunk lets the decoder share each key string among the
# chunk's events
_CHUNK_LINES = 1024
# each kind's one shared string
_KINDS = {kind: kind for kind in EVENT_KINDS}
# "}", "," and "{", the end of one object and the start of the next; no
# line that to_jsonl writes holds one, because no event holds a list of
# objects
_OBJECT_BOUNDARY = re.compile(r"}\s*,\s*{")


class BrokenLink(Exception):
    """An ancestor link or rule entry of the registry is missing or
    inconsistent."""


# ---------------------------------------------------------------------------
# payload helpers


def sig_from_payload(d: dict) -> Signature:
    return Signature(Monomial(d["mono"]), d["index"])


def poly_from_payload(ring: Ring, payload: list) -> Polynomial:
    return ring.poly([(c, Monomial(exps)) for c, exps in payload])


class Trace:
    """Single-writer event sink; events receive monotone sequence numbers.

    A payload writes a monomial as ``trace.exps[v]``: ``exps`` decodes each
    packed value ``v`` once per run, under ``lay``, the packed form of the
    run's monomials, so every event holding that monomial shares one
    immutable tuple.  The lists around the tuples (polynomial terms, trail
    steps, ``g_next``, ``basis``) are fresh per event, so no two events share
    one.  A trace that only holds or writes events needs no ``lay``.
    """

    def __init__(self, lay: Optional[Layout] = None):
        self.events: list[dict] = []
        # events logged per kind; an unknown kind raises KeyError at emit
        self.counts: dict[str, int] = dict.fromkeys(EVENT_KINDS, 0)
        self.exps = Lazy(partial(Layout.unpack, lay))

    def emit(self, kind: str, **payload) -> int:
        return self.log({"seq": None, "kind": kind, **payload})

    def log(self, event: dict) -> int:
        """Log an event built whole as ``{"seq": None, "kind": kind, ...}``:
        its ``seq`` is set here and its kind counted, as for ``emit``."""
        self.counts[event["kind"]] += 1
        seq = event["seq"] = len(self.events)
        self.events.append(event)
        return seq

    def mono_payload(self, m: Monomial) -> tuple[int, ...]:
        return self.exps[m.v]

    def sig_payload(self, s: Signature) -> dict:
        return {"mono": self.exps[s.mono.v], "index": s.index}

    def poly_payload(self, p: Polynomial) -> list:
        exps = self.exps
        return [[c, exps[m.v]] for c, m in p.terms]

    def to_jsonl(self, fp) -> None:
        """Write one compact JSON object per line, a chunk of lines per
        ``writelines``; the bytes equal ``json.dumps(ev, separators=(",",
        ":"))`` plus a newline for each event."""
        encode = json.JSONEncoder(separators=(",", ":")).encode
        events = self.events
        for start in range(0, len(events), _CHUNK_LINES):
            fp.writelines([encode(ev) + "\n" for ev in events[start:start + _CHUNK_LINES]])


def events_from_jsonl(fp) -> list[dict]:
    """Read the events ``Trace.to_jsonl`` wrote; blank lines are skipped.

    Each non-blank line must hold one JSON object whose ``kind`` is in
    ``EVENT_KINDS`` and whose ``EXPONENT_FIELDS`` have their shapes;
    otherwise ``ValueError`` names the first bad line (1-based).  As in the
    engine's log, each exponent vector becomes a tuple of ints, one per
    distinct vector of the read."""
    events: list[dict] = []
    lines: list[str] = []
    linenos: list[int] = []
    memo = Lazy(_int_tuple)
    for lineno, line in enumerate(fp, 1):
        if line.strip():
            lines.append(line)
            linenos.append(lineno)
            if len(lines) == _CHUNK_LINES:
                _decode_chunk(lines, linenos, events, memo)
                lines, linenos = [], []
    _decode_chunk(lines, linenos, events, memo)
    return events


def _decode_chunk(
    lines: list[str], linenos: list[int], out: list[dict], memo: Lazy
) -> None:
    """Append the events of ``lines`` to ``out``.

    The chunk is decoded as one JSON array when no line holds an object
    boundary.  Then every top-level comma of an array of objects is one put
    between two lines, so an array of one known-kind object per line holds
    each line's object.  Any other chunk, and one with a malformed exponent
    field, is decoded line by line, which raises at its first bad line."""
    if not any(map(_OBJECT_BOUNDARY.search, lines)):
        try:
            events = json.loads("[" + ",".join(lines) + "]")
            if len(events) == len(lines):
                for ev in events:
                    ev["kind"] = _KINDS[ev["kind"]]
                    _share_exponents(ev, memo)
                out += events
                return
        except (ValueError, KeyError, TypeError):
            pass
    out += [_decode_line(line, lineno, memo) for line, lineno in zip(lines, linenos)]


def _decode_line(line: str, lineno: int, memo: Lazy) -> dict:
    try:
        ev = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"line {lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(ev, dict):
        raise ValueError(f"line {lineno}: not a JSON object")
    kind = ev.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"line {lineno}: unknown kind {kind!r}")
    ev["kind"] = _KINDS[kind]
    try:
        _share_exponents(ev, memo)
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None
    return ev


def _int_tuple(t: tuple) -> tuple:
    """An exponent tuple as a read's memo (``Lazy``) keeps it: the tuple
    itself, which must hold ints.  One equal to a tuple seen before (as 1.0
    equals 1) reads as that tuple, so each vector has one copy per read."""
    if not all(type(e) is int for e in t):
        raise TypeError
    return t


def _array(value) -> list:
    if type(value) is not list:
        raise TypeError
    return value


def _share_exponents(ev: dict, memo: Lazy) -> None:
    """Replace each exponent vector in the ``EXPONENT_FIELDS`` of ``ev`` by
    its tuple in ``memo``; ``ValueError`` names the first field that does
    not have its shape."""
    monos, sigs, polys, trails = EXPONENT_FIELDS[ev["kind"]]
    try:
        shape = "exponent vector"
        for name in monos:
            if name in ev:
                ev[name] = memo[tuple(_array(ev[name]))]
        shape = "signature"
        for name in sigs:
            if name in ev:
                sig = ev[name]
                sig["mono"] = memo[tuple(_array(sig["mono"]))]
        shape = "polynomial"
        for name in polys:
            if name in ev:
                for term in _array(ev[name]):
                    term[1] = memo[tuple(_array(term[1]))]
        shape = "trail"
        for name in trails:
            if name in ev:
                for step in _array(ev[name]):
                    if step[0] != "monic":
                        step[2] = memo[tuple(_array(step[2]))]
    except (TypeError, KeyError, IndexError):
        raise ValueError(f"field {name!r} is not a valid {shape}") from None


# ---------------------------------------------------------------------------
# registry: reconstruct every labeled polynomial from the log


@dataclass
class RegistryEntry:
    pos: int
    call: int
    sig: Signature
    # head monomial of the Done-inserted polynomial, None once reduced to
    # zero, and of the creation-time one while the log holds no outcome
    head: Optional[Monomial]
    genealogy: Optional[tuple] = None  # (greater, smaller, u_over, u_under)
    created_seq: int = -1
    done_seq: Optional[int] = None
    zero_seq: Optional[int] = None

    @property
    def index(self) -> int:
        return self.sig.index

    @property
    def is_input(self) -> bool:
        return self.genealogy is None


@dataclass
class Registry:
    entries: dict[int, RegistryEntry]
    calls: dict[int, dict]  # call index -> CallBegin payload
    # call index -> (seq, pos) of each DoneInserted, in log order
    insertions: dict[int, list[tuple[int, int]]] = field(default_factory=dict)
    # signature index -> (seq, mono, pos) of each RuleAdded, in log order
    rules: dict[int, list[tuple[int, Monomial, int]]] = field(default_factory=dict)


def _head(payload: list) -> Optional[Monomial]:
    return Monomial(payload[0][1]) if payload else None


def build_registry(events: Sequence[dict]) -> Registry:
    entries: dict[int, RegistryEntry] = {}
    calls: dict[int, dict] = {}
    insertions: dict[int, list[tuple[int, int]]] = {}
    rules: dict[int, list[tuple[int, Monomial, int]]] = {}
    for ev in events:
        kind = ev["kind"]
        if kind == "CallBegin":
            calls[ev["call"]] = ev
        created = CREATION_FIELDS.get(kind)
        if created is not None:
            gen = created.genealogy
            if gen is not None:
                greater, smaller, u_over, u_under = (ev[name] for name in gen)
                gen = (greater, smaller, Monomial(u_over), Monomial(u_under))
            pos = ev[created.pos]
            entries[pos] = RegistryEntry(
                pos, ev["call"], sig_from_payload(ev["sig"]), _head(ev["poly"]),
                genealogy=gen, created_seq=ev["seq"],
            )
        elif kind == "DoneInserted":
            e = entries[ev["pos"]]
            e.done_seq = ev["seq"]
            e.head = _head(ev["poly"])
            insertions.setdefault(ev["call"], []).append((ev["seq"], ev["pos"]))
        elif kind == "ReductionToZero":
            e = entries[ev["pos"]]
            e.zero_seq = ev["seq"]
            e.head = None
        elif kind == "RuleAdded":
            rules.setdefault(ev["index"], []).append(
                (ev["seq"], Monomial(ev["mono"]), ev["pos"])
            )
    return Registry(entries, calls, insertions, rules)


def membership_at(registry: Registry, call: int, seq: int) -> list[int]:
    """Positions in G ∪ Done just before sequence number ``seq`` of ``call``.

    G at that moment is the previous basis plus this call's input plus every
    element Done-inserted earlier in the call (insertions are promoted to G at
    batch end, which never removes anything).
    """
    begin = registry.calls[call]
    done = registry.insertions.get(call, [])
    done = done[: bisect_left(done, seq, key=itemgetter(0))]
    return sorted(begin["g_next"] + [begin["input_pos"]] + [pos for _, pos in done])


# ---------------------------------------------------------------------------
# reports


@dataclass
class CheckReport:
    name: str
    passed: bool
    checked: int
    failures: list = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.passed

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = f" first_failure={self.failures[0]}" if self.failures else ""
        return f"{self.name}: {status} ({self.checked} checked){extra}"


def _report(name: str, checked: int, failures: list) -> CheckReport:
    return CheckReport(name, not failures, checked, failures)


# ---------------------------------------------------------------------------
# claim checkers


def check_d_progression(events: Sequence[dict]) -> CheckReport:
    """Per call: the degree sequence never decreases and d_{j+2} > d_j."""
    per_call: dict[int, list[int]] = {}
    for ev in events:
        if ev["kind"] == "DegreeStep":
            per_call.setdefault(ev["call"], []).append(ev["d"])
    failures = []
    checked = 0
    for call, ds in sorted(per_call.items()):
        for j in range(len(ds) - 1):
            checked += 1
            if ds[j + 1] < ds[j]:
                failures.append((call, j, ds[j], ds[j + 1], "decrease"))
        for j in range(len(ds) - 2):
            checked += 1
            if not ds[j + 2] > ds[j]:
                failures.append((call, j, ds[j], ds[j + 2], "no strict growth at j+2"))
    return _report("d_progression", checked, failures)


def check_signature_safety(events: Sequence[dict], order) -> CheckReport:
    """Every executed top-reduction step is signature-safe; every pre-reduction
    step uses a strictly higher-index reductor."""
    failures = []
    checked = 0
    for ev in events:
        if ev["kind"] == "ReductionStep":
            checked += 1
            h_key = sig_key(sig_from_payload(ev["h_sig"]), order)
            if h_key <= sig_key(sig_from_payload(ev["msig"]), order):
                failures.append((ev["seq"], "unsafe reduction step"))
        elif ev["kind"] == "PhiPreReduce":
            checked += 1
            if not ev["reductor_index"] > ev["h_index"]:
                failures.append((ev["seq"], "pre-reduction by non-higher index"))
    return _report("signature_safety", checked, failures)


def check_rule_degrees(registry: Registry) -> CheckReport:
    """Per index, total degrees of rule monomials never decrease, and every
    element of the log owns exactly one rule, whose index and monomial are
    those of its signature.  ``checked`` counts the degree comparisons."""
    failures = []
    checked = 0
    owned: dict[int, list[Signature]] = {}
    for idx, table in sorted(registry.rules.items()):
        for (_, m1, _), (s2, m2, _) in zip(table, table[1:]):
            checked += 1
            if m2.deg < m1.deg:
                failures.append((idx, s2, m1.deg, m2.deg))
        for _, mono, pos in table:
            owned.setdefault(pos, []).append(Signature(mono, idx))
    for pos, e in registry.entries.items():
        if owned.get(pos) != [e.sig]:
            failures.append((pos, "not exactly one rule, with its signature"))
    return _report("rule_degrees", checked, failures)


def check_genealogy(registry: Registry, order) -> CheckReport:
    """Created elements: sig equals u_over * S(greater part) and strictly
    exceeds u_under * S(smaller part); Done events follow their creation."""
    failures = []
    checked = 0
    for e in registry.entries.values():
        if e.is_input:
            continue
        checked += 1
        greater, smaller, u_over, u_under = e.genealogy
        if greater not in registry.entries or smaller not in registry.entries:
            failures.append((e.pos, "missing parent"))
            continue
        sg = registry.entries[greater].sig
        ss = registry.entries[smaller].sig
        if sig_mul(u_over, sg) != e.sig:
            failures.append((e.pos, "sig != u_over * S(greater)"))
        if sig_key(e.sig, order) <= sig_key(sig_mul(u_under, ss), order):
            failures.append((e.pos, "sig not greater than smaller part"))
        if e.done_seq is not None and not e.created_seq < e.done_seq:
            failures.append((e.pos, "done before creation"))
    return _report("genealogy", checked, failures)


@dataclass
class ReplayReport(CheckReport):
    """The report of ``check_replay``, with the operations it performed, in
    log order (``sig.replay_vectors`` reads them), and each position's
    polynomial at the end of the log."""

    ops: list = field(default_factory=list)
    polys: dict = field(default_factory=dict)


def _same_poly(q: Polynomial, payload: list, monos: Lazy) -> bool:
    """Whether the logged polynomial ``payload`` holds the terms of ``q``;
    ``monos`` maps an exponent tuple to its ``Monomial``."""
    return len(q.terms) == len(payload) and all(
        c == lc and m.v == monos[tuple(exps)].v for (c, m), (lc, exps) in zip(q.terms, payload)
    )


# the kinds the replay reads, each with the positions it reads, which an
# earlier event must have created
_REPLAY_READS = {"CallBegin": (), "SPolCreated": ("p1", "p2"),
                 "NewFromTopReduction": ("j", "h"), "PhiPreReduce": ("h", "reductor"),
                 "ReductionStep": ("h", "reductor"), "DoneInserted": ("pos",),
                 "ReductionToZero": ("pos",)}


def check_replay(events: Sequence[dict], ring: Ring) -> ReplayReport:
    """Rebuild every position's polynomial P from the log, in ``seq`` order,
    and check it against the log.  An input is its logged polynomial, a
    created element monic(u_over * P[greater] - u_under * P[smaller]); a
    ``PhiPreReduce`` or ``ReductionStep`` subtracts coeff * mult *
    P[reductor] from P[h], and a ``ReductionStep`` then makes h monic, by
    its ``post_scale``.  The engine makes h monic at the end of each φ pass
    too, unlogged: the replay does so at the first event it reads after
    the pass's run of ``PhiPreReduce`` events.  Each failure names an
    event's ``seq``: a polynomial, ``post_scale``, trail or creation
    polynomial that differs from the replay, a nonzero ``ReductionToZero``,
    or a position that no earlier event created.  ``checked`` counts the
    Done insertions.  The operations are ``("input", pos, index)``,
    ``("new", pos, a, ua, b, ub, s)`` for s * (ua * P[a] - ub * P[b]),
    ``(step, h, c, u, r)`` for P[h] - c * u * P[r] with step "phi" or
    "top", and ``("monic", h, s)`` for s * P[h], s != 1."""
    monos = Lazy(Monomial)
    P: dict[int, Polynomial] = {}
    created: dict[int, Polynomial] = {}
    trails: dict[int, list] = {}
    ops: list[tuple] = []
    failures = []
    checked = 0
    phi_h = None  # h of the φ pass in progress

    def monic(pos: int) -> int:
        P[pos], s = P[pos].monic_scale()
        if s != 1:
            ops.append(("monic", pos, s))
            trails[pos].append(["monic", s])
        return s

    for ev in events:
        kind, seq = ev["kind"], ev["seq"]
        reads = _REPLAY_READS.get(kind)
        if reads is None:
            continue
        if phi_h is not None and not (kind == "PhiPreReduce" and ev["h"] == phi_h):
            monic(phi_h)
            phi_h = None
        unknown = [ev[name] for name in reads if ev[name] not in P]
        if unknown:
            failures.append((seq, f"unknown position r{unknown[0]}"))
        elif kind in CREATION_FIELDS:
            pos = ev[CREATION_FIELDS[kind].pos]
            if kind == "CallBegin":
                q = poly_from_payload(ring, ev["poly"])
                ops.append(("input", pos, ev["call"]))
            else:
                a, b, ua, ub = (ev[name] for name in CREATION_FIELDS[kind].genealogy)
                ua, ub = monos[tuple(ua)], monos[tuple(ub)]
                q, s = poly_axpy(P[a].term_mul(1, ua), 1, ub, P[b]).monic_scale()
                ops.append(("new", pos, a, ua, b, ub, s))
                if not _same_poly(q, ev["poly"], monos):
                    failures.append((seq, f"{kind} polynomial differs from the replay"))
            P[pos] = created[pos] = q
            trails[pos] = []
        elif kind in ("PhiPreReduce", "ReductionStep"):
            h, c, u, r = ev["h"], ev["coeff"], monos[tuple(ev["mult"])], ev["reductor"]
            step = "phi" if kind == "PhiPreReduce" else "top"
            P[h] = poly_axpy(P[h], c, u, P[r])
            ops.append((step, h, c, u, r))
            trails[h].append([step, c, ev["mult"], r])
            if step == "phi":
                phi_h = h
            elif monic(h) != ev["post_scale"]:
                failures.append((seq, "post_scale differs from the replay"))
        elif kind == "ReductionToZero":
            if not P[ev["pos"]].is_zero:
                failures.append((seq, "nonzero on replay"))
        elif kind == "DoneInserted":
            pos = ev["pos"]
            checked += 1
            if not _same_poly(P[pos], ev["poly"], monos):
                failures.append((seq, "DoneInserted polynomial differs from the replay"))
            if ev["trail"] != trails[pos]:
                failures.append((seq, "trail differs from the replay"))
            if not _same_poly(created[pos], ev["creation_poly"], monos):
                failures.append((seq, "creation polynomial differs from the replay"))
    return ReplayReport("trail_replay", not failures, checked, failures, ops, P)


def all_admissible(
    registry: Registry, replay: ReplayReport, vectors: Mapping[int, ModuleVector]
) -> bool:
    """Whether every element's replayed vector (``sig.replay_vectors``) leads
    with its logged signature; one the replay did not build does not.

    A vector's coordinate k multiplies input f_{k+1}, so the inputs are
    indexed by call, with zero for a call the log lacks: a log cut short by
    a budget exit stops before call 1."""
    polys = replay.polys
    begun = {i: polys[ev["input_pos"]] for i, ev in registry.calls.items()}
    zero = next(iter(begun.values())).ring.zero if begun else None
    inputs = [begun.get(i, zero) for i in range(1, max(begun, default=0) + 1)]
    return all(
        pos in vectors and check_admissible(vectors[pos], e.sig, polys[pos], inputs)
        for pos, e in registry.entries.items()
    )


# ---------------------------------------------------------------------------
# chains


@dataclass
class ChainReport:
    chain: list[int]
    divisibility_ok: bool
    quotient_descent_ok: bool
    distinct_hm_ok: bool

    @property
    def passed(self) -> bool:
        return self.divisibility_ok and self.quotient_descent_ok and self.distinct_hm_ok


def extract_chain(pos: int, registry: Registry, ring: Ring) -> ChainReport:
    """Walk greater-part links back to the input polynomial of the index.

    Along the chain the signatures divide consecutively, the head/signature
    quotients strictly descend (their ``quotient_key``s, one int each, fall
    from each element to the next: for ints that orders every pair), and head
    monomials are pairwise distinct with divisibility only forward and into a
    strictly larger degree.  A zero-reduced final element takes part only in
    the divisibility check: it has no head monomial.
    """
    chain = [pos]
    cur = registry.entries[pos]
    while not cur.is_input:
        parent = cur.genealogy[0]
        if parent not in registry.entries or parent in chain:
            raise BrokenLink(f"broken ancestor link at r{cur.pos}")
        chain.append(parent)
        cur = registry.entries[parent]
    chain.reverse()

    div_ok = all(
        sig_divides(registry.entries[a].sig, registry.entries[b].sig)
        for a, b in zip(chain, chain[1:])
    )

    withhm = [registry.entries[p] for p in chain if registry.entries[p].head is not None]
    keys = [quotient_key(e.head, e.sig.mono, ring.order) for e in withhm]
    quot_ok = all(a > b for a, b in zip(keys, keys[1:]))
    distinct_ok = all(
        a != b and not (a.divides(b) and not (i < j and a.deg < b.deg))
        for (i, a), (j, b) in permutations(enumerate(e.head for e in withhm), 2)
    )
    return ChainReport(chain, div_ok, quot_ok, distinct_ok)


def check_chains(registry: Registry, ring: Ring) -> CheckReport:
    failures = []
    checked = 0
    for e in registry.entries.values():
        if e.is_input:
            continue
        checked += 1
        rep = extract_chain(e.pos, registry, ring)
        if not rep.passed:
            failures.append((e.pos, rep))
    return _report("chains", checked, failures)


# ---------------------------------------------------------------------------
# the basis at one insertion, as the reductor checks see it


class InsertionView:
    """The basis at one Done insertion, with checks (a)-(d).

    ``entries`` gives, by position, a record with ``sig``, ``index`` and
    ``head``: a ``RegistryEntry`` or a ``LabeledPolynomial``.  ``members``
    are the positions of G ∪ Done at the insertion together with the
    inserted element ``g_pos``.  ``rules`` are the run's rule tables as
    ``Registry.rules`` holds them, shared, not copied: per signature index,
    the (seq, monomial, owner) entries in log order.  The view reads each
    table up to the entries logged before ``seq``, the insertion's sequence
    number.  The insertion audit builds the view from the registry alone;
    the descent's snapshot extends it.
    """

    def __init__(
        self,
        entries,
        members: Sequence[int],
        g_pos: int,
        rules: dict[int, Sequence[tuple[int, Monomial, int]]],
        seq: int,
    ):
        self.entries = entries
        self.members = tuple(sorted(members))
        self.g_pos = g_pos
        self.rules = rules
        self.seq = seq
        self._phi: dict[int, list[tuple[Monomial, int]]] = {}
        self._rule_count: dict[int, int] = {}

    def rule_count(self, index: int) -> int:
        """How many rules of ``index`` were logged before the insertion."""
        k = self._rule_count.get(index)
        if k is None:
            table = self.rules.get(index, ())
            k = self._rule_count[index] = bisect_left(table, self.seq, key=itemgetter(0))
        return k

    def phi_basis(self, index: int) -> list[tuple[Monomial, int]]:
        """(head, position) of the completed basis for ``index + 1``: the
        members of a higher signature index (their calls finished earlier),
        ascending by position."""
        basis = self._phi.get(index)
        if basis is None:
            entries = self.entries
            basis = self._phi[index] = [
                (entries[p].head, p) for p in self.members if entries[p].index > index
            ]
        return basis

    def phi_divisor(self, index: int, mono: Monomial) -> Optional[int]:
        """Position of the first element of ``phi_basis(index)`` whose head
        divides ``mono``, or None.  The test is ``Monomial.divides``, on the
        packed values."""
        guard = mono.lay.guard
        v = mono.v | guard
        for head, pos in self.phi_basis(index):
            if (v - head.v) & guard == guard:
                return pos
        return None

    def rule_owner(self, index: int, mono: Monomial, pos: int) -> Optional[int]:
        """The newest owner, ``pos`` or a newer one, of a rule of ``index``
        whose monomial divides ``mono``; None when there is none.  The test
        is ``Monomial.divides``, on the packed values."""
        table = self.rules.get(index, ())
        guard = mono.lay.guard
        v = mono.v | guard
        for k in range(self.rule_count(index) - 1, -1, -1):
            _, rmono, owner = table[k]
            if owner < pos:  # the tables are in creation order
                break
            if (v - rmono.v) & guard == guard:
                return owner
        return None

    def failed_check(
        self, cand: int, target_head: Monomial, target_sig: Signature
    ) -> Optional[str]:
        """The first of checks (a)-(d) that member ``cand`` fails as a
        reductor of a target with this head and signature, or None when it
        passes all four; (b) and (c) test the shifted signature monomial."""
        e = self.entries[cand]
        u = target_head.divide(e.head)
        if u is None:
            return "a"
        mono = u.mul(e.sig.mono)
        if self.phi_divisor(e.index, mono) is not None:
            return "b"
        owner = self.rule_owner(e.index, mono, cand)
        if owner is None:
            raise BrokenLink(f"r{cand} has no rule entry")
        if owner != cand:
            return "c"
        if e.index == target_sig.index and mono == target_sig.mono:
            return "d"
        return None


def done_insertion_audit(registry: Registry) -> CheckReport:
    """At every Done insertion, re-evaluate checks (a)-(d) from scratch for
    every candidate and confirm none passes all four."""
    failures = []
    checked = 0
    for call, done in registry.insertions.items():
        for seq, pos in done:
            checked += 1
            g = registry.entries[pos]
            members = membership_at(registry, call, seq) + [pos]
            view = InsertionView(registry.entries, members, pos, registry.rules, seq)
            for cand in view.members:
                if cand != pos and view.failed_check(cand, g.head, g.sig) is None:
                    failures.append((pos, cand, "candidate passes all four checks"))
    return _report("done_insertion_audit", checked, failures)


# ---------------------------------------------------------------------------
# exhaustive pair classification at every insertion


def _pair_key(a: int, ua: int, b: int, ub: int) -> tuple[int, int, int, int]:
    """A pair's two (position, packed multiplier) parts, lower position first."""
    return (a, ua, b, ub) if a < b else (b, ub, a, ua)


def _rejection_index(events: Sequence[dict]):
    """Index the logged rejections by pair identity.

    A pair is keyed by ``_pair_key``; a rejection during a top-reduction is
    keyed by the reduced element, its head, the candidate and the
    multiplier.  Monomials are keyed by packed value, and each distinct
    payload exponent vector is packed once, through ``Monomial``, which
    rejects a bad one.  A rejection classifies its pair from its own
    sequence number on, so only the earliest one per key is kept.
    """
    crit: dict = {}
    isred: dict = {}
    monos = Lazy(Monomial)

    def mono(exps):
        return monos[tuple(exps)].v

    # where each kind of rejection is logged against a whole pair
    pair_where = {"F5CritPairReject": "crit_pair", "RewrittenReject": "spol"}
    for ev in events:
        kind = ev["kind"]
        if kind in pair_where:
            verdict = "f5" if kind == "F5CritPairReject" else "rewritten"
            if ev["where"] == pair_where[kind]:
                key = _pair_key(ev["p1"], mono(ev["u1"]), ev["p2"], mono(ev["u2"]))
                crit.setdefault(key, (ev["seq"], verdict))
            elif ev["where"] == "is_reducible":
                key = (ev["h"], mono(ev["h_head"]), ev["cand"], mono(ev["mult"]))
                isred.setdefault(key, (ev["seq"], verdict))
    return crit, isred


def in_scope(key: int, deg: int, g_key: int, g_deg: int, order) -> bool:
    """Whether a target with signature key ``key`` and degree ``deg`` is
    covered by the insertion of an element with signature key ``g_key`` and
    head degree ``g_deg``.  The keys are ``sig.sig_key``s under ``order``,
    each index is read back from its key (``sig.key_index``), and the
    inserting call is the inserted element's index.  The thm5 check's
    targets are S-pairs of members, of the degree of their lcm; the
    descent's are multiplied members t * b.

    The claim covers the targets whose signature lies below the inserted
    one.  For a target of the inserting call's index it also needs deg <=
    deg(head(g)): the input is homogeneous and the main loop is stepped by
    degree, so when g is inserted in step d = deg(head(g)), no pair of a
    higher degree has been processed, and none can have been classified or
    completed yet.  Under degrevlex and deglex the degree bound follows from
    the signature bound: a labeled polynomial of index i has degree
    deg(sig.mono) + deg(f_i), so within index i a smaller signature has no
    larger degree.  Under lex it does not follow, and a target of a later
    step can have a smaller signature.  Targets of a higher index come from
    the basis of the previous call, which is complete.
    """
    return key < g_key and (deg <= g_deg or key_index(key, order) != key_index(g_key, order))


class _PairRules:
    """How the log classifies S-pairs: the one place the evidence rules live.

    A pair is rejected by the F5 or the rewritten criterion when the engine
    logged that rejection, at pair creation, at S-polynomial creation or as a
    rejected top-reduction of one part by the other.  It is completed once
    the element built from it is Done-inserted.  An element built from it
    that reduced to zero never enters the basis, but its rule, added at
    creation, rewrites both parts from then on, so the pair counts as
    rewritten once the zero reduction is logged.

    Rejections are read from the events; the elements built from a pair,
    from the registry's genealogies.  Pairs are formed on the packed values
    of the entries' heads and signature monomials, as ``Engine._pairs``
    forms them: no ``Monomial`` or ``Signature`` is built per pair.
    """

    def __init__(self, events: Sequence[dict], registry: Registry, order):
        self.entries = registry.entries
        self.order = order
        key_one = order.vkey(0)
        # each entry's ``sig_key`` less the order key of 1, so that a part's
        # key is this plus the order key of its multiplier (``_shape``)
        self.key_base = {pos: sig_key(e.sig, order) - key_one
                         for pos, e in registry.entries.items()}
        self.crit, self.isred = _rejection_index(events)
        # pair key -> the entries built from the pair, in creation order
        self.created: dict[tuple, list[RegistryEntry]] = {}
        for e in registry.entries.values():
            if not e.is_input:
                greater, smaller, u_over, u_under = e.genealogy
                key = _pair_key(greater, u_over.v, smaller, u_under.v)
                self.created.setdefault(key, []).append(e)

    def _shape(self, a_pos: int, b_pos: int):
        """The pair's signature key and lcm degree, and its two parts as
        (position, packed head, packed multiplier) triples, the lower
        position first.  The key is the greater ``sig_key`` of the two
        multiplied signatures: signature keys are affine in the monomial, so
        each is key(sig) + key(u) - key(1)."""
        if a_pos > b_pos:
            a_pos, b_pos = b_pos, a_pos
        a, b = self.entries[a_pos], self.entries[b_pos]
        lay = self.order.lay
        ha, hb = a.head.v, b.head.v
        t = lay.fieldwise(ha, hb, True)
        ua, ub = t - ha, t - hb
        ma, mb = ua + a.sig.mono.v, ub + b.sig.mono.v
        if (ma | mb) & lay.guard:
            raise overflow_error(f"a signature multiple of the pair of r{a_pos} and r{b_pos}")
        vkey, base = self.order.vkey, self.key_base
        key = max(base[a_pos] + vkey(ua), base[b_pos] + vkey(ub))
        return key, t >> lay.shift, (a_pos, ha, ua), (b_pos, hb, ub)

    def _evidence(self, a: tuple, b: tuple) -> list[tuple]:
        """(from_seq, seq, outcome, via) per outcome logged for the pair of
        parts ``a`` and ``b``: the outcome, logged at ``seq``, classifies the
        pair at every insertion after ``from_seq``."""
        (a_pos, ha, ua), (b_pos, hb, ub) = a, b
        out = []
        key = (a_pos, ua, b_pos, ub)
        hit = self.crit.get(key)
        if hit is not None:
            out.append((hit[0], hit[0], hit[1], "pair_check"))
        for isred_key in ((b_pos, hb, a_pos, ua), (a_pos, ha, b_pos, ub)):
            hit = self.isred.get(isred_key)
            if hit is not None:
                out.append((hit[0], hit[0], hit[1], "is_reducible"))
        for ne in self.created.get(key, ()):
            s = ne.created_seq
            if ne.done_seq is not None:
                out.append((max(s, ne.done_seq), s, "completed", "trail"))
            elif ne.zero_seq is not None:
                out.append((max(s, ne.zero_seq), s, "rewritten", "syzygy_rule"))
        return out

    def pair(self, a_pos: int, b_pos: int) -> tuple[int, int, float]:
        """One S-pair of members as the thm5 check sees it: (key, deg,
        first), the sig_key of the greater multiplied signature, the degree
        of the lcm of the heads, and the earliest sequence number after
        which some outcome classifies the pair at every insertion (inf when
        the log holds none).  A plain tuple of ints and a float, which the
        garbage collector untracks."""
        key, deg, a, b = self._shape(a_pos, b_pos)
        evidence = self._evidence(a, b)
        return key, deg, min(evidence)[0] if evidence else math.inf

    def evidence(self, a_pos: int, b_pos: int) -> list[tuple]:
        _, _, a, b = self._shape(a_pos, b_pos)
        return self._evidence(a, b)


class _DominanceCount:
    """Points (key, deg) added one at a time, counted by a lower bound on
    each coordinate.

    One sorted key list per distinct degree among ``degs``; the list of
    degree d holds the keys of the points of degree at least d.
    """

    def __init__(self, degs: Sequence[int]):
        self.degs = sorted(set(degs))
        self.keys: list[list[int]] = [[] for _ in self.degs]

    def add(self, key: int, deg: int) -> None:
        for d, keys in zip(self.degs, self.keys):
            if d > deg:
                break
            insort(keys, key)

    def above(self, key: int, min_deg: Optional[int] = None) -> int:
        """Points with key above ``key`` and, unless ``min_deg`` is None, a
        degree of at least ``min_deg``."""
        t = 0 if min_deg is None else bisect_left(self.degs, min_deg)
        if t == len(self.degs):
            return 0
        keys = self.keys[t]
        return len(keys) - bisect_right(keys, key)


def check_thm5_exhaustive(events: Sequence[dict], registry: Registry, ring: Ring) -> CheckReport:
    """Every in-scope pair at every insertion is classified into exactly one
    of {f5, rewritten, completed} by its first processing outcome.

    The in-scope pairs at an insertion are the S-pairs of its members that
    ``in_scope`` covers, and a failure is one that no outcome logged before
    the insertion classifies (``_PairRules``); ``checked`` counts the pairs
    over all insertions.  They are counted, not tested one insertion at a
    time.  A pair is formed at the stage k of its call at which its later
    member joins G ∪ Done: stage 0 for the members the call starts with,
    stage k + 1 for insertion k (counting from 0).  By ``in_scope`` it is in
    scope at exactly the insertions j >= k whose signature key is above the
    pair's and, for a pair of the call's index, whose head degree is at
    least its lcm degree: a two-sided dominance count.  Each call's stages
    are walked backwards, each insertion is added to a ``_DominanceCount``,
    and the pairs formed at a stage are counted there.  A pair can be
    unclassified at insertion j only if it is in scope somewhere and its
    earliest evidence is logged no earlier than j, so only those insertions
    are looked at one by one.  Each pair's data is worked out once per log
    and shared by the calls.
    """
    order = ring.order
    rules = _PairRules(events, registry, order)
    pairs: dict[tuple[int, int], tuple] = {}
    unclassified = []
    checked = 0
    for call, done in registry.insertions.items():
        g_seq = [seq for seq, _ in done]
        g_pos = [pos for _, pos in done]
        g_key = [sig_key(registry.entries[pos].sig, order) for pos in g_pos]
        g_deg = [registry.entries[pos].head.deg for pos in g_pos]
        # members in the order they join; the last insertion never joins
        members = membership_at(registry, call, g_seq[0])
        start = len(members)
        members += g_pos[:-1]
        count = _DominanceCount(g_deg)
        for k in range(len(done) - 1, -1, -1):
            count.add(g_key[k], g_deg[k])
            for i in range(start) if k == 0 else (start + k - 1,):
                b_pos = members[i]
                for a_pos in members[:i]:
                    pair_id = (a_pos, b_pos) if a_pos < b_pos else (b_pos, a_pos)
                    pair = pairs.get(pair_id)
                    if pair is None:
                        pair = pairs[pair_id] = rules.pair(*pair_id)
                    key, deg, first = pair
                    covering = count.above(key, deg if key_index(key, order) == call else None)
                    checked += covering
                    if not covering:
                        continue
                    j = k
                    while j < len(done) and g_seq[j] <= first:
                        if in_scope(key, deg, g_key[j], g_deg[j], order):
                            unclassified.append((g_seq[j], pair_id, g_pos[j]))
                        j += 1
    unclassified.sort()
    failures = [(g_pos, pair_id, "unclassified") for _, pair_id, g_pos in unclassified]
    return _report("thm5_exhaustive", checked, failures)


# the report names of run_all_checkers, in its order
_CHECKER_NAMES = (
    "d_progression", "signature_safety", "rule_degrees", "genealogy", "trail_replay",
    "chains", "done_insertion_audit", "thm5_exhaustive",
)


def run_all_checkers(events: Sequence[dict], ring: Ring, registry: Optional[Registry] = None,
                     replay: Optional[ReplayReport] = None) -> list[CheckReport]:
    """Every checker's report.  The registry and the replay are built from
    ``events`` unless they are passed.  On a log with no ``CallBegin`` no
    check has anything to run on, so each report fails with that reason."""
    if not any(ev["kind"] == "CallBegin" for ev in events):
        return [_report(name, 0, ["no CallBegin in the log"]) for name in _CHECKER_NAMES]
    if registry is None:
        registry = build_registry(events)
    if replay is None:
        replay = check_replay(events, ring)
    return [
        check_d_progression(events),
        check_signature_safety(events, ring.order),
        check_rule_degrees(registry),
        check_genealogy(registry, ring.order),
        replay,
        check_chains(registry, ring),
        done_insertion_audit(registry),
        check_thm5_exhaustive(events, registry, ring),
    ]
