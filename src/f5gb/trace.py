"""Append-only event log plus independent checkers.

The engine emits one event per decision; every run-time-observable claim the
engine is supposed to satisfy is then re-verified here, post hoc, from the
serialized log alone.  Events are plain dicts with stable field names so the
log round-trips through JSON Lines.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from .poly import GT, LT, Monomial, MonomialQuotient, Polynomial, Ring, quotient_cmp
from .sig import Signature, sig_cmp, sig_divides, sig_key, sig_mul

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
    "DescentStep",
    "DescentDone",
)


class BrokenGenealogy(Exception):
    """A genealogy link points at a missing or inconsistent ancestor."""


# ---------------------------------------------------------------------------
# payload helpers


def mono_payload(m: Monomial) -> list:
    return list(m.exps)


def sig_payload(s: Signature) -> dict:
    return {"mono": list(s.mono.exps), "index": s.index}


def sig_from_payload(d: dict) -> Signature:
    return Signature(Monomial(d["mono"]), d["index"])


def poly_payload(p: Polynomial) -> list:
    return [[c, list(m.exps)] for c, m in p.terms]


def poly_from_payload(ring: Ring, payload: list) -> Polynomial:
    return ring.poly([(c, Monomial(exps)) for c, exps in payload])


class Trace:
    """Single-writer event sink; events receive monotone sequence numbers."""

    def __init__(self):
        self.events: list[dict] = []

    def emit(self, kind: str, **payload) -> int:
        assert kind in EVENT_KINDS, kind
        seq = len(self.events)
        ev = {"seq": seq, "kind": kind}
        ev.update(payload)
        self.events.append(ev)
        return seq

    def to_jsonl(self, fp) -> None:
        for ev in self.events:
            fp.write(json.dumps(ev, separators=(",", ":")))
            fp.write("\n")


def events_from_jsonl(fp) -> list[dict]:
    return [json.loads(line) for line in fp if line.strip()]


# ---------------------------------------------------------------------------
# registry: reconstruct every labeled polynomial from the log


@dataclass
class RegistryEntry:
    pos: int
    call: int
    index: int
    sig: Signature
    creation_poly: list
    genealogy: Optional[tuple] = None  # (greater, smaller, u_over, u_under)
    created_seq: int = -1
    done_seq: Optional[int] = None
    zero_seq: Optional[int] = None
    final_poly: Optional[list] = None
    trail: Optional[list] = None
    is_input: bool = False

    @property
    def is_zero(self) -> bool:
        return self.zero_seq is not None

    def head(self) -> Optional[Monomial]:
        payload = self.final_poly if self.final_poly is not None else self.creation_poly
        if not payload:
            return None
        return Monomial(payload[0][1])


@dataclass
class Registry:
    entries: dict[int, RegistryEntry]
    calls: dict[int, dict]  # call index -> CallBegin payload
    # call index -> (seq, pos) of each DoneInserted, in log order
    insertions: dict[int, list[tuple[int, int]]] = field(default_factory=dict)
    # signature index -> (seq, mono, pos) of each RuleAdded, in log order
    rules: dict[int, list[tuple[int, Monomial, int]]] = field(default_factory=dict)

    def final_poly(self, ring: Ring, pos: int) -> Polynomial:
        e = self.entries[pos]
        payload = e.final_poly if e.final_poly is not None else e.creation_poly
        return poly_from_payload(ring, payload)

    def creation(self, ring: Ring, pos: int) -> Polynomial:
        return poly_from_payload(ring, self.entries[pos].creation_poly)


def build_registry(events: Sequence[dict]) -> Registry:
    entries: dict[int, RegistryEntry] = {}
    calls: dict[int, dict] = {}
    insertions: dict[int, list[tuple[int, int]]] = {}
    rules: dict[int, list[tuple[int, Monomial, int]]] = {}
    for ev in events:
        kind = ev["kind"]
        if kind == "CallBegin":
            calls[ev["call"]] = ev
            pos = ev["input_pos"]
            sig = sig_from_payload(ev["sig"])
            entries[pos] = RegistryEntry(
                pos=pos,
                call=ev["call"],
                index=sig.index,
                sig=sig,
                creation_poly=ev["poly"],
                final_poly=ev["poly"],
                created_seq=ev["seq"],
                is_input=True,
            )
        elif kind in ("SPolCreated", "NewFromTopReduction"):
            sig = sig_from_payload(ev["sig"])
            if kind == "SPolCreated":
                gen = (
                    ev["p1"],
                    ev["p2"],
                    Monomial(ev["u1"]),
                    Monomial(ev["u2"]),
                )
            else:
                gen = (
                    ev["j"],
                    ev["h"],
                    Monomial(ev["u"]),
                    Monomial(ev["u_under"]),
                )
            entries[ev["pos"]] = RegistryEntry(
                pos=ev["pos"],
                call=ev["call"],
                index=sig.index,
                sig=sig,
                creation_poly=ev["poly"],
                genealogy=gen,
                created_seq=ev["seq"],
            )
        elif kind == "DoneInserted":
            e = entries[ev["pos"]]
            e.done_seq = ev["seq"]
            e.final_poly = ev["poly"]
            e.trail = ev["trail"]
            insertions.setdefault(ev["call"], []).append((ev["seq"], ev["pos"]))
        elif kind == "ReductionToZero":
            e = entries[ev["pos"]]
            e.zero_seq = ev["seq"]
            e.final_poly = []
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


def rules_before(registry: Registry, seq: int) -> dict[int, list[tuple[Monomial, int]]]:
    """Per index, the rule entries added before sequence number ``seq``;
    indexes without one are absent."""
    tables = {}
    for index, table in registry.rules.items():
        k = bisect_left(table, seq, key=itemgetter(0))
        if k:
            tables[index] = [(mono, pos) for _, mono, pos in table[:k]]
    return tables


# ---------------------------------------------------------------------------
# reports


@dataclass
class CheckReport:
    name: str
    passed: bool
    checked: int
    failures: list = field(default_factory=list)
    # the check did not run; a skipped report never passes
    skipped: bool = False

    def __bool__(self) -> bool:
        return self.passed

    def line(self) -> str:
        status = "skipped" if self.skipped else "pass" if self.passed else "FAIL"
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
            h_sig = sig_from_payload(ev["h_sig"])
            msig = sig_from_payload(ev["msig"])
            if sig_cmp(h_sig, msig, order) != GT:
                failures.append((ev["seq"], "unsafe reduction step"))
        elif ev["kind"] == "PhiPreReduce":
            checked += 1
            if not ev["reductor_index"] > ev["h_index"]:
                failures.append((ev["seq"], "pre-reduction by non-higher index"))
    return _report("signature_safety", checked, failures)


def check_rule_degrees(events: Sequence[dict]) -> CheckReport:
    """Per index, total degrees of rule monomials never decrease."""
    per_index: dict[int, list[tuple[int, int]]] = {}
    for ev in events:
        if ev["kind"] == "RuleAdded":
            per_index.setdefault(ev["index"], []).append(
                (ev["seq"], sum(ev["mono"]))
            )
    failures = []
    checked = 0
    for idx, degs in sorted(per_index.items()):
        for (s1, d1), (s2, d2) in zip(degs, degs[1:]):
            checked += 1
            if d2 < d1:
                failures.append((idx, s2, d1, d2))
    return _report("rule_degrees", checked, failures)


def check_genealogy(
    events: Sequence[dict], order, registry: Optional[Registry] = None
) -> CheckReport:
    """Created elements: sig equals u_over * S(greater part) and strictly
    exceeds u_under * S(smaller part); Done events follow their creation."""
    if registry is None:
        registry = build_registry(events)
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
        if sig_cmp(e.sig, sig_mul(u_under, ss), order) != GT:
            failures.append((e.pos, "sig not greater than smaller part"))
        if e.done_seq is not None and not e.created_seq < e.done_seq:
            failures.append((e.pos, "done before creation"))
    return _report("genealogy", checked, failures)


def replay_trail(ring: Ring, registry: Registry, pos: int) -> Polynomial:
    """Re-apply the stored reduction trail to the creation-time polynomial."""
    e = registry.entries[pos]
    p = poly_from_payload(ring, e.creation_poly)
    for step in e.trail or []:
        kind = step[0]
        if kind == "monic":
            p = p.scale(step[1])
        else:
            c, u, j = step[1], Monomial(step[2]), step[3]
            p = p.sub(registry.final_poly(ring, j).term_mul(c, u))
    return p


def check_replay(
    events: Sequence[dict], ring: Ring, registry: Optional[Registry] = None
) -> CheckReport:
    """Replaying each Done element's trail reproduces its final polynomial."""
    if registry is None:
        registry = build_registry(events)
    failures = []
    checked = 0
    for e in registry.entries.values():
        if e.done_seq is None or e.is_input:
            continue
        checked += 1
        got = replay_trail(ring, registry, e.pos)
        want = poly_from_payload(ring, e.final_poly)
        if got != want:
            failures.append((e.pos, "replay mismatch"))
    return _report("trail_replay", checked, failures)


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
    quotients strictly descend (compared by cross-multiplication), and head
    monomials are pairwise distinct with divisibility only forward and into a
    strictly larger degree.  A zero-reduced final element takes part only in
    the divisibility check: it has no head monomial.
    """
    order = ring.order
    chain = [pos]
    cur = registry.entries[pos]
    seen = {pos}
    while not cur.is_input:
        if cur.genealogy is None:
            raise BrokenGenealogy(f"r{cur.pos} has no genealogy and is not an input")
        parent = cur.genealogy[0]
        if parent not in registry.entries or parent in seen:
            raise BrokenGenealogy(f"broken ancestor link at r{cur.pos}")
        chain.append(parent)
        seen.add(parent)
        cur = registry.entries[parent]
    chain.reverse()

    div_ok = all(
        sig_divides(registry.entries[a].sig, registry.entries[b].sig)
        for a, b in zip(chain, chain[1:])
    )

    withhm = [p for p in chain if registry.entries[p].head() is not None]
    quot_ok = True
    for i in range(len(withhm)):
        for j in range(i + 1, len(withhm)):
            a, b = registry.entries[withhm[i]], registry.entries[withhm[j]]
            qa = MonomialQuotient(a.head(), a.sig.mono)
            qb = MonomialQuotient(b.head(), b.sig.mono)
            if quotient_cmp(qa, qb, order) != GT:
                quot_ok = False

    distinct_ok = True
    heads = [registry.entries[p].head() for p in withhm]
    for i in range(len(heads)):
        for j in range(len(heads)):
            if i == j:
                continue
            if heads[i] == heads[j]:
                distinct_ok = False
            elif heads[i].divides(heads[j]) and not (
                i < j and heads[i].deg < heads[j].deg
            ):
                distinct_ok = False
    return ChainReport(chain, div_ok, quot_ok, distinct_ok)


def check_chains(
    events: Sequence[dict], ring: Ring, registry: Optional[Registry] = None
) -> CheckReport:
    if registry is None:
        registry = build_registry(events)
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
# reductor checks shared with the insertion audit


def phi_heads_by_index(
    registry: Registry, heads: dict[int, Optional[Monomial]], members: Sequence[int]
) -> dict[int, list[Monomial]]:
    """For each signature index among ``members``, the heads of the completed
    basis for ``index + 1``: every member with a strictly higher signature
    index (those calls finished earlier).  ``heads`` maps a position to its
    head monomial."""
    indexed = [(registry.entries[p].index, heads[p]) for p in members]
    return {
        index: [h for i, h in indexed if i > index and h is not None]
        for index in {i for i, _ in indexed}
    }


def evaluate_reductor_checks(
    registry: Registry,
    heads: dict[int, Optional[Monomial]],
    phi_heads: dict[int, list[Monomial]],
    rules: dict[int, list[tuple[Monomial, int]]],
    cand: int,
    target_head: Monomial,
    target_sig: Signature,
) -> Optional[str]:
    """Re-run checks (a)-(d) for one candidate; returns the failing check or
    None when the candidate passes all four.  ``phi_heads`` is the table
    ``phi_heads_by_index`` builds for the members at this point."""
    e = registry.entries[cand]
    h = heads[cand]
    if h is None:
        return "a"
    u = target_head.divide(h)
    if u is None:
        return "a"
    msig_mono = u.mul(e.sig.mono)
    for head in phi_heads[e.index]:
        if head.divides(msig_mono):
            return "b"
    table = rules.get(e.index, [])
    rewriter = None
    for mono, pos in reversed(table):
        if mono.divides(msig_mono):
            rewriter = pos
            break
    if rewriter is None:
        raise BrokenGenealogy(f"r{cand} has no rule entry")
    if rewriter != cand:
        return "c"
    if msig_mono == target_sig.mono and e.index == target_sig.index:
        return "d"
    return None


def done_insertion_audit(
    events: Sequence[dict], ring: Ring, registry: Optional[Registry] = None
) -> CheckReport:
    """At every Done insertion, re-evaluate checks (a)-(d) from scratch for
    every candidate and confirm none passes all four."""
    if registry is None:
        registry = build_registry(events)
    failures = []
    checked = 0
    heads = {pos: e.head() for pos, e in registry.entries.items()}
    for call, done in registry.insertions.items():
        for seq, pos in done:
            checked += 1
            e = registry.entries[pos]
            members = membership_at(registry, call, seq)
            rules = rules_before(registry, seq)
            phi_heads = phi_heads_by_index(registry, heads, members)
            for cand in members:
                if cand == pos:
                    continue
                verdict = evaluate_reductor_checks(
                    registry, heads, phi_heads, rules, cand, heads[pos], e.sig
                )
                if verdict is None:
                    failures.append((pos, cand, "candidate passes all four checks"))
    return _report("done_insertion_audit", checked, failures)


# ---------------------------------------------------------------------------
# exhaustive pair classification at sampled insertions


@dataclass
class PairClassification:
    g_pos: int
    pair: tuple[int, int]
    outcome: str  # f5 | rewritten | completed | unclassified
    seq: Optional[int]
    via: str = ""


def _pair_event_index(events: Sequence[dict]):
    """Index classification evidence by pair identity."""
    crit: dict = {}
    isred: dict = {}
    created: dict = {}
    for ev in events:
        kind = ev["kind"]
        if kind == "F5CritPairReject" and ev["where"] == "crit_pair":
            key = frozenset(
                [(ev["p1"], tuple(ev["u1"])), (ev["p2"], tuple(ev["u2"]))]
            )
            crit.setdefault(key, []).append((ev["seq"], "f5"))
        elif kind == "RewrittenReject" and ev["where"] == "spol":
            key = frozenset(
                [(ev["p1"], tuple(ev["u1"])), (ev["p2"], tuple(ev["u2"]))]
            )
            crit.setdefault(key, []).append((ev["seq"], "rewritten"))
        elif kind == "F5CritPairReject" and ev["where"] == "is_reducible":
            key = (ev["h"], tuple(ev["h_head"]), ev["cand"], tuple(ev["mult"]))
            isred.setdefault(key, []).append((ev["seq"], "f5"))
        elif kind == "RewrittenReject" and ev["where"] == "is_reducible":
            key = (ev["h"], tuple(ev["h_head"]), ev["cand"], tuple(ev["mult"]))
            isred.setdefault(key, []).append((ev["seq"], "rewritten"))
        elif kind == "SPolCreated":
            key = frozenset(
                [(ev["p1"], tuple(ev["u1"])), (ev["p2"], tuple(ev["u2"]))]
            )
            created.setdefault(key, []).append((ev["seq"], ev["pos"]))
        elif kind == "NewFromTopReduction":
            key = frozenset(
                [(ev["j"], tuple(ev["u"])), (ev["h"], tuple(ev["u_under"]))]
            )
            created.setdefault(key, []).append((ev["seq"], ev["pos"]))
    return crit, isred, created


class _Pair(NamedTuple):
    """One S-pair of members as the thm5 check sees it."""

    key: tuple  # sig_key of the greater multiplied signature
    index: int  # index of that signature
    deg: int  # degree of the lcm of the heads
    # (from_seq, seq, outcome, via): an outcome logged at ``seq`` that
    # classifies the pair at every insertion after ``from_seq``
    evidence: list


def _in_scope(pair: _Pair, call: int, g_key: tuple, g_deg: int) -> bool:
    """Whether ``pair`` must be classified when call ``call`` inserts an
    element with signature key ``g_key`` and head degree ``g_deg``.

    The claim covers the pairs whose signature lies below the inserted one.
    For a pair of this call's index it also needs deg(lcm) <= deg(head(g)):
    the input is homogeneous and the main loop is stepped by degree, so when
    g is inserted in step d = deg(head(g)), no pair of a higher degree has
    been processed, and none can have been classified yet.  Under degrevlex
    and deglex the degree bound follows from the signature bound: a labeled
    polynomial of index i has degree deg(sig.mono) + deg(f_i), so within
    index i a smaller signature has no larger degree.  Under lex it does not
    follow, and a pair of a later step can have a smaller signature.  Pairs
    of a higher index come from the basis of the previous call, which is
    complete.
    """
    return pair.key < g_key and (pair.index != call or pair.deg <= g_deg)


class _PairRules:
    """How the log classifies S-pairs: the one place the evidence rules live.

    A pair is rejected by the F5 or the rewritten criterion when the engine
    logged that rejection, at pair creation, at S-polynomial creation or as a
    rejected top-reduction of one part by the other.  It is completed once
    the element built from it is Done-inserted.  An element built from it
    that reduced to zero never enters the basis, but its rule, added at
    creation, rewrites both parts from then on, so the pair counts as
    rewritten once the zero reduction is logged.
    """

    def __init__(self, events: Sequence[dict], registry: Registry, order):
        self.registry = registry
        self.order = order
        self.crit, self.isred, self.created = _pair_event_index(events)

    def pair(self, a_pos: int, b_pos: int) -> _Pair:
        entries = self.registry.entries
        a, b = entries[a_pos], entries[b_pos]
        ha, hb = a.head(), b.head()
        t = ha.lcm(hb)
        ua = t.divide(ha)
        ub = t.divide(hb)
        sa = sig_mul(ua, a.sig)
        sb = sig_mul(ub, b.sig)
        sigma = sa if sig_cmp(sa, sb, self.order) != LT else sb
        evidence = []
        key = frozenset([(a_pos, ua.exps), (b_pos, ub.exps)])
        for s, verdict in self.crit.get(key, ()):
            evidence.append((s, s, verdict, "pair_check"))
        for h_pos, hx, cand, u in ((b_pos, hb, a_pos, ua), (a_pos, ha, b_pos, ub)):
            for s, verdict in self.isred.get((h_pos, hx.exps, cand, u.exps), ()):
                evidence.append((s, s, verdict, "is_reducible"))
        for s, new_pos in self.created.get(key, ()):
            ne = entries[new_pos]
            if ne.done_seq is not None:
                evidence.append((max(s, ne.done_seq), s, "completed", "trail"))
            elif ne.zero_seq is not None:
                evidence.append((max(s, ne.zero_seq), s, "rewritten", "syzygy_rule"))
        return _Pair(sig_key(sigma, self.order), sigma.index, t.deg, evidence)


def classify_pairs_at_insertion(
    events: Sequence[dict],
    registry: Registry,
    ring: Ring,
    done_event: dict,
) -> list[PairClassification]:
    """Classify every S-pair of members in scope at the insertion (see
    ``_in_scope``) by its first processing outcome."""
    rules = _PairRules(events, registry, ring.order)
    g_pos = done_event["pos"]
    g = registry.entries[g_pos]
    g_key = sig_key(g.sig, ring.order)
    g_deg = g.head().deg
    call = done_event["call"]
    seq = done_event["seq"]
    members = membership_at(registry, call, seq)
    out = []
    for i, a_pos in enumerate(members):
        for b_pos in members[i + 1:]:
            pair = rules.pair(a_pos, b_pos)
            if not _in_scope(pair, call, g_key, g_deg):
                continue
            evidence = sorted(
                (s, outcome, via) for first, s, outcome, via in pair.evidence if first < seq
            )
            seq0, outcome, via = evidence[0] if evidence else (None, "unclassified", "")
            out.append(PairClassification(g_pos, (a_pos, b_pos), outcome, seq0, via))
    return out


def check_thm5_exhaustive(
    events: Sequence[dict],
    ring: Ring,
    pair_threshold: int = 5000,
    registry: Optional[Registry] = None,
) -> CheckReport:
    """Every in-scope pair at every insertion is classified into exactly one
    of {f5, rewritten, completed} by its first processing outcome.

    The in-scope pairs at an insertion are those ``classify_pairs_at_insertion``
    returns, and a failure is one it calls unclassified; ``checked`` counts
    them over all insertions.  Each call is walked once: a pair is looked at
    when its later member joins G ∪ Done, and compared right away with every
    insertion still to come in that call.  A log with ``pair_threshold`` or
    more created pairs is skipped.
    """
    total_pairs = sum(1 for ev in events if ev["kind"] == "CritPairCreated")
    if total_pairs >= pair_threshold:
        return CheckReport("thm5_exhaustive", False, 0, [], skipped=True)
    if registry is None:
        registry = build_registry(events)
    order = ring.order
    rules = _PairRules(events, registry, order)
    unclassified = []
    checked = 0
    for call, done in registry.insertions.items():
        begin = registry.calls[call]
        inserted = []
        for seq, pos in done:
            g = registry.entries[pos]
            inserted.append((seq, sig_key(g.sig, order), g.head().deg, pos))
        members: list[int] = []
        joining = sorted(begin["g_next"] + [begin["input_pos"]])
        for k in range(len(inserted)):
            later = inserted[k:]
            for b_pos in joining:
                for a_pos in members:
                    pair_id = (a_pos, b_pos) if a_pos < b_pos else (b_pos, a_pos)
                    pair = rules.pair(*pair_id)
                    first = min((ev[0] for ev in pair.evidence), default=math.inf)
                    for seq, g_key, g_deg, g_pos in later:
                        if _in_scope(pair, call, g_key, g_deg):
                            checked += 1
                            if first >= seq:
                                unclassified.append((seq, pair_id, g_pos))
                members.append(b_pos)
            joining = [inserted[k][3]]
    unclassified.sort()
    failures = [(g_pos, pair_id, "unclassified") for _, pair_id, g_pos in unclassified]
    return _report("thm5_exhaustive", checked, failures)


def run_all_checkers(
    events: Sequence[dict], ring: Ring, registry: Optional[Registry] = None
) -> list[CheckReport]:
    if registry is None:
        registry = build_registry(events)
    return [
        check_d_progression(events),
        check_signature_safety(events, ring.order),
        check_rule_degrees(events),
        check_genealogy(events, ring.order, registry),
        check_replay(events, ring, registry),
        check_chains(events, ring, registry),
        done_insertion_audit(events, ring, registry),
        check_thm5_exhaustive(events, ring, registry=registry),
    ]
