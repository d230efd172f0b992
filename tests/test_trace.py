"""Checkers: positive runs, fabricated negative controls, log round-trips."""

import collections
import copy
import functools
import hashlib
import io
import itertools
import json
import random
import re

import pytest

from f5gb import sig, trace
from f5gb.engine import BudgetExceeded, EngineConfig, incremental_f5
from f5gb.oracle import done_snapshots, find_thm4_pairs_in_snapshot
from f5gb.poly import BOUND, GT, ORDER_KINDS, Monomial, MonomialOrder, poly_axpy, quotient_key
from f5gb.sig import (LabeledPolynomial, ModuleVector, ReplayedVectors, Signature,
                      check_admissible, replay_leads, sig_key, sig_mul)
from f5gb.trace import (
    ChainReport,
    EvidenceIndex,
    InsertionView,
    Trace,
    all_admissible,
    build_registry,
    check_chains,
    check_d_progression,
    check_genealogy,
    check_replay,
    check_rule_degrees,
    check_signature_safety,
    check_thm5_exhaustive,
    done_insertion_audit,
    events_from_jsonl,
    extract_chain,
    in_scope,
    membership_at,
    run_all_checkers,
)

import forged_logs
from order_reference import MonomialQuotient, quotient_cmp
from systems import (
    CYCLIC4,
    CYCLIC5,
    KATSURA5,
    PLANT_SYSTEMS,
    ROW_FIELDS,
    SUITE,
    SUITE_PRIMES,
    _PairRules,
    classify_pairs_at_insertion,
    engine_pin_systems,
    make_ring,
    poly_from_payload,
    polys,
    replay_vectors,
    replayed_inputs,
    snapshot,
    strip_rejections,
    suite_instances,
    thm5_brute_force,
)


def M(*exps):
    return Monomial(exps)


@pytest.fixture
def ring():
    return make_ring(7, ["x", "y"])


@pytest.fixture
def demo(ring):
    return incremental_f5(polys(ring, "x^2 + y^2", "x*y"))


@pytest.fixture
def cyclic(ring_unused=None):
    ring = make_ring(7, ["x", "y", "z", "h"])
    res = incremental_f5(polys(ring, "x + y + z", "x*y + y*z + x*z", "x*y*z - h^3"))
    return ring, res


class TestDProgression:
    def test_pass(self, ring):
        ev = [
            {"seq": 0, "kind": "DegreeStep", "call": 1, "d": 3, "pairs": 1},
            {"seq": 1, "kind": "DegreeStep", "call": 1, "d": 4, "pairs": 1},
            {"seq": 2, "kind": "DegreeStep", "call": 1, "d": 5, "pairs": 1},
        ]
        assert check_d_progression(build_registry(ev, ring)).passed

    def test_fail_flat_run(self, ring):
        ev = [
            {"seq": k, "kind": "DegreeStep", "call": 1, "d": 3, "pairs": 1}
            for k in range(3)
        ]
        rep = check_d_progression(build_registry(ev, ring))
        assert not rep.passed
        assert rep.failures[0][1] == 0  # first violation at j=0

    def test_fail_decrease(self, ring):
        ev = [
            {"seq": 0, "kind": "DegreeStep", "call": 1, "d": 4, "pairs": 1},
            {"seq": 1, "kind": "DegreeStep", "call": 1, "d": 3, "pairs": 1},
        ]
        assert not check_d_progression(build_registry(ev, ring)).passed


# sha256 over the tables of ``build_registry(log, ring)`` of the 18 SUITE
# logs, in ``suite_instances`` order, each log's written as
# ``Registry(entries=..., calls=..., insertions=..., rules=..., unknown=...)``
# with the repr of each: every field of every entry, call, insertion and rule
PINNED_SUITE_REGISTRIES = "05f9635ae83cd302c6578a5e693b1956233d42e190ce73c97552f57cae9e07b7"


class TestPayloadDecode:
    def test_suite_registries_pinned(self):
        digest = hashlib.sha256()
        for _, ring, inputs in suite_instances():
            r = build_registry(incremental_f5(inputs).events, ring)
            digest.update((f"Registry(entries={r.entries!r}, calls={r.calls!r}, insertions="
                           f"{r.insertions!r}, rules={r.rules!r}, unknown={r.unknown!r})").encode())
        assert digest.hexdigest() == PINNED_SUITE_REGISTRIES

    def test_each_payload_vector_is_decoded_once_per_log(self, monkeypatch):
        # the walk decodes each vector once, and no checker decodes one
        decoded = []

        def counting(exps):
            decoded.append(tuple(exps))
            return Monomial(exps)

        monkeypatch.setattr(trace, "Monomial", counting)
        ring, events = plant_run("katsura5")
        registry = build_registry(events, ring)
        for check in (check_signature_safety, check_thm5_exhaustive):
            assert check(registry).passed
        assert decoded and len(decoded) == len(set(decoded))


def _two_inputs(step: dict) -> list[dict]:
    """A log over GF(7) in x, y: call 2 begins with r0 = y, of signature e2,
    call 1 with r1 = x, of signature e1, which is the greater (a smaller
    index is greater), and ``step`` follows, with seq 3."""
    return [
        {"seq": 0, "kind": "CallBegin", "call": 2, "input_pos": 0,
         "sig": {"mono": (0, 0), "index": 2}, "poly": [[1, (0, 1)]], "g_next": []},
        {"seq": 1, "kind": "CallEnd", "call": 2, "basis": [0]},
        {"seq": 2, "kind": "CallBegin", "call": 1, "input_pos": 1,
         "sig": {"mono": (0, 0), "index": 1}, "poly": [[1, (1, 0)]], "g_next": [0]},
        {"seq": 3, **step},
    ]


class TestSignatureSafety:
    def test_vacuous(self, ring):
        assert check_signature_safety(build_registry([], ring)).passed

    def test_fabricated_violation(self, ring):
        # r0 - r1 = 6x + y, made monic by 6: its copies are the registry's,
        # so the replay passes, but 1 * e1 is above e2
        registry = build_registry(_two_inputs({
            "kind": "ReductionStep", "call": 1, "h": 0, "h_sig": {"mono": (0, 0), "index": 2},
            "reductor": 1, "mult": (0, 0), "msig": {"mono": (0, 0), "index": 1}, "coeff": 1,
            "post_scale": 6}), ring)
        assert registry.replay.passed and registry.damage is None
        rep = check_signature_safety(registry)
        assert rep.failures == [(0, 1, "unsafe reduction step")] and rep.checked == 1

    def test_phi_step_must_use_higher_index(self, ring):
        registry = build_registry(_two_inputs({
            "kind": "PhiPreReduce", "call": 1, "h": 0, "h_sig": {"mono": (0, 0), "index": 2},
            "h_index": 2, "reductor": 1, "reductor_index": 1,  # a lower index
            "mult": (0, 0), "coeff": 1}), ring)
        assert registry.replay.passed and registry.damage is None
        rep = check_signature_safety(registry)
        assert rep.failures == [(0, 1, "pre-reduction by non-higher index")] and rep.checked == 1


class TestRuleDegrees:
    def test_pass(self, ring):
        ev = [
            {"seq": 0, "kind": "RuleAdded", "index": 1, "mono": [1, 0], "pos": 0},
            {"seq": 1, "kind": "RuleAdded", "index": 1, "mono": [0, 1], "pos": 1},
            {"seq": 2, "kind": "RuleAdded", "index": 1, "mono": [1, 1], "pos": 2},
        ]
        assert check_rule_degrees(build_registry(ev, ring)).passed

    def test_fail(self, ring):
        ev = [
            {"seq": 0, "kind": "RuleAdded", "index": 1, "mono": [1, 1], "pos": 0},
            {"seq": 1, "kind": "RuleAdded", "index": 1, "mono": [1, 0], "pos": 1},
        ]
        assert not check_rule_degrees(build_registry(ev, ring)).passed

    def test_each_element_owns_one_rule_with_its_signature(self, cyclic):
        ring, res = cyclic
        events = res.events
        k, rule = next((k, ev) for k, ev in enumerate(events)
                       if ev["kind"] == "RuleAdded" and ev["pos"] == 2)
        assert rule["mono"] == (0, 0, 1, 0)
        # the same rule twice; a rule of another monomial of its degree
        twice = events[:k + 1] + [rule] + events[k + 1:]
        moved = events[:k] + [dict(rule, mono=(1, 0, 0, 0))] + events[k + 1:]
        checked = check_rule_degrees(build_registry(events, ring)).checked
        for log, more in ((twice, 1), (moved, 0)):
            rep = check_rule_degrees(build_registry(log, ring))
            assert rep.failures == [(2, "not exactly one rule, with its signature")]
            assert rep.checked == checked + more


class TestChains:
    def test_demo_two_chain(self, demo, ring):
        registry = build_registry(demo.events, ring)
        created = [p for p, e in registry.entries.items() if not e.is_input]
        (pos,) = created
        rep = extract_chain(pos, registry)
        assert rep.chain == [1, 2]  # input of the last call, then its product
        assert rep.passed
        # the hand-checked facts: sig divisibility and the quotient descent
        a, b = registry.entries[1], registry.entries[2]
        ha, hb = registry.polys[1].head_mono, registry.polys[2].head_mono
        assert a.sig == Signature(M(0, 0), 1) and b.sig == Signature(M(0, 1), 1)
        assert quotient_cmp(
            MonomialQuotient(ha, a.sig.mono),
            MonomialQuotient(hb, b.sig.mono),
            ring.order,
        ) == GT
        assert quotient_key(ha, a.sig.mono, ring.order) > quotient_key(
            hb, b.sig.mono, ring.order
        )

    def test_trivial_chain_of_input(self, demo, ring):
        registry = build_registry(demo.events, ring)
        rep = extract_chain(1, registry)
        assert rep.chain == [1] and rep.passed

    def test_all_chains_pass_on_runs(self, cyclic):
        ring, res = cyclic
        assert check_chains(build_registry(res.events, ring)).passed


class TestThm4Scan:
    def _snap(self, ring, sig0, head0, sig1, head1):
        entries = {
            0: LabeledPolynomial(0, sig0, ring.poly([(1, head0)])),
            1: LabeledPolynomial(1, sig1, ring.poly([(1, head1)])),
        }
        return snapshot(ring, entries, (0, 1), 1, {}, 0, {1: 0}, {})

    def test_negative_control_from_direct_definition(self, ring):
        # head divides and signature divides, but the quotient comparison
        # x*x > x^2*y*1 is false, so the pair must not be reported
        snap = self._snap(ring, Signature(M(0, 0), 1), M(1, 0), Signature(M(1, 0), 1), M(2, 1))
        assert find_thm4_pairs_in_snapshot(snap) == []

    def test_positive_fabricated_pair(self, ring):
        snap = self._snap(ring, Signature(M(0, 0), 1), M(2, 0), Signature(M(1, 1), 1), M(2, 1))
        assert find_thm4_pairs_in_snapshot(snap) == [(0, 1)]

    def test_coprime_heads_empty(self, ring):
        snap = self._snap(ring, Signature(M(0, 0), 1), M(2, 0), Signature(M(0, 1), 1), M(0, 2))
        assert find_thm4_pairs_in_snapshot(snap) == []


def fabricated_audit_log(done_sig_mono):
    """Minimal log: input x^2, then a Done element y*x^2 - x^2, with head
    x^2*y, built from the input as the replay rebuilds it.

    The input's head divides it with multiplier y.  With signature (x,1) the
    input passes all four reductor checks and the audit must fail.  With
    signature (y,1) the Done element's own rule, newer than the input's,
    divides the shifted signature y: check (c) rejects the input and the
    audit passes.
    """
    t = Trace()
    t.emit(
        "CallBegin",
        call=1,
        input_pos=0,
        sig={"mono": [0, 0], "index": 1},
        poly=[[1, [2, 0]]],
        g_next=[],
    )
    t.emit("RuleAdded", index=1, mono=[0, 0], pos=0)
    t.emit(
        "SPolCreated",
        call=1,
        pos=1,
        sig={"mono": list(done_sig_mono), "index": 1},
        poly=[[1, [2, 1]], [6, [2, 0]]],
        p1=0,
        u1=[0, 1],
        p2=0,
        u2=[0, 0],
        d=3,
    )
    t.emit("RuleAdded", index=1, mono=list(done_sig_mono), pos=1)
    t.emit(
        "DoneInserted",
        call=1,
        pos=1,
        sig={"mono": list(done_sig_mono), "index": 1},
        poly=[[1, [2, 1]], [6, [2, 0]]],
        creation_poly=[[1, [2, 1]], [6, [2, 0]]],
        trail=[],
    )
    return t.events


def check_d_audit_log():
    """Input x^2, then r1 with signature (x*y,1) and head x^3*y, then r2 with
    signature (y,1) and head x^2*y, each its signature's monomial times the
    input less the input, as the replay rebuilds it.  r2 is newer than r1
    but has the smaller signature, so it is Done-inserted first.

    At r1's insertion r2's head divides r1's with multiplier x.  r2 owns the
    newest rule dividing x*y, so check (c) passes it, and x*y is r1's
    signature: check (d) rejects it.  The input is rejected by r2's rule,
    check (c).
    """
    t = Trace()
    t.emit(
        "CallBegin",
        call=1,
        input_pos=0,
        sig={"mono": [0, 0], "index": 1},
        poly=[[1, [2, 0]]],
        g_next=[],
    )
    t.emit("RuleAdded", index=1, mono=[0, 0], pos=0)
    elements = ((1, [1, 1], [3, 1]), (2, [0, 1], [2, 1]))
    for pos, sig, head in elements:
        t.emit(
            "SPolCreated",
            call=1,
            pos=pos,
            sig={"mono": sig, "index": 1},
            poly=[[1, head], [6, [2, 0]]],
            p1=0,
            u1=sig,
            p2=0,
            u2=[0, 0],
            d=sum(head),
        )
        t.emit("RuleAdded", index=1, mono=sig, pos=pos)
    for pos, sig, head in reversed(elements):
        t.emit(
            "DoneInserted",
            call=1,
            pos=pos,
            sig={"mono": sig, "index": 1},
            poly=[[1, head], [6, [2, 0]]],
            creation_poly=[[1, head], [6, [2, 0]]],
            trail=[],
        )
    return t.events


def insertion_view(registry, pos):
    """The audit's view of the basis at the Done insertion of ``pos``."""
    seq = registry.entries[pos].done_seq
    call = next(call for call, done in registry.insertions.items() if (seq, pos) in done)
    return InsertionView(registry, membership_at(registry, call, seq) + [pos], pos, seq)


class TestDoneInsertionAudit:
    def test_passes_on_runs(self, demo, ring, cyclic):
        assert done_insertion_audit(build_registry(demo.events, ring)).passed
        ring, res = cyclic
        assert done_insertion_audit(build_registry(res.events, ring)).passed

    def test_negative_control_skipped_check(self, ring):
        # candidate multiplier y shifts the input signature to (y,1) != (x,1):
        # nothing rejects it, which the audit must flag as an engine bug
        rep = done_insertion_audit(build_registry(fabricated_audit_log((1, 0)), ring))
        assert not rep.passed

    def test_check_c_rescues_rewritten_candidate(self, ring):
        events = fabricated_audit_log((0, 1))
        registry = build_registry(events, ring)
        rep = done_insertion_audit(registry)
        assert rep.passed and rep.checked == 1
        view = insertion_view(registry, 1)
        assert view.failed_check(0, view.heads[1], registry.entries[1].sig) == "c"

    def test_check_d_rescues_equal_signature(self, ring):
        events = check_d_audit_log()
        registry = build_registry(events, ring)
        rep = done_insertion_audit(registry)
        assert rep.passed and rep.checked == 2
        view = insertion_view(registry, 1)
        assert view.members == (0, 1, 2)
        head, sig = view.heads[1], registry.entries[1].sig
        assert view.failed_check(0, head, sig) == "c"
        assert view.failed_check(2, head, sig) == "d"

    def test_candidate_without_rule_entry_is_loud(self, ring):
        # the input passes checks (a) and (b); with its RuleAdded gone there
        # is no rule to decide check (c) by: the audit fails, naming it
        events = [
            ev for ev in fabricated_audit_log((1, 0))
            if not (ev["kind"] == "RuleAdded" and ev["pos"] == 0)
        ]
        registry = build_registry(events, ring)
        rep = done_insertion_audit(registry)
        assert not rep.passed and rep.failures == [(1, 0, "r0 has no rule entry")]
        view = insertion_view(registry, 1)
        with pytest.raises(trace.BrokenLink, match="r0 has no rule entry"):
            view.failed_check(0, view.heads[1], registry.entries[1].sig)


class TestExtractChainBroken:
    def test_missing_greater_part_ancestor(self, ring):
        events = copy.deepcopy(fabricated_audit_log((1, 0)))
        (spol,) = [ev for ev in events if ev["kind"] == "SPolCreated"]
        spol["p1"] = 7  # no element was created at position 7
        registry = build_registry(events, ring)
        with pytest.raises(trace.BrokenLink, match="broken ancestor link at r1"):
            extract_chain(1, registry)


# Lex systems 510, 328 and 32 of the random small-system generator in
# perfbench/workloads.py at seed 1.  With pair scope by signature alone, each
# had pairs of a degree the loop had not reached yet counted as unclassified.
LEX_SYSTEM_510 = (
    3,
    ["x0", "x1", "x2"],
    [
        "x0 + 2*x1 + 2*x2",
        "x0^3 + x0^2*x2 + 2*x0*x1*x2 + x2^3",
        "2*x0^2 + 2*x0*x1 + x0*x2 + 2*x1^2 + x1*x2 + 2*x2^2",
    ],
)
LEX_SYSTEMS = {
    "random510": (LEX_SYSTEM_510, 63),
    "random328": (
        (5, ["x0", "x1"], ["x1^2", "2*x0 + 4*x1", "3*x0*x1^2", "4*x0^2",
                           "3*x0^3 + x0^2*x1 + 4*x1^3"]),
        6,
    ),
    "random032": (
        (3, ["x0", "x1", "x2"], ["x1", "2*x0*x1 + x0*x2 + x1^2", "2*x0^3 + 2*x2^3"]),
        47,
    ),
}


def lex_run(p, names, texts):
    ring = make_ring(p, names, "lex")
    return ring, incremental_f5(polys(ring, *texts), EngineConfig())


# Systems 578, 12 and 477 of the random small-system generator in
# perfbench/workloads.py at seed 1, each in the order its name gives:
# name -> (p, variables, polynomials, order).
CHECK_SMALL_SYSTEMS = {
    "random578-degrevlex": (
        5,
        ["x0", "x1", "x2"],
        [
            "x0^2 + x0*x1 + 4*x2^2",
            "x1 + 2*x2",
            "2*x0",
            "4*x0^3 + 4*x0^2*x1 + 2*x0*x1^2 + 3*x0*x1*x2 + 2*x0*x2^2 + 2*x1^3"
            " + 2*x1^2*x2 + x1*x2^2 + 3*x2^3",
            "3*x0^3 + x0^2*x1 + x0^2*x2 + 2*x0*x1^2 + 2*x0*x1*x2 + 3*x0*x2^2 + 4*x1^3"
            " + x1^2*x2 + 4*x1*x2^2 + 3*x2^3",
        ],
        "degrevlex",
    ),
    "random012-deglex": (
        5,
        ["x0", "x1", "x2"],
        [
            "3*x1^2*x2",
            "x0^3 + 4*x0*x2^2",
            "x0^2*x2 + 2*x0*x1^2 + 4*x0*x1*x2 + 3*x1^2*x2 + 4*x2^3",
        ],
        "deglex",
    ),
    "random477-lex": (
        7,
        ["x0", "x1", "x2"],
        [
            "5*x0^2 + 2*x2^2",
            "5*x0^3 + 2*x0^2*x1 + 5*x0^2*x2 + x0*x1^2 + 2*x0*x1*x2 + 6*x0*x2^2"
            " + 4*x1^3 + 3*x1^2*x2 + 6*x1*x2^2 + 2*x2^3",
            "4*x0^2*x2 + 6*x0*x1*x2 + 3*x0*x2^2 + 4*x1^3 + 5*x1^2*x2 + 4*x1*x2^2",
            "x0^3 + 3*x0*x2^2 + x1^2*x2 + 5*x1*x2^2 + 3*x2^3",
            "6*x1^2 + 5*x1*x2 + 3*x2^2",
        ],
        "lex",
    ),
}
CYCLIC3 = (7, ["x", "y", "z", "h"], ["x + y + z", "x*y + y*z + x*z", "x*y*z - h^3"])
# the cyclic fixture's system and LEX_SYSTEM_510 in their own orders and in
# the other degree order, and the check-small systems
THM5_SYSTEMS = {
    "cyclic": (*CYCLIC3, "degrevlex"),
    "lex": (*LEX_SYSTEM_510, "lex"),
    "deglex": (*CYCLIC3, "deglex"),
    "degrevlex": (*LEX_SYSTEM_510, "degrevlex"),
    **CHECK_SMALL_SYSTEMS,
}


def thm5_run(name):
    p, names, texts, order = THM5_SYSTEMS[name]
    ring = make_ring(p, names, order)
    return ring, incremental_f5(polys(ring, *texts), EngineConfig())


# Log plants on the degrevlex log of cyclic-4 or katsura-5 over GF(32003)
# (PLANT_SYSTEMS).  A drop removes one event: the first of its kind, or for
# RuleAdded the rule of the element at the given position (on cyclic-4 the
# first S-polynomial, on katsura-5 the first element built by a
# top-reduction).  A corruption (CORRUPTIONS) changes one field of one event
# in place.
RULE_PLANTS = {"cyclic4": 2, "katsura5": 30}


def _negate_post_scale(ev, p, registry):
    ev["post_scale"] = p - ev["post_scale"]


def _negate_trail_coeff(ev, p, registry):
    ev["trail"][0][1] = p - ev["trail"][0][1]


def _negate_last_term(field):
    def change(ev, p, registry):
        ev[field][-1][0] = p - ev[field][-1][0]
    return change


def _unknown_reductor(ev, p, registry):
    ev["reductor"] = 10**6


def _sig_of_smaller_part(ev, p, registry):
    # u2 * S(p2), the multiplied signature of the smaller part
    smaller = registry.entries[ev["p2"]].sig
    ev["sig"] = {"mono": sig_mul(M(*ev["u2"]), smaller).mono.exps, "index": smaller.index}


# A corruption changes a copy of the first event of a kind whose field is
# nonempty: name -> (kind, field, change(event, p, registry)).
CORRUPTIONS = {
    "post_scale": ("ReductionStep", "post_scale", _negate_post_scale),
    "trail_coeff": ("DoneInserted", "trail", _negate_trail_coeff),
    "creation_poly": ("DoneInserted", "creation_poly", _negate_last_term("creation_poly")),
    "spol_poly": ("SPolCreated", "poly", _negate_last_term("poly")),
    "unknown_reductor": ("PhiPreReduce", "mult", _unknown_reductor),
    "sig_swap": ("SPolCreated", "sig", _sig_of_smaller_part),
}
# plant -> (name, first failure) of each report that fails
PLANT_OUTCOMES = {
    ("cyclic4", "F5CritPairReject"): [("thm5_exhaustive", (6, (0, 4), "unclassified"))],
    ("cyclic4", "RewrittenReject"): [("thm5_exhaustive", (4, (1, 2), "unclassified"))],
    ("cyclic4", "RuleAdded"): [("rule_degrees", (2, "not exactly one rule, with its signature"))],
    ("cyclic4", "PhiPreReduce"): [("trail_replay", (57, "post_scale differs from the replay"))],
    # a dropped step leaves its h unreduced in the replay, and so do the
    # heads the registry reports read
    ("cyclic4", "ReductionStep"): [
        ("trail_replay", (59, "post_scale differs from the replay")),
        ("chains", (11, ChainReport([5, 6, 8, 11], True, False, True))),
        ("done_insertion_audit", (8, 5, "candidate passes all four checks")),
        ("thm5_exhaustive", (9, (5, 8), "unclassified")),
    ],
    ("katsura5", "F5CritPairReject"): [("thm5_exhaustive", (4, (0, 2), "unclassified"))],
    ("katsura5", "RewrittenReject"): [("thm5_exhaustive", (6, (0, 4), "unclassified"))],
    ("katsura5", "RuleAdded"): [
        ("rule_degrees", (30, "not exactly one rule, with its signature")),
        ("done_insertion_audit", (26, 22, "candidate passes all four checks")),
    ],
    ("katsura5", "PhiPreReduce"): [
        ("trail_replay", (10, "DoneInserted polynomial differs from the replay")),
        ("done_insertion_audit", (43, 0, "candidate passes all four checks")),
        ("thm5_exhaustive", (44, (0, 43), "unclassified")),
    ],
    ("katsura5", "ReductionStep"): [
        ("trail_replay", (158, "DoneInserted polynomial differs from the replay")),
        ("chains", (15, ChainReport([7, 8, 13, 14, 15], True, False, True))),
        ("done_insertion_audit", (12, 8, "candidate passes all four checks")),
        ("thm5_exhaustive", (13, (8, 12), "unclassified")),
    ],
    ("cyclic4", "post_scale"): [("trail_replay", (57, "post_scale differs from the replay"))],
    ("cyclic4", "trail_coeff"): [("trail_replay", (61, "trail differs from the replay"))],
    ("cyclic4", "creation_poly"): [
        ("trail_replay", (9, "creation polynomial differs from the replay"))
    ],
    ("cyclic4", "spol_poly"): [
        ("trail_replay", (8, "SPolCreated polynomial differs from the replay"))
    ],
    ("cyclic4", "unknown_reductor"): [("trail_replay", (
        56, "PhiPreReduce reductor names r1000000, which no earlier event created"))],
    # r2's DoneInserted copies its old signature, so the registry is
    # damaged there; the replayed vector still leads with u1 * S(p1): not
    # admissible either; a φ step by r2 copies its old index
    ("cyclic4", "sig_swap"): [
        *((name, (9, "DoneInserted sig differs from the registry"))
          for name in ("rule_degrees", "genealogy")),
        ("trail_replay", (60, "PhiPreReduce reductor_index differs from the registry")),
        *((name, (9, "DoneInserted sig differs from the registry"))
          for name in ("chains", "done_insertion_audit", "thm5_exhaustive")),
    ],
}
REJECTION_PLANTS = [
    plant for plant in PLANT_OUTCOMES if plant[1] in ("F5CritPairReject", "RewrittenReject")
]


@functools.cache
def plant_run(system):
    names, texts = PLANT_SYSTEMS[system]
    ring = make_ring(32003, names)
    return ring, incremental_f5(polys(ring, *texts), EngineConfig()).events


def planted_log(system, plant):
    """(ring, the planted log, the dropped or changed event)."""
    ring, events = plant_run(system)
    if plant in CORRUPTIONS:
        kind, field, change = CORRUPTIONS[plant]
        target = next(ev for ev in events if ev["kind"] == kind and ev[field])
        changed = copy.deepcopy(target)
        change(changed, ring.p, build_registry(events, ring))
        return ring, [changed if ev is target else ev for ev in events], target
    dropped = next(
        ev for ev in events
        if ev["kind"] == plant and (plant != "RuleAdded" or ev["pos"] == RULE_PLANTS[system])
    )
    return ring, [ev for ev in events if ev is not dropped], dropped


def replayed_admissible(events, ring) -> bool:
    """The ``admissible`` verdict of ``run_check``, on a log alone."""
    return all_admissible(build_registry(events, ring))


class TestLogPlants:
    @pytest.mark.parametrize("plant", sorted(PLANT_OUTCOMES), ids="-".join)
    def test_failing_reports_pinned(self, plant):
        ring, events, _ = planted_log(*plant)
        reports = run_all_checkers(events, ring)
        assert [(rep.name, rep.failures[0]) for rep in reports if not rep.passed] == (
            PLANT_OUTCOMES[plant]
        )

    @pytest.mark.parametrize("system", PLANT_SYSTEMS)
    def test_unplanted_log_passes(self, system):
        ring, events = plant_run(system)
        assert all(rep.passed for rep in run_all_checkers(events, ring))
        assert replayed_admissible(events, ring)

    @pytest.mark.parametrize("system", PLANT_SYSTEMS)
    def test_rule_plant_is_one_rule_fewer(self, system):
        ring, events, _ = planted_log(system, "RuleAdded")
        full = build_registry(plant_run(system)[1], ring)
        assert check_rule_degrees(build_registry(events, ring)).checked == (
            check_rule_degrees(full).checked - 1
        )

    def test_signature_swap_is_not_admissible(self):
        ring, events, _ = planted_log("cyclic4", "sig_swap")
        assert not replayed_admissible(events, ring)

    def test_budget_exit_prefix_is_admissible(self):
        # under deglex katsura-5 passes degree 9 in call 3, so the log lacks
        # calls 1 and 2; coordinate 0 of every vector still multiplies f_1
        ring = make_ring(32003, KATSURA5[0], "deglex")
        with pytest.raises(BudgetExceeded) as exc:
            incremental_f5(polys(ring, *KATSURA5[1]), EngineConfig(max_degree=9))
        events = exc.value.events
        assert len(events) == 23533
        assert sorted(build_registry(events, ring).calls) == [3, 4, 5, 6]
        assert replayed_admissible(events, ring)


# the reports that read the registry, in run_all_checkers' order
REGISTRY_REPORTS = ["rule_degrees", "genealogy", "chains", "done_insertion_audit",
                    "thm5_exhaustive"]


class TestDroppedCreation:
    @pytest.mark.parametrize("system, creations", [("cyclic4", 24), ("katsura3", 14)])
    def test_drop_one_fails_reports_and_never_raises(self, system, creations):
        # a log without the event that created a position: each report read
        # off the registry fails at the first event that names the position,
        # a pair or a rejection too, or, without a CallBegin, at the first
        # event of its call; the reports of the walk's tables still run,
        # signature_safety on each replayed step, and the replay fails
        names, texts = {"cyclic4": CYCLIC4, "katsura3": SUITE["katsura3_homog"]}[system]
        ring = make_ring(32003, names)
        events = incremental_f5(polys(ring, *texts), EngineConfig()).events
        drops = [k for k, ev in enumerate(events) if ev["kind"] in trace.CREATION_FIELDS]
        assert len(drops) == creations
        for k in drops:
            dropped = events[k]
            pos = dropped[trace.CREATION_FIELDS[dropped["kind"]].pos]
            reports = run_all_checkers(events[:k] + events[k + 1:], ring)
            assert len(reports) == 8 and not all(rep.passed for rep in reports)
            failed = {rep.name: rep.failures for rep in reports if not rep.passed}
            assert sorted(failed) == sorted(REGISTRY_REPORTS + ["trail_replay"])
            ((seq, reason),) = failed["rule_degrees"]
            assert all(failed[name] == [(seq, reason)] for name in REGISTRY_REPORTS)
            named = {f"{ev['kind']} {name} names r{pos}, which no earlier event created"
                     for ev in events[k + 1:] for name in ev}
            if dropped["kind"] == "CallBegin":
                call = dropped["call"]
                first = next(ev["kind"] for ev in events[k + 1:] if "call" in ev)
                named.add(f"{first} call {call} " + (
                    "comes before the log's first CallBegin" if k == 0
                    else f"is not call {call + 1}, which the enclosing CallBegin began"))
            assert seq > dropped["seq"] and reason in named
            steps = [op for op in build_registry(events[:k] + events[k + 1:], ring).ops
                     if op[0] in ("phi", "top")]
            assert reports[0].checked > 0 and reports[1].checked == len(steps)


def full_vector_admissible(registry) -> bool:
    """The ``admissible`` verdict from every replayed vector, each summed
    against the inputs and its lead compared with the signature: the
    reference of ``all_admissible``."""
    ring, polys = registry.ring, registry.polys
    vectors = replay_vectors(ring, registry.ops)
    begun = {i: polys[ev["input_pos"]] for i, ev in registry.calls.items()}
    inputs = [begun.get(i, ring.zero) for i in range(1, max(begun, default=0) + 1)]
    return all(
        pos in vectors and check_admissible(vectors[pos], e.sig, polys[pos], inputs)
        for pos, e in registry.entries.items()
    )


def logged_inputs(events, ring) -> list:
    """The inputs f_1, ..., f_m as their ``CallBegin`` events log them, zero
    for a call the log lacks."""
    begun = {ev["call"]: poly_from_payload(ring, ev["poly"])
             for ev in events if ev["kind"] == "CallBegin"}
    return [begun.get(i, ring.zero) for i in range(1, max(begun, default=0) + 1)]


@functools.cache
def exactness_logs() -> list:
    """(name, ring, events, whole) of every log the on-demand vectors and
    the leading-term verdict are checked on; ``whole`` is False for a log
    with an event dropped or changed.  The suite at both primes, 200 random
    systems over all three orders and five primes (a quarter under tight
    budgets, so some logs are budget-exit prefixes), katsura-5's deglex
    prefix at ``max_degree`` 9, every drop of a creation event of cyclic-4
    and katsura-3, and every log plant."""
    logs = []
    for name, ring, inputs in suite_instances():
        logs.append((name, ring, incremental_f5(inputs, EngineConfig()).events, True))
    budgeted = [(f"random{k}", *system)
                for k, system in enumerate(engine_pin_systems(200, 7))]
    budgeted.append(("katsura5_deglex_prefix", make_ring(32003, KATSURA5[0], "deglex"),
                     None, EngineConfig(max_degree=9)))
    for name, ring, inputs, config in budgeted:
        if inputs is None:
            inputs = polys(ring, *KATSURA5[1])
        try:
            events = incremental_f5(inputs, config).events
        except BudgetExceeded as exc:
            events = exc.events
        logs.append((name, ring, events, True))
    for system, (names, texts) in (("cyclic4", CYCLIC4), ("katsura3", SUITE["katsura3_homog"])):
        ring = make_ring(32003, names)
        events = incremental_f5(polys(ring, *texts), EngineConfig()).events
        logs += [(f"{system}_drop{k}", ring, events[:k] + events[k + 1:], False)
                 for k, ev in enumerate(events) if ev["kind"] in trace.CREATION_FIELDS]
    for plant in PLANT_OUTCOMES:
        ring, events, _ = planted_log(*plant)
        logs.append(("-".join(plant), ring, events, False))
    return logs


class TestVectorsOnDemand:
    def test_logs_cover_every_order_and_a_prefix(self):
        logs = exactness_logs()
        assert {ring.order.kind for _, ring, _, _ in logs} == set(ORDER_KINDS)
        assert len(logs) == len(SUITE) * len(SUITE_PRIMES) + 201 + 38 + len(PLANT_OUTCOMES)
        prefix = next(events for name, _, events, _ in logs if name == "katsura5_deglex_prefix")
        assert len(prefix) == 23533

    def test_each_read_equals_the_full_replay_and_sums_to_its_polynomial(self):
        rng = random.Random(0)
        for name, ring, events, whole in exactness_logs():
            registry = build_registry(events, ring)
            full = replay_vectors(ring, registry.ops)
            vectors = ReplayedVectors(ring, registry.ops)
            assert not vectors.done, name  # nothing is replayed before a read
            assert set(vectors) == set(full) == set(registry.polys), name
            order = sorted(full)
            rng.shuffle(order)
            inputs = logged_inputs(events, ring)
            for pos in order:
                assert vectors[pos].coords == full[pos].coords, (name, pos)
                assert full[pos].value(inputs) == registry.polys[pos], (name, pos)

    def test_a_read_applies_no_operation_past_its_positions_last(self, monkeypatch):
        # each read applies the operations after those already applied,
        # through the last one on the position read, and no others
        applied = []
        apply_ops = sig.apply_ops

        def recording_ops(ring, m, ops, vectors):
            applied.append(list(ops))
            return apply_ops(ring, m, ops, vectors)

        monkeypatch.setattr(sig, "apply_ops", recording_ops)
        rng = random.Random(1)
        for name, ring, events, _ in exactness_logs():
            ops = build_registry(events, ring).ops
            vectors = ReplayedVectors(ring, ops)
            last = {}
            for i, op in enumerate(ops):
                last[op[1]] = i
            order = sorted(last)
            rng.shuffle(order)
            end = 0
            for pos in order:
                del applied[:]
                vectors[pos]
                if last[pos] < end:
                    assert not applied, (name, pos)
                else:
                    assert applied == [ops[end:last[pos] + 1]], (name, pos)
                    end = last[pos] + 1
            assert end == len(ops), name

    def test_leading_terms_give_the_full_vector_verdict(self, monkeypatch):
        fallbacks = []
        check = trace.check_admissible

        def counting_check(mv, sig, poly, inputs):
            fallbacks.append(1)
            return check(mv, sig, poly, inputs)

        monkeypatch.setattr(trace, "check_admissible", counting_check)
        verdicts = {}
        for name, ring, events, whole in exactness_logs():
            registry = build_registry(events, ring)
            verdicts[name] = all_admissible(registry)
            assert verdicts[name] == full_vector_admissible(registry), name
            assert verdicts[name] or not whole, name
        assert not fallbacks  # no leading term cancels on any of these logs
        assert not verdicts["cyclic4-sig_swap"]

    def test_cancelled_lead_falls_back_to_the_vector(self, monkeypatch):
        # r2 = x*f1 - y*f2 leads with x*e1; r3 = r2 - x*r0 cancels that
        # lead and leaves -y*e2, which only the vector tells
        ring = make_ring(7, ["x", "y"])
        f1, f2 = polys(ring, "x + y", "x - y")
        x, y = M(1, 0), M(0, 1)
        r2 = poly_axpy(f1.term_mul(1, x), 1, y, f2)
        ops = [("input", 0, 1), ("input", 1, 2), ("new", 2, 0, x, 1, y, 1),
               ("top", 2, 1, x, 0)]
        replayed = {0: f1, 1: f2, 2: poly_axpy(r2, 1, x, f1)}
        assert replay_leads(ring, ops)[2] is None
        fallbacks = []
        check = trace.check_admissible

        def counting_check(mv, sig, poly, inputs):
            fallbacks.append(sig)
            return check(mv, sig, poly, inputs)

        monkeypatch.setattr(trace, "check_admissible", counting_check)
        calls = {1: {"input_pos": 0}, 2: {"input_pos": 1}}
        for sig, verdict in ((Signature(y, 2), True), (Signature(x, 1), False)):
            entries = {0: trace.RegistryEntry(0, Signature(M(0, 0), 1)),
                       1: trace.RegistryEntry(1, Signature(M(0, 0), 2)),
                       2: trace.RegistryEntry(2, sig)}
            registry = trace.Registry(entries, calls, ring=ring, ops=ops, polys=replayed)
            assert all_admissible(registry) is verdict
            assert full_vector_admissible(registry) is verdict
        assert fallbacks == [Signature(y, 2), Signature(x, 1)]

    def test_a_read_before_a_later_operation_replays_in_log_order(self):
        # r0 is read by r2's creation and reduced after it, so a read of r2
        # must see r0 as it was then, and a later read of r0 its final
        # vector: the log is replayed in order, in either order of reads
        ring = make_ring(7, ["x", "y"])
        x, y = M(1, 0), M(0, 1)
        ops = [("input", 0, 1), ("input", 1, 2), ("new", 2, 0, x, 1, y, 1),
               ("top", 0, 3, y, 1), ("monic", 2, 2)]
        full = replay_vectors(ring, ops)
        assert full[0].coords != ModuleVector.unit(ring, 2, 1).coords
        for reads in ([2, 0, 1], [0, 1, 2], [1, 0, 2]):
            vectors = ReplayedVectors(ring, ops)
            assert not vectors.done
            assert all(vectors[pos].coords == full[pos].coords for pos in reads), reads
            assert set(vectors.done) == {0, 1, 2}
        ordered = ReplayedVectors(ring, ops[:3] + ops[4:])
        assert not ordered.done and ordered[2].coords == full[2].coords
        assert set(ordered.done) == {0, 1, 2}
        with pytest.raises(KeyError):
            ordered[5]


class TestDominanceCount:
    def test_matches_brute_force(self):
        # keys shaped like signature keys, drawn from few values so that
        # equal keys are common; min_deg runs past every degree
        rng = random.Random(0)
        for _ in range(100):
            degs = [rng.randint(1, 5) for _ in range(rng.randint(1, 6))]
            count = trace._DominanceCount(degs)
            points = []
            for _ in range(rng.randint(1, 10)):
                points.append(((-rng.randint(1, 2), rng.randint(0, 4)), rng.choice(degs)))
                count.add(*points[-1])
                queries = [key for key, _ in points] + [(-rng.randint(1, 2), rng.randint(0, 4))]
                for key in queries:
                    for min_deg in (None, *range(7)):
                        want = sum(
                            k > key and (min_deg is None or d >= min_deg) for k, d in points
                        )
                        assert count.above(key, min_deg) == want


def _seqs_exchanged(events):
    """cyclic-4's log with the seqs of two insertions of call 2 exchanged,
    so the call's insertions are not in seq order."""
    a, b = events[96], events[152]
    assert a["kind"] == b["kind"] == "DoneInserted" and a["call"] == b["call"] == 2
    return [{**a, "seq": 152} if ev is a else {**b, "seq": 96} if ev is b else ev
            for ev in events]


def _insertions_reversed(events):
    """katsura-3's log with call 1's six insertions in reverse order, each
    in another's place and with its seq, so their head degrees fall."""
    slots = [k for k, ev in enumerate(events) if ev["kind"] == "DoneInserted" and ev["call"] == 1]
    assert len(slots) == 6
    out = list(events)
    for a, b in zip(slots, reversed(slots)):
        out[a] = {**events[b], "seq": events[a]["seq"]}
    return out


def _index_lowered(events):
    """cyclic-4's log with r6, an insertion of call 2, created with
    signature index 1."""
    ev = events[40]
    assert ev["kind"] == "SPolCreated" and ev["pos"] == 6 and ev["sig"]["index"] == 2
    return [{**ev, "sig": {**ev["sig"], "index": 1}} if e is ev else e for e in events]


# a forged log with a call that does not step by degree -> its system and
# the (checked, failures) of the scan of every insertion from each pair's
# stage on
UNSTEPPED_CALLS = {
    "seqs_exchanged": (_seqs_exchanged, CYCLIC4, 609, [(12, (7, 8))]),
    "insertions_reversed": (_insertions_reversed, SUITE["katsura3_homog"], 103,
                            [(11, (1, 7)), (11, (3, 7)), (11, (4, 7)), (10, (1, 7)),
                             (10, (3, 7)), (9, (1, 7))]),
    "index_lowered": (_index_lowered, CYCLIC4, 536,
                      [(6, (0, 5)), (6, (1, 5)), (6, (2, 5)), (6, (3, 5))]),
}


class TestThm5:
    def test_passes_on_runs(self, cyclic):
        ring, res = cyclic
        rep = check_thm5_exhaustive(build_registry(res.events, ring))
        assert rep.passed and rep.checked > 0

    def test_checked_count_pinned(self, cyclic):
        ring, res = cyclic
        rep = check_thm5_exhaustive(build_registry(res.events, ring))
        assert rep.checked == 14

    @pytest.mark.parametrize("system, most", [("cyclic4", 21), ("katsura5", 134)])
    def test_failure_scan_skips_by_degree(self, system, most, monkeypatch):
        # a pair of the inserting call's index is out of scope below its
        # degree, so a passing log's scan tests few insertions (81 and
        # 1,648 of them when it started at each pair's stage)
        ring, events = plant_run(system)
        calls = []

        def counting(*args):
            calls.append(args)
            return in_scope(*args)

        monkeypatch.setattr(trace, "in_scope", counting)
        assert check_thm5_exhaustive(build_registry(events, ring)).passed
        assert 0 < len(calls) <= most

    @pytest.mark.parametrize("forge, system, checked, failures", UNSTEPPED_CALLS.values(),
                             ids=list(UNSTEPPED_CALLS))
    def test_unstepped_call_is_scanned_from_each_stage(self, forge, system, checked, failures):
        # the skip by degree holds only in a call whose insertions are in
        # seq order, of its index, with degrees that never fall; each of
        # these logs breaks one of the three, and skipping anyway loses
        # failures
        names, texts = system
        ring = make_ring(32003, names)
        events = forge(incremental_f5(polys(ring, *texts)).events)
        rep = check_thm5_exhaustive(build_registry(events, ring))
        assert rep.checked == checked
        assert rep.failures == [(g, pair, "unclassified") for g, pair in failures]

    @pytest.mark.parametrize("name", sorted(LEX_SYSTEMS))
    def test_lex_regressions_pass(self, name):
        system, checked = LEX_SYSTEMS[name]
        ring, res = lex_run(*system)
        rep = check_thm5_exhaustive(build_registry(res.events, ring))
        assert rep.passed and rep.failures == [] and rep.checked == checked

    @pytest.mark.parametrize("system", THM5_SYSTEMS)
    def test_checked_is_sum_of_classified(self, system):
        ring, res = thm5_run(system)
        rep = check_thm5_exhaustive(build_registry(res.events, ring))
        assert rep.passed and rep.checked > 0
        assert (rep.checked, rep.failures) == thm5_brute_force(res.events, ring)

    @pytest.mark.parametrize("plant", REJECTION_PLANTS, ids="-".join)
    def test_dropped_rejection_is_sum_of_classified(self, plant):
        # the comparison above, on a log with one rejection dropped.  The
        # first rejection of either kind is logged against a whole pair, at
        # its creation or at its S-polynomial's.  The engine drops a
        # rejected pair for good, so nothing else in the log classifies it,
        # and it is in scope at the next insertion of its call: the pair is
        # unclassified there, which fails the check.
        ring, events, dropped = planted_log(*plant)
        assert dropped["where"] in ("crit_pair", "spol")
        rep = check_thm5_exhaustive(build_registry(events, ring))
        assert not rep.passed
        assert rep.failures[0][1] == tuple(sorted((dropped["p1"], dropped["p2"])))
        assert (rep.checked, rep.failures) == thm5_brute_force(events, ring)

    @pytest.mark.parametrize("name", ["cyclic", "deglex", "lex"])
    def test_packed_pairs_match_monomial_api(self, name):
        # the brute-force reference's _PairRules forms pairs on packed
        # values, so its keys and degrees are checked against Monomial
        # arithmetic
        ring, res = thm5_run(name)
        registry = build_registry(res.events, ring)
        rules = _PairRules(res.events, registry, ring.order)
        heads = {pos: q.head_mono for pos, q in registry.polys.items() if not q.is_zero}
        assert len(heads) > 2
        for a, b in itertools.combinations(heads, 2):
            t = heads[a].lcm(heads[b])
            key = max(sig_key(sig_mul(t.divide(heads[p]), registry.entries[p].sig), ring.order)
                      for p in (a, b))
            assert rules.pair(a, b)[:2] == rules.pair(b, a)[:2] == (key, t.deg)

    @staticmethod
    def _index_matches_reference(events, ring) -> EvidenceIndex:
        """The check's evidence index of the log, after showing that it holds,
        for every pair of elements with a head, the least from-seq of the
        reference's evidence, and no entry for a pair with none."""
        registry = build_registry(events, ring)
        index = EvidenceIndex(registry)
        rules = _PairRules(events, registry, ring.order)
        heads = sorted(pos for pos, q in registry.polys.items() if not q.is_zero)
        with_evidence = 0
        for a, b in itertools.combinations(heads, 2):
            evidence = rules.evidence(a, b)
            if evidence:
                with_evidence += 1
                assert index[index.pair_id(a, b)] == min(evidence)[0], (a, b)
            else:
                assert index.pair_id(a, b) not in index, (a, b)
        assert len(index) == with_evidence
        return index

    @pytest.mark.parametrize("name", THM5_SYSTEMS)
    def test_evidence_index_matches_reference(self, name):
        ring, res = thm5_run(name)
        assert self._index_matches_reference(res.events, ring)

    @pytest.mark.parametrize("field", ["u1", "h_head"])
    def test_evidence_index_drops_foreign_multipliers(self, field):
        # a rejection whose multiplier or reduced head is not the one the
        # registry heads give classifies no pair of members: the index
        # drops it as if it were not logged.  The crit_pair rejection is
        # cyclic-4's first; the is_reducible one, of r9 by r6 at seq 88, is
        # the earliest evidence of its pair, whose next is a spol rejection
        # at seq 128
        ring, events = plant_run("cyclic4")
        where = "crit_pair" if field == "u1" else "is_reducible"
        target = next(ev for ev in events
                      if ev["kind"] in ("F5CritPairReject", "RewrittenReject")
                      and ev["where"] == where and (field == "u1" or ev["seq"] == 88))
        exps = target[field]
        forged_log = [{**ev, field: (exps[0] + 1, *exps[1:])} if ev is target else ev
                      for ev in events]
        dropped_log = [ev for ev in events if ev is not target]
        forged = self._index_matches_reference(forged_log, ring)
        assert forged == self._index_matches_reference(dropped_log, ring)
        index = EvidenceIndex(build_registry(events, ring))
        p, q = (target["p1"], target["p2"]) if field == "u1" else (target["h"], target["cand"])
        assert index[index.pair_id(p, q)] == target["seq"]
        assert forged.get(forged.pair_id(p, q)) == (None if field == "u1" else 128)

        def report(log):
            rep = check_thm5_exhaustive(build_registry(log, ring))
            return rep.passed, rep.checked, rep.failures

        assert report(forged_log) == report(dropped_log)
        assert report(forged_log)[1:] == thm5_brute_force(forged_log, ring)

    def test_in_scope(self):
        order = MonomialOrder("degrevlex", 2)

        def key(exps, index):
            return sig_key(Signature(Monomial(exps), index), order)

        def in_scope(target, deg):
            return trace.in_scope(target, deg, g_key, g_deg, order)

        g_key, g_deg = key((1, 1), 2), 4  # x*y*F2
        # an equal key is out of scope
        assert not in_scope(g_key, g_deg)
        # a target of another index is decided by its key, whatever its degree
        assert in_scope(key((9, 9), 3), 99)
        assert not in_scope(key((0, 0), 1), 0)
        # a target of the same index needs a smaller key and deg <= g_deg:
        # y^2 is just below x*y, and 1 is the least
        assert in_scope(key((0, 2), 2), 4)
        assert in_scope(key((0, 0), 2), 1)
        assert not in_scope(key((0, 2), 2), 5)
        assert not in_scope(key((2, 0), 2), 1)

    def test_check_small_counts_pinned(self):
        # (checked, failures on the stripped log), the values of the
        # pair-by-insertion loop the dominance count replaced
        got = {}
        for name in CHECK_SMALL_SYSTEMS:
            ring, res = thm5_run(name)
            stripped = strip_rejections(res.events)
            got[name] = (
                check_thm5_exhaustive(build_registry(res.events, ring)).checked,
                len(check_thm5_exhaustive(build_registry(stripped, ring)).failures),
            )
        assert got == {
            "random578-degrevlex": (249, 192),
            "random012-deglex": (249, 177),
            "random477-lex": (195, 144),
        }

    def test_tampered_log_detected(self, cyclic):
        self._check_stripped_log_fails(*cyclic)

    def test_tampered_lex_log_detected(self):
        self._check_stripped_log_fails(*lex_run(*LEX_SYSTEM_510))

    @staticmethod
    def _check_stripped_log_fails(ring, res):
        registry = build_registry(res.events, ring)
        done_events = [ev for ev in res.events if ev["kind"] == "DoneInserted"]
        baseline = {}
        for ev in done_events:
            for cls in classify_pairs_at_insertion(res.events, registry, ring, ev):
                baseline[(cls.g_pos, cls.pair)] = cls.outcome
        assert baseline and all(
            v in ("f5", "rewritten", "completed") for v in baseline.values()
        )
        assert any(v in ("f5", "rewritten") for v in baseline.values())
        # drop every pair-level rejection event: previously rejected pairs
        # can no longer be classified
        stripped = strip_rejections(res.events)
        rep = check_thm5_exhaustive(build_registry(stripped, ring))
        assert not rep.passed
        # the failures found without enumerating every pair are exactly the
        # pairs the per-insertion classification calls unclassified
        assert (rep.checked, rep.failures) == thm5_brute_force(stripped, ring)


class TestReplay:
    def test_passes_on_runs(self, cyclic):
        ring, res = cyclic
        rep = check_replay(res.events, ring)
        assert rep.passed and rep.checked > 0

    @pytest.mark.parametrize("order", ["degrevlex", "lex"])
    @pytest.mark.parametrize("name", sorted(SUITE))
    def test_replay_rebuilds_the_engine_elements(self, name, order):
        # every position's replayed polynomial and module vector are the
        # engine's final polynomial and a vector of it with its signature
        # as leading term
        names, texts = SUITE[name]
        ring = make_ring(32003, names, order)
        res = incremental_f5(polys(ring, *texts))
        registry = build_registry(res.events, ring)
        vectors = registry.vectors
        assert registry.replay.passed
        assert registry.polys == {lp.pos: lp.poly for lp in res.R}
        inputs = replayed_inputs(res)
        assert all(vectors[lp.pos].value(inputs) == lp.poly for lp in res.R)
        assert all(vectors[lp.pos].lead()[1] == lp.sig for lp in res.R)
        assert all_admissible(registry)

    def test_decoded_trails_sum_to_final_polys(self):
        # A trail reads final = alpha * creation - sum of c * t *
        # final(reductor): a ["monic", s] step scales everything so far by
        # s, any other step [kind, c, exps, reductor] subtracts c * x^exps *
        # final(reductor).  Summed here with Ring.poly rather than the
        # replay's poly_axpy.  The cyclic fixture's trails are empty;
        # katsura-3's interleave phi and top reductions with monic scalings.
        names, texts = SUITE["katsura3_homog"]
        ring = make_ring(32003, names)
        res = incremental_f5(polys(ring, *texts), EngineConfig())
        done = [ev for ev in res.events if ev["kind"] == "DoneInserted"]
        reductions = 0
        for ev in done:
            alpha, contribs = 1, []
            for step in ev["trail"]:
                if step[0] == "monic":
                    alpha = alpha * step[1] % ring.p
                    contribs = [(c * step[1] % ring.p, t, j) for c, t, j in contribs]
                else:
                    contribs.append((step[1], Monomial(step[2]), step[3]))
            reductions += len(contribs)
            creation = poly_from_payload(ring, ev["creation_poly"])
            terms = [(alpha * c, m) for c, m in creation.terms]
            for c, t, j in contribs:
                terms += [(-c * cj, mj.mul(t)) for cj, mj in res.R[j].poly.terms]
            assert ring.poly(terms) == poly_from_payload(ring, ev["poly"])
        assert done and reductions > 0

    def test_zero_reduction_without_its_step_fails(self):
        # r22 of cyclic-4 reduces to zero in one step; without it the replay
        # leaves r22 nonzero
        ring, events = plant_run("cyclic4")
        (step,) = [ev for ev in events if ev.get("h") == 22 and "reductor" in ev]
        rep = check_replay([ev for ev in events if ev is not step], ring)
        assert rep.failures == [(step["seq"] + 1, "nonzero on replay")]

    @pytest.mark.parametrize("system, outcomes", [("cyclic4", 16 + 4), ("katsura3", 10)])
    def test_step_after_its_outcome_fails_the_replay(self, system, outcomes):
        # the engine never steps an element after its DoneInserted or
        # ReductionToZero: a step forged there fails the replay at its seq
        # and is not replayed, so every position ends as the unforged log
        # left it
        names, texts = {"cyclic4": CYCLIC4, "katsura3": SUITE["katsura3_homog"]}[system]
        ring = make_ring(32003, names)
        events = incremental_f5(polys(ring, *texts), EngineConfig()).events
        polys_of = build_registry(events, ring).polys
        # the step goes before the last CallEnd, and takes its seq
        seq = max(k for k, ev in enumerate(events) if ev["kind"] == "CallEnd")
        done = [ev for ev in events if ev["kind"] in ("DoneInserted", "ReductionToZero")]
        assert len(done) == outcomes
        for ev in done:
            registry = build_registry(forged_logs.step_after(events, ev), ring)
            assert registry.replay.failures == [
                (seq, f"step on r{ev['pos']} after its {ev['kind']}")]
            assert registry.polys == polys_of and registry.damage is None

    @pytest.mark.parametrize("call", [4, 3, 2, 1])
    def test_input_out_of_term_order_fails_the_replay(self, call):
        # the replay reads an input's logged terms into the ring, which
        # sorts them, and compares the result with the log: an input logged
        # with its terms reversed has a logged head that is not its own
        ring, events = plant_run("cyclic4")
        begin = next(ev for ev in events if ev["kind"] == "CallBegin" and ev["call"] == call)
        forged = [{**ev, "poly": ev["poly"][::-1]} if ev is begin else ev for ev in events]
        registry = build_registry(forged, ring)
        assert registry.replay.failures == [
            (begin["seq"], "CallBegin polynomial differs from the replay")]
        assert registry.damage is None
        # the replay keeps the input's own head, not the forged log's
        head = registry.polys[begin["input_pos"]].head_mono
        assert head == Monomial(begin["poly"][0][1]) != Monomial(begin["poly"][-1][1])

    def test_corrupted_final_poly_detected(self, cyclic):
        ring, res = cyclic
        events = copy.deepcopy(res.events)
        for ev in events:
            if ev["kind"] == "DoneInserted" and ev["poly"]:
                ev["poly"][0][0] = (ev["poly"][0][0] % 7) + 1
                break
        assert not check_replay(events, ring).passed


class TestGenealogyChecker:
    def test_passes_on_runs(self, cyclic):
        ring, res = cyclic
        assert check_genealogy(build_registry(res.events, ring)).passed

    def test_tampered_signature_detected(self, cyclic):
        ring, res = cyclic
        events = copy.deepcopy(res.events)
        for ev in events:
            if ev["kind"] == "SPolCreated":
                ev["sig"] = {"mono": [9, 9, 9, 9], "index": ev["sig"]["index"]}
                break
        assert not check_genealogy(build_registry(events, ring)).passed


class TestLogRoundTrip:
    def test_jsonl_round_trip_preserves_checker_verdicts(self, cyclic):
        ring, res = cyclic
        buf = io.StringIO()
        t = Trace()
        t.events = res.events
        t.to_jsonl(buf)
        buf.seek(0)
        events = events_from_jsonl(buf)
        assert events == res.events
        for rep in run_all_checkers(events, ring):
            assert rep.passed, rep.line()

    @pytest.mark.parametrize("order", ["degrevlex", "deglex", "lex"])
    def test_jsonl_round_trip_of_a_multi_chunk_log(self, order):
        # under deglex and lex katsura-5 runs far past degree 8; its log up
        # to that degree already spans several chunks
        ring = make_ring(32003, KATSURA5[0], order)
        try:
            events = incremental_f5(polys(ring, *KATSURA5[1]), EngineConfig(max_degree=8)).events
        except BudgetExceeded as exc:
            events = exc.events
        assert len(events) > 3 * trace._CHUNK_LINES
        assert events_from_jsonl(io.StringIO("".join(jsonl_lines(events)))) == events

    def test_log_without_callbegin_fails_every_checker(self, cyclic):
        ring, res = cyclic
        names = [rep.name for rep in run_all_checkers(res.events, ring)]
        no_call = [ev for ev in res.events if ev["kind"] != "CallBegin"]
        for events in ([], events_from_jsonl(io.StringIO("\n \n")), no_call):
            reports = run_all_checkers(events, ring)
            assert [rep.name for rep in reports] == names
            for rep in reports:
                assert not rep.passed and rep.checked == 0
                assert rep.line().endswith("(0 checked) first_failure=no CallBegin in the log")

    def test_run_all_checkers_builds_one_registry(self, cyclic, monkeypatch):
        ring, res = cyclic
        calls = []

        def counting(events, ring):
            calls.append(1)
            return build_registry(events, ring)

        monkeypatch.setattr(trace, "build_registry", counting)
        assert all(rep.passed for rep in run_all_checkers(res.events, ring))
        assert len(calls) == 1

    def test_nothing_reads_an_event_after_the_walk(self):
        # a one-shot iterator of the log gives the list's registry and
        # reports: the walk reads each event once, and no checker reads one
        for name, ring, inputs in suite_instances():
            events = incremental_f5(inputs).events
            assert build_registry(iter(events), ring) == build_registry(events, ring), name
            assert run_all_checkers(iter(events), ring) == run_all_checkers(events, ring), name

    def test_outcomes_are_counted_only_when_the_run_ends(self):
        # a prefix that stops before call 1's last CallEnd, as a budget exit
        # does, leaves elements without their outcome: no damage
        ring, events = plant_run("cyclic4")
        last = max(k for k, ev in enumerate(events) if ev["kind"] == "SPolCreated")
        registry = build_registry(events[:last + 1], ring)
        assert registry.damage is None
        assert [pos for pos, e in registry.entries.items()
                if not e.is_input and e.done_seq is None and e.zero_seq is None] == [22, 23]
        assert build_registry(events, ring).damage is None

    def test_first_call_after_a_call_end_is_damage(self, ring):
        events = _two_inputs({"kind": "CallEnd", "call": 1, "basis": [0, 1]})
        assert build_registry(events, ring).unknown is None
        before = {"seq": -1, "kind": "CallEnd", "call": 3, "basis": []}
        assert build_registry([before] + events, ring).unknown == (
            -1, "CallEnd call 3 comes before the log's first CallBegin")

    def test_membership_and_rules_match_engine_snapshots(self, cyclic):
        # (seq, g_pos, members, rule count per index) at every Done
        # insertion, pinned to the values of the snapshot records the engine
        # kept before snapshots were rebuilt from the log
        ring, res = cyclic
        registry = build_registry(res.events, ring)
        got = [
            (
                registry.entries[snap.g_pos].done_seq,
                snap.g_pos,
                snap.members,
                tuple(snap.rule_count(i) for i in (1, 2, 3)),
            )
            for snap in done_snapshots(registry)
        ]
        assert got == [
            (9, 2, (0, 1, 2), (0, 2, 1)),
            (16, 3, (0, 1, 2, 3), (0, 3, 1)),
            (30, 5, (0, 1, 2, 3, 4, 5), (2, 3, 1)),
            (40, 6, (0, 1, 2, 3, 4, 5, 6), (3, 3, 1)),
        ]


def _is_vector(value, n) -> bool:
    return type(value) is tuple and len(value) == n and all(type(e) is int for e in value)


def _is_signature(value, n) -> bool:
    return (type(value) is dict and _is_vector(value["mono"], n)
            and type(value["index"]) is int)


def _is_poly(value, n) -> bool:
    return type(value) is list and all(
        type(term) is list and len(term) == 2 and type(term[0]) is int
        and _is_vector(term[1], n)
        for term in value
    )


def _is_trail(value, n) -> bool:
    return type(value) is list and all(
        step[0] == "monic" and len(step) == 2 or len(step) == 4 and _is_vector(step[2], n)
        for step in value
    )


class TestSchemaTables:
    """The tables that describe event fields match what the engine writes,
    so a writer that drifts from them fails here."""

    @pytest.fixture(scope="class")
    def suite_logs(self):
        logs = []
        for order in ("degrevlex", "deglex", "lex"):
            for names, texts in SUITE.values():
                for p in SUITE_PRIMES:
                    ring = make_ring(p, names, order)
                    logs.append((ring.n, incremental_f5(polys(ring, *texts)).events))
        return logs

    def test_creation_events_carry_the_table_fields(self, suite_logs):
        seen = set()
        for n, events in suite_logs:
            for ev in events:
                fields = trace.CREATION_FIELDS.get(ev["kind"])
                if fields is not None:
                    seen.add(ev["kind"])
                    assert type(ev[fields.pos]) is int
                    if fields.genealogy is not None:
                        greater, smaller, u_over, u_under = (ev[f] for f in fields.genealogy)
                        assert type(greater) is int and type(smaller) is int
                        assert _is_vector(u_over, n) and _is_vector(u_under, n)
        assert seen == set(trace.CREATION_FIELDS)

    def test_row_fields_have_their_shapes(self, suite_logs):
        is_shape = {"vector": _is_vector, "signature": _is_signature, "polynomial": _is_poly,
                    "trail": _is_trail}
        used = set()
        for n, events in suite_logs:
            for ev in events:
                for name, shape in ROW_FIELDS[tuple(ev)]:
                    if shape in is_shape:
                        used.add((ev["kind"], name))
                        assert is_shape[shape](ev[name], n), (ev["kind"], name)
        # every field of such a shape occurs in some event
        assert used == {
            (row.kind, name)
            for row in trace._rows().values()
            for name, shape in row.fields
            if shape in is_shape
        }

    def test_kinds_and_fields_are_read_off_the_rows(self):
        # the vector, signature, polynomial and trail fields of each kind,
        # in the order they first occur, and the kinds, as they were written
        # out by hand before they were read off the rows
        def fields(monos=(), sigs=(), polys=(), trails=()):
            return {"vector": monos, "signature": sigs, "polynomial": polys, "trail": trails}

        reject = fields(monos=("h_head", "mult", "t", "u1", "u2"), sigs=("msig",))
        by_hand = {
            "CallBegin": fields(sigs=("sig",), polys=("poly",)),
            "CallEnd": fields(),
            "DegreeStep": fields(),
            "RuleAdded": fields(monos=("mono",)),
            "CritPairCreated": fields(monos=("t", "u1", "u2"), sigs=("sig1", "sig2")),
            "F5CritPairReject": reject,
            "RewrittenReject": reject,
            "SPolCreated": fields(monos=("u1", "u2"), sigs=("sig",), polys=("poly",)),
            "PhiPreReduce": fields(monos=("mult",), sigs=("h_sig",)),
            "ReductionStep": fields(monos=("mult",), sigs=("h_sig", "msig")),
            "NewFromTopReduction": fields(monos=("u", "u_under"), sigs=("sig",),
                                          polys=("poly",)),
            "ReductionToZero": fields(sigs=("sig",)),
            "DoneInserted": fields(sigs=("sig",), polys=("poly", "creation_poly"),
                                   trails=("trail",)),
        }
        read_off = {kind: fields() for kind in trace.EVENT_KINDS}
        for row in trace._rows().values():
            for name, shape in row.fields:
                named = read_off[row.kind]
                if shape in named and name not in named[shape]:
                    named[shape] += (name,)
        assert read_off == by_hand
        assert trace.EVENT_KINDS == tuple(by_hand)
        # the codec finds each row by its keys alone
        assert len(ROW_KEYS) == len(trace.EVENT_SHAPES)

    def test_roles_are_the_walk_tables(self):
        # the fields of each role in each row, as the walk's per-kind tables
        # listed them by hand before they were read off the rows: the
        # positions an earlier event created, the created position, and the
        # copies of a position's signature, each with its multiplier; every
        # row but CallBegin's and RuleAdded's has the enclosing call
        pair = {"pos": ("pos", "p1", "p2"), "copies": ("msig:sig(mult*pos)",)}
        candidate = {"pos": ("h", "cand"), "copies": ("msig:sig(mult*cand)",)}
        by_hand = {
            ("CallBegin", None): {"new": ("input_pos",), "positions": ("g_next",)},
            ("CallEnd", None): {},
            ("DegreeStep", None): {},
            ("RuleAdded", None): {"owner": ("pos",)},
            ("CritPairCreated", None): {"pos": ("p1", "p2"),
                                        "copies": ("sig1:sig(u1*p1)", "sig2:sig(u2*p2)")},
            ("F5CritPairReject", "is_reducible"): {**candidate, "pos": ("h", "cand", "blocked_by")},
            ("F5CritPairReject", "crit_pair"): {**pair, "pos": ("pos", "blocked_by", "p1", "p2")},
            ("RewrittenReject", "is_reducible"): {**candidate, "pos": ("h", "cand", "rewriter")},
            ("RewrittenReject", "spol"): {**pair, "pos": ("pos", "rewriter", "p1", "p2")},
            ("SPolCreated", None): {"new": ("pos",), "pos": ("p1", "p2")},
            ("PhiPreReduce", None): {"pos": ("h", "reductor"), "copies": (
                "h_sig:sig(h)", "h_index:index(h)", "reductor_index:index(reductor)")},
            ("ReductionStep", None): {"pos": ("h", "reductor"),
                                      "copies": ("h_sig:sig(h)", "msig:sig(mult*reductor)")},
            ("NewFromTopReduction", None): {"new": ("pos",), "pos": ("j", "h")},
            ("ReductionToZero", None): {"pos": ("pos",), "copies": ("sig:sig(pos)",)},
            ("DoneInserted", None): {"pos": ("pos",), "copies": ("sig:sig(pos)",)},
        }
        read_off = {}
        for row in trace._rows().values():
            roles = {}
            for name, role in row.roles.items():
                if role.startswith(("sig(", "index(")):
                    roles["copies"] = roles.get("copies", ()) + (f"{name}:{role}",)
                elif role in ("new", "pos", "owner", "positions"):
                    roles[role] = roles.get(role, ()) + (name,)
            assert (row.roles.get("call") == "call") == (row.kind not in ("CallBegin",
                                                                            "RuleAdded"))
            read_off[row.kind, row.where] = roles
        assert read_off == by_hand
        assert trace.CREATION_FIELDS == {
            "CallBegin": trace.CreationFields("input_pos"),
            "SPolCreated": trace.CreationFields("pos", ("p1", "p2", "u1", "u2")),
            "NewFromTopReduction": trace.CreationFields("pos", ("j", "h", "u", "u_under"))}

    def test_engine_logs_keep_every_role(self):
        # every event of the suite logs, under all three orders at both
        # suite primes, fits its row and keeps each role: its call, where,
        # positions and copies agree with the registry
        for order in ("degrevlex", "deglex", "lex"):
            for names, texts in SUITE.values():
                for p in SUITE_PRIMES:
                    ring = make_ring(p, names, order)
                    registry = build_registry(incremental_f5(polys(ring, *texts)).events, ring)
                    assert registry.damage is None, (names, p, order)

    def test_every_engine_event_takes_its_row_template(self, suite_logs, monkeypatch):
        # no event of the suite logs, of 400 random systems (budget exits
        # among them) or of the cyclic-4 and katsura-5 logs is encoded
        # whole, so a field the engine logs without a row fails here
        # instead of taking the slow path; every row is used
        logs = [events for _, events in suite_logs] + [plant_run(s)[1] for s in PLANT_SYSTEMS]
        for _, inputs, config in engine_pin_systems(400, 0):
            try:
                logs.append(incremental_f5(inputs, config).events)
            except BudgetExceeded as exc:
                logs.append(exc.events)
        assert all(encoded_whole(monkeypatch, events) == [] for events in logs)
        assert {tuple(ev) for events in logs for ev in events} == ROW_KEYS


# the keys of each row of EVENT_SHAPES
ROW_KEYS = set(ROW_FIELDS)


def jsonl_lines(events) -> list[str]:
    buf = io.StringIO()
    t = Trace()
    t.events = events
    t.to_jsonl(buf)
    return buf.getvalue().splitlines(True)


def encoded_whole(monkeypatch, events) -> list[dict]:
    """The events that ``Trace.to_jsonl`` hands to the JSON encoder whole,
    not through a row's template, as it writes ``events``."""
    whole = []

    class Counting(json.JSONEncoder):
        def encode(self, o):
            if isinstance(o, dict):
                whole.append(o)
            return super().encode(o)

    with monkeypatch.context() as patch:
        patch.setattr(trace.json, "JSONEncoder", Counting)
        jsonl_lines(events)
    return whole


# complete rows of a 4-variable log, with the polynomial of an SPolCreated
# and the creation polynomial and trail of a DoneInserted left to fill in
SPOL_LINE = ('{"seq":6,"kind":"SPolCreated","call":1,"pos":3,"sig":{"mono":[0,0,0,0],"index":1},'
             '"poly":%s,"p1":0,"u1":[0,0,0,0],"p2":1,"u2":[0,0,0,0],"d":2}')
DONE_LINE = ('{"seq":6,"kind":"DoneInserted","call":1,"pos":3,"sig":{"mono":[0,0,0,0],"index":1},'
             '"poly":[],"creation_poly":%s,"trail":%s}')


def decode_per_line(text: str) -> list[dict]:
    """The events of ``text`` with every line decoded alone through
    ``trace._decode_line``, the way ``events_from_jsonl`` reads a line that
    no line pattern reads."""
    read, _ = trace._event_reader()
    return [trace._decode_line(line, lineno, read)
            for lineno, line in enumerate(io.StringIO(text), 1) if line.strip()]


# the two ways a test reads a text: ``events_from_jsonl`` reading the whole
# text, each line through its row's pattern if one reads it, and every
# line decoded alone
READS = {"bulk": lambda text: events_from_jsonl(io.StringIO(text)), "per_line": decode_per_line}


class TestJsonlCodec:
    """``events_from_jsonl`` reads each line through its row's line pattern
    or, failing that, decodes it alone; every line must hold one object that
    fits its row on its own."""

    @pytest.fixture
    def long_log(self, cyclic):
        # more than one of the writer's chunks and not a multiple of it
        _, res = cyclic
        events = []
        while len(events) < trace._CHUNK_LINES + 226:
            events += copy.deepcopy(res.events)
        return [dict(ev, seq=seq) for seq, ev in enumerate(events)]

    def read(self, text: str) -> list[dict]:
        return events_from_jsonl(io.StringIO(text))

    def test_writes_one_compact_dumps_per_event(self, long_log):
        expected = [json.dumps(ev, separators=(",", ":")) + "\n" for ev in long_log]
        assert jsonl_lines(long_log) == expected

    def test_round_trip_with_blank_lines_around_a_chunk_boundary(self, long_log):
        lines = jsonl_lines(long_log)
        n = trace._CHUNK_LINES
        for at in (n + 1, n - 1, n - 2, 3, 0):
            lines.insert(at, "  \n" if at % 2 else "\n")
        lines.append("\n")
        events = self.read("".join(lines))
        assert events == long_log
        kinds = dict(zip(trace.EVENT_KINDS, trace.EVENT_KINDS))
        assert all(ev["kind"] is kinds[ev["kind"]] for ev in events)
        # every event shares each key string, whichever way its line was read
        keys = {}
        assert all(keys.setdefault(key, key) is key for ev in events for key in ev)

    @pytest.mark.parametrize("path", ["bulk", "per_line"])
    def test_decoded_strings_are_shared(self, path):
        # the whole text through events_from_jsonl, or every line decoded
        # alone (READS)
        _, events = plant_run("cyclic4")
        decoded = READS[path]("".join(jsonl_lines(events)))
        assert decoded == events
        wheres = [ev["where"] for ev in decoded if "where" in ev]
        steps = [step[0] for ev in decoded for step in ev.get("trail", ())]
        assert {"crit_pair", "spol", "is_reducible"} <= set(wheres)
        assert {"phi", "top", "monic"} <= set(steps)
        assert all(value is trace._VALUES[value] for value in wheres + steps)

    def test_empty_and_blank_files_give_no_events(self):
        assert self.read("") == []
        assert self.read("\n   \n\t\n") == []

    def check_bad(self, long_log, bad: list[str], lineno: int, message: str):
        # a blank line before the bad ones: the error counts every line
        lines = jsonl_lines(long_log)
        lines.insert(5, "\n")
        lines[lineno - 1:lineno - 1 + len(bad)] = bad
        with pytest.raises(ValueError, match=message):
            self.read("".join(lines))

    def test_truncated_last_line(self, long_log):
        lines = jsonl_lines(long_log)
        with pytest.raises(ValueError, match=rf"^line {len(lines)}, column \d+: "):
            self.read("".join(lines)[:-10])

    def test_line_that_is_not_an_object(self, long_log):
        at = trace._CHUNK_LINES + 40
        self.check_bad(long_log, ["1\n"], at, rf"^line {at}: not a JSON object$")

    def test_two_objects_on_one_line(self, long_log):
        at = trace._CHUNK_LINES + 41
        two = '{"seq":0,"kind":"CallEnd"},{"seq":1,"kind":"CallEnd"}\n'
        self.check_bad(long_log, [two], at, rf"^line {at}, column \d+: Extra data$")

    def test_unknown_kind(self, long_log):
        self.check_bad(long_log, ['{"seq":6,"kind":"Nope"}\n'], 7,
                       r"^line 7: unknown kind 'Nope'$")
        self.check_bad(long_log, ['{"seq":6}\n'], 7, r"^line 7: unknown kind None$")

    @pytest.mark.parametrize("pair", [
        ['{"seq":0,"kind":"CallEnd","x":[1\n', '2]}\n'],
        ['{"seq":0,"kind":"CallEnd","x":[[1\n', '2]]},{"seq":1,"kind":"CallEnd"}\n'],
    ], ids=["one_object", "two_objects"])
    def test_lines_that_complete_each_other(self, long_log, pair):
        # neither line is JSON on its own, yet joined by a comma they read
        # as one known-kind object, or as two
        at = trace._CHUNK_LINES + 3
        assert json.loads("[" + ",".join(pair) + "]")[0]["x"]
        self.check_bad(long_log, pair, at, rf"^line {at}, column \d+: ")

    @pytest.mark.parametrize("bad, message", [
        ('{"seq":6,"kind":"RuleAdded","index":1,"mono":5,"pos":0}',
         "field 'mono' is not a valid exponent vector"),
        ('{"seq":6,"kind":"RuleAdded","index":1,"mono":[1,"a",0,0],"pos":0}',
         "field 'mono' is not a valid exponent vector"),
        ('{"seq":6,"kind":"RuleAdded","index":1,"mono":[[1],0,0,0],"pos":0}',
         "field 'mono' is not a valid exponent vector"),
        ('{"seq":6,"kind":"RuleAdded","index":1,"mono":{},"pos":0}',
         "field 'mono' is not a valid exponent vector"),
        ('{"seq":6,"kind":"ReductionToZero","call":1,"pos":3,"sig":{"index":1}}',
         "field 'sig' is not a valid signature"),
        ('{"seq":6,"kind":"ReductionToZero","call":1,"pos":3,"sig":[0,0,0,0]}',
         "field 'sig' is not a valid signature"),
        ('{"seq":6,"kind":"ReductionToZero","call":1,"pos":3,'
         '"sig":{"mono":[0,0,0,0],"index":true}}', "field 'sig' is not a valid signature"),
        (SPOL_LINE % "[[1,null]]", "field 'poly' is not a valid polynomial"),
        (DONE_LINE % ("[]", '[["top",1]]'), "field 'trail' is not a valid trail"),
        (SPOL_LINE % "[[1,[0,0,0,0],1]]", "field 'poly' is not a valid polynomial"),
        (DONE_LINE % ("[[1.5,[0,0,0,0]]]", "[]"),
         "field 'creation_poly' is not a valid polynomial"),
    ], ids=["mono_int", "mono_str", "mono_nested", "mono_object", "sig_no_mono", "sig_list",
            "sig_bool_index", "poly_term", "trail_step", "poly_long_term", "poly_float_coeff"])
    @pytest.mark.parametrize("path", ["bulk", "per_line"])
    def test_bad_exponent_field(self, long_log, bad, message, path):
        # the whole text through events_from_jsonl, or every line decoded
        # alone (READS): the same error
        at = trace._CHUNK_LINES + 17
        lines = jsonl_lines(long_log)
        lines.insert(5, "\n")
        lines[at - 1] = bad + "\n"
        with pytest.raises(ValueError, match=rf"^line {at}: {message}$"):
            READS[path]("".join(lines))


def _vectors(events: list[dict]):
    """Each exponent vector of ``events``, as often as it occurs, found by
    the shapes of each event's row."""
    rows = trace._rows()
    for ev in events:
        for name, shape in rows[tuple(ev)].fields:
            value = ev[name]
            if shape == "vector":
                yield value
            elif shape == "signature":
                yield value["mono"]
            elif shape == "polynomial":
                yield from (exps for _, exps in value)
            elif shape == "trail":
                yield from (step[2] for step in value if len(step) == 4)


def assert_read_alike(events: list[dict], other: list[dict]) -> None:
    """``events`` and ``other`` hold equal events, with their keys in the
    same order and values of the same exact types (``repr`` tells 1 from
    True and 1.0, and a list from a tuple); each read shares one tuple per
    distinct vector, and the two share each key and kind string."""
    assert list(map(repr, events)) == list(map(repr, other))
    for read in (events, other):
        shared: dict = {}
        assert all(type(t) is tuple and shared.setdefault(t, t) is t for t in _vectors(read))
    # the key strings of each distinct object of keys, and the kind strings
    keyed = {tuple(map(id, ev)): tuple(ev) for ev in events + other}
    strings = dict(zip(trace.EVENT_KINDS, trace.EVENT_KINDS))
    assert all(strings.setdefault(key, key) is key for keys in keyed.values() for key in keys)
    assert {id(ev["kind"]) for ev in events + other} <= set(map(id, trace.EVENT_KINDS))


def _mult(change):
    """The line of a rejection whose ``mult`` vector is changed by
    ``change``."""
    return lambda ev, line: json.dumps({**ev, "mult": change(ev["mult"])},
                                       separators=(",", ":")) + "\n"


# a change of the line of cyclic-4's first crit_pair rejection (seq 26, line
# 27) to a line that to_jsonl does not write, and the error that reading it
# names, or None when it reads as an event; "no_final_newline" also ends the
# text at that line
NEAR_CANONICAL = {
    "spaces": (lambda ev, line: json.dumps(ev) + "\n", None),
    "crlf": (lambda ev, line: line.replace("\n", "\r\n"), None),
    "no_final_newline": (lambda ev, line: line.rstrip("\n"), None),
    "minus_zero": (lambda ev, line: line.replace('"call":3', '"call":-0'), None),
    "leading_zero": (lambda ev, line: line.replace('"call":3', '"call":03'),
                     "line 27, column 45: Expecting ',' delimiter"),
    "vector_leading_zero": (lambda ev, line: line.replace('"mult":[', '"mult":[0'),
                            "line 27, column 92: Expecting ',' delimiter"),
    "vector_negative": (_mult(lambda mult: (-1,) + mult[1:]),
                        "line 27: field 'mult' is not a valid exponent vector"),
    "vector_true": (_mult(lambda mult: (True,) + mult[1:]),
                    "line 27: field 'mult' is not a valid exponent vector"),
    "vector_at_bound": (_mult(lambda mult: (BOUND,) + mult[1:]),
                        "line 27: field 'mult' is not a valid exponent vector"),
    "vector_too_long": (_mult(lambda mult: mult + (0,)),
                        "line 27: field 'mult' is not a valid exponent vector"),
    "escaped_quote": (lambda ev, line: json.dumps({**ev, "where": 'crit"pair'},
                                                  separators=(",", ":")) + "\n", None),
}


class TestLinePatterns:
    """A line that its row's pattern reads gives the event that decoding it
    alone gives (``decode_per_line``); any other line is decoded alone, so
    it gives the same event or the same error."""

    @pytest.fixture(scope="class")
    def logs(self):
        # every suite log under the three orders at both suite primes, and
        # cyclic-5's
        logs = [incremental_f5(polys(make_ring(p, names, order), *texts)).events
                for order in ORDER_KINDS for names, texts in SUITE.values() for p in SUITE_PRIMES]
        ring = make_ring(32003, CYCLIC5[0])
        return logs + [incremental_f5(polys(ring, *CYCLIC5[1])).events]

    def test_pattern_and_per_line_reads_agree(self, logs, monkeypatch):
        # only the lines of rows with a polynomial, a trail or an int list
        # are decoded alone
        encoded = {keys for keys, row in trace._rows().items() if row.encoded}
        alone = []
        decode = trace._decode_line
        monkeypatch.setattr(trace, "_decode_line", lambda *args: alone.append(1) or decode(*args))
        for events in logs:
            text = "".join(jsonl_lines(events))
            del alone[:]
            read = events_from_jsonl(io.StringIO(text))
            read_alone = len(alone)
            assert read_alone == sum(tuple(ev) in encoded for ev in events) < len(events)
            assert_read_alike(read, decode_per_line(text))
            assert read == events
            strings = [ev["where"] for ev in read if "where" in ev] + [
                step[0] for ev in read for step in ev.get("trail", ())]
            assert all(value is trace._VALUES[value] for value in strings)
        assert (read_alone, len(read)) == (402, 24259)  # cyclic-5's

    @pytest.mark.parametrize("case", NEAR_CANONICAL)
    def test_near_canonical_line(self, case):
        change, message = NEAR_CANONICAL[case]
        events = plant_run("cyclic4")[1]
        lines = jsonl_lines(events)
        k = next(k for k, ev in enumerate(events) if ev.get("where") == "crit_pair")
        assert k == 26
        after = [] if case == "no_final_newline" else lines[k + 1:]
        text = "".join(lines[:k] + [change(events[k], lines[k])] + after)
        if message is None:
            read = events_from_jsonl(io.StringIO(text))
            assert_read_alike(read, decode_per_line(text))
            assert len(read) == k + 1 + len(after) and read[:k] == events[:k]
        else:
            for path in READS.values():
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    path(text)


class _Int(int):
    """An int subclass; json writes its value."""


def _writer_variants(ev: dict) -> list:
    """Copies of the engine event ``ev`` that the writer must write as
    ``json.dumps`` does: each field in turn replaced by a bool, a float, an
    int subclass or None, a vector also by a list, by an equal tuple of
    floats and by one of bools, a str by one that needs escapes, a
    signature also by one with a float vector, with a third key, with its
    keys swapped, with a key renamed and with a bool index; then the event
    with an extra key, a missing key, its keys reordered, an unknown kind,
    and as a dict subclass and as a list of items."""
    out = []
    for name, value in ev.items():
        swaps = [True, 1.5, _Int(7), None]
        if type(value) is tuple:
            swaps += [list(value), tuple(map(float, value)), tuple(e == 1 for e in value)]
        elif type(value) is str:
            swaps += ['"\\é\n' + value]
        elif type(value) is dict:
            mono, index = value["mono"], value["index"]
            swaps += [{"mono": tuple(map(float, mono)), "index": index},
                      {**value, "extra": 0}, {"index": index, "mono": mono},
                      {"mono": mono, "level": index}, {"mono": mono, "index": True}]
        out += [{**ev, name: swap} for swap in swaps]
    reordered = dict(reversed(list(ev.items())))
    missing = dict(list(ev.items())[:-1])
    out += [{**ev, "extra": 1}, missing, reordered, {**ev, "kind": "Nope"},
            collections.OrderedDict(ev), list(ev.items())]
    return out


def _one_event_per_row() -> list[dict]:
    """The first event of each row of ``EVENT_SHAPES`` in the cyclic-4 and
    katsura-5 logs (``plant_run``)."""
    first = {}
    for system in PLANT_SYSTEMS:
        for ev in plant_run(system)[1]:
            first.setdefault(tuple(ev), ev)
    assert set(first) == ROW_KEYS
    return list(first.values())


def _with_set(ev: dict) -> dict:
    return {**ev, "call": {1, 2}}


def _self_referencing_sig(ev: dict) -> dict:
    sig = dict(ev["sig"])
    sig["mono"] = sig
    return {**ev, "sig": sig}


class TestJsonlWriter:
    """``Trace.to_jsonl`` renders the events that fit a row of
    ``EVENT_SHAPES`` through its template and encodes any other whole: the
    line is ``json.dumps``'s either way."""

    def test_every_misfit_is_written_as_dumps_writes_it(self):
        # the logged events come first, so their vectors are in the
        # writer's memo when an equal tuple of floats comes
        base = _one_event_per_row()
        log = base + [variant for ev in base for variant in _writer_variants(ev)]
        assert len(log) > 600
        expected = [json.dumps(ev, separators=(",", ":")) + "\n" for ev in log]
        assert jsonl_lines(log) == expected

    @pytest.mark.parametrize("bad, error", [(_with_set, TypeError),
                                            (_self_referencing_sig, ValueError)],
                             ids=["set", "self_referencing_signature"])
    def test_unserializable_event_raises_after_the_earlier_chunks(self, cyclic, bad, error):
        _, res = cyclic
        events = [dict(ev, seq=seq) for seq, ev in enumerate(res.events * 40)]
        at = next(k for k in range(trace._CHUNK_LINES, len(events)) if "sig" in events[k])
        events[at] = bad(events[at])
        with pytest.raises(error):
            json.dumps(events[at])
        buf = io.StringIO()
        t = Trace()
        t.events = events
        with pytest.raises(error):
            t.to_jsonl(buf)
        # the chunks before the bad event's are written whole
        assert buf.getvalue() == "".join(jsonl_lines(events[:trace._CHUNK_LINES]))


# the first event of a kind in cyclic-4's log, with 1 appended to the first
# term of its polynomial -> the event's seq
MALFORMED_TERMS = {"CallBegin": 0, "SPolCreated": 8, "DoneInserted": 9}


def _malformed_term_log(kind: str) -> list[dict]:
    events = copy.deepcopy(plant_run("cyclic4")[1])
    target = next(ev for ev in events if ev["kind"] == kind)
    target["poly"][0].append(1)
    return events


class TestMalformedTerm:
    """A polynomial term that is not [c, vector] is an error on its line in
    the reader and log damage in memory, not an exception in a checker."""

    @pytest.mark.parametrize("kind", MALFORMED_TERMS)
    def test_reader_names_the_line_and_field(self, kind):
        lines = "".join(jsonl_lines(_malformed_term_log(kind)))
        with pytest.raises(ValueError, match=rf"^line {MALFORMED_TERMS[kind] + 1}: "
                                             r"field 'poly' is not a valid polynomial$"):
            events_from_jsonl(io.StringIO(lines))

    @pytest.mark.parametrize("kind", MALFORMED_TERMS)
    def test_reports_fail_with_its_seq(self, kind):
        ring, _ = plant_run("cyclic4")
        events = _malformed_term_log(kind)
        damage = (MALFORMED_TERMS[kind], f"{kind} field 'poly' is not a valid polynomial")
        registry = build_registry(events, ring)
        assert registry.unknown == damage == registry.damage
        assert registry.replay.failures[0] == damage
        failing = {rep.name: rep.failures[0] for rep in run_all_checkers(events, ring)
                   if not rep.passed}
        assert failing == dict.fromkeys(["rule_degrees", "genealogy", "trail_replay", "chains",
                                         "done_insertion_audit", "thm5_exhaustive"], damage)


def _first_entry(e: int, length: int = 5):
    """A change of a vector of cyclic-4's log, which has 5 variables: its
    first entry ``e``, cut or padded with 0 to ``length`` entries."""
    return lambda exps: ((e,) + exps[1:] + (0,) * length)[:length]


def _change(name: str, change):
    """A change of an event: its field ``name``, or with "poly" its first
    term's vector, through ``change``."""
    def apply(ev: dict) -> None:
        if name == "poly":
            ev["poly"][0][1] = change(ev["poly"][0][1])
        else:
            ev[name] = change(ev[name])
    return apply


# the first event of a kind in cyclic-4's log, a change to it, and the
# message that names its line (seq + 1) and the first bad field or the keys
BAD_ROWS = {
    "term_negative": ("CallBegin", _change("poly", _first_entry(-1)),
                      "field 'poly' is not a valid polynomial"),
    "term_at_bound": ("CallBegin", _change("poly", _first_entry(BOUND)),
                      "field 'poly' is not a valid polynomial"),
    "mono_negative": ("RuleAdded", _change("mono", _first_entry(-1)),
                      "field 'mono' is not a valid exponent vector"),
    "mono_at_bound": ("RuleAdded", _change("mono", _first_entry(BOUND)),
                      "field 'mono' is not a valid exponent vector"),
    "u1_negative": ("SPolCreated", _change("u1", _first_entry(-1)),
                    "field 'u1' is not a valid exponent vector"),
    "u1_at_bound": ("SPolCreated", _change("u1", _first_entry(BOUND)),
                    "field 'u1' is not a valid exponent vector"),
    "term_of_2": ("CallBegin", _change("poly", _first_entry(0, 2)),
                  "field 'poly' is not a valid polynomial"),
    "term_of_6": ("CallBegin", _change("poly", _first_entry(0, 6)),
                  "field 'poly' is not a valid polynomial"),
    "no_poly": ("SPolCreated", lambda ev: ev.pop("poly"), "no SPolCreated row has the keys"),
    "no_trail": ("DoneInserted", lambda ev: ev.pop("trail"), "no DoneInserted row has the keys"),
    "no_g_next": ("CallBegin", lambda ev: ev.pop("g_next"), "no CallBegin row has the keys"),
    "no_mono": ("RuleAdded", lambda ev: ev.pop("mono"), "no RuleAdded row has the keys"),
    "extra_key": ("DegreeStep", lambda ev: ev.update(extra=0), "no DegreeStep row has the keys"),
    "true_int": ("DegreeStep", _change("d", lambda d: True), "field 'd' is not a valid int"),
    "true_in_ints": ("CallEnd", _change("basis", lambda basis: [True] + basis[1:]),
                     "field 'basis' is not a valid list of ints"),
    "kind_of_other_keys": ("DegreeStep", lambda ev: ev.update(kind="CallEnd"),
                           "no CallEnd row has the keys"),
}


def _as_bools(exps: tuple) -> tuple:
    return tuple(map(bool, exps))


# a field of cyclic-4's log, a change that writes a vector of it with entries
# of another type, and the message that names its line: the first event of
# the kind whose field the change leaves equal (False == 0, 1.0 == 1) is
# changed
EQUAL_VECTORS = {
    "bool_signature_mono": ("CallBegin", "sig",
                            lambda sig: {**sig, "mono": _as_bools(sig["mono"])},
                            "field 'sig' is not a valid signature"),
    "bool_mult": ("PhiPreReduce", "mult", _as_bools,
                  "field 'mult' is not a valid exponent vector"),
    "bool_term": ("CallBegin", "poly",
                  lambda poly: [[poly[0][0], _as_bools(poly[0][1])]] + poly[1:],
                  "field 'poly' is not a valid polynomial"),
    "float_mono": ("RuleAdded", "mono", lambda mono: tuple(map(float, mono)),
                   "field 'mono' is not a valid exponent vector"),
}


class TestRowRule:
    """Every line must fit its row of ``EVENT_SHAPES`` exactly: the reader
    rejects any other, naming its line, before a checker sees it."""

    @pytest.mark.parametrize("case", BAD_ROWS)
    def test_reader_names_the_line(self, case):
        kind, change, message = BAD_ROWS[case]
        events = copy.deepcopy(plant_run("cyclic4")[1])
        target = next(ev for ev in events if ev["kind"] == kind)
        change(target)
        with pytest.raises(ValueError, match=rf"^line {target['seq'] + 1}: {re.escape(message)}"):
            events_from_jsonl(io.StringIO("".join(jsonl_lines(events))))

    @pytest.mark.parametrize("case", EQUAL_VECTORS)
    @pytest.mark.parametrize("first", [True, False], ids=["as_line_1", "after_its_int_vector"])
    def test_vector_equal_to_ints_is_rejected_in_either_order(self, case, first):
        # each occurrence of a vector is tested, not only the first of the
        # vectors equal to it
        kind, name, change, message = EQUAL_VECTORS[case]
        events = plant_run("cyclic4")[1]
        target = next(ev for ev in events if ev["kind"] == kind and change(ev[name]) == ev[name])
        forged = {**target, name: change(target[name])}
        log = [forged] + events if first else events + [forged]
        line = 1 if first else len(log)
        with pytest.raises(ValueError, match=rf"^line {line}: {re.escape(message)}$"):
            events_from_jsonl(io.StringIO("".join(jsonl_lines(log))))

    def test_every_line_read_is_written_through_its_row(self, monkeypatch):
        # each writer variant reads back to an event that takes its row's
        # template, or fails at the reader; the logged event comes first, so
        # the variant's vectors are ones the read has seen, of its length
        read, rejected = [], 0
        for ev in _one_event_per_row():
            for variant in _writer_variants(ev):
                try:
                    events = events_from_jsonl(io.StringIO("".join(jsonl_lines([ev, variant]))))
                except ValueError:
                    rejected += 1
                    continue
                assert events[0] == ev
                read.append(events[1])
        assert read and rejected
        assert encoded_whole(monkeypatch, read) == []
