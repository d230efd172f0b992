"""Checkers: positive runs, fabricated negative controls, log round-trips."""

import copy
import functools
import io
import itertools
import json
import random

import pytest

from f5gb import trace
from f5gb.engine import BudgetExceeded, EngineConfig, incremental_f5
from f5gb.oracle import GgSnapshot, done_snapshots, find_thm4_pairs_in_snapshot
from f5gb.poly import GT, Monomial, MonomialOrder, quotient_key
from f5gb.sig import LabeledPolynomial, Signature, replay_vectors, sig_key, sig_mul
from f5gb.trace import (
    ChainReport,
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
    membership_at,
    run_all_checkers,
)

from order_reference import MonomialQuotient, quotient_cmp
from systems import (
    CYCLIC4,
    KATSURA5,
    SUITE,
    SUITE_PRIMES,
    classify_pairs_at_insertion,
    make_ring,
    polys,
    replayed_vectors,
    strip_rejections,
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
    def test_pass(self):
        ev = [
            {"seq": 0, "kind": "DegreeStep", "call": 1, "d": 3, "pairs": 1},
            {"seq": 1, "kind": "DegreeStep", "call": 1, "d": 4, "pairs": 1},
            {"seq": 2, "kind": "DegreeStep", "call": 1, "d": 5, "pairs": 1},
        ]
        assert check_d_progression(ev).passed

    def test_fail_flat_run(self):
        ev = [
            {"seq": k, "kind": "DegreeStep", "call": 1, "d": 3, "pairs": 1}
            for k in range(3)
        ]
        rep = check_d_progression(ev)
        assert not rep.passed
        assert rep.failures[0][1] == 0  # first violation at j=0

    def test_fail_decrease(self):
        ev = [
            {"seq": 0, "kind": "DegreeStep", "call": 1, "d": 4, "pairs": 1},
            {"seq": 1, "kind": "DegreeStep", "call": 1, "d": 3, "pairs": 1},
        ]
        assert not check_d_progression(ev).passed


class TestSignatureSafety:
    def test_vacuous(self, ring):
        assert check_signature_safety([], ring.order).passed

    def test_fabricated_violation(self, ring):
        ev = [
            {
                "seq": 0,
                "kind": "ReductionStep",
                "call": 1,
                "h": 2,
                "h_sig": {"mono": [0, 1], "index": 1},
                "reductor": 1,
                "mult": [1, 0],
                "msig": {"mono": [1, 0], "index": 1},  # x > y: unsafe
                "coeff": 1,
                "post_scale": 1,
            }
        ]
        assert not check_signature_safety(ev, ring.order).passed

    def test_phi_step_must_use_higher_index(self, ring):
        ev = [
            {
                "seq": 0,
                "kind": "PhiPreReduce",
                "call": 1,
                "h": 2,
                "h_sig": {"mono": [0, 0], "index": 1},
                "h_index": 1,
                "reductor": 1,
                "reductor_index": 1,  # same index: not a pre-reduction
                "mult": [0, 0],
                "coeff": 1,
            }
        ]
        assert not check_signature_safety(ev, ring.order).passed


class TestRuleDegrees:
    def test_pass(self):
        ev = [
            {"seq": 0, "kind": "RuleAdded", "index": 1, "mono": [1, 0], "pos": 0},
            {"seq": 1, "kind": "RuleAdded", "index": 1, "mono": [0, 1], "pos": 1},
            {"seq": 2, "kind": "RuleAdded", "index": 1, "mono": [1, 1], "pos": 2},
        ]
        assert check_rule_degrees(build_registry(ev)).passed

    def test_fail(self):
        ev = [
            {"seq": 0, "kind": "RuleAdded", "index": 1, "mono": [1, 1], "pos": 0},
            {"seq": 1, "kind": "RuleAdded", "index": 1, "mono": [1, 0], "pos": 1},
        ]
        assert not check_rule_degrees(build_registry(ev)).passed

    def test_each_element_owns_one_rule_with_its_signature(self, cyclic):
        _, res = cyclic
        events = res.events
        k, rule = next((k, ev) for k, ev in enumerate(events)
                       if ev["kind"] == "RuleAdded" and ev["pos"] == 2)
        assert rule["mono"] == (0, 0, 1, 0)
        # the same rule twice; a rule of another monomial of its degree
        twice = events[:k + 1] + [rule] + events[k + 1:]
        moved = events[:k] + [dict(rule, mono=(1, 0, 0, 0))] + events[k + 1:]
        checked = check_rule_degrees(build_registry(events)).checked
        for log, more in ((twice, 1), (moved, 0)):
            rep = check_rule_degrees(build_registry(log))
            assert rep.failures == [(2, "not exactly one rule, with its signature")]
            assert rep.checked == checked + more


class TestChains:
    def test_demo_two_chain(self, demo, ring):
        registry = build_registry(demo.events)
        created = [p for p, e in registry.entries.items() if not e.is_input]
        (pos,) = created
        rep = extract_chain(pos, registry, ring)
        assert rep.chain == [1, 2]  # input of the last call, then its product
        assert rep.passed
        # the hand-checked facts: sig divisibility and the quotient descent
        a, b = registry.entries[1], registry.entries[2]
        assert a.sig == Signature(M(0, 0), 1) and b.sig == Signature(M(0, 1), 1)
        assert quotient_cmp(
            MonomialQuotient(a.head, a.sig.mono),
            MonomialQuotient(b.head, b.sig.mono),
            ring.order,
        ) == GT
        assert quotient_key(a.head, a.sig.mono, ring.order) > quotient_key(
            b.head, b.sig.mono, ring.order
        )

    def test_trivial_chain_of_input(self, demo, ring):
        registry = build_registry(demo.events)
        rep = extract_chain(1, registry, ring)
        assert rep.chain == [1] and rep.passed

    def test_all_chains_pass_on_runs(self, cyclic):
        ring, res = cyclic
        assert check_chains(build_registry(res.events), ring).passed


class TestThm4Scan:
    def _snap(self, ring, sig0, head0, sig1, head1):
        entries = {
            0: LabeledPolynomial(0, sig0, ring.poly([(1, head0)])),
            1: LabeledPolynomial(1, sig1, ring.poly([(1, head1)])),
        }
        return GgSnapshot(ring, entries, (0, 1), 1, {}, 0, {1: 0}, {})

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
    """Minimal log: input x^2, then a Done element with head x^2*y.

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
        poly=[[1, [2, 1]]],
        p1=0,
        u1=[0, 1],
        p2=0,
        u2=[0, 1],
        d=3,
    )
    t.emit("RuleAdded", index=1, mono=list(done_sig_mono), pos=1)
    t.emit(
        "DoneInserted",
        call=1,
        pos=1,
        sig={"mono": list(done_sig_mono), "index": 1},
        poly=[[1, [2, 1]]],
        creation_poly=[[1, [2, 1]]],
        trail=[],
    )
    return t.events


def check_d_audit_log():
    """Input x^2, then r1 with signature (x*y,1) and head x^3*y, then r2 with
    signature (y,1) and head x^2*y.  r2 is newer than r1 but has the smaller
    signature, so it is Done-inserted first.

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
            poly=[[1, head]],
            p1=0,
            u1=sig,
            p2=0,
            u2=sig,
            d=sum(head),
        )
        t.emit("RuleAdded", index=1, mono=sig, pos=pos)
    for pos, sig, head in reversed(elements):
        t.emit(
            "DoneInserted",
            call=1,
            pos=pos,
            sig={"mono": sig, "index": 1},
            poly=[[1, head]],
            creation_poly=[[1, head]],
            trail=[],
        )
    return t.events


def insertion_view(events, pos):
    """The audit's view of the basis at the Done insertion of ``pos``."""
    registry = build_registry(events)
    seq = registry.entries[pos].done_seq
    call = registry.entries[pos].call
    return InsertionView(
        registry.entries,
        membership_at(registry, call, seq) + [pos],
        pos,
        registry.rules,
        seq,
    )


class TestDoneInsertionAudit:
    def test_passes_on_runs(self, demo, cyclic):
        assert done_insertion_audit(build_registry(demo.events)).passed
        _, res = cyclic
        assert done_insertion_audit(build_registry(res.events)).passed

    def test_negative_control_skipped_check(self):
        # candidate multiplier y shifts the input signature to (y,1) != (x,1):
        # nothing rejects it, which the audit must flag as an engine bug
        rep = done_insertion_audit(build_registry(fabricated_audit_log((1, 0))))
        assert not rep.passed

    def test_check_c_rescues_rewritten_candidate(self):
        events = fabricated_audit_log((0, 1))
        registry = build_registry(events)
        rep = done_insertion_audit(registry)
        assert rep.passed and rep.checked == 1
        g = registry.entries[1]
        assert insertion_view(events, 1).failed_check(0, g.head, g.sig) == "c"

    def test_check_d_rescues_equal_signature(self):
        events = check_d_audit_log()
        registry = build_registry(events)
        rep = done_insertion_audit(registry)
        assert rep.passed and rep.checked == 2
        view = insertion_view(events, 1)
        assert view.members == (0, 1, 2)
        g = registry.entries[1]
        assert view.failed_check(0, g.head, g.sig) == "c"
        assert view.failed_check(2, g.head, g.sig) == "d"

    def test_candidate_without_rule_entry_is_loud(self):
        # the input passes checks (a) and (b); with its RuleAdded gone there
        # is no rule to decide check (c) by
        events = [
            ev for ev in fabricated_audit_log((1, 0))
            if not (ev["kind"] == "RuleAdded" and ev["pos"] == 0)
        ]
        with pytest.raises(trace.BrokenLink, match="r0 has no rule entry"):
            done_insertion_audit(build_registry(events))


class TestExtractChainBroken:
    def test_missing_greater_part_ancestor(self, ring):
        events = copy.deepcopy(fabricated_audit_log((1, 0)))
        (spol,) = [ev for ev in events if ev["kind"] == "SPolCreated"]
        spol["p1"] = 7  # no element was created at position 7
        registry = build_registry(events)
        with pytest.raises(trace.BrokenLink, match="broken ancestor link at r1"):
            extract_chain(1, registry, ring)


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


# Log plants on the degrevlex log of cyclic-4 or katsura-5 over GF(32003).
# A drop removes one event: the first of its kind, or for RuleAdded the rule
# of the element at the given position (on cyclic-4 the first S-polynomial,
# on katsura-5 the first element built by a top-reduction).  A corruption
# (CORRUPTIONS) changes one field of one event in place.
PLANT_SYSTEMS = {"cyclic4": CYCLIC4, "katsura5": KATSURA5}
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
    ("cyclic4", "ReductionStep"): [("trail_replay", (59, "post_scale differs from the replay"))],
    ("katsura5", "F5CritPairReject"): [("thm5_exhaustive", (4, (0, 2), "unclassified"))],
    ("katsura5", "RewrittenReject"): [("thm5_exhaustive", (6, (0, 4), "unclassified"))],
    ("katsura5", "RuleAdded"): [
        ("rule_degrees", (30, "not exactly one rule, with its signature")),
        ("done_insertion_audit", (26, 22, "candidate passes all four checks")),
    ],
    ("katsura5", "PhiPreReduce"): [
        ("trail_replay", (10, "DoneInserted polynomial differs from the replay"))
    ],
    ("katsura5", "ReductionStep"): [
        ("trail_replay", (158, "DoneInserted polynomial differs from the replay"))
    ],
    ("cyclic4", "post_scale"): [("trail_replay", (57, "post_scale differs from the replay"))],
    ("cyclic4", "trail_coeff"): [("trail_replay", (61, "trail differs from the replay"))],
    ("cyclic4", "creation_poly"): [
        ("trail_replay", (9, "creation polynomial differs from the replay"))
    ],
    ("cyclic4", "spol_poly"): [
        ("trail_replay", (8, "SPolCreated polynomial differs from the replay"))
    ],
    ("cyclic4", "unknown_reductor"): [("trail_replay", (56, "unknown position r1000000"))],
    # the replayed vector still leads with u1 * S(p1): not admissible either
    ("cyclic4", "sig_swap"): [
        ("rule_degrees", (2, "not exactly one rule, with its signature")),
        ("genealogy", (2, "sig != u_over * S(greater)")),
        ("chains", (2, ChainReport([1, 2], False, False, True))),
        ("thm5_exhaustive", (3, (0, 2), "unclassified")),
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
        change(changed, ring.p, build_registry(events))
        return ring, [changed if ev is target else ev for ev in events], target
    dropped = next(
        ev for ev in events
        if ev["kind"] == plant and (plant != "RuleAdded" or ev["pos"] == RULE_PLANTS[system])
    )
    return ring, [ev for ev in events if ev is not dropped], dropped


def replayed_admissible(events, ring) -> bool:
    """The ``admissible`` verdict of ``run_check``, on a log alone."""
    replay = check_replay(events, ring)
    return all_admissible(build_registry(events), replay, replay_vectors(ring, replay.ops))


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
        assert all(run_all_checkers(events, ring))
        assert replayed_admissible(events, ring)

    @pytest.mark.parametrize("system", PLANT_SYSTEMS)
    def test_rule_plant_is_one_rule_fewer(self, system):
        _, events, _ = planted_log(system, "RuleAdded")
        full = build_registry(plant_run(system)[1])
        assert check_rule_degrees(build_registry(events)).checked == (
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
        assert sorted(build_registry(events).calls) == [3, 4, 5, 6]
        assert replayed_admissible(events, ring)


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


class TestThm5:
    def test_passes_on_runs(self, cyclic):
        ring, res = cyclic
        rep = check_thm5_exhaustive(res.events, build_registry(res.events), ring)
        assert rep.passed and rep.checked > 0

    def test_checked_count_pinned(self, cyclic):
        ring, res = cyclic
        assert check_thm5_exhaustive(res.events, build_registry(res.events), ring).checked == 14

    @pytest.mark.parametrize("name", sorted(LEX_SYSTEMS))
    def test_lex_regressions_pass(self, name):
        system, checked = LEX_SYSTEMS[name]
        ring, res = lex_run(*system)
        rep = check_thm5_exhaustive(res.events, build_registry(res.events), ring)
        assert rep.passed and rep.failures == [] and rep.checked == checked

    @pytest.mark.parametrize("system", THM5_SYSTEMS)
    def test_checked_is_sum_of_classified(self, system):
        ring, res = thm5_run(system)
        rep = check_thm5_exhaustive(res.events, build_registry(res.events), ring)
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
        rep = check_thm5_exhaustive(events, build_registry(events), ring)
        assert not rep.passed
        assert rep.failures[0][1] == tuple(sorted((dropped["p1"], dropped["p2"])))
        assert (rep.checked, rep.failures) == thm5_brute_force(events, ring)

    @pytest.mark.parametrize("name", ["cyclic", "deglex", "lex"])
    def test_packed_pairs_match_monomial_api(self, name):
        # the check and its brute-force reference share _PairRules, so its
        # packed keys and degrees are checked against Monomial arithmetic
        ring, res = thm5_run(name)
        registry = build_registry(res.events)
        rules = trace._PairRules(res.events, registry, ring.order)
        members = [e for e in registry.entries.values() if e.head is not None]
        assert len(members) > 2
        for a, b in itertools.combinations(members, 2):
            t = a.head.lcm(b.head)
            key = max(sig_key(sig_mul(t.divide(e.head), e.sig), ring.order) for e in (a, b))
            assert rules.pair(a.pos, b.pos)[:2] == rules.pair(b.pos, a.pos)[:2] == (key, t.deg)

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
                check_thm5_exhaustive(res.events, build_registry(res.events), ring).checked,
                len(check_thm5_exhaustive(stripped, build_registry(stripped), ring).failures),
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
        registry = build_registry(res.events)
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
        rep = check_thm5_exhaustive(stripped, build_registry(stripped), ring)
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
        rep = check_replay(res.events, ring)
        vectors = replay_vectors(ring, rep.ops)
        assert rep.passed
        assert rep.polys == {lp.pos: lp.poly for lp in res.R}
        assert all(vectors[lp.pos].value(res.inputs) == lp.poly for lp in res.R)
        assert all(vectors[lp.pos].lead()[1] == lp.sig for lp in res.R)
        assert all_admissible(build_registry(res.events), rep, vectors)

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
            creation = trace.poly_from_payload(ring, ev["creation_poly"])
            terms = [(alpha * c, m) for c, m in creation.terms]
            for c, t, j in contribs:
                terms += [(-c * cj, mj.mul(t)) for cj, mj in res.R[j].poly.terms]
            assert ring.poly(terms) == trace.poly_from_payload(ring, ev["poly"])
        assert done and reductions > 0

    def test_zero_reduction_without_its_step_fails(self):
        # r22 of cyclic-4 reduces to zero in one step; without it the replay
        # leaves r22 nonzero
        ring, events = plant_run("cyclic4")
        (step,) = [ev for ev in events if ev.get("h") == 22 and "reductor" in ev]
        rep = check_replay([ev for ev in events if ev is not step], ring)
        assert rep.failures == [(step["seq"] + 1, "nonzero on replay")]

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
        assert check_genealogy(build_registry(res.events), ring.order).passed

    def test_tampered_signature_detected(self, cyclic):
        ring, res = cyclic
        events = copy.deepcopy(res.events)
        for ev in events:
            if ev["kind"] == "SPolCreated":
                ev["sig"] = {"mono": [9, 9, 9, 9], "index": ev["sig"]["index"]}
                break
        assert not check_genealogy(build_registry(events), ring.order).passed


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

        def counting(events):
            calls.append(1)
            return build_registry(events)

        monkeypatch.setattr(trace, "build_registry", counting)
        assert all(run_all_checkers(res.events, ring))
        assert len(calls) == 1

    def test_membership_and_rules_match_engine_snapshots(self, cyclic):
        # (seq, g_pos, members, rule count per index) at every Done
        # insertion, pinned to the values of the snapshot records the engine
        # kept before snapshots were rebuilt from the log
        ring, res = cyclic
        registry = build_registry(res.events)
        got = [
            (
                registry.entries[snap.g_pos].done_seq,
                snap.g_pos,
                snap.members,
                tuple(snap.rule_count(i) for i in (1, 2, 3)),
            )
            for snap in done_snapshots(res, registry, replayed_vectors(res))
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

    def test_exponent_fields_have_their_shapes(self, suite_logs):
        shapes = (_is_vector, _is_signature, _is_poly, _is_trail)
        used = set()
        for n, events in suite_logs:
            for ev in events:
                for names, is_shape in zip(trace.EXPONENT_FIELDS[ev["kind"]], shapes):
                    for name in names:
                        if name in ev:
                            used.add((ev["kind"], name))
                            assert is_shape(ev[name], n), (ev["kind"], name)
        # every named field occurs in some event
        assert used == {
            (kind, name)
            for kind, fields in trace.EXPONENT_FIELDS.items()
            for names in fields
            for name in names
        }


def jsonl_lines(events) -> list[str]:
    buf = io.StringIO()
    t = Trace()
    t.events = events
    t.to_jsonl(buf)
    return buf.getvalue().splitlines(True)


class TestJsonlCodec:
    """``events_from_jsonl`` decodes a chunk of lines per ``json.loads``;
    every line must still hold one known-kind object on its own."""

    @pytest.fixture
    def long_log(self, cyclic):
        # more than one chunk and not a multiple of it
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
        assert all(ev["kind"] is trace._KINDS[ev["kind"]] for ev in events)
        # one chunk's events share each key string
        keys = {}
        assert all(keys.setdefault(key, key) is key for ev in events[:n] for key in ev)

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
        ('{"seq":6,"kind":"SPolCreated","call":1,"pos":3,"poly":[[1,null]]}',
         "field 'poly' is not a valid polynomial"),
        ('{"seq":6,"kind":"DoneInserted","call":1,"pos":3,"trail":[["top",1]]}',
         "field 'trail' is not a valid trail"),
    ], ids=["mono_int", "mono_str", "mono_nested", "mono_object", "sig_no_mono", "sig_list",
            "poly_term", "trail_step"])
    @pytest.mark.parametrize("path", ["bulk", "per_line"])
    def test_bad_exponent_field(self, long_log, bad, message, path):
        # a valid line holding an object boundary sends its whole chunk down
        # the line-by-line path
        boundary = '{"seq":7,"kind":"CallEnd","note":"},{"}\n'
        lines = [bad + "\n"] + ([boundary] if path == "per_line" else [])
        at = trace._CHUNK_LINES + 17
        self.check_bad(long_log, lines, at, rf"^line {at}: {message}$")
