"""Checkers: positive runs, fabricated negative controls, log round-trips."""

import copy
import io

import pytest

from f5gb import trace
from f5gb.engine import EngineConfig, incremental_f5
from f5gb.poly import Monomial, MonomialQuotient, quotient_cmp, GT
from f5gb.sig import Signature
from f5gb.trace import (
    RegistryEntry,
    Registry,
    Trace,
    build_registry,
    check_chains,
    check_d_progression,
    check_genealogy,
    check_replay,
    check_rule_degrees,
    check_signature_safety,
    check_thm5_exhaustive,
    classify_pairs_at_insertion,
    done_insertion_audit,
    events_from_jsonl,
    extract_chain,
    find_thm4_pairs,
    membership_at,
    rules_at,
    run_all_checkers,
)

from systems import make_ring, polys


def M(*exps):
    return Monomial(exps)


@pytest.fixture
def ring():
    return make_ring(7, ["x", "y"])


@pytest.fixture
def demo(ring):
    return incremental_f5(
        polys(ring, "x^2 + y^2", "x*y"),
        EngineConfig(capture_snapshots=True),
    )


@pytest.fixture
def cyclic(ring_unused=None):
    ring = make_ring(7, ["x", "y", "z", "h"])
    res = incremental_f5(
        polys(ring, "x + y + z", "x*y + y*z + x*z", "x*y*z - h^3"),
        EngineConfig(capture_snapshots=True),
    )
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
        assert check_rule_degrees(ev).passed

    def test_fail(self):
        ev = [
            {"seq": 0, "kind": "RuleAdded", "index": 1, "mono": [1, 1], "pos": 0},
            {"seq": 1, "kind": "RuleAdded", "index": 1, "mono": [1, 0], "pos": 1},
        ]
        assert not check_rule_degrees(ev).passed


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
            MonomialQuotient(a.head(), a.sig.mono),
            MonomialQuotient(b.head(), b.sig.mono),
            ring.order,
        ) == GT

    def test_trivial_chain_of_input(self, demo, ring):
        registry = build_registry(demo.events)
        rep = extract_chain(1, registry, ring)
        assert rep.chain == [1] and rep.passed

    def test_all_chains_pass_on_runs(self, cyclic):
        ring, res = cyclic
        assert check_chains(res.events, ring).passed


class TestThm4Scan:
    def _entry(self, pos, sig, head_exps):
        return RegistryEntry(
            pos=pos,
            call=1,
            index=sig.index,
            sig=sig,
            creation_poly=[[1, list(head_exps)]],
            final_poly=[[1, list(head_exps)]],
        )

    def test_negative_control_from_direct_definition(self, ring):
        # head divides and signature divides, but the quotient comparison
        # x*x > x^2*y*1 is false, so the pair must not be reported
        reg = Registry(
            {
                0: self._entry(0, Signature(M(0, 0), 1), (1, 0)),
                1: self._entry(1, Signature(M(1, 0), 1), (2, 1)),
            },
            {},
        )
        assert find_thm4_pairs([0, 1], reg, ring) == []

    def test_positive_fabricated_pair(self, ring):
        reg = Registry(
            {
                0: self._entry(0, Signature(M(0, 0), 1), (2, 0)),
                1: self._entry(1, Signature(M(1, 1), 1), (2, 1)),
            },
            {},
        )
        assert find_thm4_pairs([0, 1], reg, ring) == [(0, 1)]

    def test_coprime_heads_empty(self, ring):
        reg = Registry(
            {
                0: self._entry(0, Signature(M(0, 0), 1), (2, 0)),
                1: self._entry(1, Signature(M(0, 1), 1), (0, 2)),
            },
            {},
        )
        assert find_thm4_pairs([0, 1], reg, ring) == []


def fabricated_audit_log(done_sig_mono):
    """Minimal log: input x^2, then a Done element with head x^2*y.

    With signature (x,1) the input passes all four reductor checks and the
    audit must fail; with signature (y,1) check (d) fires and it must pass.
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


class TestDoneInsertionAudit:
    def test_passes_on_runs(self, demo, cyclic, ring):
        assert done_insertion_audit(demo.events, ring).passed
        cring, res = cyclic
        assert done_insertion_audit(res.events, cring).passed

    def test_negative_control_skipped_check(self, ring):
        # candidate multiplier y shifts the input signature to (y,1) != (x,1):
        # nothing rejects it, which the audit must flag as an engine bug
        rep = done_insertion_audit(fabricated_audit_log((1, 0)), ring)
        assert not rep.passed

    def test_check_d_rescues_equal_signature(self, ring):
        rep = done_insertion_audit(fabricated_audit_log((0, 1)), ring)
        assert rep.passed


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


class TestThm5:
    def test_passes_on_runs(self, cyclic):
        ring, res = cyclic
        rep = check_thm5_exhaustive(res.events, ring)
        assert rep.passed and rep.checked > 0

    def test_checked_count_pinned(self, cyclic):
        ring, res = cyclic
        assert check_thm5_exhaustive(res.events, ring).checked == 14

    @pytest.mark.parametrize("name", sorted(LEX_SYSTEMS))
    def test_lex_regressions_pass(self, name):
        system, checked = LEX_SYSTEMS[name]
        ring, res = lex_run(*system)
        rep = check_thm5_exhaustive(res.events, ring)
        assert rep.passed and rep.failures == [] and rep.checked == checked

    @pytest.mark.parametrize("system", ["cyclic", "lex"])
    def test_checked_is_sum_of_classified(self, system, cyclic):
        ring, res = cyclic if system == "cyclic" else lex_run(*LEX_SYSTEM_510)
        registry = build_registry(res.events)
        classified = [
            cls
            for ev in res.events
            if ev["kind"] == "DoneInserted"
            for cls in classify_pairs_at_insertion(res.events, registry, ring, ev)
        ]
        rep = check_thm5_exhaustive(res.events, ring)
        assert len(classified) == rep.checked
        assert [
            (c.g_pos, c.pair, c.outcome) for c in classified if c.outcome == "unclassified"
        ] == rep.failures

    def test_threshold_disables(self, cyclic):
        ring, res = cyclic
        rep = check_thm5_exhaustive(res.events, ring, pair_threshold=0)
        assert rep.skipped and not rep.passed and rep.checked == 0
        assert rep.line() == "thm5_exhaustive: skipped (0 checked)"

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
        # drop every pair-level rejection event: previously rejected pairs
        # can no longer be classified
        stripped = [
            ev
            for ev in res.events
            if ev["kind"] not in ("F5CritPairReject", "RewrittenReject")
        ]
        if any(v in ("f5", "rewritten") for v in baseline.values()):
            assert not check_thm5_exhaustive(stripped, ring).passed


class TestReplay:
    def test_passes_on_runs(self, cyclic):
        ring, res = cyclic
        rep = check_replay(res.events, ring)
        assert rep.passed and rep.checked > 0

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
        assert check_genealogy(res.events, ring.order).passed

    def test_tampered_signature_detected(self, cyclic):
        ring, res = cyclic
        events = copy.deepcopy(res.events)
        for ev in events:
            if ev["kind"] == "SPolCreated":
                ev["sig"] = {"mono": [9, 9, 9, 9], "index": ev["sig"]["index"]}
                break
        assert not check_genealogy(events, ring.order).passed


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
        ring, res = cyclic
        registry = build_registry(res.events)
        assert res.snapshots
        for rec in res.snapshots:
            members = membership_at(registry, rec.call, rec.seq)
            assert sorted(members + [rec.g_pos]) == sorted(rec.members)
            tables = rules_at(res.events, rec.seq)
            for idx, entries in rec.rules.items():
                assert tuple(tables.get(idx, ())) == entries
