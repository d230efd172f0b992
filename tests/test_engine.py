"""Engine behavior: pair creation and rejection, S-polynomials, reduction,
rule bookkeeping, budgets, and the run-level invariants."""

import hashlib
import io

import pytest

from f5gb.engine import (
    BudgetExceeded,
    Engine,
    EngineConfig,
    MissingRule,
    NonHomogeneousInput,
    RuleTable,
    ZeroInputPolynomial,
    incremental_f5,
)
from f5gb.poly import GT, Monomial
from f5gb.sig import MissingModuleVector, Signature, check_admissible, sig_cmp, sig_mul
from systems import P
from f5gb.trace import Trace, build_registry, sig_from_payload

from systems import P, SUITE, make_ring, polys


def M(*exps):
    return Monomial(exps)


@pytest.fixture
def ring():
    return make_ring(7, ["x", "y"])


@pytest.fixture
def demo(ring):
    return incremental_f5(
        polys(ring, "x^2 + y^2", "x*y"),
        EngineConfig(capture_snapshots=True, self_check=True),
    )


def events_of(result, kind):
    return [ev for ev in result.events if ev["kind"] == kind]


class TestValidation:
    def test_zero_input(self, ring):
        with pytest.raises(ZeroInputPolynomial):
            incremental_f5([ring.zero])

    def test_non_homogeneous(self, ring):
        with pytest.raises(NonHomogeneousInput):
            incremental_f5(polys(ring, "x^2 + y"))

    def test_empty(self):
        with pytest.raises(ValueError):
            incremental_f5([])

    def test_inputs_made_monic(self, ring):
        res = incremental_f5(polys(ring, "3*x^2 + 3*y^2"))
        assert res.basis_polynomials() == polys(ring, "x^2 + y^2")


class TestSingleInput:
    def test_own_basis_no_pairs(self, ring):
        res = incremental_f5(polys(ring, "x^2 + y^2"))
        assert res.basis_polynomials() == polys(ring, "x^2 + y^2")
        assert res.counters["pairs_created"] == 0


class TestDemoRun:
    def test_basis_heads(self, demo, ring):
        heads = [q.head_mono for q in demo.basis_polynomials()]
        assert heads == [M(1, 1), M(2, 0), M(0, 3)]

    def test_seed_pair_shape(self, demo):
        (ev,) = events_of(demo, "CritPairCreated")
        assert ev["t"] == [2, 1] and ev["deg"] == 3
        # greater part is the first input (index 1), multiplied by y
        assert ev["u1"] == [0, 1]
        assert sig_from_payload(ev["sig1"]) == Signature(M(0, 1), 1)
        assert sig_from_payload(ev["sig2"]) == Signature(M(1, 0), 2)

    def test_spol_heads_cancel_at_creation(self, demo, ring):
        (ev,) = events_of(demo, "SPolCreated")
        assert ev["poly"] == [[1, [0, 3]]]  # y^3 right away
        assert sig_from_payload(ev["sig"]) == Signature(M(0, 1), 1)

    def test_higher_degree_pairs_rejected_at_pair_level(self, demo):
        # both follow-up pairs fail the shifted-signature check against the
        # previous basis, so the run stops after the degree-3 batch
        rejects = events_of(demo, "F5CritPairReject")
        assert {ev["where"] for ev in rejects} == {"crit_pair"}
        assert demo.d_histories[1] == [3]

    def test_created_elements_carry_call_index(self, demo):
        for ev in events_of(demo, "SPolCreated"):
            assert sig_from_payload(ev["sig"]).index == ev["call"]

    def test_admissible_throughout(self, demo, ring):
        assert all(
            check_admissible(lp, demo.inputs, ring.order) for lp in demo.R
        )


class TestMonomialIdeals:
    def test_spol_of_monomials_is_zero(self, ring):
        res = incremental_f5(polys(ring, "x^2*y", "x*y^2"))
        assert res.counters["reductions_to_zero"] == 1
        assert [q.text() for q in res.basis_polynomials()] == ["x*y^2", "x^2*y"]
        (ev,) = events_of(res, "SPolCreated")
        assert ev["poly"] == []

    def test_zero_elements_keep_rule_and_stay_out_of_basis(self, ring):
        res = incremental_f5(polys(ring, "x^2*y", "x*y^2"), EngineConfig(self_check=True))
        (zero_ev,) = events_of(res, "ReductionToZero")
        pos = zero_ev["pos"]
        assert pos not in res.basis
        rule_positions = [e["pos"] for e in events_of(res, "RuleAdded")]
        assert pos in rule_positions
        # the zero element's vector is a syzygy with the stored signature
        lp = res.R[pos]
        assert lp.poly.is_zero
        assert lp.mv.value(res.inputs).is_zero
        assert lp.mv.lead(res.ring.order)[1] == lp.sig


class TestModuleVectors:
    def test_not_carried_by_default(self, ring):
        res = incremental_f5(polys(ring, "x^2 + y^2", "x*y"))
        assert all(lp.mv is None for lp in res.R)

    @pytest.mark.parametrize(
        "config", [EngineConfig(self_check=True), EngineConfig(capture_snapshots=True)]
    )
    def test_carried_when_checked(self, ring, config):
        res = incremental_f5(polys(ring, "x^2 + y^2", "x*y"), config)
        assert all(check_admissible(lp, res.inputs, ring.order) for lp in res.R)

    def test_admissibility_of_vectorless_element_names_the_flags(self, ring):
        res = incremental_f5(polys(ring, "x^2 + y^2", "x*y"))
        with pytest.raises(MissingModuleVector, match="self_check.*capture_snapshots"):
            check_admissible(res.R[0], res.inputs, ring.order)


class TestInputRetirement:
    def test_reducible_input_rewritten_by_its_reduction(self, ring):
        # the first input's head is divisible by an earlier basis head, so the
        # pair with unit multiplier re-creates it reduced, under the same
        # signature, and the new rule retires the input from pair generation
        res = incremental_f5(
            polys(ring, "x^2 + x*y", "x^2", "x*y"),
            EngineConfig(self_check=True),
        )
        created = events_of(res, "SPolCreated")
        unit_sig = [
            ev for ev in created if sig_from_payload(ev["sig"]) == Signature(M(0, 0), 1)
        ]
        assert unit_sig, "expected a unit-multiplier S-polynomial for the input"
        rejects = [
            ev
            for ev in events_of(res, "RewrittenReject")
            if ev["where"] == "spol"
        ]
        assert rejects, "later pairs with the retired input must be rewritten-rejected"


class TestTopReductionBranches:
    def test_new_element_from_unsafe_reductor(self):
        ring = make_ring(7, ["x0", "x1", "x2", "x3", "h"])
        res = incremental_f5(
            polys(
                ring,
                "x0 + 2*x1 + 2*x2 + 2*x3 - h",
                "x0^2 + 2*x1^2 + 2*x2^2 + 2*x3^2 - x0*h",
                "2*x0*x1 + 2*x1*x2 + 2*x2*x3 - x1*h",
                "x1^2 + 2*x0*x2 + 2*x1*x3 - x2*h",
            ),
            EngineConfig(self_check=True),
        )
        news = events_of(res, "NewFromTopReduction")
        assert news, "expected the unsafe-reductor branch to fire on this system"
        for ev in news:
            sig = sig_from_payload(ev["sig"])
            h_sig = res.R[ev["h"]].sig
            j_sig = res.R[ev["j"]].sig
            assert sig == sig_mul(M(*ev["u"]), j_sig)
            assert sig_cmp(sig, h_sig, ring.order) == GT

    def test_reduction_steps_are_safe_and_heads_decrease(self):
        ring = make_ring(32003, ["x0", "x1", "x2", "x3", "h"])
        res = incremental_f5(
            polys(
                ring,
                "x0 + 2*x1 + 2*x2 + 2*x3 - h",
                "x0^2 + 2*x1^2 + 2*x2^2 + 2*x3^2 - x0*h",
                "2*x0*x1 + 2*x1*x2 + 2*x2*x3 - x1*h",
                "x1^2 + 2*x0*x2 + 2*x1*x3 - x2*h",
            ),
            EngineConfig(self_check=True),
        )
        assert res.counters["reduction_steps"] > 0
        registry = build_registry(res.events)
        for pos, entry in registry.entries.items():
            if entry.trail is None:
                continue
            p = registry.creation(ring, pos)
            for step in entry.trail:
                if step[0] == "monic":
                    p = p.scale(step[1])
                    continue
                kind, c, u, j = step
                before = p.head_mono
                p = p.sub(registry.final_poly(ring, j).term_mul(c, Monomial(u)))
                if kind == "top":
                    # a top step cancels the head: strict decrease or zero
                    assert p.is_zero or ring.order.cmp(p.head_mono, before) == -1
            assert p.monic() == registry.final_poly(ring, pos).monic()


class TestDoneOrdering:
    def test_done_insertions_ascend_in_signature_per_batch(self):
        ring = make_ring(7, ["x0", "x1", "x2", "x3", "h"])
        res = incremental_f5(
            polys(
                ring,
                "x0 + 2*x1 + 2*x2 + 2*x3 - h",
                "x0^2 + 2*x1^2 + 2*x2^2 + 2*x3^2 - x0*h",
                "2*x0*x1 + 2*x1*x2 + 2*x2*x3 - x1*h",
                "x1^2 + 2*x0*x2 + 2*x1*x3 - x2*h",
            )
        )
        per_batch = {}
        batch = 0
        for ev in res.events:
            if ev["kind"] == "DegreeStep":
                batch += 1
            elif ev["kind"] == "DoneInserted":
                per_batch.setdefault(batch, []).append(sig_from_payload(ev["sig"]))
        for sigs in per_batch.values():
            for a, b in zip(sigs, sigs[1:]):
                assert sig_cmp(b, a, ring.order) == GT


class TestRuleTable:
    def test_own_rule_only(self):
        rt = RuleTable(1)
        rt.add(1, M(0, 0), 5)
        assert rt.find_rewriter(1, M(2, 1)) == 5

    def test_newer_divider_wins(self):
        rt = RuleTable(1)
        rt.add(1, M(0, 0), 5)
        rt.add(1, M(0, 1), 9)
        assert rt.find_rewriter(1, M(1, 1)) == 9

    def test_newer_non_divider_is_skipped(self):
        rt = RuleTable(1)
        rt.add(1, M(0, 0), 5)
        rt.add(1, M(0, 1), 9)
        rt.add(1, M(3, 0), 11)
        assert rt.find_rewriter(1, M(1, 1)) == 9

    def test_missing_rule(self):
        rt = RuleTable(1)
        rt.add(1, M(2, 0), 5)
        with pytest.raises(MissingRule):
            rt.find_rewriter(1, M(0, 3))


class TestBudgets:
    def test_pair_budget(self):
        ring = make_ring(7, ["x", "y", "z", "h"])
        with pytest.raises(BudgetExceeded) as exc:
            incremental_f5(
                polys(ring, "x + y + z", "x*y + y*z + x*z", "x*y*z - h^3"),
                EngineConfig(max_pairs=1),
            )
        assert exc.value.events  # the trace travels with the failure

    def test_degree_budget(self):
        ring = make_ring(7, ["x", "y"])
        with pytest.raises(BudgetExceeded):
            incremental_f5(
                polys(ring, "x^2 + y^2", "x*y"), EngineConfig(max_degree=2)
            )


class TestDeterminism:
    def test_same_input_same_trace(self, ring):
        a = incremental_f5(polys(ring, "x^2 + y^2", "x*y"))
        b = incremental_f5(polys(ring, "x^2 + y^2", "x*y"))
        assert a.events == b.events
        assert [q.text() for q in a.basis_polynomials()] == [
            q.text() for q in b.basis_polynomials()
        ]


class TestAllPairsRejectedAtSeeding:
    def test_basis_is_previous_plus_input(self, ring):
        # both seed pairs shift the new input's signature into the previous
        # basis heads, so the call does no degree work at all
        res = incremental_f5(polys(ring, "x^2", "x*y", "y"))
        assert res.d_histories[1] == []
        assert [q.text() for q in res.basis_polynomials()] == ["y", "x*y", "x^2"]
        rejects = [
            ev for ev in events_of(res, "F5CritPairReject") if ev["call"] == 1
        ]
        assert len(rejects) == 2


class TestNoCoprimeSkip:
    def test_coprime_head_pair_is_created(self, ring):
        # there is no first-criterion shortcut: with the shifted-signature
        # checks out of the way (single-input index), a coprime-head pair
        # is created like any other
        eng = Engine(ring, polys(ring, "x^2"))
        eng.run()
        lp2 = eng._new_labeled(
            Signature(M(0, 1), 1),
            P(ring, "y^3"),
            None,
            None,
        )
        eng._add_rule(lp2.sig, lp2.pos)
        pair = eng._crit_pair(0, lp2.pos, 1)
        assert pair is not None
        assert pair.t == M(2, 3)
        h1 = eng.R[pair.p1].poly.head_mono
        h2 = eng.R[pair.p2].poly.head_mono
        assert h1.gcd(h2).is_one


class TestReductionStepCap:
    def test_cap_aborts_with_trace(self, ring):
        with pytest.raises(BudgetExceeded) as exc:
            incremental_f5(
                polys(ring, "x^2 + y^2", "x*y"),
                EngineConfig(reduction_step_cap=0),
            )
        assert "reduction step cap" in str(exc.value)
        assert exc.value.events


# sha256 of the compact JSON Lines log (``Trace.to_jsonl``) of each run.  Any
# change to an engine decision changes them, so a change meant to keep the
# engine's behaviour must keep them.  On homogeneous input deglex and lex
# compare the monomials of one degree alike, so their logs agree.
CYCLIC4 = (
    ["x0", "x1", "x2", "x3", "h"],
    [
        "x0 + x1 + x2 + x3",
        "x0*x1 + x1*x2 + x2*x3 + x3*x0",
        "x0*x1*x2 + x1*x2*x3 + x2*x3*x0 + x3*x0*x1",
        "x0*x1*x2*x3 - h^4",
    ],
)
PINNED_LOGS = {
    ("cyclic4", "degrevlex"): "a381d7ae70620e2aaa8b6c5519adba74687047373da0ab2b7edc66a0a59b9501",
    ("cyclic4", "deglex"): "404572e87f929775f4566a7a7087f5ac674c8781a1a64511100074bb8f266f83",
    ("cyclic4", "lex"): "404572e87f929775f4566a7a7087f5ac674c8781a1a64511100074bb8f266f83",
    ("katsura3", "degrevlex"): "df377303a4fdafa6be42071a6dee94eb1158cd388f040c75d0148de49d2acd75",
    ("katsura3", "deglex"): "49d57b5a2f3af0f2ccd945f479c37043e1e57361a3255baff6129a0f815debd4",
    ("katsura3", "lex"): "49d57b5a2f3af0f2ccd945f479c37043e1e57361a3255baff6129a0f815debd4",
}


def log_digest(events) -> str:
    trace = Trace()
    trace.events = events
    buf = io.StringIO()
    trace.to_jsonl(buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


class TestEventLogPin:
    @pytest.mark.parametrize("system, order", sorted(PINNED_LOGS))
    def test_log_hash_pinned_and_independent_of_checks(self, system, order):
        names, texts = CYCLIC4 if system == "cyclic4" else SUITE["katsura3_homog"]
        inputs = polys(make_ring(32003, names, order), *texts)
        plain = incremental_f5(inputs, EngineConfig())
        checked = incremental_f5(
            inputs, EngineConfig(self_check=True, capture_snapshots=True)
        )
        assert log_digest(plain.events) == PINNED_LOGS[(system, order)]
        assert checked.events == plain.events
