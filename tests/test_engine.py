"""Engine behavior: pair creation and rejection, S-polynomials, reduction,
rule bookkeeping, budgets, and the run-level invariants."""

import gc
import hashlib
import io
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f5gb.engine import (
    COUNTED_EVENTS,
    BudgetExceeded,
    Engine,
    EngineConfig,
    InternalInvariantError,
    MissingRule,
    NonHomogeneousInput,
    RuleTable,
    ZeroInputPolynomial,
    incremental_f5,
)
from f5gb.poly import GT, ORDER_KINDS, Lazy, Monomial
from f5gb.sig import Signature, check_admissible, sig_mul
from systems import P, replayed_vectors
from f5gb.trace import (EXPONENT_FIELDS, Trace, events_from_jsonl, poly_from_payload,
                        sig_from_payload)

from order_reference import mono_cmp, sig_cmp
from phi_reference import phi_reduce_reference
from systems import (CYCLIC4, CYCLIC5, KATSURA5, LEX_SCOPE, P, SUITE, engine_pin_systems,
                     make_ring, polys)


def M(*exps):
    return Monomial(exps)


@pytest.fixture
def ring():
    return make_ring(7, ["x", "y"])


@pytest.fixture
def demo(ring):
    return incremental_f5(
        polys(ring, "x^2 + y^2", "x*y"),
        EngineConfig(),
    )


def events_of(result, kind):
    return [ev for ev in result.events if ev["kind"] == kind]


def degree_steps(result, call):
    return [ev["d"] for ev in events_of(result, "DegreeStep") if ev["call"] == call]


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
        assert ev["t"] == (2, 1) and ev["deg"] == 3
        # greater part is the first input (index 1), multiplied by y
        assert ev["u1"] == (0, 1)
        assert sig_from_payload(ev["sig1"]) == Signature(M(0, 1), 1)
        assert sig_from_payload(ev["sig2"]) == Signature(M(1, 0), 2)

    def test_spol_heads_cancel_at_creation(self, demo, ring):
        (ev,) = events_of(demo, "SPolCreated")
        assert ev["poly"] == [[1, (0, 3)]]  # y^3 right away
        assert sig_from_payload(ev["sig"]) == Signature(M(0, 1), 1)

    def test_higher_degree_pairs_rejected_at_pair_level(self, demo):
        # both follow-up pairs fail the shifted-signature check against the
        # previous basis, so the run stops after the degree-3 batch
        rejects = events_of(demo, "F5CritPairReject")
        assert {ev["where"] for ev in rejects} == {"crit_pair"}
        assert degree_steps(demo, 1) == [3]

    def test_created_elements_carry_call_index(self, demo):
        for ev in events_of(demo, "SPolCreated"):
            assert sig_from_payload(ev["sig"]).index == ev["call"]

    def test_admissible_throughout(self, demo):
        vectors = replayed_vectors(demo)
        assert all(
            check_admissible(vectors[lp.pos], lp.sig, lp.poly, demo.inputs) for lp in demo.R
        )


class TestMonomialIdeals:
    def test_spol_of_monomials_is_zero(self, ring):
        res = incremental_f5(polys(ring, "x^2*y", "x*y^2"))
        assert res.counters["reductions_to_zero"] == 1
        assert [q.text() for q in res.basis_polynomials()] == ["x*y^2", "x^2*y"]
        (ev,) = events_of(res, "SPolCreated")
        assert ev["poly"] == []

    def test_zero_elements_keep_rule_and_stay_out_of_basis(self, ring):
        res = incremental_f5(polys(ring, "x^2*y", "x*y^2"))
        (zero_ev,) = events_of(res, "ReductionToZero")
        pos = zero_ev["pos"]
        assert pos not in res.basis
        rule_positions = [e["pos"] for e in events_of(res, "RuleAdded")]
        assert pos in rule_positions
        # the zero element's vector is a syzygy with the stored signature
        lp = res.R[pos]
        mv = replayed_vectors(res)[pos]
        assert lp.poly.is_zero
        assert mv.value(res.inputs).is_zero
        assert mv.lead()[1] == lp.sig


class TestInputRetirement:
    def test_reducible_input_rewritten_by_its_reduction(self, ring):
        # the first input's head is divisible by an earlier basis head, so the
        # pair with unit multiplier re-creates it reduced, under the same
        # signature, and the new rule retires the input from pair generation
        res = incremental_f5(
            polys(ring, "x^2 + x*y", "x^2", "x*y"),
            EngineConfig(),
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
            EngineConfig(),
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
            EngineConfig(),
        )
        assert res.counters["reduction_steps"] > 0
        for ev in events_of(res, "DoneInserted"):
            p = poly_from_payload(ring, ev["creation_poly"])
            for step in ev["trail"]:
                if step[0] == "monic":
                    p = p.scale(step[1])
                    continue
                kind, c, u, j = step
                before = p.head_mono
                p = p.sub(res.R[j].poly.term_mul(c, Monomial(u)))
                if kind == "top":
                    # a top step cancels the head: strict decrease or zero
                    assert p.is_zero or mono_cmp(p.head_mono, before, ring.order) == -1
            assert p.monic() == poly_from_payload(ring, ev["poly"]).monic()

    def test_check_d_rejects_an_equal_signature_reductor(self):
        # Hand-built state: h = r1 has signature y*e1 and no rule of its own,
        # so the rule of r0 rewrites y*sig(r0) and check (c) passes r0; the
        # multiple y*r0 then has h's signature, which check (d) rejects.
        ring = make_ring(7, ["x", "y"])
        eng = Engine(ring, polys(ring, "x^2 + y^2"))
        eng._begin_call(1, [])
        h = eng._new_labeled(Signature(M(0, 1), 1), polys(ring, "x^2*y + 3*y^3")[0])
        eng.candidates = [(0, *eng.rows[0])]
        assert eng._is_reducible(h, 1) is None
        assert list(eng.trace.events[-1].items()) == [
            ("seq", 2), ("kind", "RewrittenReject"), ("call", 1),
            ("where", "is_reducible"), ("check", "d"), ("h", 1), ("h_head", (2, 1)),
            ("cand", 0), ("mult", (0, 1)), ("msig", {"mono": (0, 1), "index": 1}),
            ("rewriter", 1),
        ]


class TestInvariantPlants:
    """Each internal invariant check that compares signatures fires when a
    planted engine step breaks it; a real run never reaches them."""

    @staticmethod
    def run():
        ring = make_ring(7, ["x", "y"])
        return incremental_f5(polys(ring, "x^2 + y^2", "x*y", "x^2 + x*y + 2*y^2"))

    def test_check_d_passing_an_equal_signature(self, monkeypatch):
        # the reductor found for h is h itself: its signature, unmultiplied
        monkeypatch.setattr(Engine, "_is_reducible",
                            lambda self, h, i: (h.pos, self.ring.one_mono()))
        with pytest.raises(InternalInvariantError, match="check \\(d\\) let an equal"):
            self.run()

    def test_spolynomial_with_the_smaller_signature_first(self, monkeypatch):
        # every created pair with its parts swapped, so its first part has
        # the smaller signature
        pairs = Engine._pairs

        def swapped(self, ra, others, i):
            return [cp._replace(u1=cp.u2, p1=cp.p2, u2=cp.u1, p2=cp.p1, sig1=cp.sig2,
                                sig2=cp.sig1) for cp in pairs(self, ra, others, i)]

        monkeypatch.setattr(Engine, "_pairs", swapped)
        with pytest.raises(InternalInvariantError, match="ambiguous signature survived"):
            self.run()

    def test_batch_out_of_signature_order(self, monkeypatch):
        # each degree's batch processed from its greatest signature down
        spol = Engine._spol
        monkeypatch.setattr(Engine, "_spol", lambda self, batch, i: spol(self, batch[::-1], i))
        with pytest.raises(InternalInvariantError, match="batch out of signature order"):
            self.run()


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
        rt = RuleTable(1, M(0, 0).lay)
        rt.add(1, M(0, 0), 5)
        assert rt.find_rewriter(1, M(2, 1).v) == 5

    def test_newer_divider_wins(self):
        rt = RuleTable(1, M(0, 0).lay)
        rt.add(1, M(0, 0), 5)
        rt.add(1, M(0, 1), 9)
        assert rt.find_rewriter(1, M(1, 1).v) == 9

    def test_newer_non_divider_is_skipped(self):
        rt = RuleTable(1, M(0, 0).lay)
        rt.add(1, M(0, 0), 5)
        rt.add(1, M(0, 1), 9)
        rt.add(1, M(3, 0), 11)
        assert rt.find_rewriter(1, M(1, 1).v) == 9

    def test_missing_rule(self):
        rt = RuleTable(1, M(0, 0).lay)
        rt.add(1, M(2, 0), 5)
        with pytest.raises(MissingRule):
            rt.find_rewriter(1, M(0, 3).v)


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


def counted_events(events):
    """The engine counters as the per-kind event counts of a log."""
    return {
        name: sum(1 for ev in events if ev["kind"] == kind)
        for name, kind in COUNTED_EVENTS.items()
    }


class TestCountersFromLog:
    def run(self, config):
        names, texts = SUITE["katsura3_homog"]
        return incremental_f5(polys(make_ring(32003, names), *texts), config)

    def test_finished_run(self):
        res = self.run(EngineConfig())
        assert res.counters == counted_events(res.events)
        assert list(res.counters) == list(COUNTED_EVENTS)
        assert res.counters["pairs_created"] > 0 and res.counters["reduction_steps"] > 0

    @pytest.mark.parametrize(
        "config",
        [
            EngineConfig(max_pairs=1),
            EngineConfig(max_pairs=3),
            EngineConfig(max_degree=3),
            EngineConfig(reduction_step_cap=1),
        ],
        ids=["pairs1", "pairs3", "degree", "step_cap"],
    )
    def test_budget_exit(self, config):
        with pytest.raises(BudgetExceeded) as exc:
            self.run(config)
        counters = exc.value.counters
        assert counters == counted_events(exc.value.events)
        assert list(counters) == list(COUNTED_EVENTS)
        # a pair the budget refused is neither logged nor counted
        assert counters["pairs_created"] <= config.max_pairs

    def test_unknown_kind_fails_at_emit(self):
        log = Trace()
        with pytest.raises(KeyError):
            log.emit("NoSuchKind")
        assert log.events == []


class TestDeterminism:
    def test_same_input_same_trace(self, ring):
        a = incremental_f5(polys(ring, "x^2 + y^2", "x*y"))
        b = incremental_f5(polys(ring, "x^2 + y^2", "x*y"))
        assert a.events == b.events
        assert [q.text() for q in a.basis_polynomials()] == [
            q.text() for q in b.basis_polynomials()
        ]


class TestNoReferenceCycles:
    def test_finished_engine_is_freed_without_the_cycle_collector(self):
        # the engine's lookup tables must not refer back to it, or every
        # finished engine, with its trails and memos, lives until the next
        # full collection
        names, texts = CYCLIC4
        inputs = polys(make_ring(32003, names), *texts)
        enabled = gc.isenabled()
        gc.disable()
        try:
            eng = Engine(inputs[0].ring, inputs)
            result = eng.run()
            gone = weakref.ref(eng)
            del eng
            assert gone() is None
        finally:
            if enabled:
                gc.enable()
        assert result.basis


class TestAllPairsRejectedAtSeeding:
    def test_basis_is_previous_plus_input(self, ring):
        # both seed pairs shift the new input's signature into the previous
        # basis heads, so the call does no degree work at all
        res = incremental_f5(polys(ring, "x^2", "x*y", "y"))
        assert degree_steps(res, 1) == []
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
        lp2 = eng._new_labeled(Signature(M(0, 1), 1), P(ring, "y^3"))
        eng._add_rule(lp2.sig, lp2.pos)
        [pair] = eng._pairs(0, [lp2.pos], 1)
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


class TestPhiAgainstReference:
    """``Engine._phi_reduce`` on the normal-form kernel against the loop of
    one ``poly_axpy`` per step (``tests/phi_reference.py``)."""

    @given(
        st.data(),
        st.sampled_from(ORDER_KINDS),
        st.sampled_from((2, 3, 7, 32003, 2**31 - 1)),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_remainder_steps_and_scale(self, data, kind, prime):
        ring = make_ring(prime, ["x", "y", "z"], kind)
        monos = st.builds(Monomial, st.tuples(*[st.integers(0, 3)] * 3))
        terms = st.lists(st.tuples(st.integers(1, prime - 1), monos), max_size=6)
        h_poly = ring.poly(data.draw(terms))
        basis = [b.monic() for b in (ring.poly(data.draw(terms)) for _ in range(
            data.draw(st.integers(0, 4)))) if not b.is_zero]
        # a later element sharing an earlier head must never be used
        if basis and data.draw(st.booleans()):
            basis.append(ring.poly([(1, basis[0].head_mono)]))
        eng = Engine(ring, polys(ring, "x", "y"))
        positions = [eng._new_labeled(Signature(M(0, 0, 0), 2), b).pos for b in basis]
        eng._end_call(2, positions)
        h = eng._new_labeled(Signature(M(0, 0, 0), 1), h_poly)
        eng._phi_reduce(h, 1)

        remainder, steps, scale = phi_reduce_reference(h_poly, list(zip(positions, basis)))
        assert h.poly == remainder
        logged = [(ev["coeff"], ev["mult"], ev["reductor"])
                  for ev in eng.trace.events if ev["kind"] == "PhiPreReduce"]
        assert logged == [(c, u.exps, pos) for c, u, pos in steps]
        trail = [["phi", c, u.exps, pos] for c, u, pos in steps]
        assert eng.trails[h.pos] == trail + ([["monic", scale]] if scale != 1 else [])


class TestRows:
    def test_every_row_read_is_current(self, monkeypatch):
        # each row the pair loop reads, and each candidate the reductor scan
        # reads, equals the element's (head, signature monomial, index) at
        # that moment, and the run logs what an unwatched run logs
        ring = make_ring(32003, CYCLIC4[0])
        inputs = polys(ring, *CYCLIC4[1])
        rows_read, candidates_read = [], []

        def current(R, pos):
            return R[pos].poly.head_mono.v, R[pos].sig.mono.v, R[pos].index

        class WatchedRows(Lazy):
            def __getitem__(self, pos):
                row = super().__getitem__(pos)
                assert row == current(self.R, pos)
                rows_read.append(pos)
                return row

        init, is_reducible = Engine.__init__, Engine._is_reducible

        def watched_init(self, *args):
            init(self, *args)
            self.rows = WatchedRows(self.rows.make)
            self.rows.R = self.R

        def watched_is_reducible(self, h, i):
            assert all(entry[1:] == current(self.R, entry[0]) for entry in self.candidates)
            candidates_read.extend(entry[0] for entry in self.candidates)
            return is_reducible(self, h, i)

        monkeypatch.setattr(Engine, "__init__", watched_init)
        monkeypatch.setattr(Engine, "_is_reducible", watched_is_reducible)
        events = incremental_f5(inputs).events
        assert rows_read and candidates_read
        monkeypatch.undo()
        assert events == incremental_f5(inputs).events


class TestOverflow:
    """Every packed product the engine forms tests its guard bits: one that
    reaches 2^15 raises ``OverflowError`` and never wraps.  Past the pair's
    lcm, homogeneous inputs keep every product at or below the degree of
    its lcm, so the other cases are hand-built."""

    def test_pair_lcm(self):
        ring = make_ring(7, ["x", "y"])
        with pytest.raises(OverflowError, match="lcm of .*2\\^15"):
            incremental_f5(polys(ring, "x^20000", "y^20000"))

    def test_signature_multiple_of_a_pair(self):
        ring = make_ring(7, ["x", "y"])
        eng = Engine(ring, polys(ring, "y^3000"))
        eng._begin_call(1, [])
        a = eng._new_labeled(Signature(M(0, 30000), 1), P(ring, "x"))
        with pytest.raises(OverflowError, match="signature multiple .*2\\^15"):
            eng._pairs(a.pos, [0], 1)

    @staticmethod
    def lex_engine():
        # under lex x + y^30000 has head x, and x^2999 * y^30000 is past
        # the degree bound
        ring = make_ring(7, ["x", "y"], "lex")
        eng = Engine(ring, polys(ring, "x", "y"))
        eng._end_call(2, [])  # G_2 is empty unless a test fills it
        return ring, eng

    def test_phi_product(self):
        ring, eng = self.lex_engine()
        b = eng._new_labeled(Signature(M(0, 0), 2), P(ring, "x + y^30000"))
        eng._end_call(2, [b.pos])
        h = eng._new_labeled(Signature(M(0, 0), 1), P(ring, "x^3000"))
        with pytest.raises(OverflowError, match="product of .*2\\^15"):
            eng._phi_reduce(h, 1)

    def test_top_reduction_signature_multiple(self):
        ring, eng = self.lex_engine()
        j = eng._new_labeled(Signature(M(0, 30000), 1), P(ring, "x"))
        h = eng._new_labeled(Signature(M(3000, 0), 1), P(ring, "x^3000"))
        eng.candidates = [(j.pos, *eng.rows[j.pos])]
        with pytest.raises(OverflowError, match="product of .*2\\^15"):
            eng._is_reducible(h, 1)

    def test_top_reduction_product(self):
        ring, eng = self.lex_engine()
        j = eng._new_labeled(Signature(M(0, 0), 1), P(ring, "x + y^30000"))
        eng._add_rule(j.sig, j.pos)
        h = eng._new_labeled(Signature(M(3000, 0), 1), P(ring, "x^3000"))
        eng.candidates = [(j.pos, *eng.rows[j.pos])]
        assert eng._is_reducible(h, 1) == (j.pos, M(2999, 0))
        with pytest.raises(OverflowError, match="product of .*2\\^15"):
            eng._top_reduction(h, 1)


# sha256 of the compact JSON Lines log (``Trace.to_jsonl``) of each run.  Any
# change to an engine decision changes them, so a change meant to keep the
# engine's behaviour must keep them.  On homogeneous input deglex and lex
# compare the monomials of one degree alike, so their logs agree.
PINNED_LOGS = {
    ("cyclic4", "degrevlex"): "a381d7ae70620e2aaa8b6c5519adba74687047373da0ab2b7edc66a0a59b9501",
    ("cyclic4", "deglex"): "404572e87f929775f4566a7a7087f5ac674c8781a1a64511100074bb8f266f83",
    ("cyclic4", "lex"): "404572e87f929775f4566a7a7087f5ac674c8781a1a64511100074bb8f266f83",
    ("cyclic5", "degrevlex"): "a049a91ff03020605415f324408b2c287fbf533b54c8edc88c6d12c4156b2c68",
    ("katsura3", "degrevlex"): "df377303a4fdafa6be42071a6dee94eb1158cd388f040c75d0148de49d2acd75",
    ("katsura3", "deglex"): "49d57b5a2f3af0f2ccd945f479c37043e1e57361a3255baff6129a0f815debd4",
    ("katsura3", "lex"): "49d57b5a2f3af0f2ccd945f479c37043e1e57361a3255baff6129a0f815debd4",
    ("katsura5", "degrevlex"): "c78c470f6ebd6da01ab93dabba08dfe98732ac71cf837715fd5a2b4b92a9080a",
    ("random379", "deglex"): "0b5b962bc5b7db196aab8e2225ad9211be5e3623e070e936badbfc3d8b8854b4",
    ("random379", "lex"): "0b5b962bc5b7db196aab8e2225ad9211be5e3623e070e936badbfc3d8b8854b4",
}

# (p, variable names, polynomial texts) of each pinned system; random379 is
# a 3-variable random system of the check-small benchmark over GF(3)
PINNED_SYSTEMS = {
    "cyclic4": (32003, *CYCLIC4),
    "cyclic5": (32003, *CYCLIC5),
    "katsura3": (32003, *SUITE["katsura3_homog"]),
    "katsura5": (32003, *KATSURA5),
    "random379": (3, ["x0", "x1", "x2"], LEX_SCOPE["random379"].splitlines()[3:]),
}


# one sha256 over the logs of ``engine_pin_systems(PINNED_RANDOM_COUNT, 0)``:
# each run's JSON Lines, then its budget-exit message or "finished"
PINNED_RANDOM_COUNT = 400
PINNED_RANDOM_LOGS = "e682773273e75234714be92c0c32d6af337ec280223c2ddb02006a684d8cb282"


def log_jsonl(events) -> bytes:
    trace = Trace()
    trace.events = events
    buf = io.StringIO()
    trace.to_jsonl(buf)
    return buf.getvalue().encode()


def log_digest(events) -> str:
    return hashlib.sha256(log_jsonl(events)).hexdigest()


def payload_lists(value):
    """Every list inside an event value, nested ones included."""
    if isinstance(value, dict):
        for item in value.values():
            yield from payload_lists(item)
    elif isinstance(value, list):
        yield value
        for item in value:
            yield from payload_lists(item)


def exponent_vectors(ev):
    """Every exponent vector of an event, found through ``EXPONENT_FIELDS``."""
    monos, sigs, polys, trails = EXPONENT_FIELDS[ev["kind"]]
    yield from (ev[name] for name in monos if name in ev)
    yield from (ev[name]["mono"] for name in sigs if name in ev)
    yield from (exps for name in polys if name in ev for _, exps in ev[name])
    yield from (step[2] for name in trails if name in ev for step in ev[name]
                if step[0] != "monic")


class TestEventLogPin:
    @pytest.mark.parametrize("system, order", sorted(PINNED_LOGS))
    def test_log_hash_pinned_and_independent_of_checks(self, system, order):
        # the engine has one path, which ``run_check`` shares
        p, names, texts = PINNED_SYSTEMS[system]
        inputs = polys(make_ring(p, names, order), *texts)
        plain = incremental_f5(inputs, EngineConfig())
        assert log_digest(plain.events) == PINNED_LOGS[(system, order)]

    def test_random_systems_hash_pinned(self):
        # all three orders, every prime of ENGINE_PIN_PRIMES, and the partial
        # logs of the budget exits, which must be among them
        digest = hashlib.sha256()
        exits = 0
        for _, inputs, config in engine_pin_systems(PINNED_RANDOM_COUNT, 0):
            try:
                events, end = incremental_f5(inputs, config).events, "finished"
            except BudgetExceeded as exc:
                events, end = exc.events, str(exc)
                exits += 1
            digest.update(log_jsonl(events))
            digest.update(f"{end}\n".encode())
        assert exits >= 20
        assert digest.hexdigest() == PINNED_RANDOM_LOGS

    @pytest.mark.parametrize("order", ["degrevlex", "lex"])
    def test_no_two_events_share_a_payload_list(self, order):
        # payloads are decoded through one memo per run; each must still be
        # a fresh list, or mutating one event would change another
        names, texts = SUITE["katsura3_homog"]
        events = incremental_f5(polys(make_ring(32003, names, order), *texts)).events
        lists = [lst for ev in events for lst in payload_lists(ev)]
        marker = object()
        for lst in lists:
            lst.append(marker)
        assert all(lst.count(marker) == 1 for lst in lists)

    @pytest.mark.parametrize("order", ["degrevlex", "lex"])
    def test_exponent_vectors_are_shared_tuples(self, order):
        # within a run, and within one read of its JSON Lines, equal vectors
        # are one tuple; two reads share none
        names, texts = SUITE["katsura3_homog"]
        events = incremental_f5(polys(make_ring(32003, names, order), *texts)).events
        trace = Trace()
        trace.events = events
        buf = io.StringIO()
        trace.to_jsonl(buf)
        first, second = (events_from_jsonl(io.StringIO(buf.getvalue())) for _ in range(2))
        assert first == events
        for log in (events, first, second):
            vectors = [exps for ev in log for exps in exponent_vectors(ev)]
            assert vectors and all(type(exps) is tuple for exps in vectors)
            one = {}
            assert all(one.setdefault(exps, exps) is exps for exps in vectors)
        ids = {id(exps) for ev in first for exps in exponent_vectors(ev)}
        assert not ids & {id(exps) for ev in second for exps in exponent_vectors(ev)}

    @pytest.mark.parametrize("order", ["degrevlex", "lex"])
    def test_exponent_fields_name_every_vector(self, order):
        # outside EXPONENT_FIELDS a payload holds ints and strings, and the
        # position lists of CallBegin and CallEnd
        names, texts = SUITE["katsura3_homog"]
        events = incremental_f5(polys(make_ring(32003, names, order), *texts)).events
        for ev in events:
            named = set(sum(EXPONENT_FIELDS[ev["kind"]], ()))
            for name, value in ev.items():
                if name in ("g_next", "basis"):
                    assert all(type(pos) is int for pos in value)
                elif name not in named:
                    assert type(value) in (int, str), (ev["kind"], name)
