"""Representation order, the two rewrites, descent, reference algorithm."""

import hashlib
import json
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f5gb import oracle
from f5gb.cli import parse_problem
from f5gb.engine import EngineConfig, incremental_f5
from f5gb.oracle import (
    EQ,
    GT,
    LT,
    DescentError,
    DescentState,
    GgSnapshot,
    NotSignatureSafe,
    Representation,
    ReprElement,
    buchberger,
    descend,
    find_thm4_pairs_in_snapshot,
    find_unrejected_reductor,
    harvest_descent_seeds,
    ideal_equal,
    is_reduced,
    reduced_basis,
    reductor_passes_engine_checks,
    repr_sum_check,
)
from f5gb.oracle import _spoly
from f5gb.poly import ORDER_KINDS, Monomial, normal_form
from f5gb.sig import LabeledPolynomial, ModuleVector, Signature, sig_key, sig_mul
from f5gb.trace import in_scope

from descent_reference import (
    descent_violation, elem_cmp, element_sig, newer_rewriter, ordered_form, reference_descend,
    reference_start, reference_step, reference_violation, repr_cmp, rewrite_f5_case,
    rewrite_rewritten_case, substitute_and_combine,
)
from order_reference import sig_cmp
from systems import (
    CYCLIC4, LEX_SCOPE, SUITE, SUITE_PRIMES, P, make_ring, polys, problem_text,
    random_problem_texts, rule_tables, run_snapshots, standard_monomial_count,
)


def M(*exps):
    return Monomial(exps)


def E(c, mono, pos):
    return ReprElement(c, mono, pos)


lp = LabeledPolynomial


# ---------------------------------------------------------------------------
# the worked comparator examples: three basis elements over x > y with
# signatures F1, F2, x*F1; list position breaks exact signature ties


@pytest.fixture
def cmp_snap():
    ring = make_ring(101, ["x", "y"])
    entries = {
        0: lp(0, Signature(M(0, 0), 1), P(ring, "x")),
        1: lp(1, Signature(M(0, 0), 2), P(ring, "x")),
        2: lp(2, Signature(M(1, 0), 1), P(ring, "x")),
    }
    return GgSnapshot(
        ring,
        entries,
        members=(0, 1, 2),
        g_pos=2,
        rules=rule_tables({1: ((M(0, 0), 0), (M(1, 0), 2)), 2: ((M(0, 0), 1),)}),
        seq=math.inf,
        input_pos={1: 0, 2: 1},
        vectors={},
    )


def key_cmp(e1, e2, snap):
    """The element order as ``GgSnapshot.elem_key`` encodes it; None when
    the keys are equal, as they are for elements that differ only in their
    coefficients."""
    k1, k2 = snap.elem_key(e1.mono, e1.pos), snap.elem_key(e2.mono, e2.pos)
    return None if k1 == k2 else GT if k1 > k2 else LT


_VERDICT = re.compile(r"rewrite failed to decrease the representation \((-?\d+|None)\)")


def rewrite_verdict(monkeypatch, r1, r2, snap):
    """How ``DescentState.rewrite`` compares r1 with r2: the verdict of a
    planted rewrite of r2's first element whose replacement turns r2 into
    r1.  A step that does not decrease raises with its verdict; only a
    decrease goes on to check the value."""
    K, *rest = r2.elements
    replacement = [*r1.elements, *((-c, m, q) for c, m, q in rest)]
    monkeypatch.setattr(oracle, "f5_replacement", lambda K, snap: replacement)
    state = DescentState(r2.elements, 0, snap.ring.one_mono(), snap)
    try:
        state.rewrite("P1", K)
    except DescentError as exc:
        if str(exc) != "rewrite changed the represented value":
            verdict = _VERDICT.fullmatch(str(exc)).group(1)
            return None if verdict == "None" else int(verdict)
    return LT


class TestElementOrderExamples:
    """Each example holds for the reference comparator and for the keys."""

    @staticmethod
    def both(e1, e2, snap):
        verdict = elem_cmp(e1, e2, snap)
        assert key_cmp(e1, e2, snap) == verdict
        return verdict

    def test_index_beats_coefficient(self, cmp_snap):
        assert self.both(E(1, M(0, 1), 0), E(100, M(0, 1), 1), cmp_snap) == GT

    def test_monomial_within_index(self, cmp_snap):
        assert self.both(E(1, M(1, 0), 0), E(1, M(0, 1), 0), cmp_snap) == GT

    def test_equal_signature_and_position_incomparable(self, cmp_snap):
        assert self.both(E(100, M(1, 0), 0), E(2, M(1, 0), 0), cmp_snap) is None

    def test_shifted_signature_beats_square(self, cmp_snap):
        assert self.both(E(1, M(0, 2), 0), E(1, M(0, 1), 2), cmp_snap) == LT

    def test_position_breaks_signature_tie(self, cmp_snap):
        # x^2 * first vs x * third: equal signatures, earlier position wins
        assert self.both(E(1, M(2, 0), 0), E(1, M(1, 0), 2), cmp_snap) == GT


class TestOrderedForm:
    def test_empty(self, cmp_snap):
        assert ordered_form(Representation([]), cmp_snap) == []

    def test_swap(self, cmp_snap):
        r = Representation([E(1, M(0, 2), 0), E(1, M(0, 1), 2)])
        assert ordered_form(r, cmp_snap) == [E(1, M(0, 1), 2), E(1, M(0, 2), 0)]

    def test_singleton(self, cmp_snap):
        r = Representation([E(5, M(1, 1), 1)])
        assert ordered_form(r, cmp_snap) == [E(5, M(1, 1), 1)]

    def test_sorted_per_snapshot(self, cmp_snap):
        # where the third element carries F1 instead of x*F1, y^2*F1 from
        # the first beats y*F1: the order found under cmp_snap is not reused
        entries = dict(cmp_snap.entries)
        entries[2] = lp(2, Signature(M(0, 0), 1), entries[2].poly)
        other = GgSnapshot(
            cmp_snap.ring, entries, members=(0, 1, 2), g_pos=2, rules={}, seq=0,
            input_pos={1: 0, 2: 1}, vectors={},
        )
        r = Representation([E(1, M(0, 2), 0), E(1, M(0, 1), 2)])
        form = ordered_form(r, cmp_snap)
        assert form == [E(1, M(0, 1), 2), E(1, M(0, 2), 0)]
        form.clear()  # each call returns a fresh list
        assert ordered_form(r, other) == [E(1, M(0, 2), 0), E(1, M(0, 1), 2)]
        assert ordered_form(r, cmp_snap) == [E(1, M(0, 1), 2), E(1, M(0, 2), 0)]


class TestRepresentationOrderExamples:
    """Each example holds for the reference comparator and for the verdict
    of a rewrite (``rewrite_verdict``)."""

    @staticmethod
    def both(monkeypatch, r1, r2, snap):
        verdict = repr_cmp(r1, r2, snap)
        assert rewrite_verdict(monkeypatch, r1, r2, snap) == verdict
        return verdict

    def test_middle_element_decides(self, cmp_snap, monkeypatch):
        r1 = Representation([E(1, M(2, 0), 0), E(1, M(1, 1), 0), E(1, M(0, 2), 0)])
        r2 = Representation([E(1, M(2, 0), 0), E(100, M(0, 2), 0)])
        assert self.both(monkeypatch, r1, r2, cmp_snap) == GT

    def test_prefix_is_smaller(self, cmp_snap, monkeypatch):
        r1 = Representation([E(1, M(2, 0), 0), E(100, M(0, 2), 0)])
        r2 = Representation([E(1, M(2, 0), 0)])
        assert self.both(monkeypatch, r1, r2, cmp_snap) == GT

    def test_first_element_decides(self, cmp_snap, monkeypatch):
        r1 = Representation([E(1, M(2, 0), 0)])
        r2 = Representation([E(1, M(1, 1), 0), E(1, M(0, 2), 0), E(1, M(2, 0), 1)])
        assert self.both(monkeypatch, r1, r2, cmp_snap) == GT

    def test_position_tie_decides(self, cmp_snap, monkeypatch):
        r1 = Representation([E(1, M(1, 1), 0), E(1, M(0, 2), 0), E(1, M(2, 0), 1)])
        r2 = Representation([E(1, M(0, 1), 2), E(1, M(0, 2), 0), E(1, M(2, 0), 1)])
        assert self.both(monkeypatch, r1, r2, cmp_snap) == GT

    def test_coefficient_difference_incomparable(self, cmp_snap, monkeypatch):
        r1 = Representation([E(1, M(0, 1), 2), E(1, M(0, 2), 0), E(1, M(2, 0), 1)])
        r2 = Representation([E(2, M(0, 1), 2), E(1, M(0, 2), 1)])
        assert self.both(monkeypatch, r1, r2, cmp_snap) is None

    def test_equal(self, cmp_snap, monkeypatch):
        r1 = Representation([E(1, M(1, 1), 0), E(3, M(0, 1), 2)])
        r2 = Representation([E(3, M(0, 1), 2), E(1, M(1, 1), 0)])
        assert self.both(monkeypatch, r1, r2, cmp_snap) == EQ

    def test_elements_of_one_representation_always_comparable(self, cmp_snap):
        r = Representation([E(1, M(1, 1), 0), E(3, M(0, 1), 2), E(2, M(1, 1), 1)])
        form = ordered_form(r, cmp_snap)
        for i in range(len(form)):
            for j in range(i + 1, len(form)):
                assert elem_cmp(form[i], form[j], cmp_snap) == GT
                assert key_cmp(form[i], form[j], cmp_snap) == GT


class TestRepresentationInvariants:
    def test_duplicate_pairs_rejected(self):
        with pytest.raises(ValueError):
            Representation([E(1, M(1, 0), 0), E(2, M(1, 0), 0)])

    def test_substitute_merges_and_drops(self, cmp_snap):
        r = Representation([E(1, M(1, 0), 0), E(3, M(0, 1), 0)])
        out = substitute_and_combine(
            r, E(1, M(1, 0), 0), [(2, M(0, 1), 0), (4, M(2, 0), 1)], 101
        )
        assert set(out.elements) == {E(5, M(0, 1), 0), E(4, M(2, 0), 1)}

    def test_substitute_to_empty(self, cmp_snap):
        r = Representation([E(1, M(1, 0), 0), E(3, M(0, 1), 0)])
        out = substitute_and_combine(
            r, E(1, M(1, 0), 0), [(98, M(0, 1), 0)], 101
        )
        assert len(out) == 0


# ---------------------------------------------------------------------------
# sums


@pytest.fixture
def sum_snap():
    ring = make_ring(7, ["x", "y"])
    f1, f2 = P(ring, "x^2 + y^2"), P(ring, "x*y")
    entries = {
        0: lp(0, Signature(M(0, 0), 2), f2),
        1: lp(1, Signature(M(0, 0), 1), f1),
    }
    vectors = {
        0: ModuleVector.unit(ring, 2, 2),
        1: ModuleVector.unit(ring, 2, 1),
    }
    snap = GgSnapshot(
        ring,
        entries,
        members=(0, 1),
        g_pos=1,
        rules=rule_tables({1: ((M(0, 0), 1),), 2: ((M(0, 0), 0),)}),
        seq=math.inf,
        input_pos={1: 1, 2: 0},
        vectors=vectors,
    )
    return ring, snap


class TestSumCheck:
    def test_identity_element(self, sum_snap):
        ring, snap = sum_snap
        r = Representation([E(1, M(0, 0), 1)])
        assert repr_sum_check(r, P(ring, "x^2 + y^2"), snap)

    def test_empty_is_zero(self, sum_snap):
        ring, snap = sum_snap
        assert repr_sum_check(Representation([]), ring.zero, snap)

    def test_term_split(self, sum_snap):
        ring, snap = sum_snap
        # (x + y) * second input, split into terms
        r = Representation([E(1, M(1, 0), 0), E(1, M(0, 1), 0)])
        assert repr_sum_check(r, P(ring, "x^2*y + x*y^2"), snap)
        assert not repr_sum_check(r, P(ring, "x^2*y + 2*x*y^2"), snap)
        assert not repr_sum_check(r, P(ring, "x^2*y"), snap)

    def test_input_representation_of_member(self, sum_snap):
        # b_1 over the inputs, expanded from its module vector: its greatest
        # element carries exactly the signature
        ring, snap = sum_snap
        r = Representation(E(c, m, snap.input_pos[idx]) for c, m, idx in snap.cache.triples[1])
        assert r == Representation([E(1, M(0, 0), 1)])
        assert repr_sum_check(r, P(ring, "x^2 + y^2"), snap)


# ---------------------------------------------------------------------------
# property scan and the first two rewrites, on constructed snapshots


@pytest.fixture
def f5_case_snap():
    # second input y sits above the first index, so shifting the first input
    # by y violates the shifted-signature property
    ring = make_ring(7, ["x", "y"])
    f1, f2 = P(ring, "x^2 + y^2"), P(ring, "y")
    g = P(ring, "x^3 + x*y^2")
    entries = {
        0: lp(0, Signature(M(0, 0), 2), f2),
        1: lp(1, Signature(M(0, 0), 1), f1),
        2: lp(2, Signature(M(1, 0), 1), g),
    }
    vectors = {
        0: ModuleVector.unit(ring, 2, 2),
        1: ModuleVector.unit(ring, 2, 1),
        2: ModuleVector((P(ring, "x"), ring.zero)),
    }
    snap = GgSnapshot(
        ring,
        entries,
        members=(0, 1, 2),
        g_pos=2,
        rules=rule_tables({1: ((M(0, 0), 1), (M(1, 0), 2)), 2: ((M(0, 0), 0),)}),
        seq=math.inf,
        input_pos={1: 1, 2: 0},
        vectors=vectors,
    )
    return ring, snap


class TestViolatedProperty:
    def test_inputs_pass(self, sum_snap):
        ring, snap = sum_snap
        r = Representation([E(1, M(0, 0), 1)])
        sig = snap.entries[1].sig
        assert descent_violation(r, sig, M(2, 0), snap) is None

    def test_f5_violation_found(self, f5_case_snap):
        ring, snap = f5_case_snap
        r = Representation([E(1, M(0, 1), 1)])
        got = descent_violation(r, Signature(M(0, 1), 1), M(2, 1), snap)
        assert got == ("P1", E(1, M(0, 1), 1))

    def test_rewritten_violation_found(self):
        ring = make_ring(7, ["x", "y"])
        f1, f2 = P(ring, "x^2 + x*y"), P(ring, "x^2")
        reduced = P(ring, "x*y")
        mv = ModuleVector.unit(ring, 2, 1).axpy(
            1, M(0, 0), ModuleVector.unit(ring, 2, 2)
        )
        entries = {
            0: lp(0, Signature(M(0, 0), 2), f2),
            1: lp(1, Signature(M(0, 0), 1), f1),
            2: lp(2, Signature(M(0, 0), 1), reduced),
        }
        vectors = {
            0: ModuleVector.unit(ring, 2, 2),
            1: ModuleVector.unit(ring, 2, 1),
            2: mv,
        }
        snap = GgSnapshot(
            ring,
            entries,
            members=(0, 1, 2),
            g_pos=2,
            rules=rule_tables({1: ((M(0, 0), 1), (M(0, 0), 2)), 2: ((M(0, 0), 0),)}),
            seq=math.inf,
            input_pos={1: 1, 2: 0},
            vectors=vectors,
        )
        r = Representation([E(1, M(0, 0), 1)])
        got = descent_violation(r, Signature(M(0, 0), 1), M(2, 0), snap)
        assert got == ("P2", E(1, M(0, 0), 1))
        new = rewrite_rewritten_case(r, got[1], snap)
        assert repr_sum_check(new, f1, snap)
        assert repr_cmp(new, r, snap) == LT
        # the head of the replacement is the rewriter at its later position
        assert ordered_form(new, snap)[0].pos == 2

    def test_signature_safety_enforced(self, sum_snap):
        ring, snap = sum_snap
        r = Representation([E(1, M(1, 0), 1)])
        with pytest.raises(NotSignatureSafe):
            descent_violation(r, Signature(M(0, 0), 1), M(2, 0), snap)


class TestRewriteF5Case:
    def test_replacement_moves_to_higher_index(self, f5_case_snap):
        ring, snap = f5_case_snap
        K = E(1, M(0, 1), 1)
        r = Representation([K])
        new = rewrite_f5_case(r, K, snap)
        # y * f1 = x^2 * y + y^3 rewritten through the higher-index input y
        assert repr_sum_check(new, P(ring, "x^2*y + y^3"), snap)
        assert repr_cmp(new, r, snap) == LT
        assert {e.pos for e in new.elements} == {0}
        # the divisor is a monomial: no second element family
        assert new == Representation([E(1, M(2, 0), 0), E(1, M(0, 2), 0)])

    def test_first_divisor_in_position_order(self):
        # both higher-index inputs divide the shifted signature x*y; the
        # phi-basis lists them by position, and the rewrite takes the first
        ring = make_ring(7, ["x", "y", "z"])
        entries = {
            0: lp(0, Signature(M(0, 0, 0), 3), P(ring, "y")),
            1: lp(1, Signature(M(0, 0, 0), 2), P(ring, "x")),
            2: lp(2, Signature(M(0, 0, 0), 1), P(ring, "z^2")),
        }
        vectors = {
            0: ModuleVector.unit(ring, 3, 3),
            1: ModuleVector.unit(ring, 3, 2),
            2: ModuleVector.unit(ring, 3, 1),
        }
        snap = GgSnapshot(
            ring,
            entries,
            members=(0, 1, 2),
            g_pos=2,
            rules=rule_tables(
                {1: ((M(0, 0, 0), 2),), 2: ((M(0, 0, 0), 1),), 3: ((M(0, 0, 0), 0),)}
            ),
            seq=math.inf,
            input_pos={1: 2, 2: 1, 3: 0},
            vectors=vectors,
        )
        assert snap.phi_basis(1) == [(M(0, 1, 0), 0), (M(1, 0, 0), 1)]
        assert snap.phi_divisor(1, M(1, 1, 0)) == 0
        assert snap.phi_divisor(1, M(1, 0, 1)) == 1
        assert snap.phi_divisor(1, M(0, 0, 2)) is None
        K = E(1, M(1, 1, 0), 2)
        new = rewrite_f5_case(Representation([K]), K, snap)
        assert new == Representation([E(1, M(1, 0, 2), 0)])  # x*z^2 times y

    def test_descent_finishes_after_rewrite(self, f5_case_snap):
        ring, snap = f5_case_snap
        res = descend(1, M(0, 1), 1, snap)
        assert descent_violation(
            res.representation, sig_mul(M(0, 1), snap.entries[1].sig), M(2, 1), snap
        ) is None
        assert res.step_count >= 1


class TestRewriteRewrittenZeroBranch:
    def test_syzygy_rewriter_expansion(self):
        # engine-produced duplicate work: the second element's rule owner
        # reduced to zero, so its whole expansion replaces the element
        ring = make_ring(7, ["x", "y"])
        res = incremental_f5(
            polys(
                ring,
                "4*x^2 + 4*x*y + 5*y^2",
                "2*x + 4*y",
                "x + 2*y",
                "x^3 + 2*x^2*y + 5*x*y^2 + 5*y^3",
            ),
            EngineConfig(),
        )
        hit = None
        for snap in run_snapshots(res):
            for pos in snap.members:
                if pos == snap.g_pos:
                    continue
                rw = newer_rewriter(ring.one_mono(), pos, snap)
                if rw is not None and snap.entries[rw].poly.is_zero:
                    hit = (snap, pos, rw)
                    break
            if hit:
                break
        assert hit, "expected a zero rewriter on this system"
        snap, pos, rw = hit
        K = E(1, ring.one_mono(), pos)
        r = Representation([K])
        new = rewrite_rewritten_case(r, K, snap)
        assert repr_sum_check(new, snap.entries[pos].poly, snap)
        assert repr_cmp(new, r, snap) == LT
        assert all(e.pos != rw for e in new.elements)


# ---------------------------------------------------------------------------
# a head above the target, on a consistent fabricated snapshot


def hm_case_world():
    """Members: second input x+y, first input x, y = (x+y) - x, a vector
    (-y, x) of signature y*F1 with value x^2, and the inserted x*F1.

    No element of the S-pair of x^2 and x*(x+y) stands in the basis, nor a
    rule for it, so a head above the target is reachable: with that rule,
    P2 would rewrite the pair's greater part first."""
    ring = make_ring(7, ["x", "y"])
    entries = {
        0: lp(0, Signature(M(0, 0), 2), P(ring, "x + y")),
        1: lp(1, Signature(M(0, 0), 1), P(ring, "x")),
        2: lp(2, Signature(M(0, 0), 1), P(ring, "y")),
        3: lp(3, Signature(M(0, 1), 1), P(ring, "x^2")),
        4: lp(4, Signature(M(1, 0), 1), P(ring, "x^2")),
    }
    vectors = {
        0: ModuleVector.unit(ring, 2, 2),
        1: ModuleVector.unit(ring, 2, 1),
        2: ModuleVector((P(ring, "-1"), P(ring, "1"))),
        3: ModuleVector((P(ring, "-y"), P(ring, "x"))),
        4: ModuleVector((P(ring, "x"), ring.zero)),
    }
    snap = GgSnapshot(
        ring,
        entries,
        members=(0, 1, 2, 3, 4),
        g_pos=4,
        rules=rule_tables(
            {1: ((M(0, 0), 1), (M(0, 0), 2), (M(0, 1), 3), (M(1, 0), 4)), 2: ((M(0, 0), 0),)}
        ),
        seq=math.inf,
        input_pos={1: 1, 2: 0},
        vectors=vectors,
    )
    return ring, snap


class TestRewriteHmCase:
    """A head above the target is reported, not rewritten."""

    HEAD_PAIR = "P3: head x^2 above the target head y^2 is attained by the head pair 1*1*r3, 6*x*r0"

    def test_head_pair_is_a_descent_error(self):
        ring, snap = hm_case_world()
        # y * y, rewritten by the newer rule of r3: r3 - x*(x+y) + y*(x+y)
        K1, K2 = E(1, M(0, 0), 3), E(6, M(1, 0), 0)
        r = Representation([K1, K2, E(1, M(0, 1), 0)])
        assert repr_sum_check(r, P(ring, "y^2"), snap)
        with pytest.raises(DescentError, match=re.escape(self.HEAD_PAIR)):
            descent_violation(r, Signature(M(0, 1), 1), M(0, 2), snap)
        with pytest.raises(DescentError, match=re.escape("attained only by 1*1*r3")):
            descent_violation(Representation([K1]), Signature(M(0, 1), 1), M(0, 2), snap)

    def test_descend_raises_naming_the_pair(self):
        ring, snap = hm_case_world()
        with pytest.raises(DescentError, match=re.escape(self.HEAD_PAIR)):
            descend(1, M(0, 1), 2, snap)

    def test_withheld_spair_rules_on_a_real_log(self):
        # with the rules of the other S-polynomials withheld, their pairs
        # count as neither rejected nor completed, and heads above the
        # target stay
        names, texts = SUITE["katsura3_homog"]
        ring = make_ring(32003, names)
        res = incremental_f5(polys(ring, *texts), EngineConfig())
        spol = {ev["pos"] for ev in res.events if ev["kind"] == "SPolCreated"}
        snapshots = run_snapshots(res)
        for snap in snapshots:
            snap.rules = {
                index: [
                    (seq, m, owner) for seq, m, owner in table
                    if owner == snap.g_pos or owner not in spol
                ]
                for index, table in snap.rules.items()
            }
        raised = 0
        for snap, coeff, mono, pos in harvest_descent_seeds(snapshots, 0, None):
            try:
                descend(coeff, mono, pos, snap)
            except DescentError as exc:
                assert str(exc).startswith("P3: head ")
                raised += 1
        assert raised


# ---------------------------------------------------------------------------
# the reductor finder


def reductor_world():
    """f' = x is blocked when shifted by y (second input y divides), so the
    descent must route the reductor through the higher-index input."""
    ring = make_ring(7, ["x", "y"])
    f2 = P(ring, "y")
    f1 = P(ring, "x")
    f_poly = P(ring, "x*y")
    g_poly = P(ring, "x^2")
    entries = {
        0: lp(0, Signature(M(0, 0), 2), f2),
        1: lp(1, Signature(M(0, 0), 1), f1),
        3: lp(3, Signature(M(0, 1), 1), f_poly),
        4: lp(4, Signature(M(1, 0), 1), g_poly),
    }
    vectors = {
        0: ModuleVector.unit(ring, 2, 2),
        1: ModuleVector.unit(ring, 2, 1),
        3: ModuleVector((P(ring, "y"), ring.zero)),
        4: ModuleVector((P(ring, "x"), ring.zero)),
    }
    snap = GgSnapshot(
        ring,
        entries,
        members=(0, 1, 3, 4),
        g_pos=4,
        rules=rule_tables({
            1: ((M(0, 0), 1), (M(0, 1), 3), (M(1, 0), 4)),
            2: ((M(0, 0), 0),),
        }),
        seq=math.inf,
        input_pos={1: 1, 2: 0},
        vectors=vectors,
    )
    return ring, snap


class TestFindUnrejectedReductor:
    def test_blocked_start_routes_through_higher_index(self):
        ring, snap = reductor_world()
        mono, pos, res = find_unrejected_reductor(3, 1, snap)
        assert (mono, pos) == (M(1, 0), 0)  # x * (second input y)
        assert res.step_count == 1
        assert reductor_passes_engine_checks(snap, mono, pos, 3) is None

    def test_unblocked_start_returns_immediately(self):
        ring = make_ring(7, ["x", "y"])
        f2 = P(ring, "x + y")
        f1 = P(ring, "x")
        f_poly = P(ring, "x*y")
        entries = {
            0: lp(0, Signature(M(0, 0), 2), f2),
            1: lp(1, Signature(M(0, 0), 1), f1),
            3: lp(3, Signature(M(1, 0), 1), f_poly),
        }
        vectors = {
            0: ModuleVector.unit(ring, 2, 2),
            1: ModuleVector.unit(ring, 2, 1),
            3: ModuleVector((P(ring, "-x"), P(ring, "x"))),
        }
        snap = GgSnapshot(
            ring,
            entries,
            members=(0, 1, 3),
            g_pos=3,
            rules=rule_tables({1: ((M(0, 0), 1), (M(1, 0), 3)), 2: ((M(0, 0), 0),)}),
            seq=math.inf,
            input_pos={1: 1, 2: 0},
            vectors=vectors,
        )
        # a genuine pair per the head/signature-quotient scan
        assert find_thm4_pairs_in_snapshot(snap) == [(1, 3)]
        mono, pos, res = find_unrejected_reductor(3, 1, snap)
        assert (mono, pos) == (M(0, 1), 1)
        assert res.step_count == 0
        assert reductor_passes_engine_checks(snap, mono, pos, 3) is None


class TestReductorChecks:
    @pytest.mark.parametrize(
        "mono, cand, f, verdict",
        [
            (M(1, 0), 1, 3, "a"),  # x * x is not the head x*y of r3
            (M(0, 1), 1, 3, "b"),  # y*F1 is top-reducible by the head y of F2
            (M(1, 0), 1, 4, "c"),  # x*F1 is rewritten by the newer rule of r4
            (M(0, 0), 4, 4, "d"),  # the target's own signature
            (M(1, 0), 0, 3, None),
        ],
    )
    def test_each_check_decides(self, mono, cand, f, verdict):
        ring, snap = reductor_world()
        assert reductor_passes_engine_checks(snap, mono, cand, f) == verdict


# ---------------------------------------------------------------------------
# descents harvested from engine runs


class TestEngineDescents:
    def test_harvested_descents_terminate_and_check(self):
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
        snapshots = run_snapshots(res)
        seeds = harvest_descent_seeds(snapshots, 30, random.Random(7))
        assert seeds
        for snap, coeff, mono, pos in seeds:
            out = descend(coeff, mono, pos, snap)
            target = snap.entries[pos].poly.term_mul(coeff, mono)
            assert repr_sum_check(out.representation, target, snap)
            assert (
                descent_violation(
                    out.representation,
                    sig_mul(mono, snap.entries[pos].sig),
                    mono.mul(snap.entries[pos].poly.head_mono),
                    snap,
                )
                is None
            )


class TestLexScope:
    """Lex runs whose members have targets with a signature below the
    inserted element's but a degree above its head: the harvest leaves them
    out and ``descend`` refuses them."""

    # system: (in-scope seeds of the full harvest, targets below the
    # snapshot signature that the degree bound puts out of scope)
    PINS = {
        "random147": (1965, 60),
        "random256": (682, 45),
        "random379": (1073, 29),
        "random397": (501, 7),
        "random540": (1574, 58),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_every_seed_in_scope_descends(self, name):
        count, excluded = self.PINS[name]
        problem = parse_problem(LEX_SCOPE[name])
        res = incremental_f5(problem.polynomials, EngineConfig())
        snapshots = run_snapshots(res)
        seeds = harvest_descent_seeds(snapshots, 0, None)
        assert len(seeds) == count
        for snap, coeff, mono, pos in seeds:
            assert in_scope(*snap.target(mono, pos), *snap.g_scope, snap.order)
            descend(coeff, mono, pos, snap)
        ring = problem.ring
        multipliers = [ring.one_mono()] + [ring.variable(i) for i in range(ring.n)]
        below = [
            (snap, t, pos)
            for snap in snapshots
            for pos in snap.members
            for t in multipliers
            if sig_cmp(sig_mul(t, snap.entries[pos].sig), snap.entries[snap.g_pos].sig, ring.order) == LT
        ]
        outside = [
            (snap, t, pos) for snap, t, pos in below
            if not in_scope(*snap.target(t, pos), *snap.g_scope, snap.order)
        ]
        assert (len(below), len(outside)) == (count + excluded, excluded)
        for snap, t, pos in outside:
            with pytest.raises(NotSignatureSafe, match="degree"):
                descend(1, t, pos, snap)


# ---------------------------------------------------------------------------
# reference algorithm


def spair_exhaustion_check(basis):
    """Definitional Groebner test: every S-polynomial reduces to zero."""
    basis = [p for p in basis if not p.is_zero]
    return all(
        normal_form(_spoly(basis[i], basis[j]), basis).is_zero
        for i in range(len(basis))
        for j in range(i + 1, len(basis))
    )


def _monomials(n, d):
    """All monomials of degree d in n variables."""
    if n == 1:
        return [M(d)]
    return [M(a, *m.exps) for a in range(d + 1) for m in _monomials(n - 1, d - a)]


class TestBuchberger:
    def test_demo_heads(self):
        ring = make_ring(7, ["x", "y"])
        basis = buchberger(polys(ring, "x^2 + y^2", "x*y"))
        assert [q.head_mono for q in basis] == [M(1, 1), M(2, 0), M(0, 3)]

    def test_single_input(self):
        ring = make_ring(7, ["x", "y"])
        assert buchberger(polys(ring, "3*x^2")) == polys(ring, "x^2")

    def test_two_variables(self):
        ring = make_ring(7, ["x", "y"])
        assert buchberger(polys(ring, "x", "y")) == polys(ring, "y", "x")

    def test_output_passes_spair_exhaustion(self):
        ring = make_ring(7, ["x", "y", "z"])
        basis = buchberger(
            polys(
                ring,
                "x^2 + 2*x*y + 3*y^2 + 4*x*z + 5*y*z + 6*z^2",
                "3*x^2 + x*y + 4*y^2 + x*z + 5*y*z + 2*z^2",
            )
        )
        assert spair_exhaustion_check(basis)

    @pytest.mark.parametrize("order", ["lex", "deglex", "degrevlex"])
    @pytest.mark.parametrize("seed", range(12))
    def test_random_systems(self, order, seed):
        rng = random.Random(seed)
        p = rng.choice([3, 7, 32003, 2**31 - 1])
        affine = seed % 3 == 2  # the reference also takes affine input
        n = 3 if affine else 4
        ring = make_ring(p, ["x", "y", "z", "w"][:n], order)
        system = []
        for _ in range(2 if affine else rng.randint(2, 4)):
            d = rng.randint(1, 3)
            support = [
                m for e in (range(d + 1) if affine else [d]) for m in _monomials(n, e)
            ]
            system.append(
                ring.poly((rng.randrange(p), m) for m in support if rng.random() < 0.5)
            )
        basis = buchberger(system)
        assert spair_exhaustion_check(basis)
        assert reduced_basis(basis) == basis
        for f in system:
            assert normal_form(f, basis).is_zero

    def test_update_keeps_pairs_with_an_equal_new_lcm(self):
        # dropping an old pair whose lcm equals one of the new lcms loses
        # z^4 here: the Gebauer-Moeller test must be strict
        ring = make_ring(7, ["x", "y", "z"])
        basis = buchberger(polys(ring, "x*y + z^2", "x*z + y^2", "y*z + x^2"))
        assert [q.text() for q in basis] == [
            "y^2 + x*z", "x*y + z^2", "x^2 + y*z", "y*z^2", "x*z^2", "z^4"
        ]

    def test_reduced_basis_is_canonical(self):
        ring = make_ring(7, ["x", "y"])
        a = reduced_basis(polys(ring, "x + y", "y", "y^2"))
        b = reduced_basis(polys(ring, "y", "x"))
        assert a == b == polys(ring, "y", "x")


class TestIdealEqual:
    def test_self(self):
        ring = make_ring(7, ["x", "y"])
        g = polys(ring, "x", "y")
        assert ideal_equal(g, g)

    def test_redundant_generator(self):
        ring = make_ring(7, ["x", "y"])
        assert ideal_equal(polys(ring, "x"), polys(ring, "x", "x^2"))

    def test_different(self):
        ring = make_ring(7, ["x", "y"])
        assert not ideal_equal(polys(ring, "x"), polys(ring, "y"))

    def test_same_ideal_not_a_groebner_basis(self):
        # x^2 + y^2 and x*y generate an ideal holding y^3, a head neither
        # generator's head divides
        ring = make_ring(7, ["x", "y"])
        gens = polys(ring, "x^2 + y^2", "x*y")
        assert not ideal_equal(gens, buchberger(gens))

    def test_different_ideal_groebner_bases(self):
        ring = make_ring(7, ["x", "y", "z"])
        gens = polys(ring, "x*y + z^2", "x*z + y^2")
        assert not ideal_equal(buchberger(gens), buchberger(gens + polys(ring, "y*z + x^2")))

    def test_unreduced_groebner_basis(self):
        # a redundant element and an unreduced tail keep the ideal and the
        # Groebner property, and reduce away
        ring = make_ring(7, ["x", "y", "z"])
        basis = buchberger(polys(ring, "x*y + z^2", "x*z + y^2", "y*z + x^2"))
        unreduced = [basis[0], basis[1].add(basis[0]), *basis[1:]]
        unreduced += [basis[-1].term_mul(3, ring.variable(0))]
        assert unreduced != basis
        assert ideal_equal(unreduced, basis)

    def test_reduced_sides_pass_through(self, monkeypatch):
        ring = make_ring(7, ["x", "y", "z"])
        basis = buchberger(polys(ring, "x*y + z^2", "x*z + y^2", "y*z + x^2"))
        assert is_reduced(basis) and is_reduced([])
        calls = []
        monkeypatch.setattr(oracle, "normal_form", lambda *args: calls.append(args))
        assert ideal_equal(basis, list(basis)) and not calls

    @pytest.mark.parametrize("texts", [
        ["x^2", "2*x*y"],  # not monic
        ["x^2", "x*y"],  # heads not ascending
        ["x*y", "x^2 + y^2", "x^2"],  # a head twice
        ["y^2", "x*y + y^2"],  # a tail term divisible by another head
        ["x*y", "x^3 + x*y^2"],  # a tail term that is a multiple of another head
    ])
    def test_not_reduced(self, texts):
        ring = make_ring(7, ["x", "y"])
        assert not is_reduced(polys(ring, *texts))

    def test_stray_redundant_element(self):
        # x^2 + y drops out of the reduced basis as redundant by its head,
        # but y is not in (x^2)
        ring = make_ring(7, ["x", "y"])
        assert not ideal_equal(polys(ring, "x^2", "x^2 + y"), polys(ring, "x^2"))
        assert not ideal_equal(polys(ring, "x^2"), polys(ring, "x^2", "x^2 + y"))


def test_standard_monomial_count_no_heads():
    assert standard_monomial_count([], 3, 4) == 15  # C(4+2, 2)


def test_standard_monomial_count_with_heads():
    # quotient by (x^2, y) in k[x, y]: basis {1, x}
    assert standard_monomial_count([M(2, 0), M(0, 1)], 2, 0) == 1
    assert standard_monomial_count([M(2, 0), M(0, 1)], 2, 1) == 1
    assert standard_monomial_count([M(2, 0), M(0, 1)], 2, 2) == 0


class TestElementOrderSanity:
    def test_antisymmetry_and_transitivity_on_random_triples(self, cmp_snap):
        import itertools
        import random as _random

        rng = _random.Random(5)
        pool = [
            ReprElement(rng.randrange(1, 100), Monomial((rng.randrange(3), rng.randrange(3))), pos)
            for pos in (0, 1, 2)
            for _ in range(4)
        ]
        for a, b in itertools.combinations(pool, 2):
            va, vb = elem_cmp(a, b, cmp_snap), elem_cmp(b, a, cmp_snap)
            if va is None:
                assert vb is None
            else:
                assert va == -vb
        for a, b, c in itertools.combinations(pool, 3):
            if (
                elem_cmp(a, b, cmp_snap) == GT
                and elem_cmp(b, c, cmp_snap) == GT
            ):
                assert elem_cmp(a, c, cmp_snap) == GT


@pytest.fixture(scope="module")
def cyclic4_snapshots():
    """The descent snapshots of cyclic-4 under each order."""
    out = {}
    for kind in ORDER_KINDS:
        ring = make_ring(32003, CYCLIC4[0], kind)
        out[kind] = run_snapshots(incremental_f5(polys(ring, *CYCLIC4[1]), EngineConfig()))
    return out


class TestElementKeyAgainstReference:
    @pytest.mark.parametrize("kind", ORDER_KINDS)
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_key_order_is_elem_cmp_on_cyclic4(self, cyclic4_snapshots, kind, data):
        # two elements t * b_pos of one snapshot; half the time the second
        # has the first one's signature, at any position that allows it
        snapshots = cyclic4_snapshots[kind]
        snap = snapshots[data.draw(st.integers(0, len(snapshots) - 1))]
        mono = st.builds(Monomial, st.tuples(*[st.integers(0, 2)] * snap.ring.n))
        element = st.builds(ReprElement, st.integers(1, 32002), mono,
                            st.sampled_from(snap.members))
        e1, e2 = data.draw(element), data.draw(element)
        s1 = element_sig(e1, snap)
        same = [(s1.mono.divide(snap.entries[q].sig.mono), q) for q in snap.members
                if snap.entries[q].sig.index == s1.index]
        same = [(t, q) for t, q in same if t is not None]
        if same and data.draw(st.booleans()):
            e2 = ReprElement(e2.coeff, *data.draw(st.sampled_from(same)))
        assert key_cmp(e1, e2, snap) == elem_cmp(e1, e2, snap)


def test_substitute_identity(cmp_snap):
    r = Representation([ReprElement(1, M(1, 0), 0)])
    out = substitute_and_combine(
        r, ReprElement(1, M(1, 0), 0), [(1, M(1, 0), 0)], 101
    )
    assert out == r


def test_descent_step_cap_is_loud(f5_case_snap):
    from f5gb.oracle import StepCapExceeded

    ring, snap = f5_case_snap
    # this descent needs one rewrite plus a final fixpoint scan, so a cap of
    # one iteration must fail loudly and carry the partial log
    with pytest.raises(StepCapExceeded) as exc:
        descend(1, M(0, 1), 1, snap, step_cap=1)
    assert exc.value.log and exc.value.log[0]["violated"] == "P1"
    assert descend(1, M(0, 1), 1, snap, step_cap=2).step_count == 1


def test_descend_rejects_nonpositive_cap():
    ring, snap = hm_case_world()
    with pytest.raises(ValueError):
        descend(1, M(0, 1), 1, snap, step_cap=0)


# ---------------------------------------------------------------------------
# the descent against its brute-force reference (``descent_reference``)


def _outcome(fn, *args):
    """("ok", value) or ("error", exception type, message)."""
    try:
        return ("ok", fn(*args))
    except DescentError as exc:
        return ("error", type(exc).__name__, str(exc))


def _engine_seeds(text, order, config, samples=0):
    """The descent seeds of one run: every one (``--descent-samples 0``), or
    ``samples`` of them, drawn as ``f5gb check --seed 0`` draws them."""
    problem = parse_problem(text, order_override=order)
    result = incremental_f5(problem.polynomials, config)
    return harvest_descent_seeds(run_snapshots(result), samples, random.Random(0))


def _pin_texts():
    """The report pins' systems: the suite, and 36 small random systems
    under deglex and lex, with each one's engine configuration."""
    suite = [
        problem_text(p, names, texts) for names, texts in SUITE.values() for p in SUITE_PRIMES
    ]
    return [(text, EngineConfig()) for text in suite] + [
        (text, EngineConfig(max_degree=12)) for text in random_problem_texts(36, 0)
    ]


class TestDescentAgainstReference:
    """The persistent descent takes the reference's steps: the same
    violation, the same representation after every rewrite, the same
    errors."""

    @pytest.mark.parametrize("order", ["degrevlex", "deglex", "lex"])
    def test_step_by_step(self, order):
        # katsura-3 has 97,916 seeds under deglex, and descents of up to 93
        # elements that the reference re-sorts at every step: 60 seeds are
        # drawn per run, and each is compared for its first 40 steps
        steps = 0
        for text, config in _pin_texts():
            for snap, coeff, mono, pos in _engine_seeds(text, order, config, 60):
                rep, mh_sig, mh_hm, target = reference_start(coeff, mono, pos, snap)
                state = DescentState(rep.elements, sig_key(mh_sig, snap.order), mh_hm, snap)
                for _ in range(40):
                    expected = _outcome(reference_violation, rep, mh_sig, mh_hm, snap)
                    assert _outcome(state.violation) == expected
                    if expected[0] == "error" or expected[1] is None:
                        break
                    which, K = expected[1]
                    expected = _outcome(reference_step, rep, which, K, target, snap)
                    got = _outcome(state.rewrite, which, K)
                    if expected[0] == "error":
                        assert got == expected
                        break
                    rep = expected[1]
                    assert state.representation().elements == rep.elements
                    steps += 1
        assert steps > 500  # 631, 2,159 and 1,269 rewrites under the three orders

    def test_descend_matches_reference_descend(self):
        for text, config in _pin_texts():
            for snap, coeff, mono, pos in _engine_seeds(text, None, config):
                got = _outcome(descend, coeff, mono, pos, snap)
                expected = _outcome(reference_descend, coeff, mono, pos, snap)
                if expected[0] == "error":
                    assert got == expected
                    continue
                assert got[1].steps == expected[1].steps
                assert got[1].representation.elements == expected[1].representation.elements


# sha256 over the step log of every descent of every seed (``f5gb check
# --descent-samples 0``) on the report pins' systems, a failed descent
# logged as its message.  The report pins see only ``max_steps`` and the
# failures, so this pins the rewrite sequence itself.
PINNED_SUITE_DESCENTS = "5437b4886bbb1ed170a563a4ca26e30322a3bc1b4a3418bdd1417adb94936cc0"
PINNED_RANDOM_DESCENTS = "0f63fdf64416bffcbf4ecbc8265dba7ba65e0ccfc4638a73dd68b0cf9af2ac4f"


class TestDescentLogPin:
    @staticmethod
    def _digest(texts_configs) -> str:
        h = hashlib.sha256()
        for text, config in texts_configs:
            for snap, coeff, mono, pos in _engine_seeds(text, None, config):
                try:
                    steps = descend(coeff, mono, pos, snap).steps
                except DescentError as exc:
                    steps = [str(exc)]
                h.update(json.dumps(steps, separators=(",", ":")).encode())
                h.update(b"\n")
        return h.hexdigest()

    def test_suite_descents_pinned(self):
        suite = _pin_texts()[:len(SUITE) * len(SUITE_PRIMES)]
        assert self._digest(suite) == PINNED_SUITE_DESCENTS

    def test_random_descents_pinned(self):
        random_texts = _pin_texts()[len(SUITE) * len(SUITE_PRIMES):]
        assert self._digest(random_texts) == PINNED_RANDOM_DESCENTS


# ---------------------------------------------------------------------------
# planted bad rewrites: the local checks fail where the full ones do


def _katsura3_seeds():
    names, texts = SUITE["katsura3_homog"]
    problem = parse_problem(problem_text(32003, names, texts))
    result = incremental_f5(problem.polynomials, EngineConfig())
    return harvest_descent_seeds(run_snapshots(result), 0, None)


def _planted_world():
    """A katsura-3 seed whose descent takes at least three steps."""
    for seed in _katsura3_seeds():
        if descend(*seed[1:], seed[0]).step_count >= 3:
            return seed
    raise AssertionError("no seed of three steps")


_REPLACEMENTS = {
    name: getattr(oracle, name) for name in ("f5_replacement", "rewritten_replacement")
}


def _plant(monkeypatch, at, change):
    """Make the replacement of rewrite number ``at`` (from 1) pass through
    ``change(replacement, K, snap)``; returns the list of rewrites so far."""
    calls = []
    for name, real in _REPLACEMENTS.items():
        def planted(K, snap, real=real):
            calls.append(K)
            replacement = real(K, snap)
            return change(replacement, K, snap) if len(calls) == at else replacement
        monkeypatch.setattr(oracle, name, planted)
    return calls


def _above(K, snap):
    """A monomial multiple of K's monomial: the element it makes with K's
    position is above K in the element order."""
    return K.mono.mul(snap.ring.variable(0))


def _world_with_element_above_k():
    """A katsura-3 seed, a rewrite number ``at`` (from 1) and an element of
    the representation that rewrite starts from, above its K: the first
    such rewrite of any seed, found by the reference."""
    for seed in _katsura3_seeds():
        snap, coeff, mono, pos = seed
        rep, mh_sig, mh_hm, target = reference_start(coeff, mono, pos, snap)
        for at in range(1, 10):
            violation = reference_violation(rep, mh_sig, mh_hm, snap)
            if violation is None:
                break
            which, K = violation
            top = ordered_form(rep, snap)[0]
            if top != K:
                return seed, at, top
            rep = reference_step(rep, which, K, target, snap)
    raise AssertionError("no rewrite with an element above its K")


class TestPlantedRewrites:
    def test_wrong_coefficient_fails_at_its_step(self, monkeypatch):
        snap, coeff, mono, pos = _planted_world()

        def wrong(replacement, K, snap):
            (c, m, q), *rest = replacement
            return [((c + 1) % snap.ring.p, m, q), *rest]

        message = "rewrite changed the represented value"
        for run in (descend, reference_descend):
            calls = _plant(monkeypatch, 2, wrong)
            with pytest.raises(DescentError, match=message):
                run(coeff, mono, pos, snap)
            assert len(calls) == 2  # no step after the planted one

    def test_element_above_k_that_does_not_decrease_fails(self, monkeypatch):
        snap, coeff, mono, pos = _planted_world()

        def above(replacement, K, snap):
            return [*replacement, (1, _above(K, snap), K.pos)]

        errors = []
        for run in (descend, reference_descend):
            calls = _plant(monkeypatch, 2, above)
            with pytest.raises(DescentError, match="rewrite failed to decrease") as exc:
                run(coeff, mono, pos, snap)
            assert len(calls) == 2
            errors.append(str(exc.value))
        assert errors[0] == errors[1]

    def test_element_above_k_that_cancels_out_changes_nothing(self, monkeypatch):
        snap, coeff, mono, pos = _planted_world()
        plain = descend(coeff, mono, pos, snap)

        def cancelling(replacement, K, snap):
            t = _above(K, snap)
            return [*replacement, (1, t, K.pos), (-1, t, K.pos)]

        _plant(monkeypatch, 2, cancelling)
        planted = descend(coeff, mono, pos, snap)
        assert planted.steps == plain.steps
        assert planted.representation.elements == plain.representation.elements

    @staticmethod
    def _fails_alike(monkeypatch, seed, at, change, message):
        """Both descents fail at rewrite ``at`` with ``message``."""
        snap, coeff, mono, pos = seed
        for run in (descend, reference_descend):
            calls = _plant(monkeypatch, at, change)
            with pytest.raises(DescentError, match=re.escape(message)):
                run(coeff, mono, pos, snap)
            assert len(calls) == at  # no step after the planted one

    def test_readding_k_unchanged_is_equal(self, monkeypatch):
        self._fails_alike(monkeypatch, _planted_world(), 2, lambda replacement, K, snap: [K],
                          "rewrite failed to decrease the representation (0)")

    def test_changed_coefficient_above_k_is_incomparable(self, monkeypatch):
        seed, at, top = _world_with_element_above_k()
        assert top.coeff != seed[0].ring.p - 1

        def changed(replacement, K, snap):
            return [*replacement, (1, top.mono, top.pos)]

        self._fails_alike(monkeypatch, seed, at, changed,
                          "rewrite failed to decrease the representation (None)")

    def test_cancelled_element_above_k_decreases_but_changes_the_value(self, monkeypatch):
        seed, at, top = _world_with_element_above_k()

        def cancelled(replacement, K, snap):
            return [*replacement, (-top.coeff, top.mono, top.pos)]

        self._fails_alike(monkeypatch, seed, at, cancelled,
                          "rewrite changed the represented value")
