"""Signature order, divisibility, module vectors, admissibility."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f5gb.poly import BOUND, EQ, GT, LT, ORDER_KINDS, Monomial, MonomialOrder
from f5gb.sig import (
    InconsistentModuleVector,
    ModuleVector,
    Signature,
    check_admissible,
    input_representation,
    key_index,
    sig_divides,
    sig_key,
    sig_mul,
)

from order_reference import sig_cmp
from systems import P, make_ring


def M(*exps):
    return Monomial(exps)


@pytest.fixture
def ring():
    return make_ring(7, ["x", "y"])


class TestSigCmp:
    def test_index_dominates(self, ring):
        # the unit signature of the first input beats any later-index one
        assert sig_cmp(Signature(M(0, 0), 1), Signature(M(5, 0), 2), ring.order) == GT

    def test_same_index_uses_monomial_order(self, ring):
        assert sig_cmp(Signature(M(1, 0), 1), Signature(M(0, 1), 1), ring.order) == GT

    def test_reflexive(self, ring):
        s = Signature(M(2, 1), 3)
        assert sig_cmp(s, s, ring.order) == EQ

    @given(st.data())
    @settings(max_examples=150)
    def test_total_order(self, data):
        ring = make_ring(7, ["x", "y"])
        sigs = st.builds(
            Signature,
            st.builds(Monomial, st.tuples(st.integers(0, 3), st.integers(0, 3))),
            st.integers(1, 3),
        )
        a, b, c = data.draw(sigs), data.draw(sigs), data.draw(sigs)
        assert sig_cmp(a, b, ring.order) == -sig_cmp(b, a, ring.order)
        if sig_cmp(a, b, ring.order) != LT and sig_cmp(b, c, ring.order) != LT:
            assert sig_cmp(a, c, ring.order) != LT


@st.composite
def signatures(draw, n, m):
    """A signature of index 1..m over n variables, of any degree below the
    bound, split into exponents at random cut points."""
    deg = draw(st.integers(0, BOUND - 1))
    cuts = sorted(draw(st.lists(st.integers(0, deg), min_size=n - 1, max_size=n - 1)))
    exps = [b - a for a, b in zip([0, *cuts], [*cuts, deg])]
    return Signature(Monomial(exps), draw(st.integers(1, m)))


class TestSigKey:
    @pytest.mark.parametrize("kind", ORDER_KINDS)
    @given(data=st.data())
    @settings(max_examples=150)
    def test_sorts_as_sig_cmp_and_reads_back_the_index(self, kind, data):
        n = data.draw(st.integers(1, 4))
        m = data.draw(st.sampled_from([1, 3, 2**20]))
        order = MonomialOrder(kind, n)
        sigs = data.draw(st.lists(signatures(n, m), min_size=2, max_size=6))
        keys = [sig_key(s, order) for s in sigs]
        for s, k in zip(sigs, keys):
            assert key_index(k, order) == s.index
        # every pair compares alike, so the keys sort as sig_cmp does
        for (a, ka), (b, kb) in itertools.combinations(zip(sigs, keys), 2):
            assert (ka > kb) - (ka < kb) == sig_cmp(a, b, order)


class TestSigMulDivides:
    def test_mul(self):
        assert sig_mul(M(0, 0), Signature(M(1, 1), 2)) == Signature(M(1, 1), 2)
        assert sig_mul(M(1, 0), Signature(M(0, 1), 1)) == Signature(M(1, 1), 1)
        assert sig_mul(M(1, 0), Signature(M(1, 0), 2)) == Signature(M(2, 0), 2)

    def test_divides(self):
        assert sig_divides(Signature(M(1, 0), 1), Signature(M(2, 1), 1))
        assert not sig_divides(Signature(M(1, 0), 1), Signature(M(1, 0), 2))
        s = Signature(M(1, 1), 2)
        assert sig_divides(s, s)

    @given(st.data())
    @settings(max_examples=100)
    def test_divides_implies_greater_or_equal(self, data):
        # degree-compatible order: a dividing signature is never greater
        ring = make_ring(7, ["x", "y"])
        monos = st.builds(Monomial, st.tuples(st.integers(0, 3), st.integers(0, 3)))
        s1 = Signature(data.draw(monos), 1)
        t = data.draw(monos)
        s2 = sig_mul(t, s1)
        assert sig_divides(s1, s2)
        if s1 != s2:
            assert sig_cmp(s2, s1, ring.order) == GT


class TestModuleVector:
    def test_unit_vector_is_admissible_input(self, ring):
        f1, f2 = P(ring, "x^2 + y^2"), P(ring, "x*y")
        mv = ModuleVector.unit(ring, 2, 1)
        assert check_admissible(mv, Signature(M(0, 0), 1), f1, [f1, f2])

    def test_wrong_lead_is_inadmissible(self, ring):
        f1, f2 = P(ring, "x^2 + y^2"), P(ring, "x*y")
        # vector sums to x*f1 but the stored signature claims y*F1 (x > y)
        mv = ModuleVector((P(ring, "x"), ring.zero))
        assert not check_admissible(mv, Signature(M(0, 1), 1), P(ring, "x^3 + x*y^2"), [f1, f2])

    def test_sum_mismatch_raises(self, ring):
        f1, f2 = P(ring, "x^2 + y^2"), P(ring, "x*y")
        mv = ModuleVector((P(ring, "x"), ring.zero))
        with pytest.raises(InconsistentModuleVector):
            check_admissible(mv, Signature(M(1, 0), 1), P(ring, "y^2"), [f1, f2])

    def test_axpy_tracks_value(self, ring):
        f1, f2 = P(ring, "x^2 + y^2"), P(ring, "x*y")
        inputs = [f1, f2]
        a = ModuleVector.unit(ring, 2, 1).term_mul(1, M(0, 1))
        b = ModuleVector.unit(ring, 2, 2)
        mv = a.axpy(1, M(1, 0), b)  # y*e1 - x*e2
        assert mv.value(inputs) == P(ring, "y^3")

    def test_syzygy_keeps_leading_term(self, ring):
        f1, f2 = P(ring, "x*y"), P(ring, "x*y")
        mv = ModuleVector.unit(ring, 2, 1).axpy(1, M(0, 0), ModuleVector.unit(ring, 2, 2))
        assert mv.value([f1, f2]).is_zero
        lead = mv.lead()
        assert lead[1] == Signature(M(0, 0), 1)


class TestInputRepresentation:
    def test_input_is_singleton(self, ring):
        assert input_representation(ModuleVector.unit(ring, 2, 1)) == [(1, M(0, 0), 1)]

    def test_term_split_sorted_by_signature(self, ring):
        mv = ModuleVector((P(ring, "x + y"), ring.zero))
        assert input_representation(mv) == [
            (1, M(1, 0), 1),
            (1, M(0, 1), 1),
        ]

    def test_greatest_element_carries_signature(self, ring):
        f1, f2 = P(ring, "x^2 + y^2"), P(ring, "x*y")
        mv = ModuleVector.unit(ring, 2, 1).term_mul(1, M(0, 1)).axpy(
            1, M(1, 0), ModuleVector.unit(ring, 2, 2)
        )
        sig = Signature(M(0, 1), 1)
        assert check_admissible(mv, sig, P(ring, "y^3"), [f1, f2])
        c, m, idx = input_representation(mv)[0]
        assert Signature(m, idx) == sig


class TestLeadWithoutSort:
    """``ModuleVector.lead`` and ``input_representation`` read the vector in
    coordinate order; a brute-force sort of all module terms agrees."""

    @pytest.mark.parametrize("kind", ORDER_KINDS)
    def test_match_brute_force(self, kind):
        ring = make_ring(32003, ["x", "y", "z"], kind)
        rng = random.Random(kind)
        for _ in range(200):
            coords = [
                ring.poly(
                    (rng.randint(1, 32002), Monomial([rng.randint(0, 3) for _ in range(3)]))
                    for _ in range(rng.choice((0, 0, 1, 4)))
                )
                for _ in range(rng.randint(1, 4))
            ]
            mv = ModuleVector(coords)
            terms = sorted(
                ((c, Signature(m, k + 1)) for k, g in enumerate(coords) for c, m in g.terms),
                key=lambda cs: sig_key(cs[1], ring.order),
                reverse=True,
            )
            assert mv.lead() == (terms[0] if terms else None)
            assert input_representation(mv) == [
                (c, s.mono, s.index) for c, s in terms
            ]
