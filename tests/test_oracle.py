"""Representation order, the three rewrites, descent, reference algorithm."""

import random

import pytest

from f5gb.engine import EngineConfig, incremental_f5
from f5gb.oracle import (
    EQ,
    GT,
    LT,
    GgSnapshot,
    NotSignatureSafe,
    Representation,
    ReprElement,
    TrailNotFound,
    buchberger,
    descend,
    elem_cmp,
    find_thm4_pairs_in_snapshot,
    find_unrejected_reductor,
    harvest_descent_seeds,
    ideal_equal,
    input_representation,
    ordered_form,
    reduced_basis,
    reductor_passes_engine_checks,
    repr_cmp,
    repr_sum_check,
    repr_value,
    rewrite_f5_case,
    rewrite_hm_case,
    rewrite_rewritten_case,
    spair_exhaustion_check,
    standard_monomial_count,
    substitute_and_combine,
    violated_property,
)
from f5gb.poly import Monomial, normal_form
from f5gb.sig import Genealogy, LabeledPolynomial, ModuleVector, Signature, sig_mul

from systems import P, make_ring, polys


def M(*exps):
    return Monomial(exps)


def E(c, mono, pos):
    return ReprElement(c, mono, pos)


def lp(pos, sig, poly, mv=None, genealogy=None):
    return LabeledPolynomial(pos, sig, poly, mv, genealogy)


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
        rules={1: ((M(0, 0), 0), (M(1, 0), 2)), 2: ((M(0, 0), 1),)},
        trails={},
        creation_polys={},
        input_pos={1: 0, 2: 1},
        m=2,
    )


class TestElementOrderExamples:
    def test_index_beats_coefficient(self, cmp_snap):
        assert elem_cmp(E(1, M(0, 1), 0), E(100, M(0, 1), 1), cmp_snap) == GT

    def test_monomial_within_index(self, cmp_snap):
        assert elem_cmp(E(1, M(1, 0), 0), E(1, M(0, 1), 0), cmp_snap) == GT

    def test_equal_signature_and_position_incomparable(self, cmp_snap):
        assert elem_cmp(E(100, M(1, 0), 0), E(2, M(1, 0), 0), cmp_snap) is None

    def test_shifted_signature_beats_square(self, cmp_snap):
        assert elem_cmp(E(1, M(0, 2), 0), E(1, M(0, 1), 2), cmp_snap) == LT

    def test_position_breaks_signature_tie(self, cmp_snap):
        # x^2 * first vs x * third: equal signatures, earlier position wins
        assert elem_cmp(E(1, M(2, 0), 0), E(1, M(1, 0), 2), cmp_snap) == GT


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
            cmp_snap.ring, entries, members=(0, 1, 2), g_pos=2, rules={},
            trails={}, creation_polys={}, input_pos={1: 0, 2: 1}, m=2,
        )
        r = Representation([E(1, M(0, 2), 0), E(1, M(0, 1), 2)])
        form = ordered_form(r, cmp_snap)
        assert form == [E(1, M(0, 1), 2), E(1, M(0, 2), 0)]
        form.clear()  # each call returns a fresh list
        assert ordered_form(r, other) == [E(1, M(0, 2), 0), E(1, M(0, 1), 2)]
        assert ordered_form(r, cmp_snap) == [E(1, M(0, 1), 2), E(1, M(0, 2), 0)]


class TestRepresentationOrderExamples:
    def test_middle_element_decides(self, cmp_snap):
        r1 = Representation([E(1, M(2, 0), 0), E(1, M(1, 1), 0), E(1, M(0, 2), 0)])
        r2 = Representation([E(1, M(2, 0), 0), E(100, M(0, 2), 0)])
        assert repr_cmp(r1, r2, cmp_snap) == GT

    def test_prefix_is_smaller(self, cmp_snap):
        r1 = Representation([E(1, M(2, 0), 0), E(100, M(0, 2), 0)])
        r2 = Representation([E(1, M(2, 0), 0)])
        assert repr_cmp(r1, r2, cmp_snap) == GT

    def test_first_element_decides(self, cmp_snap):
        r1 = Representation([E(1, M(2, 0), 0)])
        r2 = Representation([E(1, M(1, 1), 0), E(1, M(0, 2), 0), E(1, M(2, 0), 1)])
        assert repr_cmp(r1, r2, cmp_snap) == GT

    def test_position_tie_decides(self, cmp_snap):
        r1 = Representation([E(1, M(1, 1), 0), E(1, M(0, 2), 0), E(1, M(2, 0), 1)])
        r2 = Representation([E(1, M(0, 1), 2), E(1, M(0, 2), 0), E(1, M(2, 0), 1)])
        assert repr_cmp(r1, r2, cmp_snap) == GT

    def test_coefficient_difference_incomparable(self, cmp_snap):
        r1 = Representation([E(1, M(0, 1), 2), E(1, M(0, 2), 0), E(1, M(2, 0), 1)])
        r2 = Representation([E(2, M(0, 1), 2), E(1, M(0, 2), 1)])
        assert repr_cmp(r1, r2, cmp_snap) is None

    def test_equal(self, cmp_snap):
        r1 = Representation([E(1, M(1, 1), 0), E(3, M(0, 1), 2)])
        r2 = Representation([E(3, M(0, 1), 2), E(1, M(1, 1), 0)])
        assert repr_cmp(r1, r2, cmp_snap) == EQ

    def test_elements_of_one_representation_always_comparable(self, cmp_snap):
        r = Representation([E(1, M(1, 1), 0), E(3, M(0, 1), 2), E(2, M(1, 1), 1)])
        form = ordered_form(r, cmp_snap)
        for i in range(len(form)):
            for j in range(i + 1, len(form)):
                assert elem_cmp(form[i], form[j], cmp_snap) == GT


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
        0: lp(0, Signature(M(0, 0), 2), f2, ModuleVector.unit(ring, 2, 2)),
        1: lp(1, Signature(M(0, 0), 1), f1, ModuleVector.unit(ring, 2, 1)),
    }
    snap = GgSnapshot(
        ring,
        entries,
        members=(0, 1),
        g_pos=1,
        rules={1: ((M(0, 0), 1),), 2: ((M(0, 0), 0),)},
        trails={},
        creation_polys={},
        input_pos={1: 1, 2: 0},
        m=2,
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

    def test_input_representation_of_member(self, sum_snap):
        ring, snap = sum_snap
        r = input_representation(1, snap)
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
        0: lp(0, Signature(M(0, 0), 2), f2, ModuleVector.unit(ring, 2, 2)),
        1: lp(1, Signature(M(0, 0), 1), f1, ModuleVector.unit(ring, 2, 1)),
        2: lp(2, Signature(M(1, 0), 1), g, ModuleVector((P(ring, "x"), ring.zero))),
    }
    snap = GgSnapshot(
        ring,
        entries,
        members=(0, 1, 2),
        g_pos=2,
        rules={1: ((M(0, 0), 1), (M(1, 0), 2)), 2: ((M(0, 0), 0),)},
        trails={},
        creation_polys={},
        input_pos={1: 1, 2: 0},
        m=2,
    )
    return ring, snap


class TestViolatedProperty:
    def test_inputs_pass(self, sum_snap):
        ring, snap = sum_snap
        r = Representation([E(1, M(0, 0), 1)])
        sig = snap.lp(1).sig
        assert violated_property(r, sig, M(2, 0), snap) is None

    def test_f5_violation_found(self, f5_case_snap):
        ring, snap = f5_case_snap
        r = Representation([E(1, M(0, 1), 1)])
        got = violated_property(r, Signature(M(0, 1), 1), M(2, 1), snap)
        assert got == ("P1", E(1, M(0, 1), 1))

    def test_rewritten_violation_found(self):
        ring = make_ring(7, ["x", "y"])
        f1, f2 = P(ring, "x^2 + x*y"), P(ring, "x^2")
        reduced = P(ring, "x*y")
        mv = ModuleVector.unit(ring, 2, 1).axpy(
            1, M(0, 0), ModuleVector.unit(ring, 2, 2)
        )
        entries = {
            0: lp(0, Signature(M(0, 0), 2), f2, ModuleVector.unit(ring, 2, 2)),
            1: lp(1, Signature(M(0, 0), 1), f1, ModuleVector.unit(ring, 2, 1)),
            2: lp(2, Signature(M(0, 0), 1), reduced, mv),
        }
        snap = GgSnapshot(
            ring,
            entries,
            members=(0, 1, 2),
            g_pos=2,
            rules={1: ((M(0, 0), 1), (M(0, 0), 2)), 2: ((M(0, 0), 0),)},
            trails={},
            creation_polys={},
            input_pos={1: 1, 2: 0},
            m=2,
        )
        r = Representation([E(1, M(0, 0), 1)])
        got = violated_property(r, Signature(M(0, 0), 1), M(2, 0), snap)
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
            violated_property(r, Signature(M(0, 0), 1), M(2, 0), snap)


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

    def test_descent_finishes_after_rewrite(self, f5_case_snap):
        ring, snap = f5_case_snap
        res = descend(1, M(0, 1), 1, snap)
        assert violated_property(
            res.representation, sig_mul(M(0, 1), snap.lp(1).sig), M(2, 1), snap
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
            EngineConfig(capture_snapshots=True, self_check=True),
        )
        hit = None
        for rec in res.snapshots:
            snap = GgSnapshot.from_result(res, rec)
            for pos in snap.members:
                if pos == snap.g_pos:
                    continue
                rw = snap.rewritten_satisfied(ring.one_mono(), pos)
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
        assert repr_sum_check(new, snap.lp(pos).poly, snap)
        assert repr_cmp(new, r, snap) == LT
        assert all(e.pos != rw for e in new.elements)


# ---------------------------------------------------------------------------
# the head-cancellation rewrite, on a consistent fabricated snapshot


def hm_case_world():
    """Members: second input x+y, first input x, and their reduced S-pair y.

    The completed element's own rule is left out of the table so the
    head-cancellation case is reachable (with it, the pair's parts would be
    rewritten first and the representation would never reach this state)."""
    ring = make_ring(7, ["x", "y"])
    f2 = P(ring, "x + y")
    f1 = P(ring, "x")
    e_poly = P(ring, "y")
    e_mv = ModuleVector((P(ring, "-1"), P(ring, "1")))
    g = P(ring, "x^2")
    entries = {
        0: lp(0, Signature(M(0, 0), 2), f2, ModuleVector.unit(ring, 2, 2)),
        1: lp(1, Signature(M(0, 0), 1), f1, ModuleVector.unit(ring, 2, 1)),
        2: lp(2, Signature(M(0, 0), 1), e_poly, e_mv, genealogy=Genealogy(1, 0, M(0, 0), M(0, 0))),
        4: lp(4, Signature(M(1, 0), 1), g, ModuleVector((P(ring, "x"), ring.zero))),
    }
    snap = GgSnapshot(
        ring,
        entries,
        members=(0, 1, 2, 4),
        g_pos=4,
        rules={1: ((M(0, 0), 1), (M(1, 0), 4)), 2: ((M(0, 0), 0),)},
        trails={2: []},
        creation_polys={2: e_poly},
        input_pos={1: 1, 2: 0},
        m=2,
    )
    return ring, snap


class TestRewriteHmCase:
    def test_head_pair_resolved_through_trail(self):
        ring, snap = hm_case_world()
        K1 = E(1, M(0, 1), 1)  # y * x
        K2 = E(6, M(0, 1), 0)  # -y * (x + y)
        r = Representation([K1, K2])
        target = repr_value(r, snap)  # = -y^2
        assert target == P(ring, "6*y^2")
        violation = violated_property(r, Signature(M(0, 1), 1), M(0, 2), snap)
        assert violation == ("P3", K1)
        new = rewrite_hm_case(r, K1, snap)
        assert repr_sum_check(new, target, snap)
        assert repr_cmp(new, r, snap) == LT
        assert new == Representation([E(6, M(0, 1), 2)])
        # and nothing is violated afterwards
        assert violated_property(new, Signature(M(0, 1), 1), M(0, 2), snap) is None

    def test_missing_trail_is_loud(self):
        ring, snap = hm_case_world()
        snap.entries[2].genealogy = None  # sever the recorded origin
        K1 = E(1, M(0, 1), 1)
        K2 = E(6, M(0, 1), 0)
        r = Representation([K1, K2])
        with pytest.raises(TrailNotFound):
            rewrite_hm_case(r, K1, snap)

    def test_full_descent_reaches_fixpoint(self):
        ring, snap = hm_case_world()
        res = descend(1, M(0, 1), 1, snap)
        # y * x ends as y * (reduced S-pair element): value preserved
        assert repr_sum_check(res.representation, P(ring, "x*y"), snap)


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
        0: lp(0, Signature(M(0, 0), 2), f2, ModuleVector.unit(ring, 2, 2)),
        1: lp(1, Signature(M(0, 0), 1), f1, ModuleVector.unit(ring, 2, 1)),
        3: lp(3, Signature(M(0, 1), 1), f_poly, ModuleVector((P(ring, "y"), ring.zero))),
        4: lp(4, Signature(M(1, 0), 1), g_poly, ModuleVector((P(ring, "x"), ring.zero))),
    }
    snap = GgSnapshot(
        ring,
        entries,
        members=(0, 1, 3, 4),
        g_pos=4,
        rules={
            1: ((M(0, 0), 1), (M(0, 1), 3), (M(1, 0), 4)),
            2: ((M(0, 0), 0),),
        },
        trails={},
        creation_polys={},
        input_pos={1: 1, 2: 0},
        m=2,
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
            0: lp(0, Signature(M(0, 0), 2), f2, ModuleVector.unit(ring, 2, 2)),
            1: lp(1, Signature(M(0, 0), 1), f1, ModuleVector.unit(ring, 2, 1)),
            3: lp(
                3,
                Signature(M(1, 0), 1),
                f_poly,
                ModuleVector((P(ring, "-x"), P(ring, "x"))),
            ),
        }
        snap = GgSnapshot(
            ring,
            entries,
            members=(0, 1, 3),
            g_pos=3,
            rules={1: ((M(0, 0), 1), (M(1, 0), 3)), 2: ((M(0, 0), 0),)},
            trails={},
            creation_polys={},
            input_pos={1: 1, 2: 0},
            m=2,
        )
        # a genuine pair per the head/signature-quotient scan
        assert find_thm4_pairs_in_snapshot(snap) == [(1, 3)]
        mono, pos, res = find_unrejected_reductor(3, 1, snap)
        assert (mono, pos) == (M(0, 1), 1)
        assert res.step_count == 0
        assert reductor_passes_engine_checks(snap, mono, pos, 3) is None


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
            EngineConfig(capture_snapshots=True),
        )
        seeds = harvest_descent_seeds(res, 30, random.Random(7))
        assert seeds
        for snap, coeff, mono, pos in seeds:
            out = descend(coeff, mono, pos, snap)
            target = snap.lp(pos).poly.term_mul(coeff, mono)
            assert repr_sum_check(out.representation, target, snap)
            assert (
                violated_property(
                    out.representation,
                    sig_mul(mono, snap.lp(pos).sig),
                    mono.mul(snap.lp(pos).poly.head_mono),
                    snap,
                )
                is None
            )


# ---------------------------------------------------------------------------
# reference algorithm


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
