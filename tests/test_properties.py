"""Randomized cross-validation: on arbitrary small homogeneous systems the
engine output generates the same ideal as the reference algorithm, every
logged invariant holds and every harvested descent finishes."""

import itertools

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from f5gb.engine import BudgetExceeded, EngineConfig, incremental_f5
from f5gb.oracle import buchberger, descend, done_snapshots, harvest_descent_seeds, ideal_equal
from f5gb.poly import ORDER_KINDS, Monomial
from f5gb.trace import (all_admissible, build_registry, check_thm5_exhaustive,
                        run_all_checkers)

from systems import make_ring, strip_rejections, thm5_brute_force


def homogeneous_polys(draw, ring, count):
    out = []
    for _ in range(count):
        d = draw(st.integers(1, 3))
        monos = [
            Monomial(e)
            for e in itertools.product(range(d + 1), repeat=ring.n)
            if sum(e) == d
        ]
        coeffs = draw(
            st.lists(
                st.integers(0, ring.p - 1),
                min_size=len(monos),
                max_size=len(monos),
            )
        )
        q = ring.poly(list(zip(coeffs, monos)))
        if q.is_zero:
            q = ring.poly([(1, monos[0])])
        out.append(q)
    return out


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_engine_matches_reference_and_passes_all_checkers(data):
    n = data.draw(st.integers(2, 3))
    m = data.draw(st.integers(2, 4))
    order = data.draw(st.sampled_from(ORDER_KINDS))
    ring = make_ring(7, [f"x{i}" for i in range(n)], order)
    polys = homogeneous_polys(data.draw, ring, m)
    try:
        # lex runs can climb far in degree; a budget exit proves nothing here
        result = incremental_f5(polys, EngineConfig(max_degree=12))
    except BudgetExceeded:
        assume(False)
    assert ideal_equal(result.basis_polynomials(), buchberger(polys))
    registry = build_registry(result.events, ring)
    for rep in run_all_checkers(result.events, ring, registry):
        assert rep.passed, rep.line()
    assert all_admissible(registry)
    # a DescentError fails the test
    for snap, coeff, mono, pos in harvest_descent_seeds(
        done_snapshots(registry), 0, None
    ):
        descend(coeff, mono, pos, snap)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_thm5_count_matches_brute_force(data):
    # one system in all three orders; the log without its criterion
    # rejections exercises the failure enumeration
    n = data.draw(st.integers(2, 3))
    m = data.draw(st.integers(2, 4))
    names = [f"x{i}" for i in range(n)]
    drawn = homogeneous_polys(data.draw, make_ring(7, names), m)
    for order in ORDER_KINDS:
        ring = make_ring(7, names, order)
        try:
            result = incremental_f5(
                [ring.poly(q.terms) for q in drawn], EngineConfig(max_degree=12)
            )
        except BudgetExceeded:
            continue
        for events in (result.events, strip_rejections(result.events)):
            rep = check_thm5_exhaustive(build_registry(events, ring))
            assert (rep.checked, rep.failures) == thm5_brute_force(events, ring)
