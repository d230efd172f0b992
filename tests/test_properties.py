"""Randomized cross-validation: on arbitrary small homogeneous systems the
engine output generates the same ideal as the reference algorithm and every
logged invariant holds."""

import itertools

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from f5gb.engine import BudgetExceeded, EngineConfig, incremental_f5
from f5gb.oracle import buchberger, ideal_equal
from f5gb.poly import ORDER_KINDS, Monomial
from f5gb.sig import check_admissible
from f5gb.trace import run_all_checkers

from systems import make_ring


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
        result = incremental_f5(
            polys, EngineConfig(capture_snapshots=True, self_check=True, max_degree=12)
        )
    except BudgetExceeded:
        assume(False)
    assert ideal_equal(result.basis_polynomials(), buchberger(polys))
    for rep in run_all_checkers(result.events, ring):
        assert rep.passed, rep.line()
    assert all(check_admissible(lp, result.inputs, ring.order) for lp in result.R)
