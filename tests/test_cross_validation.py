"""Optional third-implementation cross-check (skipped when sympy is absent)
and coverage of the non-default monomial orders."""

import pytest

from f5gb.engine import EngineConfig, incremental_f5
from f5gb.oracle import buchberger, ideal_equal, reduced_basis
from f5gb.poly import Monomial
from f5gb.trace import run_all_checkers

from systems import make_ring, polys, suite_instances

QUADRICS = [
    "x^2 + 2*x*y + 3*y^2 + 4*x*z + 5*y*z + 6*z^2",
    "3*x^2 + x*y + 4*y^2 + x*z + 5*y*z + 2*z^2",
]


@pytest.mark.parametrize("order", ["lex", "deglex"])
@pytest.mark.parametrize("p", [7, 32003])
def test_non_default_orders_end_to_end(order, p):
    ring = make_ring(p, ["x", "y", "z"], order)
    system = polys(ring, *QUADRICS)
    res = incremental_f5(system, EngineConfig(capture_snapshots=True, self_check=True))
    assert ideal_equal(res.basis_polynomials(), buchberger(system))
    for rep in run_all_checkers(res.events, ring):
        assert rep.passed, rep.line()


def test_reduced_bases_match_sympy():
    sympy = pytest.importorskip("sympy")

    def to_sympy(ring, q, syms):
        expr = 0
        for c, m in q.terms:
            term = sympy.Integer(c)
            for s, e in zip(syms, m.exps):
                term *= s**e
            expr += term
        return expr

    for name, ring, system in suite_instances():
        syms = sympy.symbols(" ".join(ring.names))
        gb = sympy.groebner(
            [to_sympy(ring, q, syms) for q in system],
            *syms,
            order="grevlex",
            modulus=ring.p,
        )
        theirs = []
        for g in gb.exprs:
            sp = sympy.Poly(g, *syms, modulus=ring.p)
            terms = [(int(c) % ring.p, Monomial(mon)) for mon, c in sp.terms()]
            theirs.append(ring.poly(terms).monic())
        theirs.sort(key=lambda q: ring.order.key(q.head_mono))
        expected = [q.terms for q in theirs]
        mine = reduced_basis(incremental_f5(system).basis_polynomials())
        assert [q.terms for q in mine] == expected, name
        assert [q.terms for q in buchberger(system)] == expected, name
