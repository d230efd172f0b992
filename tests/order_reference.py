"""Object-level comparators of the monomial order, of the signature order
and of the order on head/signature quotients: the references that the int
keys of ``f5gb`` (``MonomialOrder.key``, ``sig.sig_key`` and
``poly.quotient_key``) are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

from f5gb.poly import EQ, GT, LT, Monomial, MonomialOrder
from f5gb.sig import Signature


def direct_key(exps, kind: str) -> int:
    """The order key of the monomial with exponents ``exps`` under ``kind``,
    written out field by field from the exponents: lex puts x_0's exponent
    in the top 16-bit field and x_{n-1}'s in the lowest, deglex the degree
    above that, and degrevlex the degree above each exponent field
    complemented, x_0's the lowest."""
    n, deg = len(exps), sum(exps)
    if kind == "degrevlex":
        return deg << 16 * n | sum((0xFFFF - e) << 16 * k for k, e in enumerate(exps))
    lex = sum(e << 16 * (n - 1 - k) for k, e in enumerate(exps))
    return lex if kind == "lex" else deg << 16 * n | lex


def mono_cmp(a: Monomial, b: Monomial, order: MonomialOrder) -> int:
    """LT, EQ or GT as a is less than, equal to or greater than b."""
    ka, kb = order.key(a), order.key(b)
    if ka < kb:
        return LT
    if ka > kb:
        return GT
    return EQ


def sig_cmp(s1: Signature, s2: Signature, order: MonomialOrder) -> int:
    """Index-dominant comparison: a smaller index is greater."""
    if s1.index != s2.index:
        return GT if s1.index < s2.index else LT
    return mono_cmp(s1.mono, s2.mono, order)


@dataclass(frozen=True)
class MonomialQuotient:
    """A formal quotient of monomials, compared only by cross-multiplication."""

    num: Monomial
    den: Monomial


def quotient_cmp(q1: MonomialQuotient, q2: MonomialQuotient, order: MonomialOrder) -> int:
    """Transitive extension of the order to quotients: n1/d1 vs n2/d2 by n1*d2 vs n2*d1."""
    return mono_cmp(q1.num.mul(q2.den), q2.num.mul(q1.den), order)
