"""Signatures, module vectors and labeled polynomials.

A signature is a module monomial (t, i) standing for t*F_i.  The order is
index-dominant with smaller index greater: F_1 > F_2 > ... > F_m, and within
one index monomials compare in the ambient ring order.  A labeled polynomial
can carry its full module vector, so admissibility is a checkable invariant
rather than a bookkeeping assumption; the engine carries vectors only when a
run asks for checks or snapshots (the algorithm itself needs only
signatures).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .poly import EQ, GT, LT, Monomial, MonomialOrder, Polynomial, Ring, poly_axpy


class InconsistentModuleVector(Exception):
    """The module vector does not sum to the carried polynomial."""


class MissingModuleVector(ValueError):
    """A vector-level check was asked of an element that carries no vector."""


@dataclass(frozen=True)
class Signature:
    mono: Monomial
    index: int

    def __repr__(self) -> str:
        return f"Signature({self.mono.exps}, F{self.index})"


def sig_cmp(s1: Signature, s2: Signature, order: MonomialOrder) -> int:
    """Index-dominant comparison: a smaller index is greater."""
    if s1.index != s2.index:
        return GT if s1.index < s2.index else LT
    return order.cmp(s1.mono, s2.mono)


def sig_key(s: Signature, order: MonomialOrder):
    """Sort key ascending in the signature order."""
    return (-s.index, order.key(s.mono))


def sig_mul(t: Monomial, s: Signature) -> Signature:
    if t.is_one:
        return s
    return Signature(t.mul(s.mono), s.index)


def sig_divides(s1: Signature, s2: Signature) -> bool:
    return s1.index == s2.index and s1.mono.divides(s2.mono)


class Genealogy(NamedTuple):
    """How a labeled polynomial arose as an S-polynomial of two others."""

    greater: int  # position of the part with greater multiplied signature
    smaller: int
    u_over: Monomial  # multiplier of the greater part; sig = u_over * S(greater)
    u_under: Monomial


class ModuleVector:
    """m coordinates; coordinate i multiplies input f_{i+1}."""

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence[Polynomial]):
        self.coords = tuple(coords)

    @staticmethod
    def unit(ring: Ring, m: int, index: int) -> "ModuleVector":
        one = ring.poly([(1, ring.one_mono())])
        return ModuleVector(
            tuple(one if k == index - 1 else ring.zero for k in range(m))
        )

    def axpy(self, c: int, t: Monomial, other: "ModuleVector") -> "ModuleVector":
        """self - c*t*other, coordinatewise."""
        return ModuleVector(
            tuple(poly_axpy(a, c, t, b) for a, b in zip(self.coords, other.coords))
        )

    def term_mul(self, c: int, t: Monomial) -> "ModuleVector":
        return ModuleVector(tuple(a.term_mul(c, t) for a in self.coords))

    def scale(self, c: int) -> "ModuleVector":
        return ModuleVector(tuple(a.scale(c) for a in self.coords))

    def value(self, inputs: Sequence[Polynomial]) -> Polynomial:
        """Sum of coords[i] * f_i, built in one pass."""
        return inputs[0].ring.poly(
            (c * cf, m.mul(mf))
            for g, f in zip(self.coords, inputs)
            for c, m in g.terms
            for cf, mf in f.terms
        )

    def signature_terms(self, order: MonomialOrder) -> list[tuple[int, Signature]]:
        """All module terms as (coeff, signature), greatest signature first."""
        out = []
        for k, g in enumerate(self.coords):
            for c, m in g.terms:
                out.append((c, Signature(m, k + 1)))
        out.sort(key=lambda cs: sig_key(cs[1], order), reverse=True)
        return out

    def lead(self, order: MonomialOrder) -> Optional[tuple[int, Signature]]:
        terms = self.signature_terms(order)
        return terms[0] if terms else None


class LabeledPolynomial:
    """A polynomial with its creation-time signature, module vector and origin.

    ``poly`` and ``mv`` are replaced together during reduction (the head
    monomial only ever strictly decreases); ``sig`` is fixed at creation.
    ``mv`` is None when the run carries no vectors.
    """

    __slots__ = ("pos", "sig", "poly", "mv", "genealogy")

    def __init__(
        self,
        pos: int,
        sig: Signature,
        poly: Polynomial,
        mv: Optional[ModuleVector],
        genealogy: Optional[Genealogy] = None,
    ):
        self.pos = pos
        self.sig = sig
        self.poly = poly
        self.mv = mv
        self.genealogy = genealogy

    @property
    def index(self) -> int:
        return self.sig.index

    def __repr__(self) -> str:
        return f"LabeledPolynomial(pos={self.pos}, sig={self.sig!r}, poly={self.poly!r})"


def _vector(lp: LabeledPolynomial) -> ModuleVector:
    if lp.mv is None:
        raise MissingModuleVector(
            f"r{lp.pos} carries no module vector: run the engine with "
            "EngineConfig(self_check=True) or EngineConfig(capture_snapshots=True)"
        )
    return lp.mv


def check_admissible(
    lp: LabeledPolynomial, inputs: Sequence[Polynomial], order: MonomialOrder
) -> bool:
    """The stored signature equals the leading module term of the vector.

    Raises InconsistentModuleVector when the vector does not even sum to the
    carried polynomial: that is an engine bookkeeping bug, not a property of
    the run.  Raises MissingModuleVector when the element carries no vector.
    """
    mv = _vector(lp)
    if mv.value(inputs) != lp.poly:
        raise InconsistentModuleVector(
            f"module vector of r{lp.pos} does not sum to its polynomial"
        )
    lead = mv.lead(order)
    if lead is None:
        return False
    return lead[1] == lp.sig


def input_representation(
    lp: LabeledPolynomial, order: MonomialOrder
) -> list[tuple[int, Monomial, int]]:
    """Expand the module vector into (coeff, mono, input index) triples.

    Sorted by descending signature; for an admissible labeled polynomial the
    first triple carries exactly the stored signature, and it is unique.
    """
    out = []
    for k, g in enumerate(_vector(lp).coords):
        for c, m in g.terms:
            out.append((c, m, k + 1))
    out.sort(key=lambda e: sig_key(Signature(e[1], e[2]), order), reverse=True)
    if len(out) >= 2:
        s0 = Signature(out[0][1], out[0][2])
        s1 = Signature(out[1][1], out[1][2])
        if sig_cmp(s0, s1, order) == EQ:
            raise InconsistentModuleVector(
                f"input representation of r{lp.pos} has no unique greatest element"
            )
    return out
