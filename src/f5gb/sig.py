"""Signatures, module vectors and labeled polynomials.

A signature is a module monomial (t, i) standing for t*F_i.  The order is
index-dominant with smaller index greater: F_1 > F_2 > ... > F_m, and within
one index monomials compare in the ambient ring order.  ``sig_key`` writes
the order as one int per signature, and every comparison reads it.  The
engine needs only signatures.  Module vectors are rebuilt after a run from
its event log alone: ``replay_vectors`` applies the operations of the log
replay, and ``trace.ReplayReport.vectors`` keeps the result, replayed once
per run, for the ``admissible`` verdict and the descent snapshots.  So
admissibility is a checkable invariant rather than a bookkeeping assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .poly import FIELD_BITS, Monomial, MonomialOrder, Polynomial, Ring, poly_axpy


class InconsistentModuleVector(Exception):
    """The module vector does not sum to the carried polynomial."""


@dataclass(frozen=True)
class Signature:
    mono: Monomial
    index: int

    def __repr__(self) -> str:
        return f"Signature({self.mono.exps}, F{self.index})"


def sig_key(s: Signature, order: MonomialOrder) -> int:
    """An int ascending in the signature order: the order key of the
    monomial minus the index shifted above every order key, so a smaller
    index is greater and one index's keys fill one block of ints.

    Order keys are below 2^(16(n + 1)) (``MonomialOrder``), so the index is
    read back exactly by ``key_index``.  Keys are affine in the monomial
    like order keys: the key of t * s is key(s) + key(t) - key(1)."""
    return order.vkey(s.mono.v) - (s.index << order.lay.shift + FIELD_BITS)


def key_index(key: int, order: MonomialOrder) -> int:
    """The index of the signature whose ``sig_key`` is ``key``."""
    return -(key >> order.lay.shift + FIELD_BITS)


def sig_mul(t: Monomial, s: Signature) -> Signature:
    if t.is_one:
        return s
    return Signature(t.mul(s.mono), s.index)


def sig_divides(s1: Signature, s2: Signature) -> bool:
    return s1.index == s2.index and s1.mono.divides(s2.mono)


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
        """Sum of coords[i] * f_i, built in one pass (``Ring.product_sum``)."""
        return inputs[0].ring.product_sum(
            (c, m, f) for g, f in zip(self.coords, inputs) for c, m in g.terms
        )

    def lead(self) -> Optional[tuple[int, Signature]]:
        """The greatest module term as (coeff, signature), None for zero.

        No sort is needed: a smaller index is greater, so every term of a
        coordinate beats every term of a later one, and each coordinate's
        terms already descend in the ring order.  The lead is the head term
        of the first nonzero coordinate."""
        for k, g in enumerate(self.coords):
            if g.terms:
                c, m = g.terms[0]
                return c, Signature(m, k + 1)
        return None


def replay_vectors(ring: Ring, ops: Sequence[tuple]) -> dict[int, ModuleVector]:
    """Each position's module vector at the end of the log: the operations
    of the log replay (``trace.check_replay``), in order, applied to vectors
    as the replay applied them to polynomials."""
    m = max((op[2] for op in ops if op[0] == "input"), default=0)
    vectors: dict[int, ModuleVector] = {}
    for op in ops:
        kind, pos = op[0], op[1]
        if kind == "input":
            vectors[pos] = ModuleVector.unit(ring, m, op[2])
        elif kind == "new":
            _, _, a, ua, b, ub, s = op
            mv = vectors[a].term_mul(1, ua).axpy(1, ub, vectors[b])
            vectors[pos] = mv if s == 1 else mv.scale(s)
        elif kind == "monic":
            vectors[pos] = vectors[pos].scale(op[2])
        else:
            _, _, c, u, r = op
            vectors[pos] = vectors[pos].axpy(c, u, vectors[r])
    return vectors


class LabeledPolynomial:
    """A polynomial with its creation-time signature.

    ``poly`` is replaced during reduction (the head monomial only ever
    strictly decreases); ``sig`` is fixed at creation.
    """

    __slots__ = ("pos", "sig", "poly")

    def __init__(self, pos: int, sig: Signature, poly: Polynomial):
        self.pos = pos
        self.sig = sig
        self.poly = poly

    @property
    def index(self) -> int:
        return self.sig.index

    @property
    def head(self) -> Optional[Monomial]:
        """Head monomial of the current polynomial; None when it is zero."""
        return self.poly.terms[0][1] if self.poly.terms else None

    def __repr__(self) -> str:
        return f"LabeledPolynomial(pos={self.pos}, sig={self.sig!r}, poly={self.poly!r})"


def check_admissible(
    mv: ModuleVector, sig: Signature, poly: Polynomial, inputs: Sequence[Polynomial]
) -> bool:
    """The signature ``sig`` equals the leading module term of ``mv``, the
    module vector of the labeled polynomial ``poly``.

    Raises InconsistentModuleVector when the vector does not even sum to
    ``poly``: that is a bookkeeping bug, not a property of the run.
    """
    if mv.value(inputs) != poly:
        raise InconsistentModuleVector("the module vector does not sum to its polynomial")
    lead = mv.lead()
    if lead is None:
        return False
    return lead[1] == sig


def input_representation(mv: ModuleVector) -> list[tuple[int, Monomial, int]]:
    """Expand the module vector into (coeff, mono, input index) triples.

    Descending in the signature order with no sort: the coordinates come in
    index order, a smaller index is greater, and each coordinate's terms
    already descend.  For the vector of an admissible labeled polynomial the
    first triple carries exactly its signature, and it is unique.
    """
    out = [(c, m, k + 1) for k, g in enumerate(mv.coords) for c, m in g.terms]
    if len(out) >= 2 and out[0][1:] == out[1][1:]:
        raise InconsistentModuleVector("the input representation has no unique greatest element")
    return out
