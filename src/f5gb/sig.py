"""Signatures, module vectors and labeled polynomials.

A signature is a module monomial (t, i) standing for t*F_i.  The order is
index-dominant with smaller index greater: F_1 > F_2 > ... > F_m, and within
one index monomials compare in the ambient ring order.  ``sig_key`` writes
the order as one int per signature, and every comparison reads it.  The
engine needs only signatures.  What the checks need of the module vectors
is rebuilt after a run from its event log alone, by the operations of the
log replay (``trace.build_registry``).  ``replay_leads`` replays only each
element's leading module term, which the ``admissible`` verdict compares
with its signature, so admissibility is a checkable invariant rather than a
bookkeeping assumption.  ``ReplayedVectors`` replays full vectors on first
read, as a prefix of the log in order, up to the last operation on the
position read: the registry keeps them (``trace.Registry.vectors``), and
only the descent (``oracle.DescentRun``) and the admissibility fallback
read them, each only for the elements it needs.
"""

from __future__ import annotations

from collections.abc import Mapping
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
        """self - c*t*other, coordinatewise; a zero coordinate of ``other``
        leaves self's as it is."""
        return ModuleVector(tuple(
            poly_axpy(a, c, t, b) if b.terms else a for a, b in zip(self.coords, other.coords)
        ))

    def term_mul(self, c: int, t: Monomial) -> "ModuleVector":
        return ModuleVector(tuple(a.term_mul(c, t) if a.terms else a for a in self.coords))

    def scale(self, c: int) -> "ModuleVector":
        return ModuleVector(tuple(a.scale(c) if a.terms else a for a in self.coords))

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


def _input_count(ops: Sequence[tuple]) -> int:
    """The number of coordinates of every vector: the greatest input index."""
    return max((op[2] for op in ops if op[0] == "input"), default=0)


def apply_ops(ring: Ring, m: int, ops: Sequence[tuple],
              vectors: dict[int, ModuleVector]) -> None:
    """Apply the replay operations ``ops`` (``trace.build_registry``), in
    order, to the m-coordinate module vectors held in ``vectors``, as the
    replay applied them to polynomials."""
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


class ReplayedVectors(Mapping):
    """Each position's module vector at the end of the log, replayed on
    first read.

    A read of a position applies the log's operations in order, from the
    first one not yet applied through the last one that writes the
    position.  No later operation writes it, and those before it run in the
    same order as in a replay of the whole log, so every read is exact on
    every log.  The keys are the positions the operations build; one no
    operation built is missing, as from a dict, and ``in`` replays up to
    the position it finds."""

    __slots__ = ("ring", "m", "ops", "last", "applied", "done")

    def __init__(self, ring: Ring, ops: Sequence[tuple]):
        self.ring, self.m, self.ops = ring, _input_count(ops), ops
        # position -> index of the last operation that writes it
        self.last = {op[1]: i for i, op in enumerate(ops)}
        self.applied = 0  # the operations ops[:applied] are in ``done``
        self.done: dict[int, ModuleVector] = {}

    def __getitem__(self, pos: int) -> ModuleVector:
        end = self.last[pos] + 1
        if end > self.applied:
            apply_ops(self.ring, self.m, self.ops[self.applied:end], self.done)
            self.applied = end
        return self.done[pos]

    def __iter__(self):
        return iter(self.last)

    def __len__(self) -> int:
        return len(self.last)


def replay_leads(ring: Ring, ops: Sequence[tuple]) -> dict[int, Optional[tuple[int, int]]]:
    """Each position's leading module term at the end of the log, as
    (``sig_key`` of its signature, coefficient), from the operations of the
    log replay alone, with no vector built; None where the replay cannot
    tell it.

    An input's lead is (key of 1*e_i, 1).  Signature keys are affine, so the
    lead of u * v is (key + vkey(u) - vkey(1), c) for v's lead (key, c).
    An operation a - c * b leads with the greater of the two leads, and
    with two equal keys with the difference of the coefficients; scaling
    scales the coefficient.  When that difference is 0 the lead lies below
    and is unknown: it is None, and so is the lead of every later vector
    that reads it."""
    order, p = ring.order, ring.p
    vkey, one = order.vkey, order.vkey(0)
    unit = Monomial.one(ring.n)
    leads: dict[int, Optional[tuple[int, int]]] = {}
    for op in ops:
        kind, pos = op[0], op[1]
        if kind == "input":
            leads[pos] = (sig_key(Signature(unit, op[2]), order), 1)
            continue
        if kind == "monic":
            lead = leads[pos]
            if lead is not None:
                leads[pos] = (lead[0], lead[1] * op[2] % p)
            continue
        if kind == "new":
            _, _, a, ua, b, ub, s = op
            x, dx, c, y, dy = leads[a], vkey(ua.v) - one, 1, leads[b], vkey(ub.v) - one
        else:
            _, _, c, u, r = op
            x, dx, y, dy, s = leads[pos], 0, leads[r], vkey(u.v) - one, 1
        lead = None
        if x is not None and y is not None:
            kx, ky = x[0] + dx, y[0] + dy
            if kx > ky:
                lead = (kx, x[1] * s % p)
            elif kx < ky:
                lead = (ky, -c * y[1] * s % p)
            elif (x[1] - c * y[1]) % p:
                lead = (kx, (x[1] - c * y[1]) * s % p)
        leads[pos] = lead
    return leads


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
    index order, a smaller index is greater, and each coordinate's terms,
    of distinct monomials, already descend.  For the vector of an admissible
    labeled polynomial the first triple carries exactly its signature.
    """
    return [(c, m, k + 1) for k, g in enumerate(mv.coords) for c, m in g.terms]
