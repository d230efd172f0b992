"""Constructive descent on basis representations, plus a Buchberger reference.

A representation writes a multiplied basis element as a sum of coefficient *
monomial * basis-element products over a frozen snapshot of the engine state.
The descent repeatedly rewrites offending elements (shifted-signature
reducible, rewritable by a newer rule, or head above the target) into strictly
smaller representations until none is left; the final representation yields a
reductor that passes all four engine checks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .engine import EngineResult, SnapshotRecord
from .poly import EQ, GT, LT, Monomial, Polynomial, Ring, normal_form, poly_axpy
from .sig import (
    LabeledPolynomial,
    Signature,
    input_representation as _mv_input_triples,
    sig_cmp,
    sig_key,
    sig_mul,
)


class DescentError(Exception):
    pass


class NotSignatureSafe(DescentError):
    pass


class NoDivisorFound(DescentError):
    pass


class RewriterNotFound(DescentError):
    pass


class TrailNotFound(DescentError):
    """The completed S-pair a rewrite relies on has no stored trail."""


class NoHeadMatch(DescentError):
    """No final-representation element achieves the target head monomial."""


class StepCapExceeded(DescentError):
    def __init__(self, message: str, log: list):
        super().__init__(message)
        self.log = log


# ---------------------------------------------------------------------------
# snapshots


class GgSnapshot:
    """Basis state frozen at one Done insertion.

    ``members`` lists the positions of G ∪ Done ascending by creation order;
    representation elements refer to these positions directly (the list is
    creation-ordered, so position comparison doubles as list-rank comparison).
    """

    def __init__(
        self,
        ring: Ring,
        entries: dict[int, LabeledPolynomial],
        members: Sequence[int],
        g_pos: int,
        rules: dict[int, tuple],
        trails: dict[int, list],
        creation_polys: dict[int, Polynomial],
        input_pos: dict[int, int],
        m: int,
    ):
        self.ring = ring
        self.order = ring.order
        self.entries = entries
        self.members = tuple(sorted(members))
        self.member_set = set(self.members)
        self.g_pos = g_pos
        self.rules = rules
        self.trails = trails
        self.creation_polys = creation_polys
        self.input_pos = input_pos
        self.m = m
        self._phi_cache: dict[int, list[tuple[Monomial, int]]] = {}

    @classmethod
    def from_result(cls, result: EngineResult, record: SnapshotRecord) -> "GgSnapshot":
        entries = {lp.pos: lp for lp in result.R}
        input_pos = {lp.index: lp.pos for lp in result.R if lp.genealogy is None}
        return cls(
            ring=result.ring,
            entries=entries,
            members=record.members,
            g_pos=record.g_pos,
            rules=record.rules,
            trails=result.trails,
            creation_polys=result.creation_polys,
            input_pos=input_pos,
            m=len(result.inputs),
        )

    def lp(self, pos: int) -> LabeledPolynomial:
        return self.entries[pos]

    @property
    def g_sig(self) -> Signature:
        return self.entries[self.g_pos].sig

    def phi_heads(self, index: int) -> list[tuple[Monomial, int]]:
        """Heads of the completed basis for ``index + 1`` within the snapshot."""
        cached = self._phi_cache.get(index)
        if cached is None:
            cached = [
                (self.entries[p].poly.head_mono, p)
                for p in self.members
                if self.entries[p].index > index
            ]
            self._phi_cache[index] = cached
        return cached

    def f5_satisfied(self, t: Monomial, pos: int) -> bool:
        """The shifted signature monomial of t * b_pos is top-reducible by the
        previously computed basis for the next index."""
        lp = self.entries[pos]
        mono = t.mul(lp.sig.mono)
        return any(head.divides(mono) for head, _ in self.phi_heads(lp.index))

    def rewritten_satisfied(self, t: Monomial, pos: int) -> Optional[int]:
        """Newest rule owner created after ``pos`` whose monomial divides the
        shifted signature monomial; None when no such rule exists."""
        lp = self.entries[pos]
        mono = t.mul(lp.sig.mono)
        for rmono, rpos in reversed(self.rules.get(lp.index, ())):
            if rpos > pos and rmono.divides(mono):
                return rpos
        return None


# ---------------------------------------------------------------------------
# representations


class ReprElement(tuple):
    """(coeff, mono, pos): the symbolic product coeff * mono * b_pos."""

    __slots__ = ()

    def __new__(cls, coeff: int, mono: Monomial, pos: int):
        return tuple.__new__(cls, (coeff, mono, pos))

    @property
    def coeff(self) -> int:
        return self[0]

    @property
    def mono(self) -> Monomial:
        return self[1]

    @property
    def pos(self) -> int:
        return self[2]


class Representation:
    """A finite sum of elements with pairwise-distinct (mono, pos) keys.

    The elements never change, so ``ordered_form`` sorts them once per
    snapshot and keeps that order in ``_form``.
    """

    __slots__ = ("elements", "_form", "_form_snap")

    def __init__(self, elements: Iterable[ReprElement]):
        elems = tuple(elements)
        keys = {(e.mono.exps, e.pos) for e in elems}
        if len(keys) != len(elems):
            raise ValueError("representation has duplicate (monomial, element) pairs")
        self.elements = elems
        self._form_snap = None

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other) -> bool:
        return isinstance(other, Representation) and set(self.elements) == set(
            other.elements
        )

    def __repr__(self) -> str:
        return f"Representation({list(self.elements)!r})"


def element_sig(e: ReprElement, snap: GgSnapshot) -> Signature:
    return sig_mul(e.mono, snap.lp(e.pos).sig)


def element_head(e: ReprElement, snap: GgSnapshot) -> Monomial:
    return e.mono.mul(snap.lp(e.pos).poly.head_mono)


def elem_cmp(e1: ReprElement, e2: ReprElement, snap: GgSnapshot) -> Optional[int]:
    """Element order: by multiplied signature, then by earlier creation
    position (the opposite direction); None when only coefficients differ."""
    c = sig_cmp(element_sig(e1, snap), element_sig(e2, snap), snap.order)
    if c != EQ:
        return c
    if e1.pos != e2.pos:
        return GT if e1.pos < e2.pos else LT
    return None


def ordered_form(r: Representation, snap: GgSnapshot) -> list[ReprElement]:
    """Elements sorted descending; total within one valid representation.

    Returns a fresh list; the sort runs once per representation and snapshot.
    """
    if r._form_snap is not snap:
        r._form = tuple(
            sorted(
                r.elements,
                key=lambda e: (sig_key(element_sig(e, snap), snap.order), -e.pos),
                reverse=True,
            )
        )
        r._form_snap = snap
    return list(r._form)


INCOMPARABLE = None


def repr_cmp(r1: Representation, r2: Representation, snap: GgSnapshot) -> Optional[int]:
    """Lexicographic extension of the element order to ordered forms.

    A strict prefix is smaller; forms whose greatest differing elements differ
    only in the field coefficient are incomparable (returns None).
    """
    f1 = ordered_form(r1, snap)
    f2 = ordered_form(r2, snap)
    for e1, e2 in zip(f1, f2):
        if e1 == e2:
            continue
        if e1.mono == e2.mono and e1.pos == e2.pos:
            return INCOMPARABLE
        return elem_cmp(e1, e2, snap)
    if len(f1) == len(f2):
        return EQ
    return LT if len(f1) < len(f2) else GT


def repr_value(r: Representation, snap: GgSnapshot) -> Polynomial:
    """The polynomial the representation sums to, built in one pass."""
    return snap.ring.poly(
        (e.coeff * c, m.mul(e.mono))
        for e in r.elements
        for c, m in snap.lp(e.pos).poly.terms
    )


def repr_sum_check(r: Representation, target: Polynomial, snap: GgSnapshot) -> bool:
    return repr_value(r, snap) == target


def input_representation(pos: int, snap: GgSnapshot) -> Representation:
    """The representation of b_pos over the input polynomials, expanded from
    its module vector; its greatest element carries exactly the signature."""
    triples = _mv_input_triples(snap.lp(pos), snap.order)
    return Representation(
        ReprElement(c, m, snap.input_pos[idx]) for c, m, idx in triples
    )


def _element_input_triples(
    snap: GgSnapshot, coeff: int, t: Monomial, pos: int
) -> list[tuple[int, Monomial, int]]:
    """Input triples of coeff * t * b_pos: (coeff, mono, input index), greatest
    signature first (unique by admissibility)."""
    p = snap.ring.p
    base = _mv_input_triples(snap.entries[pos], snap.order)
    return [(coeff * c % p, t.mul(m), idx) for c, m, idx in base]


# ---------------------------------------------------------------------------
# property scan


def violated_property(
    r: Representation, mh_sig: Signature, mh_hm: Monomial, snap: GgSnapshot
) -> Optional[tuple[str, ReprElement]]:
    """First violated target property, scanning elements in ordered form.

    P1/P2 are checked per element; P3 fires only after every element passed
    both, and selects the greatest element attaining the maximal head."""
    order = snap.order
    form = ordered_form(r, snap)
    for e in form:
        if sig_cmp(element_sig(e, snap), mh_sig, order) == GT:
            raise NotSignatureSafe(f"element {e!r} exceeds the target signature")
    for e in form:
        if snap.f5_satisfied(e.mono, e.pos):
            return ("P1", e)
        if snap.rewritten_satisfied(e.mono, e.pos) is not None:
            return ("P2", e)
    if not form:
        return None
    m_max = None
    for e in form:
        h = element_head(e, snap)
        if m_max is None or order.cmp(h, m_max) == GT:
            m_max = h
    if order.cmp(m_max, mh_hm) != GT:
        return None
    for e in form:
        if element_head(e, snap) == m_max:
            return ("P3", e)
    raise AssertionError("unreachable")


def substitute_and_combine(
    r: Representation,
    K: ReprElement,
    replacement: Iterable[tuple[int, Monomial, int]],
    p: int,
) -> Representation:
    """Remove K, union the replacement, merge duplicate (mono, pos) keys by
    coefficient addition and drop zeros; may produce the empty representation."""
    acc: dict[tuple, list] = {}
    for e in r.elements:
        if e == K:
            continue
        acc[(e.mono.exps, e.pos)] = [e.coeff, e.mono, e.pos]
    for c, m, pos in replacement:
        key = (m.exps, pos)
        if key in acc:
            acc[key][0] = (acc[key][0] + c) % p
        else:
            acc[key] = [c % p, m, pos]
    return Representation(
        ReprElement(c, m, pos) for c, m, pos in acc.values() if c % p != 0
    )


def _finish_substitution(
    r: Representation,
    K: ReprElement,
    replacement: Iterable[tuple[int, Monomial, int]],
    snap: GgSnapshot,
) -> Representation:
    new = substitute_and_combine(r, K, replacement, snap.ring.p)
    verdict = repr_cmp(new, r, snap)
    if verdict != LT:
        raise DescentError(f"rewrite failed to decrease the representation ({verdict})")
    return new


# ---------------------------------------------------------------------------
# the three rewrites


def rewrite_f5_case(r: Representation, K: ReprElement, snap: GgSnapshot) -> Representation:
    """Replace an element whose shifted signature is reducible by the next
    basis: push the reduction into its input representation."""
    p = snap.ring.p
    lp = snap.lp(K.pos)
    triples = _element_input_triples(snap, K.coeff, K.mono, K.pos)
    c0, s0, j0 = triples[0][0], triples[0][1], triples[0][2]
    divisor_pos = None
    for head, pos in snap.phi_heads(j0):
        if head.divides(s0):
            divisor_pos = pos
            break
    if divisor_pos is None:
        raise NoDivisorFound(
            f"no basis head above index {j0} divides the shifted signature {s0!r}"
        )
    b = snap.lp(divisor_pos)
    s1 = s0.divide(b.poly.head_mono)
    fj_pos = snap.input_pos[j0]
    fj = snap.lp(fj_pos).poly
    replacement: list[tuple[int, Monomial, int]] = []
    for c, m in fj.terms:
        replacement.append((c0 * c % p, s1.mul(m), divisor_pos))
    for c, m in b.poly.terms[1:]:
        replacement.append(((-c0 * c) % p, s1.mul(m), fj_pos))
    for c, m, idx in triples[1:]:
        replacement.append((c, m, snap.input_pos[idx]))
    return _finish_substitution(r, K, replacement, snap)


def rewrite_rewritten_case(
    r: Representation, K: ReprElement, snap: GgSnapshot
) -> Representation:
    """Replace an element rewritable by a newer rule with the rewriter (or,
    when the rewriter reduced to zero, with its syzygy expansion)."""
    p = snap.ring.p
    lp = snap.lp(K.pos)
    triples = _element_input_triples(snap, K.coeff, K.mono, K.pos)
    c0, s0, j0 = triples[0]
    rw_pos = snap.rewritten_satisfied(K.mono, K.pos)
    if rw_pos is None:
        raise RewriterNotFound(f"element {K!r} is not rewritten by any newer rule")
    rw = snap.entries[rw_pos]
    s_prime = s0.divide(rw.sig.mono)
    if s_prime is None:
        raise RewriterNotFound("rewriter signature does not divide the element's")
    rw_triples = _element_input_triples(snap, 1, s_prime, rw_pos)
    c_prime, head_mono, head_idx = rw_triples[0]
    if head_mono != s0 or head_idx != j0:
        raise RewriterNotFound("rewriter expansion does not lead with the signature")
    c_fix = c0 * snap.ring.inv(c_prime) % p
    replacement: list[tuple[int, Monomial, int]] = []
    if not rw.poly.is_zero:
        if rw_pos not in snap.member_set:
            raise RewriterNotFound(f"nonzero rewriter r{rw_pos} missing from the basis")
        replacement.append((c_fix, s_prime, rw_pos))
    for c, m, idx in rw_triples[1:]:
        replacement.append(((-c_fix * c) % p, m, snap.input_pos[idx]))
    for c, m, idx in triples[1:]:
        replacement.append((c, m, snap.input_pos[idx]))
    return _finish_substitution(r, K, replacement, snap)


def _trail_contributions(snap: GgSnapshot, pos: int) -> tuple[int, list]:
    """Decompose the stored reduction of ``pos``: final = alpha * creation -
    sum of c * t * poly(reductor).  Returns (alpha, [(c, t, reductor), ...])."""
    p = snap.ring.p
    alpha = 1
    contribs: list[list] = []
    for step in snap.trails.get(pos, []):
        if step[0] == "monic":
            s = step[1]
            alpha = alpha * s % p
            for entry in contribs:
                entry[0] = entry[0] * s % p
        else:
            contribs.append([step[1], Monomial(step[2]), step[3]])
    return alpha, contribs


def rewrite_hm_case(
    r: Representation, K_prime: ReprElement, snap: GgSnapshot
) -> Representation:
    """Cancel the top head via the completed S-pair of the two greatest
    elements attaining it, replayed from the stored reduction trail."""
    p = snap.ring.p
    order = snap.order
    m_max = element_head(K_prime, snap)
    form = ordered_form(r, snap)
    h_max = [e for e in form if element_head(e, snap) == m_max]
    if not h_max or h_max[0] != K_prime:
        raise DescentError("P3 rewrite must start from the greatest head attainer")
    if len(h_max) < 2:
        raise DescentError("maximal head is attained once; the sum cannot cancel it")
    K2 = h_max[1]
    b1, b2 = snap.lp(K_prime.pos), snap.lp(K2.pos)
    m_gcd = K_prime.mono.gcd(K2.mono)
    u1 = K_prime.mono.divide(m_gcd)
    u2 = K2.mono.divide(m_gcd)
    sigma = sig_mul(u1, b1.sig)
    if sig_cmp(sigma, sig_mul(u2, b2.sig), order) != GT:
        raise DescentError("S-pair of the head pair has no strict greater part")
    e_pos = None
    for pos in snap.members:
        gen = snap.entries[pos].genealogy
        if gen is None:
            continue
        if (
            gen.greater == K_prime.pos
            and gen.smaller == K2.pos
            and gen.u_over == u1
            and gen.u_under == u2
        ):
            e_pos = pos
            break
    if e_pos is None:
        raise TrailNotFound(
            f"no completed S-polynomial of r{K_prime.pos}, r{K2.pos} in the basis"
        )
    q_raw = poly_axpy(b1.poly.term_mul(1, u1), 1, u2, b2.poly)
    creation = snap.creation_polys[e_pos]
    if q_raw.is_zero or creation.is_zero:
        raise TrailNotFound("completed S-polynomial collapsed to zero")
    lc_raw = q_raw.head_coeff
    alpha, contribs = _trail_contributions(snap, e_pos)
    # final(e) = alpha * creation - sum(contribs); creation = q_raw / lc_raw
    gamma = lc_raw * snap.ring.inv(alpha) % p
    one = snap.ring.one_mono()
    replacement: list[tuple[int, Monomial, int]] = [
        (K_prime.coeff, K2.mono, K2.pos),
        (K_prime.coeff * gamma % p, m_gcd.mul(one), e_pos),
    ]
    for c, t, red_pos in contribs:
        replacement.append(
            (K_prime.coeff * gamma * c % p, m_gcd.mul(t), red_pos)
        )
    return _finish_substitution(r, K_prime, replacement, snap)


# ---------------------------------------------------------------------------
# descent


@dataclass
class DescentResult:
    representation: Representation
    steps: list[dict] = field(default_factory=list)

    @property
    def step_count(self) -> int:
        return sum(1 for s in self.steps if s["kind"] == "DescentStep")


def descend(
    coeff: int,
    t: Monomial,
    h_pos: int,
    snap: GgSnapshot,
    step_cap: int = 10**5,
) -> DescentResult:
    """Rewrite coeff * t * b_h until no property is violated.

    Every step must strictly decrease the representation order, preserve the
    represented value, and stay signature-safe; a cap overrun is an internal
    bug surfaced with the full log, never a silent loop."""
    if step_cap <= 0:
        raise ValueError("step_cap must be positive")
    h = snap.lp(h_pos)
    mh_sig = sig_mul(t, h.sig)
    if sig_cmp(mh_sig, snap.g_sig, snap.order) != LT:
        raise NotSignatureSafe("descent target must sit strictly below the snapshot signature")
    target = h.poly.term_mul(coeff, t)
    mh_hm = t.mul(h.poly.head_mono)
    rep = Representation([ReprElement(coeff % snap.ring.p, t, h_pos)])
    log: list[dict] = []
    for step in range(step_cap):
        violation = violated_property(rep, mh_sig, mh_hm, snap)
        if violation is None:
            log.append({"kind": "DescentDone", "step": step, "size": len(rep)})
            return DescentResult(rep, log)
        which, element = violation
        if which == "P1":
            new = rewrite_f5_case(rep, element, snap)
        elif which == "P2":
            new = rewrite_rewritten_case(rep, element, snap)
        else:
            new = rewrite_hm_case(rep, element, snap)
        if not repr_sum_check(new, target, snap):
            raise DescentError("rewrite changed the represented value")
        log.append(
            {
                "kind": "DescentStep",
                "step": step,
                "violated": which,
                "element": [element.coeff, list(element.mono.exps), element.pos],
                "size": len(new),
            }
        )
        rep = new
    raise StepCapExceeded(f"descent did not finish within {step_cap} steps", log)


def find_unrejected_reductor(
    f_pos: int, fprime_pos: int, snap: GgSnapshot, step_cap: int = 10**5
) -> tuple[Monomial, int, DescentResult]:
    """Descend the multiplied earlier element and pick the element matching
    the target head: a reductor no criterion rejects."""
    f = snap.lp(f_pos)
    fp = snap.lp(fprime_pos)
    t = f.poly.head_mono.divide(fp.poly.head_mono)
    if t is None:
        raise ValueError("earlier head does not divide the later head")
    result = descend(1, t, fprime_pos, snap, step_cap)
    target_head = f.poly.head_mono
    for e in ordered_form(result.representation, snap):
        if element_head(e, snap) == target_head:
            return e.mono, e.pos, result
    raise NoHeadMatch("no element of the final representation achieves the head")


def reductor_passes_engine_checks(
    snap: GgSnapshot, cand_mono: Monomial, cand_pos: int, f_pos: int
) -> Optional[str]:
    """Independent evaluation of checks (a)-(d) for the found reductor against
    f; returns the failing check name or None when all four pass."""
    f = snap.lp(f_pos)
    cand = snap.lp(cand_pos)
    u = f.poly.head_mono.divide(cand.poly.head_mono)
    if u is None or u != cand_mono:
        return "a"
    if snap.f5_satisfied(u, cand_pos):
        return "b"
    if snap.rewritten_satisfied(u, cand_pos) is not None:
        return "c"
    msig = sig_mul(u, cand.sig)
    if msig == f.sig:
        return "d"
    return None


# ---------------------------------------------------------------------------
# Buchberger reference and ideal comparison


def _spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    ring = f.ring
    t = f.head_mono.lcm(g.head_mono)
    uf = t.divide(f.head_mono)
    ug = t.divide(g.head_mono)
    a = f.term_mul(ring.inv(f.head_coeff), uf)
    return poly_axpy(a, ring.inv(g.head_coeff), ug, g)


def buchberger(inputs: Sequence[Polynomial]) -> list[Polynomial]:
    """Reduced monic Groebner basis by Buchberger's algorithm with the
    Gebauer-Moeller pair update (Gebauer & Moeller, JSC 6, 1988; Becker &
    Weispfenning, *Groebner Bases*, 5.5, UPDATE).

    Pairs are taken by the normal strategy: smallest lcm first.  The update
    shares no code with the engine's criteria, so the reference stays
    independent of what it checks.
    """
    work = [f.monic() for f in inputs if not f.is_zero]
    if not work:
        return []
    key = work[0].ring.order.key
    basis: list[Polynomial] = []
    live: list[int] = []  # positions in the current basis G, ascending
    pending: dict[tuple[int, int], Monomial] = {}  # live pairs -> lcm
    # keyed by (lcm degree, lcm in the order, (i, j)); no two keys are equal,
    # so the pops come in the order a full sort would give.  Entries whose
    # pair the update dropped stay in the heap and are skipped when popped.
    heap: list[tuple] = []

    def update(h: Polynomial) -> None:
        k = len(basis)
        basis.append(h)
        hm = h.head_mono
        new = [(i, hm.lcm(basis[i].head_mono)) for i in live]
        # chain criterion among the new pairs: keep one pair per minimal
        # lcm; a pair with coprime heads is kept here, so that it can
        # still drop others, and discarded below
        kept: list[tuple[int, Monomial, bool]] = []
        for n, (i, t) in enumerate(new):
            coprime = t.deg == hm.deg + basis[i].head_mono.deg  # gcd of heads is 1
            if coprime or not (
                any(t2.divides(t) for _, t2 in new[n + 1:])
                or any(t2.divides(t) for _, t2, _ in kept)
            ):
                kept.append((i, t, coprime))
        # old pairs whose lcm the new head divides, strictly for both new lcms
        for (i, j), t in list(pending.items()):
            if (
                hm.divides(t)
                and hm.lcm(basis[i].head_mono) != t
                and hm.lcm(basis[j].head_mono) != t
            ):
                del pending[(i, j)]
        for i, t, coprime in kept:
            if not coprime:
                pending[(i, k)] = t
                heapq.heappush(heap, (t.deg, key(t), (i, k)))
        live[:] = [i for i in live if not hm.divides(basis[i].head_mono)]
        live.append(k)

    for f in work:
        r = normal_form(f, [basis[i] for i in live])
        if not r.is_zero:
            update(r.monic())
    while heap:
        pair = heapq.heappop(heap)[2]
        if pending.pop(pair, None) is None:
            continue
        r = normal_form(_spoly(basis[pair[0]], basis[pair[1]]), [basis[i] for i in live])
        if not r.is_zero:
            update(r.monic())
    return reduced_basis([basis[i] for i in live])


def reduced_basis(polys: Sequence[Polynomial]) -> list[Polynomial]:
    """Minimal heads, tails fully reduced, monic, sorted by head monomial.

    For a Groebner basis input this is the unique reduced basis."""
    if not polys:
        return []
    ring = polys[0].ring
    work = sorted(
        (p.monic() for p in polys if not p.is_zero),
        key=lambda q: ring.order.key(q.head_mono),
    )
    minimal: list[Polynomial] = []
    for p in work:
        if any(q.head_mono.divides(p.head_mono) for q in minimal):
            continue
        minimal.append(p)
    out = []
    for idx, p in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1:]
        r = normal_form(p, others)
        out.append(r.monic())
    out.sort(key=lambda q: ring.order.key(q.head_mono))
    return out


def ideal_equal(g1: Sequence[Polynomial], g2: Sequence[Polynomial]) -> bool:
    """Mutual membership by normal form: valid when each set is a Groebner
    basis of its own ideal."""
    l1 = [p for p in g1 if not p.is_zero]
    l2 = [p for p in g2 if not p.is_zero]
    if not l1 or not l2:
        return not l1 and not l2
    return all(normal_form(p, l2).is_zero for p in l1) and all(
        normal_form(p, l1).is_zero for p in l2
    )


def spair_exhaustion_check(basis: Sequence[Polynomial]) -> bool:
    """Definitional Groebner test: every S-polynomial reduces to zero."""
    basis = [p for p in basis if not p.is_zero]
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if not normal_form(_spoly(basis[i], basis[j]), basis).is_zero:
                return False
    return True


def find_thm4_pairs_in_snapshot(snap: GgSnapshot) -> list[tuple[int, int]]:
    """Pairs (earlier, later) of snapshot members with dividing heads, a
    strictly descending head/signature quotient, and dividing signatures."""
    from .poly import MonomialQuotient, quotient_cmp
    from .sig import sig_divides

    order = snap.order
    out = []
    for a_pos in snap.members:
        a = snap.lp(a_pos)
        for b_pos in snap.members:
            if a_pos >= b_pos:
                continue
            b = snap.lp(b_pos)
            if not a.poly.head_mono.divides(b.poly.head_mono):
                continue
            qa = MonomialQuotient(a.poly.head_mono, a.sig.mono)
            qb = MonomialQuotient(b.poly.head_mono, b.sig.mono)
            if quotient_cmp(qa, qb, order) != GT:
                continue
            if not sig_divides(a.sig, b.sig):
                continue
            out.append((a_pos, b_pos))
    return out


def harvest_descent_seeds(result: EngineResult, samples: int, rng) -> list[tuple]:
    """Deterministically sample (snapshot, coeff, mono, position) descent
    seeds: identity multipliers plus single-variable shifts that stay below
    the snapshot signature."""
    seeds = []
    ring = result.ring
    one = ring.one_mono()
    variables = [ring.variable(i) for i in range(ring.n)]
    for record in result.snapshots:
        snap = GgSnapshot.from_result(result, record)
        g_sig = snap.g_sig
        for pos in snap.members:
            if pos == snap.g_pos:
                continue
            lp = snap.lp(pos)
            if sig_cmp(lp.sig, g_sig, snap.order) == LT:
                seeds.append((snap, 1, one, pos))
            for v in variables:
                if sig_cmp(sig_mul(v, lp.sig), g_sig, snap.order) == LT:
                    seeds.append((snap, 1, v, pos))
    if samples and len(seeds) > samples:
        idx = sorted(rng.sample(range(len(seeds)), samples))
        seeds = [seeds[k] for k in idx]
    return seeds


def standard_monomial_count(heads: Sequence[Monomial], n: int, degree: int) -> int:
    """Number of degree-d monomials not divisible by any head: the Hilbert
    function of the quotient by the head ideal."""
    count = 0

    def rec(i: int, remaining: int, exps: list[int]):
        nonlocal count
        if i == n - 1:
            exps.append(remaining)
            m = Monomial(exps)
            if not any(h.divides(m) for h in heads):
                count += 1
            exps.pop()
            return
        for e in range(remaining + 1):
            exps.append(e)
            rec(i + 1, remaining - e, exps)
            exps.pop()

    rec(0, degree, [])
    return count
