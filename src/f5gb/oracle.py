"""Constructive descent on basis representations, plus a Buchberger reference.

A representation writes a multiplied basis element as a sum of coefficient *
monomial * basis-element products over a frozen snapshot of the engine state.
The descent repeatedly rewrites offending elements (shifted-signature
reducible, or rewritable by a newer rule) into strictly smaller
representations until none is left; the final representation yields a
reductor that passes all four engine checks.  A head above the target is not
rewritten: it is reported as the descent's form of a thm5 failure.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Collection, Iterable, Mapping, Optional, Sequence

from .engine import EngineResult
from .poly import (
    EQ,
    GT,
    LT,
    Monomial,
    MonomialQuotient,
    Polynomial,
    Ring,
    normal_form,
    poly_axpy,
    quotient_cmp,
)
from .sig import (
    LabeledPolynomial,
    ModuleVector,
    Signature,
    input_representation as _mv_input_triples,
    sig_cmp,
    sig_divides,
    sig_key,
    sig_mul,
)
from .trace import InsertionView, Registry, in_scope, membership_at


class DescentError(Exception):
    pass


class NotSignatureSafe(DescentError):
    pass


class NoDivisorFound(DescentError):
    pass


class RewriterNotFound(DescentError):
    pass


class NoHeadMatch(DescentError):
    """No final-representation element achieves the target head monomial."""


class StepCapExceeded(DescentError):
    def __init__(self, message: str, log: list):
        super().__init__(message)
        self.log = log


# ---------------------------------------------------------------------------
# snapshots


class GgSnapshot(InsertionView):
    """Basis state frozen at one Done insertion: the ``InsertionView`` of the
    reductor checks, plus the polynomials, module vectors and input
    positions the descent rewrites with.

    ``entries`` gives each position's ``LabeledPolynomial``, and ``vectors``
    its module vector (``sig.replay_vectors``).  ``members`` lists the
    positions of G ∪ Done ascending by creation order; representation
    elements refer to these positions directly (the list is creation-ordered,
    so position comparison doubles as list-rank comparison).  ``input_pos``
    maps an input index to the position of its input polynomial.
    ``input_triples`` caches each position's expansion over the inputs, which
    the rewrites ask for again and again, in ``triples``: an expansion reads
    only the position's vector, so the snapshots of one run, which share
    their vectors, can share one cache.
    """

    def __init__(
        self,
        ring: Ring,
        entries: Sequence[LabeledPolynomial] | dict[int, LabeledPolynomial],
        members: Sequence[int],
        g_pos: int,
        rules: dict[int, Sequence[tuple[int, Monomial, int]]],
        seq: int,
        input_pos: dict[int, int],
        vectors: Mapping[int, ModuleVector],
        triples: Optional[dict[int, list[tuple[int, Monomial, int]]]] = None,
    ):
        super().__init__(entries, members, g_pos, rules, seq)
        self.ring = ring
        self.order = ring.order
        self.member_set = set(self.members)
        self.input_pos = input_pos
        self.vectors = vectors
        g = self.entries[g_pos]  # inserted by the call of its index
        self.g_scope = (sig_key(g.sig, self.order), g.poly.head_mono.deg)
        self._triples = {} if triples is None else triples

    @classmethod
    def from_result(cls, result: EngineResult, registry: Registry, seq: int,
                    vectors: Mapping[int, ModuleVector],
                    triples: Optional[dict] = None) -> "GgSnapshot":
        """The snapshot of the ``DoneInserted`` event at ``seq``; ``registry``
        is built from ``result.events``, and ``vectors`` replayed from them.
        The snapshot shares ``result.R``, whose element at each position is
        the one created there, the registry's rule tables, ``vectors``, and
        the cache ``triples`` of input expansions when one is given."""
        done = result.events[seq]
        return cls(
            ring=result.ring,
            entries=result.R,
            members=membership_at(registry, done["call"], seq) + [done["pos"]],
            g_pos=done["pos"],
            rules=registry.rules,
            seq=seq,
            input_pos={call: begin["input_pos"] for call, begin in registry.calls.items()},
            vectors=vectors,
            triples=triples,
        )

    def lp(self, pos: int) -> LabeledPolynomial:
        return self.entries[pos]

    def input_triples(self, pos: int) -> list[tuple[int, Monomial, int]]:
        """(coeff, mono, input index) of b_pos over the inputs, greatest
        signature first (``sig.input_representation``); cached."""
        triples = self._triples.get(pos)
        if triples is None:
            triples = self._triples[pos] = _mv_input_triples(self.vectors[pos])
        return triples

    def target(self, t: Monomial, pos: int) -> tuple[tuple, int]:
        """(signature key, degree) of t * b_pos, the arguments of
        ``trace.in_scope`` that depend on the target; no ``Signature`` is
        built.  Snapshots of one run share their entries, so it is the same
        in all of them."""
        e = self.entries[pos]
        mono = e.sig.mono
        key = (-e.sig.index, self.order.key(mono if t.is_one else t.mul(mono)))
        return key, t.deg + e.poly.head_mono.deg

    def in_scope(self, t: Monomial, pos: int) -> bool:
        """Whether t * b_pos is in scope at the snapshot's insertion, by the
        rule of the thm5 check (``trace.in_scope``)."""
        return in_scope(*self.target(t, pos), *self.g_scope)


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
        keys = {(e.mono.v, e.pos) for e in elems}
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
    Each key is ``sig_key`` of the multiplied signature flattened with -pos,
    computed with no ``Signature`` built.
    """
    if r._form_snap is not snap:
        entries, key = snap.entries, snap.order.key

        def elem_key(e: ReprElement) -> tuple:
            s = entries[e.pos].sig
            return (-s.index, key(e.mono.mul(s.mono)), -e.pos)

        r._form = tuple(sorted(r.elements, key=elem_key, reverse=True))
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
    """The polynomial the representation sums to, built in one pass by
    ``Ring.product_sum``: its terms are summed on packed monomials and
    sorted once, so the elements need no order of their own."""
    entries = snap.entries
    return snap.ring.product_sum((c, t, entries[pos].poly) for c, t, pos in r.elements)


def repr_sum_check(r: Representation, target: Polynomial, snap: GgSnapshot) -> bool:
    return repr_value(r, snap) == target


def input_representation(pos: int, snap: GgSnapshot) -> Representation:
    """The representation of b_pos over the input polynomials, expanded from
    its module vector; its greatest element carries exactly the signature."""
    return Representation(
        ReprElement(c, m, snap.input_pos[idx]) for c, m, idx in snap.input_triples(pos)
    )


def _element_input_triples(
    snap: GgSnapshot, coeff: int, t: Monomial, pos: int
) -> list[tuple[int, Monomial, int]]:
    """Input triples of coeff * t * b_pos: (coeff, mono, input index), greatest
    signature first (unique by admissibility)."""
    p = snap.ring.p
    return [(coeff * c % p, t.mul(m), idx) for c, m, idx in snap.input_triples(pos)]


# ---------------------------------------------------------------------------
# property scan


def violated_property(
    r: Representation, mh_sig: Signature, mh_hm: Monomial, snap: GgSnapshot
) -> Optional[tuple[str, ReprElement]]:
    """First violated target property, scanning elements in ordered form:
    P1 (shifted signature reducible) or P2 (rewritable by a newer rule).

    When every element passes both, no element's head may exceed the
    target's (P3).  Let K' = m*u1*b1 and K2 = m*u2*b2 be the two greatest
    elements attaining the maximal head.  Their S-pair was
    - completed: ``_spol`` added the rule (u1*sig(b1), e) when it created e,
      with e > b1, so ``rewritten_satisfied(K')`` holds and P2 fires first;
      the rule stays when e reduced to zero;
    - rejected: the F5 and rewritten criteria are monotone under a
      multiple, so P1 or P2 fires on K' or K2;
    - never formed: the pair is out of scope, which ``in_scope`` excludes.
    So on a log whose ``thm5_exhaustive`` check passes P3 never fires in
    scope.  When it does, that is the descent's form of a thm5 failure, and
    a ``DescentError`` names the head pair."""
    order = snap.order
    form = ordered_form(r, snap)
    # the form descends, so its first element has the greatest signature
    if form and sig_cmp(element_sig(form[0], snap), mh_sig, order) == GT:
        raise NotSignatureSafe(f"element {form[0]!r} exceeds the target signature")
    for e in form:
        if snap.f5_satisfied(e.mono, e.pos):
            return ("P1", e)
        if snap.rewritten_satisfied(e.mono, e.pos) is not None:
            return ("P2", e)
    if not form:
        return None
    heads = [(element_head(e, snap), e) for e in form]
    m_max = max((h for h, _ in heads), key=order.key)
    if order.cmp(m_max, mh_hm) != GT:
        return None
    names = snap.ring.names
    top = [f"{e.coeff}*{e.mono.text(names)}*r{e.pos}" for h, e in heads if h == m_max]
    attained = f"only by {top[0]}" if len(top) == 1 else f"by the head pair {top[0]}, {top[1]}"
    raise DescentError(
        f"P3: head {m_max.text(names)} above the target head {mh_hm.text(names)} is"
        f" attained {attained}, with no element F5-rejectable or rewritable"
        " (a thm5 failure)"
    )


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
        acc[(e.mono.v, e.pos)] = [e.coeff, e.mono, e.pos]
    for c, m, pos in replacement:
        key = (m.v, pos)
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
# the two rewrites


def rewrite_f5_case(r: Representation, K: ReprElement, snap: GgSnapshot) -> Representation:
    """Replace an element whose shifted signature is reducible by the next
    basis: push the reduction into its input representation."""
    p = snap.ring.p
    triples = _element_input_triples(snap, K.coeff, K.mono, K.pos)
    c0, s0, j0 = triples[0]
    divisor_pos = snap.phi_divisor(j0, s0)
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
    """Rewrite coeff * t * b_h, a target in scope at the snapshot's
    insertion (``GgSnapshot.in_scope``), until no property is violated.

    Every step must strictly decrease the representation order, preserve the
    represented value, and stay signature-safe; a head above the target's
    raises (``violated_property``), and a cap overrun is an internal bug
    surfaced with the full log, never a silent loop."""
    if step_cap <= 0:
        raise ValueError("step_cap must be positive")
    if not snap.in_scope(t, h_pos):
        raise NotSignatureSafe(
            "descent target out of scope: its signature is not below the inserted"
            " element's, or in the inserting call's index its degree exceeds the head's"
        )
    h = snap.lp(h_pos)
    mh_sig = sig_mul(t, h.sig)
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
        rewrite = rewrite_f5_case if which == "P1" else rewrite_rewritten_case
        new = rewrite(rep, element, snap)
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
    """Checks (a)-(d) for the found reductor cand_mono * b_cand against f,
    evaluated on the snapshot's view of the basis; returns the failing check
    name or None when all four pass."""
    f = snap.lp(f_pos)
    if cand_mono.mul(snap.lp(cand_pos).head) != f.head:
        return "a"
    return snap.failed_check(cand_pos, f.head, f.sig)


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
    """Whether two Groebner bases generate the same ideal.

    Both sets must reduce to the same basis ``R`` (``reduced_basis``), and
    every element of either set must have normal form zero modulo ``R``.
    ``reduced_basis`` drops an element whose head an earlier head divides
    without showing that it lies in the ideal, so the membership half is
    what catches a stray redundant element: ``[x^2, x^2 + y]`` and
    ``[x^2]`` reduce alike but generate different ideals.  A true verdict
    means ``(g1) = (R) = (g2)``.  When each set is a Groebner basis of its
    own ideal the converse holds too: ``R`` is then the unique reduced
    Groebner basis and every ideal element reduces to zero modulo it."""
    r1 = reduced_basis(g1)
    return r1 == reduced_basis(g2) and all(normal_form(p, r1).is_zero for p in [*g1, *g2])


def find_thm4_pairs_in_snapshot(
    snap: GgSnapshot, old: Collection[int] = ()
) -> list[tuple[int, int]]:
    """Pairs (earlier, later) of snapshot members with dividing heads, a
    strictly descending head/signature quotient, and dividing signatures.

    Pairs of two members in ``old`` are skipped.  A pair's test reads only
    its two elements, and members only grow from one snapshot of a run to
    the next, so passing the previous snapshot's members as ``old`` reports
    each pair once, at the first snapshot that holds both."""
    order = snap.order
    out = []
    for a_pos in snap.members:
        a = snap.lp(a_pos)
        a_old = a_pos in old
        for b_pos in snap.members:
            if a_pos >= b_pos or a_old and b_pos in old:
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


def done_snapshots(
    result: EngineResult, registry: Registry, vectors: Mapping[int, ModuleVector]
) -> list[GgSnapshot]:
    """One snapshot per Done insertion of the run, in log order; ``registry``
    is built from ``result.events``, and ``vectors`` replayed from them.  The
    snapshots share one cache of input expansions."""
    triples: dict[int, list[tuple[int, Monomial, int]]] = {}
    return [
        GgSnapshot.from_result(result, registry, seq, vectors, triples)
        for done in registry.insertions.values()
        for seq, _ in done
    ]


def harvest_descent_seeds(snapshots: Sequence[GgSnapshot], samples: int, rng) -> list[tuple]:
    """Deterministically sample (snapshot, coeff, mono, position) descent
    seeds: identity multipliers plus single-variable shifts of the members
    whose target is in scope at the snapshot's insertion.

    A target's signature key and degree (``GgSnapshot.target``) are the same
    in every snapshot that shares its entries, so each is computed once."""
    seeds = []
    entries = None
    for snap in snapshots:
        if snap.entries is not entries:  # a new run: new multipliers and targets
            entries, ring = snap.entries, snap.ring
            multipliers = [ring.one_mono()] + [ring.variable(i) for i in range(ring.n)]
            targets: dict[tuple[int, int], tuple] = {}  # (pos, k) -> target of t_k * b_pos
        for pos in snap.members:
            if pos == snap.g_pos:
                continue
            for k, t in enumerate(multipliers):
                target = targets.get((pos, k))
                if target is None:
                    target = targets[(pos, k)] = snap.target(t, pos)
                if in_scope(*target, *snap.g_scope):
                    seeds.append((snap, 1, t, pos))
    if samples and len(seeds) > samples:
        idx = sorted(rng.sample(range(len(seeds)), samples))
        seeds = [seeds[k] for k in idx]
    return seeds
