"""Constructive descent on basis representations, plus a Buchberger reference.

A representation writes a multiplied basis element as a sum of coefficient *
monomial * basis-element products over a snapshot of the basis at one Done
insertion, read off the walk of the run's event log, the ``trace.Registry``
(``done_snapshots``): the registry's elements and rule tables, and the
polynomials and module vectors its replay rebuilt, one per position.
The descent repeatedly rewrites offending elements (shifted-signature
reducible, or rewritable by a newer rule) into strictly smaller
representations until none is left; the final representation yields a
reductor that passes all four engine checks.  The criteria are tested in
one place, ``trace.InsertionView.blocker``, for the descent as for the
insertion audit.  A head above the target is not rewritten: it is reported
as the descent's form of a thm5 failure.

Elements compare by one int each (``DescentRun.elem_key``), and
representations only where a rewrite changes them (``DescentState.rewrite``);
the comparators over objects are the test reference (``descent_reference``).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Collection, Iterable, Optional, Sequence

from .poly import (
    EQ,
    GT,
    LT,
    Lazy,
    Monomial,
    Polynomial,
    normal_form,
    overflow_error,
    poly_axpy,
    quotient_key,
)
from .sig import input_representation, sig_divides, sig_key
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

POS_BITS = 32  # the positions of one run stay below 2^32
POS_MASK = (1 << POS_BITS) - 1


class DescentRun:
    """What the descent snapshots of one run share, read off its
    ``Registry`` once per run by ``done_snapshots``: the registry itself,
    its ring and order, its elements (``entries``) and replayed polynomials
    (``polys``), and the input positions (input index -> position, from
    ``calls``).  The criteria read their heads (``Registry.heads``).

    The rest is computed on first use: ``triples[pos]`` is b_pos over the
    inputs (``sig.input_representation``) from its replayed module vector
    (``Registry.vectors``), whose first read replays the log up to the last
    operation on b_pos; ``key_base`` and ``head_base`` are the per-position
    parts of ``elem_key`` and ``head_key``; ``lead_inverse[pos]`` inverts
    the leading coefficient of b_pos's expansion; ``targets`` is the memo
    of ``target``."""

    __slots__ = ("registry", "ring", "order", "entries", "polys", "input_pos", "vkey", "triples",
                 "key_base", "head_base", "lead_inverse", "targets")

    def __init__(self, registry: Registry):
        self.registry, vectors = registry, registry.vectors
        ring = self.ring = registry.ring
        order = self.order = ring.order
        entries, polys = self.entries, self.polys = registry.entries, registry.polys
        self.input_pos = {call: begin["input_pos"] for call, begin in registry.calls.items()}
        vkey = self.vkey = order.vkey
        key_one = vkey(0)  # the order key of 1
        triples = self.triples = Lazy(lambda pos: input_representation(vectors[pos]))
        self.key_base = Lazy(
            lambda pos: (sig_key(entries[pos].sig, order) - key_one << POS_BITS)
            + POS_MASK - pos
        )
        self.head_base = Lazy(lambda pos: vkey(polys[pos].head_mono.v) - key_one)
        self.lead_inverse = Lazy(lambda pos: ring.inv(triples[pos][0][0]))
        self.targets: dict[tuple[int, int], tuple[int, int]] = {}

    def elem_key(self, t: Monomial, pos: int) -> int:
        """An int ascending in the element order for the element t * b_pos.

        The element order compares the multiplied signatures t * sig(b_pos)
        first, and of two elements with one signature the earlier position
        is greater; the coefficient plays no part.  The key is
        ``sig.sig_key`` of the signature above POS_BITS bits that fall as
        ``pos`` grows, so distinct (t, pos) have distinct keys.

        Signature keys are affine in the monomial, as order keys are in the
        packed value: key(t*s) = key(s) + key(t) - key(1) under all three
        orders.  So the key is one order key of t plus a per-position base,
        ``key_base[pos]``, with no shifted signature built."""
        return (self.vkey(t.v) << POS_BITS) + self.key_base[pos]

    def head_key(self, key: int, pos: int) -> int:
        """The order key of the head of t * b_pos, from its ``elem_key``:
        key(t) is read off the element key, and key(head) added to it."""
        return (key - self.key_base[pos] >> POS_BITS) + self.head_base[pos]

    def target(self, t: Monomial, pos: int) -> tuple[int, int]:
        """(signature key, degree) of t * b_pos, the arguments of
        ``trace.in_scope`` that depend on the target; the key is also the
        target signature of its descent, read off ``elem_key`` after one
        guard test of t * sig(b_pos) that raises ``OverflowError`` as
        ``Monomial.mul`` does.  Kept in ``targets`` under (t.v, pos)."""
        memo = (t.v, pos)
        hit = self.targets.get(memo)
        if hit is None:
            mono = self.entries[pos].sig.mono
            if (t.v + mono.v) & t.lay.guard:
                raise overflow_error(f"product of {t!r} and {mono!r}")
            hit = self.targets[memo] = (self.elem_key(t, pos) >> POS_BITS,
                                        t.deg + self.polys[pos].head_mono.deg)
        return hit


# the descent's name of each check that ``InsertionView.blocker`` returns
_PROPERTY = {"b": "P1", "c": "P2", None: None}


class GgSnapshot(InsertionView):
    """Basis state frozen at one Done insertion: the ``InsertionView`` of the
    reductor checks, with the ``DescentRun`` (``run``) that holds what the
    descent rewrites with.  ``members`` lists the positions of G ∪ Done
    ascending by creation order, so position comparison doubles as
    list-rank comparison.  The snapshot keeps only what its insertion
    fixes: ``member_set``, ``g_scope`` (the inserted element's arguments of
    ``trace.in_scope``) and the memo of ``violated_by``."""

    def __init__(self, run: DescentRun, members: Sequence[int], g_pos: int, seq: int):
        super().__init__(run.registry, members, g_pos, seq)
        self.run = run
        self.member_set = set(self.members)
        # inserted by the call of its index
        self.g_scope = (sig_key(self.entries[g_pos].sig, run.order), self.heads[g_pos].deg)
        self._violated: dict[int, tuple[Optional[str], Optional[int]]] = {}

    @classmethod
    def from_result(cls, run: DescentRun, seq: int, call: int, pos: int) -> "GgSnapshot":
        """The snapshot of the ``DoneInserted`` event at ``seq``, which
        inserts ``pos`` in call ``call`` (an entry of the run's
        ``Registry.insertions``)."""
        return cls(run, membership_at(run.registry, call, seq) + [pos], pos, seq)

    def violated_by(self, key: int, t: Monomial, pos: int) -> tuple[Optional[str], Optional[int]]:
        """("P1", divisor) when t * b_pos is F5-rejectable, ("P2", rewriter)
        when a newer rule rewrites it, else (None, owner): checks (b) and
        (c) of ``blocker`` on its shifted signature.  ``key`` is its
        ``DescentRun.elem_key``, under which the answer is kept."""
        found = self._violated.get(key)
        if found is None:
            sig = self.entries[pos].sig
            check, at = self.blocker(sig.index, t.mul(sig.mono), pos)
            found = self._violated[key] = (_PROPERTY[check], at)
        return found


# ---------------------------------------------------------------------------
# representations


class ReprElement(tuple):
    """(coeff, mono, pos): the symbolic product coeff * mono * b_pos."""

    __slots__ = ()

    def __new__(cls, coeff: int, mono: Monomial, pos: int):
        return tuple.__new__(cls, (coeff, mono, pos))

    coeff = property(itemgetter(0))
    mono = property(itemgetter(1))
    pos = property(itemgetter(2))


_tuple_new = tuple.__new__  # builds a ReprElement without its Python-level __new__


class Representation:
    """A finite sum of elements with pairwise-distinct (mono, pos) keys."""

    __slots__ = ("elements",)

    def __init__(self, elements: Iterable[ReprElement]):
        elems = tuple(elements)
        keys = {(m.v, pos) for _, m, pos in elems}
        if len(keys) != len(elems):
            raise ValueError("representation has duplicate (monomial, element) pairs")
        self.elements = elems

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self) -> str:
        return f"Representation({list(self.elements)!r})"


def repr_sum_check(r: Representation, target: Polynomial, snap: GgSnapshot) -> bool:
    """Whether the representation sums to ``target``.  The sum is built in
    one pass by ``Ring.product_terms`` and compared with ``target`` as
    unordered terms, so nothing is sorted."""
    polys, ring = snap.run.polys, snap.run.ring
    value = ring.product_terms((c, t, polys[pos]) for c, t, pos in r.elements)
    return value == {m.v: c for c, m in target.terms} and ring == target.ring


def _expansion(
    snap: GgSnapshot, coeff: int, t: Monomial, pos: int
) -> tuple[tuple[int, Monomial, int], list[tuple[int, Monomial, int]]]:
    """coeff * t * b_pos over the inputs: its greatest term as (coeff, mono,
    input index), which carries its signature (unique by admissibility),
    and the other terms as representation elements (coeff, mono, input
    position)."""
    run = snap.run
    p, input_pos = run.ring.p, run.input_pos
    triples = run.triples[pos]
    c, m, idx = triples[0]
    rest = [(coeff * c % p, t.mul(m), input_pos[idx]) for c, m, idx in triples[1:]]
    return (coeff * c % p, t.mul(m), idx), rest


# ---------------------------------------------------------------------------
# the two rewrites


def _blocked(
    K: ReprElement, snap: GgSnapshot, which: str
) -> tuple[tuple[int, Monomial, int], list[tuple[int, Monomial, int]], int]:
    """K's expansion (``_expansion``) and the position that makes K violate
    ``which``, read from the snapshot's memo (``GgSnapshot.violated_by``).
    The blocker was found on K's logged signature, so the expansion of its
    position must lead with it."""
    coeff, t, pos = K
    run = snap.run
    sig = snap.entries[pos].sig
    _, m, index = run.triples[pos][0]
    if index != sig.index or m.v != sig.mono.v:
        raise DescentError(f"the expansion of {K!r} does not lead with its signature")
    found, at = snap.violated_by(run.elem_key(t, pos), t, pos)
    if found != which:
        raise (NoDivisorFound if which == "P1" else RewriterNotFound)(
            f"element {K!r} does not violate {which}")
    return (*_expansion(snap, coeff, t, pos), at)


def f5_replacement(K: ReprElement, snap: GgSnapshot) -> list[tuple[int, Monomial, int]]:
    """What replaces an element whose shifted signature is reducible by the
    next basis: the reduction pushed into its input representation."""
    run = snap.run
    p, polys = run.ring.p, run.polys
    (c0, s0, j0), rest, divisor_pos = _blocked(K, snap, "P1")
    # the head that ``blocker`` found dividing s0
    s1 = s0.divide(snap.heads[divisor_pos])
    fj_pos = run.input_pos[j0]
    replacement = [(c0 * c % p, s1.mul(m), divisor_pos) for c, m in polys[fj_pos].terms]
    replacement += [((-c0 * c) % p, s1.mul(m), fj_pos) for c, m in polys[divisor_pos].terms[1:]]
    return replacement + rest


def rewritten_replacement(
    K: ReprElement, snap: GgSnapshot
) -> list[tuple[int, Monomial, int]]:
    """What replaces an element rewritable by a newer rule: the rewriter (or,
    when the rewriter reduced to zero, its syzygy expansion)."""
    run = snap.run
    p = run.ring.p
    (c0, s0, j0), rest, rw_pos = _blocked(K, snap, "P2")
    s_prime = s0.divide(snap.entries[rw_pos].sig.mono)
    if s_prime is None:
        raise RewriterNotFound("rewriter signature does not divide the element's")
    _, head_mono, head_idx = run.triples[rw_pos][0]
    if s_prime.mul(head_mono) != s0 or head_idx != j0:
        raise RewriterNotFound("rewriter expansion does not lead with the signature")
    c_fix = c0 * run.lead_inverse[rw_pos] % p
    replacement: list[tuple[int, Monomial, int]] = []
    if not run.polys[rw_pos].is_zero:
        if rw_pos not in snap.member_set:
            raise RewriterNotFound(f"nonzero rewriter r{rw_pos} missing from the basis")
        replacement.append((c_fix, s_prime, rw_pos))
    replacement += _expansion(snap, -c_fix, s_prime, rw_pos)[1]
    return replacement + rest


# ---------------------------------------------------------------------------
# the representation under descent


class DescentState:
    """A representation under descent, kept from one rewrite to the next,
    and the target's signature and head.

    ``elems`` maps each element's key (``DescentRun.elem_key``, one key per
    (monomial, position)) to the element: a rewrite drops K, updates the
    elements it changes in place, and appends the new ones in the
    replacement's order.  ``keys`` holds the same keys ascending, so the
    ordered form is ``keys`` read from the end.  Every element with a key at
    or above ``cursor`` has passed P1 and P2, so the scan goes on below it;
    None scans from the top.  ``sig`` is the target signature's
    ``sig.sig_key``.
    """

    __slots__ = ("snap", "elems", "keys", "sig_bound", "head", "cursor")

    def __init__(
        self,
        elements: Iterable[ReprElement],
        sig: int,
        head: Monomial,
        snap: GgSnapshot,
    ):
        key = snap.run.elem_key
        self.snap = snap
        self.elems = {key(e[1], e[2]): e for e in elements}
        self.keys = sorted(self.elems)
        self.sig_bound = sig + 1 << POS_BITS  # the least key of a greater signature
        self.head = head
        self.cursor = None

    def __len__(self) -> int:
        return len(self.elems)

    def representation(self) -> Representation:
        return Representation(self.elems.values())

    def violation(self) -> Optional[tuple[str, ReprElement]]:
        """The first violated target property, scanning the elements in
        ordered form: P1 (shifted signature reducible) or P2 (rewritable by
        a newer rule), as (which, element).  An element above the target
        signature raises ``NotSignatureSafe``.  The greatest key is the
        greatest signature, and the P1/P2 scan reads the keys down from
        ``cursor``, with each element's verdict from the snapshot's memo
        (``GgSnapshot.violated_by``).

        When every element passes both, no element's head may exceed the
        target's (P3).  Let K' = m*u1*b1 and K2 = m*u2*b2 be the two greatest
        elements attaining the maximal head.  Their S-pair was
        - completed: ``_spol`` added the rule (u1*sig(b1), e) when it created
          e, with e > b1, so a newer rule rewrites K' and P2 fires first; the
          rule stays when e reduced to zero;
        - rejected: the F5 and rewritten criteria are monotone under a
          multiple, so P1 or P2 fires on K' or K2;
        - never formed: the pair is out of scope, which ``in_scope`` excludes.
        So on a log whose ``thm5_exhaustive`` check passes P3 never fires in
        scope.  When it does, that is the descent's form of a thm5 failure,
        and a ``DescentError`` names the head pair."""
        keys, elems = self.keys, self.elems
        if keys and keys[-1] >= self.sig_bound:
            raise NotSignatureSafe(f"element {elems[keys[-1]]!r} exceeds the target signature")
        violated_by = self.snap.violated_by
        i = len(keys) if self.cursor is None else bisect_left(keys, self.cursor)
        while i:
            i -= 1
            k = keys[i]
            e = elems[k]
            which = violated_by(k, e[1], e[2])[0]
            if which is not None:
                return which, e
        if keys:
            self._check_heads()
        return None

    def _check_heads(self) -> None:
        """Raise when an element's head exceeds the target's (P3)."""
        snap, elems = self.snap, self.elems
        run = snap.run
        head_key, bound = run.head_key, run.vkey(self.head.v)
        if all(head_key(k, elems[k][2]) <= bound for k in self.keys):
            return
        # (head key, element), in the ordered form's order
        heads = [(head_key(k, elems[k][2]), elems[k]) for k in reversed(self.keys)]
        h_max = max(h for h, _ in heads)
        names = run.ring.names
        top = [e for h, e in heads if h == h_max]
        text = [f"{e.coeff}*{e.mono.text(names)}*r{e.pos}" for e in top]
        attained = (f"only by {text[0]}" if len(text) == 1
                    else f"by the head pair {text[0]}, {text[1]}")
        head = top[0].mono.mul(run.polys[top[0].pos].head_mono)
        raise DescentError(
            f"P3: head {head.text(names)} above the target head"
            f" {self.head.text(names)} is attained {attained}, with no element"
            " F5-rejectable or rewritable (a thm5 failure)"
        )

    def rewrite(self, which: str, K: ReprElement) -> None:
        """Replace the element K, violating ``which``, and check the step:
        the representation must decrease, and its value must stay.

        The replacement is merged into a small dict over the keys it touches,
        with K's coefficient gone.  Above the highest key whose coefficient
        changed, the old and the new ordered forms agree, so their
        comparison, lexicographic in the element order, is decided there: the
        element there is gone (LT), the key is new (GT), or both forms hold
        it with different coefficients (None, incomparable); with no key
        changed they are equal (EQ).  Only LT is a decrease.  Every element
        above that key has passed P1 and P2 and stays as it was, so the scan
        goes on below it.  The value stays exactly when the replacement sums
        to K's value, by linearity (``descend``)."""
        snap = self.snap
        run = snap.run
        replace = f5_replacement if which == "P1" else rewritten_replacement
        replacement = replace(K, snap)
        coeff, t, pos = K
        p, elems, keys = run.ring.p, self.elems, self.keys
        k_K = run.elem_key(t, pos)
        vkey, base = run.vkey, run.key_base  # ``elem_key``, inline
        # key -> [new coefficient, old coefficient, mono, pos]; 0 is no element
        merged: dict[int, list] = {}
        for c, m, q in replacement:
            k = (vkey(m.v) << POS_BITS) + base[q]
            cell = merged.get(k)
            if cell is None:
                e = elems.get(k)
                old = 0 if e is None else e[0]
                cell = merged[k] = [0 if k == k_K else old, old, m, q]
            cell[0] = (cell[0] + c) % p
        merged.setdefault(k_K, [0, coeff, t, pos])
        top = max((k for k, (new, old, _, _) in merged.items() if new != old), default=None)
        if top is None:
            verdict = EQ
        else:
            new, old, _, _ = merged[top]
            verdict = LT if not new else GT if not old else None
        if verdict != LT:
            raise DescentError(f"rewrite failed to decrease the representation ({verdict})")
        polys = run.polys
        if run.ring.product_terms(
            [(-coeff, t, polys[pos])] + [(c, m, polys[q]) for c, m, q in replacement]
        ):
            raise DescentError("rewrite changed the represented value")
        del elems[k_K]
        del keys[bisect_left(keys, k_K)]
        for k, (c, _, m, q) in merged.items():
            if k in elems:
                if c:
                    elems[k] = _tuple_new(ReprElement, (c, m, q))
                else:
                    del elems[k]
                    del keys[bisect_left(keys, k)]
            elif c:
                elems[k] = _tuple_new(ReprElement, (c, m, q))
                insort(keys, k)
        self.cursor = top


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
    insertion (``trace.in_scope``), until no property is violated.

    Every step must strictly decrease the representation order, preserve the
    represented value, and stay signature-safe; a head above the target's
    raises (``DescentState.violation``), and a cap overrun is an internal bug
    surfaced with the full log, never a silent loop.

    The representation persists from step to step (``DescentState``), so a
    step costs work in proportion to its replacement, not to the
    representation:
    - value: the replacement minus K must sum to zero, in the exact
      arithmetic of ``Ring.product_sum``.  The first representation is the
      target itself, and the value is linear in the coefficients, so this
      fails at exactly the steps where a full re-sum would.  A descent that
      took a step re-sums its final representation in full once
      (``repr_sum_check``);
    - decrease: the highest key whose coefficient the step changed decides
      the comparison of the two ordered forms (``DescentState.rewrite``), so
      a step fails exactly when the full comparison would fail it;
    - signature safety: the greatest element is checked against the target
      signature before every step."""
    if step_cap <= 0:
        raise ValueError("step_cap must be positive")
    run = snap.run
    key, deg = run.target(t, h_pos)
    if not in_scope(key, deg, *snap.g_scope, run.order):
        raise NotSignatureSafe(
            "descent target out of scope: its signature is not below the inserted"
            " element's, or in the inserting call's index its degree exceeds the head's"
        )
    h = run.polys[h_pos]
    state = DescentState(
        [ReprElement(coeff % run.ring.p, t, h_pos)], key, t.mul(h.head_mono), snap
    )
    log: list[dict] = []
    for step in range(step_cap):
        violation = state.violation()
        if violation is None:
            rep = state.representation()
            if step and not repr_sum_check(rep, h.term_mul(coeff, t), snap):
                raise DescentError("the final representation does not sum to the target")
            log.append({"kind": "DescentDone", "step": step, "size": len(rep)})
            return DescentResult(rep, log)
        which, element = violation
        state.rewrite(which, element)
        c, m, pos = element
        log.append(
            {
                "kind": "DescentStep",
                "step": step,
                "violated": which,
                "element": [c, list(m.exps), pos],
                "size": len(state),
            }
        )
    raise StepCapExceeded(f"descent did not finish within {step_cap} steps", log)


def find_unrejected_reductor(
    f_pos: int, fprime_pos: int, snap: GgSnapshot, step_cap: int = 10**5
) -> tuple[Monomial, int, DescentResult]:
    """Descend the multiplied earlier element and pick, of the elements
    matching the target head, the greatest (``DescentRun.elem_key``): a
    reductor no criterion rejects."""
    polys = snap.run.polys
    target_head = polys[f_pos].head_mono
    t = target_head.divide(polys[fprime_pos].head_mono)
    if t is None:
        raise ValueError("earlier head does not divide the later head")
    result = descend(1, t, fprime_pos, snap, step_cap)
    matches = [e for e in result.representation
               if e.mono.mul(polys[e.pos].head_mono) == target_head]
    if not matches:
        raise NoHeadMatch("no element of the final representation achieves the head")
    e = max(matches, key=lambda e: snap.run.elem_key(e.mono, e.pos))
    return e.mono, e.pos, result


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


def _split_heads(polys: Sequence[Polynomial]) -> tuple[list[Polynomial], list[Polynomial]]:
    """The nonzero polys made monic and sorted by head monomial, split into
    those with minimal heads and those whose head an earlier minimal head
    divides."""
    if not polys:
        return [], []
    key = polys[0].ring.order.key
    work = sorted((p.monic() for p in polys if not p.is_zero), key=lambda q: key(q.head_mono))
    minimal: list[Polynomial] = []
    dropped: list[Polynomial] = []
    for p in work:
        if any(q.head_mono.divides(p.head_mono) for q in minimal):
            dropped.append(p)
        else:
            minimal.append(p)
    return minimal, dropped


def _interreduce(minimal: Sequence[Polynomial]) -> list[Polynomial]:
    """Each element's normal form modulo the others, monic.  No head
    divides another, so every head stays and the order by head is kept."""
    return [
        normal_form(p, [*minimal[:idx], *minimal[idx + 1:]]).monic()
        for idx, p in enumerate(minimal)
    ]


def reduced_basis(polys: Sequence[Polynomial]) -> list[Polynomial]:
    """Minimal heads, tails fully reduced, monic, sorted by head monomial.

    For a Groebner basis input this is the unique reduced basis."""
    return _interreduce(_split_heads(polys)[0])


def ideal_equal(g1: Sequence[Polynomial], g2: Sequence[Polynomial]) -> bool:
    """Whether two Groebner bases generate the same ideal.

    Both sets must reduce to the same basis ``R`` (``reduced_basis``), and
    every element that ``reduced_basis`` drops must have normal form zero
    modulo ``R``.  An element is dropped when an earlier head divides its
    own, without any sign that it lies in the ideal, so this membership
    test is what catches a stray redundant element: ``[x^2, x^2 + y]`` and
    ``[x^2]`` reduce alike but generate different ideals.  A kept element p
    needs no test: its normal form reduces only by elements of smaller
    heads, so p lies in the ideal of the ``R`` elements of its head and
    below, by induction up the heads.  A true verdict means
    ``(g1) = (R) = (g2)``.

    When either set is a Groebner basis, so is ``R`` (as both reduce to
    it), and every element of its ideal reduces to zero modulo it: testing
    the kept elements too could change no verdict.  When each set is a
    Groebner basis of its own ideal the converse holds too: ``R`` is then
    the unique reduced Groebner basis and every ideal element reduces to
    zero modulo it.

    A side that is already reduced (monic, heads strictly ascending, no
    term divisible by another element's head; ``buchberger`` returns one)
    comes back as itself, with nothing dropped, so it costs one scan of its
    terms against the other heads: the sort in ``_split_heads`` is stable
    and the heads already ascend, so the order is kept; ``monic`` returns
    each element itself; no head divides another, so none is dropped; and
    each ``normal_form`` in ``_interreduce`` finds no divisor and returns
    its input (``poly.reduce_with``)."""
    (m1, d1), (m2, d2) = _split_heads(g1), _split_heads(g2)
    r1, r2 = _interreduce(m1), _interreduce(m2)
    return r1 == r2 and all(normal_form(p, r1).is_zero for p in [*d1, *d2])


def find_thm4_pairs_in_snapshot(
    snap: GgSnapshot, old: Collection[int] = ()
) -> list[tuple[int, int]]:
    """Pairs (earlier, later) of snapshot members with dividing heads, a
    strictly descending head/signature quotient (``poly.quotient_key``), and
    dividing signatures.

    Pairs of two members in ``old`` are skipped.  A pair's test reads only
    its two elements, and members only grow from one snapshot of a run to
    the next, so passing the previous snapshot's members as ``old`` reports
    each pair once, at the first snapshot that holds both."""
    order, entries, heads = snap.run.order, snap.entries, snap.heads
    out = []
    for a_pos in snap.members:
        a, ha = entries[a_pos], heads[a_pos]
        a_old = a_pos in old
        qa = quotient_key(ha, a.sig.mono, order)
        for b_pos in snap.members:
            if a_pos >= b_pos or a_old and b_pos in old:
                continue
            b, hb = entries[b_pos], heads[b_pos]
            if not ha.divides(hb):
                continue
            qb = quotient_key(hb, b.sig.mono, order)
            if qb < qa and sig_divides(a.sig, b.sig):
                out.append((a_pos, b_pos))
    return out


def done_snapshots(registry: Registry) -> list[GgSnapshot]:
    """One snapshot per Done insertion of a run, in log order, from its log
    alone, through its walk ``registry`` (``trace.build_registry``).  The
    snapshots share one ``DescentRun`` of the registry, built here."""
    run = DescentRun(registry)
    return [
        GgSnapshot.from_result(run, seq, call, pos)
        for call, done in registry.insertions.items()
        for seq, pos in done
    ]


def harvest_descent_seeds(snapshots: Sequence[GgSnapshot], samples: int, rng) -> list[tuple]:
    """Deterministically sample (snapshot, coeff, mono, position) descent
    seeds: identity multipliers plus single-variable shifts of the members
    whose target is in scope at the snapshot's insertion.

    A target's signature key and degree (``DescentRun.target``) read no
    insertion, so each is looked up in its run's memo, ``targets``, and
    computed once per run."""
    seeds = []
    run = None
    for snap in snapshots:
        if snap.run is not run:  # a new run: its multipliers and target memo
            run = snap.run
            ring, targets, order = run.ring, run.targets, run.order
            multipliers = [ring.one_mono()] + [ring.variable(i) for i in range(ring.n)]
        for pos in snap.members:
            if pos == snap.g_pos:
                continue
            for t in multipliers:
                target = targets.get((t.v, pos))
                if target is None:
                    target = run.target(t, pos)
                if in_scope(*target, *snap.g_scope, order):
                    seeds.append((snap, 1, t, pos))
    if samples and len(seeds) > samples:
        idx = sorted(rng.sample(range(len(seeds)), samples))
        seeds = [seeds[k] for k in idx]
    return seeds
