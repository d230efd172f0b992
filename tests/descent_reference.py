"""The descent's brute-force reference: each step rebuilds, re-sorts and
re-sums the whole representation.

The element order and its extension to representations are spelled out
here object by object (``elem_cmp``, ``ordered_form``, ``repr_cmp``), as is
the test of P1 and P2 (``f5_rejectable``, ``newer_rewriter``); ``f5gb``
encodes them as int keys (``DescentRun.elem_key``).  ``reference_violation``
scans the full ordered form from the top, ``full_step`` substitutes a
replacement (``substitute_and_combine``) and checks the new representation
by the full representation order, and ``reference_descend`` re-sums every
step's representation (``repr_sum_check``).  ``oracle.descend`` must take
the same steps and reach the same representations and verdicts;
``tests/test_oracle.py`` compares the two.
"""

from __future__ import annotations

from typing import Optional

from f5gb import oracle
from f5gb.oracle import (
    DescentError,
    DescentResult,
    DescentState,
    GgSnapshot,
    NotSignatureSafe,
    Representation,
    ReprElement,
    StepCapExceeded,
    repr_sum_check,
)
from f5gb.poly import EQ, GT, LT, Monomial
from f5gb.sig import Signature, sig_key, sig_mul

from order_reference import mono_cmp, sig_cmp


def element_sig(e: ReprElement, snap: GgSnapshot) -> Signature:
    return sig_mul(e.mono, snap.entries[e.pos].sig)


def element_head(e: ReprElement, snap: GgSnapshot) -> Monomial:
    return e.mono.mul(snap.run.polys[e.pos].head_mono)


def elem_cmp(e1: ReprElement, e2: ReprElement, snap: GgSnapshot) -> Optional[int]:
    """Element order: by multiplied signature, then by earlier creation
    position (the opposite direction); None when only coefficients differ."""
    c = sig_cmp(element_sig(e1, snap), element_sig(e2, snap), snap.run.order)
    if c != EQ:
        return c
    if e1.pos != e2.pos:
        return GT if e1.pos < e2.pos else LT
    return None


def ordered_form(r: Representation, snap: GgSnapshot) -> list[ReprElement]:
    """Elements sorted descending; total within one valid representation.

    Each element is keyed as ``elem_cmp`` orders it: the smaller index, then
    the greater signature monomial, then the earlier position is greater.
    """
    key = snap.run.order.key

    def order_key(e):
        s = element_sig(e, snap)
        return -s.index, key(s.mono), -e.pos

    return sorted(r.elements, key=order_key, reverse=True)


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


def f5_rejectable(t: Monomial, pos: int, snap: GgSnapshot) -> bool:
    """P1: a head of the completed basis for the next index divides the
    shifted signature monomial of t * b_pos."""
    s = sig_mul(t, snap.entries[pos].sig)
    return any(head.divides(s.mono) for head, _ in snap.phi_basis(s.index))


def newer_rewriter(t: Monomial, pos: int, snap: GgSnapshot) -> Optional[int]:
    """P2: the newest owner of a rule logged before the snapshot whose
    monomial divides the shifted signature monomial of t * b_pos, when that
    owner was created after ``pos``; else None."""
    s = sig_mul(t, snap.entries[pos].sig)
    table = snap.rules.get(s.index, ())[:snap.rule_count(s.index)]
    owners = [owner for _, m, owner in table if owner >= pos and m.divides(s.mono)]
    return owners[-1] if owners and owners[-1] != pos else None


def descent_violation(r, mh_sig, mh_hm, snap):
    """``DescentState.violation`` of the representation ``r`` for a target
    of signature ``mh_sig`` and head ``mh_hm``."""
    return DescentState(r.elements, sig_key(mh_sig, snap.run.order), mh_hm, snap).violation()


def substitute_and_combine(r, K, replacement, p):
    """Remove K, union the replacement, merge duplicate (mono, pos) keys by
    coefficient addition and drop zeros; may produce the empty representation."""
    acc = {}
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


def reference_violation(r, mh_sig, mh_hm, snap):
    """``descent_violation`` by a full scan of the ordered form."""
    order = snap.run.order
    form = ordered_form(r, snap)
    if form and sig_cmp(element_sig(form[0], snap), mh_sig, order) == GT:
        raise NotSignatureSafe(f"element {form[0]!r} exceeds the target signature")
    for e in form:
        if f5_rejectable(e.mono, e.pos, snap):
            return ("P1", e)
        if newer_rewriter(e.mono, e.pos, snap) is not None:
            return ("P2", e)
    if not form:
        return None
    heads = [(element_head(e, snap), e) for e in form]
    m_max = max((h for h, _ in heads), key=order.key)
    if mono_cmp(m_max, mh_hm, order) != GT:
        return None
    names = snap.run.ring.names
    top = [f"{e.coeff}*{e.mono.text(names)}*r{e.pos}" for h, e in heads if h == m_max]
    attained = f"only by {top[0]}" if len(top) == 1 else f"by the head pair {top[0]}, {top[1]}"
    raise DescentError(
        f"P3: head {m_max.text(names)} above the target head {mh_hm.text(names)} is"
        f" attained {attained}, with no element F5-rejectable or rewritable"
        " (a thm5 failure)"
    )


def full_step(r, K, replacement, snap):
    """Substitute the replacement for K; the result must be smaller than r
    in the full representation order."""
    new = substitute_and_combine(r, K, replacement, snap.run.ring.p)
    verdict = repr_cmp(new, r, snap)
    if verdict != LT:
        raise DescentError(f"rewrite failed to decrease the representation ({verdict})")
    return new


# the replacements are looked up on the module, so a test that plants a bad
# one in ``oracle`` plants it here too


def rewrite_f5_case(r, K, snap):
    return full_step(r, K, oracle.f5_replacement(K, snap), snap)


def rewrite_rewritten_case(r, K, snap):
    return full_step(r, K, oracle.rewritten_replacement(K, snap), snap)


def reference_start(coeff, t, h_pos, snap):
    """(first representation, target signature, target head, target value)."""
    h, poly = snap.entries[h_pos], snap.run.polys[h_pos]
    rep = Representation([ReprElement(coeff % snap.run.ring.p, t, h_pos)])
    return rep, sig_mul(t, h.sig), t.mul(poly.head_mono), poly.term_mul(coeff, t)


def reference_step(rep, which, K, target, snap):
    """One full step: rewrite K and re-sum the whole new representation."""
    rewrite = rewrite_f5_case if which == "P1" else rewrite_rewritten_case
    new = rewrite(rep, K, snap)
    if not repr_sum_check(new, target, snap):
        raise DescentError("rewrite changed the represented value")
    return new


def reference_descend(coeff, t, h_pos, snap, step_cap=10**5):
    """``descend`` with every step checked in full (scope is not checked)."""
    rep, mh_sig, mh_hm, target = reference_start(coeff, t, h_pos, snap)
    log = []
    for step in range(step_cap):
        violation = reference_violation(rep, mh_sig, mh_hm, snap)
        if violation is None:
            log.append({"kind": "DescentDone", "step": step, "size": len(rep)})
            return DescentResult(rep, log)
        which, element = violation
        rep = reference_step(rep, which, element, target, snap)
        log.append(
            {
                "kind": "DescentStep",
                "step": step,
                "violated": which,
                "element": [element.coeff, list(element.mono.exps), element.pos],
                "size": len(rep),
            }
        )
    raise StepCapExceeded(f"descent did not finish within {step_cap} steps", log)
