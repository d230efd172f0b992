"""The descent's brute-force reference: each step rebuilds, re-sorts and
re-sums the whole representation.

``reference_violation`` scans the full ordered form from the top,
``full_step`` substitutes a replacement (``substitute_and_combine``) and
checks the new representation by the full representation order
(``repr_cmp``), and ``reference_descend``
re-sums every step's representation (``repr_sum_check``).  ``oracle.descend``
must take the same steps and reach the same representations and verdicts;
``tests/test_oracle.py`` compares the two.
"""

from __future__ import annotations

from f5gb import oracle
from f5gb.oracle import (
    GT,
    LT,
    DescentError,
    DescentResult,
    NotSignatureSafe,
    Representation,
    ReprElement,
    StepCapExceeded,
    element_head,
    element_sig,
    ordered_form,
    repr_cmp,
    repr_sum_check,
)
from f5gb.sig import sig_cmp, sig_mul


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
    """``violated_property`` by a full scan of the ordered form."""
    order = snap.order
    form = ordered_form(r, snap)
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


def full_step(r, K, replacement, snap):
    """Substitute the replacement for K; the result must be smaller than r
    in the full representation order."""
    new = substitute_and_combine(r, K, replacement, snap.ring.p)
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
    h = snap.lp(h_pos)
    rep = Representation([ReprElement(coeff % snap.ring.p, t, h_pos)])
    return rep, sig_mul(t, h.sig), t.mul(h.poly.head_mono), h.poly.term_mul(coeff, t)


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
