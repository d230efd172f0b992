"""The original F5 algorithm: incremental driver, degree-stepped main loop,
critical pairs, S-polynomials, reduction with the normal-form pre-step,
top-reduction with checks (a)-(d), and per-index rule tables.

The engine follows the published behavior of the algorithm exactly; every
decision it takes is emitted to the trace so the checkers in ``trace`` can
re-verify the run independently.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import NamedTuple, Optional, Sequence

from .poly import (
    EQ,
    GT,
    Monomial,
    Polynomial,
    Ring,
    is_homogeneous,
    overflow_error,
    packed_monomial,
    poly_axpy,
)
from .sig import (
    LabeledPolynomial,
    ModuleVector,
    Signature,
    check_admissible,
    sig_cmp,
    sig_key,
    sig_mul,
)
from .trace import Trace


_UNSEEN = object()  # a memo miss, where None is a cached answer


class EngineError(Exception):
    pass


class NonHomogeneousInput(EngineError):
    pass


class ZeroInputPolynomial(EngineError):
    pass


class InternalInvariantError(EngineError):
    """A structural invariant the engine relies on was violated."""


class MissingRule(InternalInvariantError):
    """A labeled polynomial has no rule entry: bookkeeping bug."""


class BudgetExceeded(EngineError):
    """A configured pair/degree/step cap was hit.

    Carries the partial trace so the failure is never silent.
    """

    def __init__(self, message: str, events: list, counters: dict):
        super().__init__(message)
        self.events = events
        self.counters = counters


@dataclass
class EngineConfig:
    """Budgets and the optional run-time checks of one engine run.

    ``max_pairs``, ``max_degree`` and ``reduction_step_cap`` bound the run;
    hitting one raises ``BudgetExceeded`` with the partial trace.
    ``self_check`` checks the admissibility of every element at creation.
    Module vectors are carried only under ``self_check``: the admissibility
    check and the descent oracle read them, the algorithm does not.
    Otherwise every element's ``mv`` is None.  The event log is the same
    either way.
    """

    max_pairs: int = 10**6
    max_degree: int = 80
    reduction_step_cap: int = 10**6
    self_check: bool = False


class CriticalPair(NamedTuple):
    t: Monomial
    u1: Monomial
    p1: int  # part with the greater multiplied signature
    u2: Monomial
    p2: int
    degree: int
    sig1: Signature
    sig2: Signature


# each engine counter is the number of logged events of one kind
COUNTED_EVENTS = {
    "pairs_created": "CritPairCreated",
    "f5_rejections": "F5CritPairReject",
    "rewritten_rejections": "RewrittenReject",
    "spol_created": "SPolCreated",
    "new_from_top_reduction": "NewFromTopReduction",
    "reductions_to_zero": "ReductionToZero",
    "reduction_steps": "ReductionStep",
    "phi_steps": "PhiPreReduce",
}


class RuleTable:
    """Per input index, the creation-ordered list of rule entries."""

    def __init__(self, m: int):
        self.tables: dict[int, list[tuple[Monomial, int]]] = {i: [] for i in range(1, m + 1)}

    def add(self, index: int, mono: Monomial, pos: int) -> None:
        self.tables[index].append((mono, pos))

    def find_rewriter(self, index: int, target: Monomial) -> int:
        """Newest rule whose monomial divides ``target``; its owner rewrites."""
        for mono, pos in reversed(self.tables[index]):
            if mono.divides(target):
                return pos
        raise MissingRule(f"no rule in index {index} divides {target!r}")


@dataclass
class EngineResult:
    ring: Ring
    inputs: list[Polynomial]
    R: list[LabeledPolynomial]
    basis: tuple[int, ...]
    events: list[dict]
    counters: dict

    def basis_polynomials(self) -> list[Polynomial]:
        polys = [self.R[p].poly for p in self.basis]
        polys.sort(key=lambda q: self.ring.order.key(q.head_mono))
        return polys


class Engine:
    def __init__(self, ring: Ring, inputs: Sequence[Polynomial], config: Optional[EngineConfig] = None):
        if not inputs:
            raise ValueError("need at least one input polynomial")
        for k, f in enumerate(inputs):
            if f.is_zero:
                raise ZeroInputPolynomial(f"input {k + 1} is zero")
            if not is_homogeneous(f):
                raise NonHomogeneousInput(f"input {k + 1} is not homogeneous")
        self.ring = ring
        self.order = ring.order
        self.lay = ring.order.lay  # the packed form of the ring's monomials
        self.inputs = [f.monic() for f in inputs]
        self.m = len(inputs)
        self.config = config or EngineConfig()
        self.trace = Trace(self.lay)
        self.R: list[LabeledPolynomial] = []
        self.rules = RuleTable(self.m)
        self.G: list[int] = []
        self.done_now: list[int] = []
        # G ∪ Done of the running reduction, ascending: the reductor candidates
        self.candidates: list[int] = []
        self.trails: dict[int, list] = {}
        self.creation_polys: dict[int, Polynomial] = {}
        # index i -> (mask, head, pos) of the completed basis G_i, filled when
        # call i ends; the calls of lower index reduce and reject by it
        self.phi_heads: dict[int, list[tuple[int, Monomial, int]]] = {}
        # index i -> packed monomial -> _first_divisor's answer in G_i
        self.divisor_memo: dict[int, dict[int, Optional[tuple[Monomial, int]]]] = {}

    # -- helpers ----------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """The engine counters, read off the event counts of the log."""
        counts = self.trace.counts
        return {name: counts[kind] for name, kind in COUNTED_EVENTS.items()}

    def _budget(self, what: str, cond: bool) -> None:
        if cond:
            raise BudgetExceeded(what, self.trace.events, self.counters())

    def _new_labeled(self, sig: Signature, poly: Polynomial,
                     mv: Optional[ModuleVector]) -> LabeledPolynomial:
        lp = LabeledPolynomial(len(self.R), sig, poly, mv)
        self.R.append(lp)
        self.creation_polys[lp.pos] = poly
        self.trails[lp.pos] = []
        if self.config.self_check and not check_admissible(lp, self.inputs):
            raise InternalInvariantError(f"r{lp.pos} created non-admissible")
        return lp

    def _monic(
        self, poly: Polynomial, mv: Optional[ModuleVector]
    ) -> tuple[Polynomial, Optional[ModuleVector], int]:
        """poly and mv scaled to leading coefficient 1, and the scale s; s is
        1 when poly is zero or already monic."""
        if poly.is_zero or poly.head_coeff == 1:
            return poly, mv, 1
        s = self.ring.inv(poly.head_coeff)
        return poly.scale(s), None if mv is None else mv.scale(s), s

    def _new_element(self, sig: Signature, a: LabeledPolynomial, ua: Monomial,
                     b: LabeledPolynomial, ub: Monomial) -> LabeledPolynomial:
        """The new element ua*a - ub*b under signature ``sig``, made monic,
        with its rule added."""
        poly = poly_axpy(a.poly.term_mul(1, ua), 1, ub, b.poly)
        mv = None
        if self.config.self_check:
            mv = a.mv.term_mul(1, ua).axpy(1, ub, b.mv)
        poly, mv, _ = self._monic(poly, mv)
        lp = self._new_labeled(sig, poly, mv)
        self._add_rule(sig, lp.pos)
        return lp

    def _reduce_by(self, h: LabeledPolynomial, kind: str, c: int, u: Monomial,
                   b: LabeledPolynomial) -> None:
        """One reduction step h := h - c*u*b, on h's module vector too, and
        recorded in h's trail as ``kind``."""
        h.poly = poly_axpy(h.poly, c, u, b.poly)
        if h.mv is not None:
            h.mv = h.mv.axpy(c, u, b.mv)
        self.trails[h.pos].append([kind, c, self.trace.mono_payload(u), b.pos])

    def _first_divisor(self, index: int, v: int) -> Optional[tuple[Monomial, int]]:
        """(head, pos) of the first element of G_index whose head divides the
        monomial of packed value ``v``, or None.  ``phi_heads[index]`` never
        changes once call ``index`` has ended, so the answer is memoized by
        ``v``, and the monomial is built only on a miss."""
        memo = self.divisor_memo[index]
        found = memo.get(v, _UNSEEN)
        if found is _UNSEEN:
            found = None
            mono = packed_monomial(v, self.lay)
            outside = ~mono.mask
            for mask, head, pos in self.phi_heads[index]:
                if not mask & outside and head.divides(mono):
                    found = head, pos
                    break
            memo[v] = found
        return found

    def _f5_blocked(self, index: int, v: int) -> Optional[int]:
        """Position of a G_{index+1} element whose head divides the monomial
        of packed value ``v``."""
        if index >= self.m:
            return None
        found = self._first_divisor(index + 1, v)
        return None if found is None else found[1]

    def _add_rule(self, sig: Signature, pos: int) -> None:
        self.rules.add(sig.index, sig.mono, pos)
        self.trace.emit(
            "RuleAdded", index=sig.index, mono=self.trace.mono_payload(sig.mono), pos=pos
        )

    # -- driver -----------------------------------------------------------

    def run(self) -> EngineResult:
        m = self.m
        for i in range(m, 0, -1):
            self._algorithm_f5(i)
            self.trace.emit("CallEnd", call=i, basis=list(self.G))
            heads = [self.R[p].poly.head_mono for p in self.G]
            self.phi_heads[i] = [(h.mask, h, p) for h, p in zip(heads, self.G)]
            self.divisor_memo[i] = {}
        return EngineResult(
            ring=self.ring,
            inputs=self.inputs,
            R=self.R,
            basis=tuple(self.G),
            events=self.trace.events,
            counters=self.counters(),
        )

    def _begin_call(self, i: int, g_next: list[int]) -> LabeledPolynomial:
        f = self.inputs[i - 1]
        sig = Signature(self.ring.one_mono(), i)
        mv = ModuleVector.unit(self.ring, self.m, i) if self.config.self_check else None
        lp = self._new_labeled(sig, f, mv)
        self.trace.emit(
            "CallBegin",
            call=i,
            input_pos=lp.pos,
            sig=self.trace.sig_payload(sig),
            poly=self.trace.poly_payload(f),
            g_next=list(g_next),
        )
        self._add_rule(sig, lp.pos)
        self.G.append(lp.pos)
        return lp

    def _algorithm_f5(self, i: int) -> None:
        g_next = list(self.G)
        r_i = self._begin_call(i, g_next)
        pending: list[CriticalPair] = []
        for p in g_next:
            cp = self._crit_pair(r_i.pos, p, i)
            if cp is not None:
                pending.append(cp)
        while pending:
            d = min(cp.degree for cp in pending)
            self._budget(f"degree {d} exceeds max_degree", d > self.config.max_degree)
            batch = [cp for cp in pending if cp.degree == d]
            pending = [cp for cp in pending if cp.degree != d]
            batch.sort(
                key=lambda cp: (
                    sig_key(cp.sig1, self.order),
                    self.order.key(cp.t),
                    cp.p1,
                    cp.p2,
                )
            )
            self.trace.emit("DegreeStep", call=i, d=d, pairs=len(batch))
            new = self._spol(batch, i)
            done = self._reduction(new, i)
            for r in done:
                for p in list(self.G):
                    cp = self._crit_pair(r, p, i)
                    if cp is not None:
                        pending.append(cp)
                self.G.append(r)

    # -- critical pairs ---------------------------------------------------

    def _crit_pair(self, ra: int, rb: int, i: int) -> Optional[CriticalPair]:
        """The critical pair of r_ra and r_rb, or None when the F5 criterion
        rejects it.

        The pair is worked out on packed values: t is the lcm of the heads,
        u_k = t - head_k is exact because t is a multiple of head_k, and each
        signature multiple is u_k + sig_k, with one guard test for both.  The
        part with the greater multiplied signature comes first: the smaller
        index, then the greater order key.  Monomials and signatures are
        built only for a pair that is created."""
        a, b = self.R[ra], self.R[rb]
        lay = self.lay
        ha, hb = a.poly.head_mono.v, b.poly.head_mono.v
        t = lay.fieldwise(ha, hb, True)
        u1, u2 = t - ha, t - hb
        m1, m2 = u1 + a.sig.mono.v, u2 + b.sig.mono.v
        if (m1 | m2) & lay.guard:
            raise overflow_error(f"a signature multiple of the pair of r{ra} and r{rb}")
        if a.index == b.index:
            vkey = self.order.vkey
            k1, k2 = vkey(m1), vkey(m2)
            swap = k1 < k2 or (k1 == k2 and a.pos < b.pos)
        else:
            swap = a.index > b.index
        if swap:
            a, b, u1, u2, m1, m2 = b, a, u2, u1, m2, m1
        exps = self.trace.exps
        pair_fields = dict(
            t=exps[t],
            u1=exps[u1],
            p1=a.pos,
            u2=exps[u2],
            p2=b.pos,
        )
        for part, (lp, u, msig) in enumerate(((a, u1, m1), (b, u2, m2)), start=1):
            blocked = self._f5_blocked(lp.index, msig)
            if blocked is not None:
                self.trace.emit(
                    "F5CritPairReject",
                    call=i,
                    where="crit_pair",
                    part=part,
                    pos=lp.pos,
                    mult=exps[u],
                    msig={"mono": exps[msig], "index": lp.index},
                    blocked_by=blocked,
                    **pair_fields,
                )
                return None
        self._budget(
            "pair budget exhausted",
            self.trace.counts["CritPairCreated"] >= self.config.max_pairs,
        )
        deg = t >> lay.shift
        self.trace.emit(
            "CritPairCreated",
            call=i,
            deg=deg,
            sig1={"mono": exps[m1], "index": a.index},
            sig2={"mono": exps[m2], "index": b.index},
            **pair_fields,
        )
        return CriticalPair(
            packed_monomial(t, lay),
            packed_monomial(u1, lay),
            a.pos,
            packed_monomial(u2, lay),
            b.pos,
            deg,
            Signature(packed_monomial(m1, lay), a.index),
            Signature(packed_monomial(m2, lay), b.index),
        )

    # -- S-polynomials ----------------------------------------------------

    def _spol(self, batch: list[CriticalPair], i: int) -> list[int]:
        out: list[int] = []
        for cp in batch:
            for part, (pos, u, s) in enumerate(
                ((cp.p1, cp.u1, cp.sig1), (cp.p2, cp.u2, cp.sig2)), start=1
            ):
                rw = self.rules.find_rewriter(s.index, s.mono)
                if rw != pos:
                    self.trace.emit(
                        "RewrittenReject",
                        call=i,
                        where="spol",
                        part=part,
                        pos=pos,
                        mult=self.trace.mono_payload(u),
                        msig=self.trace.sig_payload(s),
                        rewriter=rw,
                        t=self.trace.mono_payload(cp.t),
                        u1=self.trace.mono_payload(cp.u1),
                        p1=cp.p1,
                        u2=self.trace.mono_payload(cp.u2),
                        p2=cp.p2,
                    )
                    break
            else:
                if sig_cmp(cp.sig1, cp.sig2, self.order) != GT:
                    raise InternalInvariantError(
                        "S-polynomial with ambiguous signature survived the rewritten check"
                    )
                lp = self._new_element(cp.sig1, self.R[cp.p1], cp.u1, self.R[cp.p2], cp.u2)
                self.trace.emit(
                    "SPolCreated",
                    call=i,
                    pos=lp.pos,
                    sig=self.trace.sig_payload(lp.sig),
                    poly=self.trace.poly_payload(lp.poly),
                    p1=cp.p1,
                    u1=self.trace.mono_payload(cp.u1),
                    p2=cp.p2,
                    u2=self.trace.mono_payload(cp.u2),
                    d=cp.degree,
                )
                out.append(lp.pos)
        for x, y in zip(out, out[1:]):
            if sig_cmp(self.R[y].sig, self.R[x].sig, self.order) != GT:
                raise InternalInvariantError("S-polynomial batch out of signature order")
        return out

    # -- reduction --------------------------------------------------------

    def _reduction(self, new: list[int], i: int) -> list[int]:
        """Reduce ToDo, smallest signature first: a heap on (signature key,
        position)."""
        todo = [(sig_key(self.R[p].sig, self.order), p) for p in new]
        heapify(todo)
        self.done_now = []
        self.candidates = sorted(self.G)
        steps = 0
        last_key = None
        while todo:
            steps += 1
            self._budget("reduction step cap exceeded", steps > self.config.reduction_step_cap)
            min_key, h_pos = heappop(todo)
            if todo and todo[0][0] == min_key:
                raise InternalInvariantError(
                    f"distinct ToDo elements share signature {self.R[h_pos].sig!r}"
                )
            if last_key is not None and min_key < last_key:
                raise InternalInvariantError("ToDo pops decreased in signature")
            last_key = min_key
            h = self.R[h_pos]
            self._phi_reduce(h, i)
            for p in self._top_reduction(h, i):
                heappush(todo, (sig_key(self.R[p].sig, self.order), p))
        return list(self.done_now)

    def _phi_reduce(self, h: LabeledPolynomial, i: int) -> None:
        """Full normal form of h modulo the previously computed basis.

        Each step cancels the greatest reducible term with the first reducer
        whose head divides it.  Every term of u*b is at most u*head(b), so
        the terms above the cancelled one never change, and the next scan
        resumes at its place instead of at the head.
        """
        if not self.phi_heads[i + 1]:
            return
        touched = False
        terms = h.poly.terms
        k = 0
        while k < len(terms):
            c, mono = terms[k]
            found = self._first_divisor(i + 1, mono.v)
            if found is None:
                k += 1
                continue
            head, pos = found
            u = mono.divide(head)
            blp = self.R[pos]
            self._reduce_by(h, "phi", c, u, blp)
            terms = h.poly.terms
            self.trace.emit(
                "PhiPreReduce",
                call=i,
                h=h.pos,
                h_sig=self.trace.sig_payload(h.sig),
                h_index=h.index,
                reductor=pos,
                reductor_index=blp.index,
                mult=self.trace.mono_payload(u),
                coeff=c,
            )
            touched = True
        if touched:
            h.poly, h.mv, s = self._monic(h.poly, h.mv)
            if s != 1:
                self.trails[h.pos].append(["monic", s])

    def _top_reduction(self, h: LabeledPolynomial, i: int) -> list[int]:
        """Returns positions to requeue; a completed element joins Done."""
        if h.poly.is_zero:
            self.trace.emit(
                "ReductionToZero", call=i, pos=h.pos, sig=self.trace.sig_payload(h.sig)
            )
            return []
        red = self._is_reducible(h, i)
        if red is None:
            self.trace.emit(
                "DoneInserted",
                call=i,
                pos=h.pos,
                sig=self.trace.sig_payload(h.sig),
                poly=self.trace.poly_payload(h.poly),
                creation_poly=self.trace.poly_payload(self.creation_polys[h.pos]),
                trail=list(self.trails[h.pos]),
            )
            self.done_now.append(h.pos)
            insort(self.candidates, h.pos)
            return []
        j_pos, u = red
        j = self.R[j_pos]
        msig = sig_mul(u, j.sig)
        c = sig_cmp(h.sig, msig, self.order)
        if c == EQ:
            raise InternalInvariantError("check (d) let an equal-signature reductor through")
        if c == GT:
            self._reduce_by(h, "top", 1, u, j)
            h.poly, h.mv, scale = self._monic(h.poly, h.mv)
            if scale != 1:
                self.trails[h.pos].append(["monic", scale])
            self.trace.emit(
                "ReductionStep",
                call=i,
                h=h.pos,
                h_sig=self.trace.sig_payload(h.sig),
                reductor=j_pos,
                mult=self.trace.mono_payload(u),
                msig=self.trace.sig_payload(msig),
                coeff=1,
                post_scale=scale,
            )
            return [h.pos]
        one = self.ring.one_mono()
        lp = self._new_element(msig, j, u, h, one)
        self.trace.emit(
            "NewFromTopReduction",
            call=i,
            pos=lp.pos,
            sig=self.trace.sig_payload(lp.sig),
            poly=self.trace.poly_payload(lp.poly),
            j=j_pos,
            h=h.pos,
            u=self.trace.mono_payload(u),
            u_under=self.trace.mono_payload(one),
        )
        return [h.pos, lp.pos]

    def _is_reducible(self, h: LabeledPolynomial, i: int) -> Optional[tuple[int, Monomial]]:
        """First candidate passing checks (a)-(d), scanning by creation order."""
        target = h.poly.head_mono
        for j_pos in self.candidates:
            j = self.R[j_pos]
            u = target.divide(j.poly.head_mono)
            if u is None:
                continue
            msig_mono = u.mul(j.sig.mono)
            blocked = self._f5_blocked(j.index, msig_mono.v)
            # one emit logs all three rejections: ``check`` follows ``where``
            # and the rejecting position comes last
            if blocked is not None:
                kind, check, by = "F5CritPairReject", {}, {"blocked_by": blocked}
            elif (rw := self.rules.find_rewriter(j.index, msig_mono)) != j_pos:
                kind, check, by = "RewrittenReject", {"check": "c"}, {"rewriter": rw}
            elif msig_mono == h.sig.mono and j.index == h.index:
                kind, check, by = "RewrittenReject", {"check": "d"}, {"rewriter": h.pos}
            else:
                return j_pos, u
            self.trace.emit(
                kind,
                call=i,
                where="is_reducible",
                **check,
                h=h.pos,
                h_head=self.trace.mono_payload(target),
                cand=j_pos,
                mult=self.trace.mono_payload(u),
                msig=self.trace.sig_payload(Signature(msig_mono, j.index)),
                **by,
            )
        return None


def incremental_f5(
    inputs: Sequence[Polynomial],
    config: Optional[EngineConfig] = None,
) -> EngineResult:
    """Run the incremental driver on homogeneous inputs; returns the basis of
    the full system together with the complete trace."""
    if not inputs:
        raise ValueError("need at least one input polynomial")
    ring = inputs[0].ring
    return Engine(ring, inputs, config).run()
