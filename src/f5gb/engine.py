"""The original F5 algorithm: incremental driver, degree-stepped main loop,
critical pairs, S-polynomials, reduction with the normal-form pre-step,
top-reduction with checks (a)-(d), and per-index rule tables.

The engine follows the published behavior of the algorithm exactly; every
decision it takes is emitted to the trace so the checkers in ``trace`` can
re-verify the run independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .poly import EQ, GT, LT, Monomial, Polynomial, Ring, is_homogeneous, poly_axpy
from .sig import (
    Genealogy,
    LabeledPolynomial,
    ModuleVector,
    Signature,
    check_admissible,
    sig_cmp,
    sig_key,
    sig_mul,
)
from .trace import Trace, mono_payload, poly_payload, sig_payload


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
    ``capture_snapshots`` records the state at every Done insertion for the
    descent oracle; ``self_check`` checks the admissibility of every element
    at creation.  Module vectors are carried only when one of these two is
    set, since nothing else reads them; otherwise every element's ``mv`` is
    None.  The event log is the same either way.
    """

    max_pairs: int = 10**6
    max_degree: int = 80
    reduction_step_cap: int = 10**6
    capture_snapshots: bool = False
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


class SnapshotRecord(NamedTuple):
    """State frozen at one Done insertion, in positions-and-rules form."""

    seq: int
    call: int
    g_pos: int
    members: tuple  # positions of G ∪ Done (g included), ascending
    rules: dict  # index -> tuple of (Monomial, pos)


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

    def snapshot(self) -> dict[int, tuple]:
        return {i: tuple(t) for i, t in self.tables.items()}


@dataclass
class EngineResult:
    ring: Ring
    inputs: list[Polynomial]
    R: list[LabeledPolynomial]
    basis: tuple[int, ...]
    events: list[dict]
    trails: dict[int, list]
    creation_polys: dict[int, Polynomial]
    rules: RuleTable
    basis_by_index: dict[int, tuple[int, ...]]
    d_histories: dict[int, list[int]]
    snapshots: list[SnapshotRecord]
    member_since: dict[int, int]
    counters: dict
    config: EngineConfig

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
        self.inputs = [f.monic() for f in inputs]
        self.m = len(inputs)
        self.config = config or EngineConfig()
        self.trace = Trace()
        self.R: list[LabeledPolynomial] = []
        self.rules = RuleTable(self.m)
        self.G: list[int] = []
        self.done_now: list[int] = []
        self.trails: dict[int, list] = {}
        self.creation_polys: dict[int, Polynomial] = {}
        self.basis_by_index: dict[int, tuple[int, ...]] = {}
        self.d_histories: dict[int, list[int]] = {}
        self.snapshots: list[SnapshotRecord] = []
        self.member_since: dict[int, int] = {}
        self.carry_vectors = self.config.self_check or self.config.capture_snapshots
        self.counters = {
            "pairs_created": 0,
            "f5_rejections": 0,
            "rewritten_rejections": 0,
            "spol_created": 0,
            "new_from_top_reduction": 0,
            "reductions_to_zero": 0,
            "reduction_steps": 0,
            "phi_steps": 0,
        }
        self._phi_head_cache: dict[int, list[tuple[int, Monomial, int]]] = {}

    # -- helpers ----------------------------------------------------------

    def _budget(self, what: str, cond: bool) -> None:
        if cond:
            raise BudgetExceeded(what, self.trace.events, dict(self.counters))

    def _new_labeled(self, sig: Signature, poly: Polynomial, mv: Optional[ModuleVector],
                     genealogy: Optional[Genealogy]) -> LabeledPolynomial:
        lp = LabeledPolynomial(len(self.R), sig, poly, mv, genealogy)
        self.R.append(lp)
        self.creation_polys[lp.pos] = poly
        self.trails[lp.pos] = []
        if self.config.self_check and not check_admissible(lp, self.inputs, self.order):
            raise InternalInvariantError(f"r{lp.pos} created non-admissible")
        return lp

    def _monic_in_place(self, lp: LabeledPolynomial, trail: Optional[list]) -> int:
        """Normalize lp to leading coefficient 1; returns the scale applied."""
        if lp.poly.is_zero or lp.poly.head_coeff == 1:
            return 1
        s = self.ring.inv(lp.poly.head_coeff)
        lp.poly = lp.poly.scale(s)
        if lp.mv is not None:
            lp.mv = lp.mv.scale(s)
        if trail is not None:
            trail.append(["monic", s])
        return s

    def _monic_pair(
        self, poly: Polynomial, mv: Optional[ModuleVector]
    ) -> tuple[Polynomial, Optional[ModuleVector]]:
        if poly.is_zero or poly.head_coeff == 1:
            return poly, mv
        s = self.ring.inv(poly.head_coeff)
        return poly.scale(s), None if mv is None else mv.scale(s)

    def _phi_heads(self, index_plus_one: int) -> list[tuple[int, Monomial, int]]:
        """(mask, head, pos) of the completed basis G_{index+1} (empty past m)."""
        if index_plus_one > self.m:
            return []
        cached = self._phi_head_cache.get(index_plus_one)
        if cached is None:
            cached = []
            for p in self.basis_by_index[index_plus_one]:
                head = self.R[p].poly.head_mono
                cached.append((head.mask, head, p))
            self._phi_head_cache[index_plus_one] = cached
        return cached

    def _f5_blocked(self, index: int, mono: Monomial) -> Optional[int]:
        """Position of a G_{index+1} element whose head divides ``mono``."""
        if index >= self.m:
            return None
        outside = ~mono.mask
        for mask, head, pos in self._phi_heads(index + 1):
            if not mask & outside and head.divides(mono):
                return pos
        return None

    def _add_rule(self, sig: Signature, pos: int) -> None:
        self.rules.add(sig.index, sig.mono, pos)
        self.trace.emit("RuleAdded", index=sig.index, mono=mono_payload(sig.mono), pos=pos)

    def _find_rewriter(self, u: Monomial, pos: int) -> int:
        lp = self.R[pos]
        return self.rules.find_rewriter(lp.index, u.mul(lp.sig.mono))

    # -- driver -----------------------------------------------------------

    def run(self) -> EngineResult:
        m = self.m
        self._begin_call(m, [])
        self.basis_by_index[m] = tuple(self.G)
        self.trace.emit("CallEnd", call=m, basis=list(self.G))
        for i in range(m - 1, 0, -1):
            self._algorithm_f5(i)
            self.basis_by_index[i] = tuple(self.G)
        return EngineResult(
            ring=self.ring,
            inputs=self.inputs,
            R=self.R,
            basis=tuple(self.G),
            events=self.trace.events,
            trails=self.trails,
            creation_polys=self.creation_polys,
            rules=self.rules,
            basis_by_index=self.basis_by_index,
            d_histories=self.d_histories,
            snapshots=self.snapshots,
            member_since=self.member_since,
            counters=dict(self.counters),
            config=self.config,
        )

    def _begin_call(self, i: int, g_next: list[int]) -> LabeledPolynomial:
        f = self.inputs[i - 1]
        sig = Signature(self.ring.one_mono(), i)
        mv = ModuleVector.unit(self.ring, self.m, i) if self.carry_vectors else None
        lp = self._new_labeled(sig, f, mv, None)
        seq = self.trace.emit(
            "CallBegin",
            call=i,
            input_pos=lp.pos,
            sig=sig_payload(sig),
            poly=poly_payload(f),
            g_next=list(g_next),
        )
        self._add_rule(sig, lp.pos)
        self.G.append(lp.pos)
        self.member_since[lp.pos] = seq
        return lp

    def _algorithm_f5(self, i: int) -> None:
        g_next = list(self.G)
        r_i = self._begin_call(i, g_next)
        pending: list[CriticalPair] = []
        for p in g_next:
            cp = self._crit_pair(r_i.pos, p, i)
            if cp is not None:
                pending.append(cp)
        d_hist: list[int] = []
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
            d_hist.append(d)
            self.trace.emit("DegreeStep", call=i, d=d, pairs=len(batch))
            new = self._spol(batch, i)
            done = self._reduction(new, i)
            for r in done:
                for p in list(self.G):
                    cp = self._crit_pair(r, p, i)
                    if cp is not None:
                        pending.append(cp)
                self.G.append(r)
        self.d_histories[i] = d_hist
        self.trace.emit("CallEnd", call=i, basis=list(self.G))

    # -- critical pairs ---------------------------------------------------

    def _crit_pair(self, ra: int, rb: int, i: int) -> Optional[CriticalPair]:
        a, b = self.R[ra], self.R[rb]
        t = a.poly.head_mono.lcm(b.poly.head_mono)
        u1 = t.divide(a.poly.head_mono)
        u2 = t.divide(b.poly.head_mono)
        s1 = sig_mul(u1, a.sig)
        s2 = sig_mul(u2, b.sig)
        c = sig_cmp(s1, s2, self.order)
        if c == LT or (c == EQ and a.pos < b.pos):
            a, b, u1, u2, s1, s2 = b, a, u2, u1, s2, s1
        pair_fields = dict(
            t=mono_payload(t),
            u1=mono_payload(u1),
            p1=a.pos,
            u2=mono_payload(u2),
            p2=b.pos,
        )
        for part, (lp, u, s) in enumerate(((a, u1, s1), (b, u2, s2)), start=1):
            blocked = self._f5_blocked(lp.index, u.mul(lp.sig.mono))
            if blocked is not None:
                self.counters["f5_rejections"] += 1
                self.trace.emit(
                    "F5CritPairReject",
                    call=i,
                    where="crit_pair",
                    part=part,
                    pos=lp.pos,
                    mult=mono_payload(u),
                    msig=sig_payload(s),
                    blocked_by=blocked,
                    **pair_fields,
                )
                return None
        self.counters["pairs_created"] += 1
        self._budget("pair budget exhausted", self.counters["pairs_created"] > self.config.max_pairs)
        self.trace.emit(
            "CritPairCreated",
            call=i,
            deg=t.deg,
            sig1=sig_payload(s1),
            sig2=sig_payload(s2),
            **pair_fields,
        )
        return CriticalPair(t, u1, a.pos, u2, b.pos, t.deg, s1, s2)

    # -- S-polynomials ----------------------------------------------------

    def _spol(self, batch: list[CriticalPair], i: int) -> list[int]:
        out: list[int] = []
        for cp in batch:
            rejected = False
            for part, (pos, u, s) in enumerate(
                ((cp.p1, cp.u1, cp.sig1), (cp.p2, cp.u2, cp.sig2)), start=1
            ):
                rw = self._find_rewriter(u, pos)
                if rw != pos:
                    self.counters["rewritten_rejections"] += 1
                    self.trace.emit(
                        "RewrittenReject",
                        call=i,
                        where="spol",
                        part=part,
                        pos=pos,
                        mult=mono_payload(u),
                        msig=sig_payload(s),
                        rewriter=rw,
                        t=mono_payload(cp.t),
                        u1=mono_payload(cp.u1),
                        p1=cp.p1,
                        u2=mono_payload(cp.u2),
                        p2=cp.p2,
                    )
                    rejected = True
                    break
            if rejected:
                continue
            if sig_cmp(cp.sig1, cp.sig2, self.order) != GT:
                raise InternalInvariantError(
                    "S-polynomial with ambiguous signature survived the rewritten check"
                )
            a, b = self.R[cp.p1], self.R[cp.p2]
            poly = poly_axpy(a.poly.term_mul(1, cp.u1), 1, cp.u2, b.poly)
            mv = None
            if self.carry_vectors:
                mv = a.mv.term_mul(1, cp.u1).axpy(1, cp.u2, b.mv)
            poly, mv = self._monic_pair(poly, mv)
            lp = self._new_labeled(
                cp.sig1, poly, mv, Genealogy(cp.p1, cp.p2, cp.u1, cp.u2)
            )
            self._add_rule(lp.sig, lp.pos)
            self.counters["spol_created"] += 1
            self.trace.emit(
                "SPolCreated",
                call=i,
                pos=lp.pos,
                sig=sig_payload(lp.sig),
                poly=poly_payload(lp.poly),
                p1=cp.p1,
                u1=mono_payload(cp.u1),
                p2=cp.p2,
                u2=mono_payload(cp.u2),
                d=cp.degree,
            )
            out.append(lp.pos)
        for x, y in zip(out, out[1:]):
            if sig_cmp(self.R[y].sig, self.R[x].sig, self.order) != GT:
                raise InternalInvariantError("S-polynomial batch out of signature order")
        return out

    # -- reduction --------------------------------------------------------

    def _reduction(self, new: list[int], i: int) -> list[int]:
        todo = list(new)
        self.done_now = []
        steps = 0
        last_key = None
        while todo:
            steps += 1
            self._budget("reduction step cap exceeded", steps > self.config.reduction_step_cap)
            keyed = sorted((sig_key(self.R[p].sig, self.order), p) for p in todo)
            min_key = keyed[0][0]
            if len(keyed) > 1 and keyed[1][0] == min_key:
                raise InternalInvariantError(
                    f"distinct ToDo elements share signature {self.R[keyed[0][1]].sig!r}"
                )
            if last_key is not None and min_key < last_key:
                raise InternalInvariantError("ToDo pops decreased in signature")
            last_key = min_key
            h_pos = keyed[0][1]
            todo.remove(h_pos)
            h = self.R[h_pos]
            self._phi_reduce(h, i)
            requeue = self._top_reduction(h, i)
            todo.extend(requeue)
        return list(self.done_now)

    def _phi_reduce(self, h: LabeledPolynomial, i: int) -> None:
        """Full normal form of h modulo the previously computed basis.

        Each step cancels the greatest reducible term with the first reducer
        whose head divides it.  Every term of u*b is at most u*head(b), so
        the terms above the cancelled one never change, and the next scan
        resumes at its place instead of at the head.
        """
        reducers = self._phi_heads(i + 1)
        if not reducers:
            return
        trail = self.trails[h.pos]
        touched = False
        terms = h.poly.terms
        k = 0
        while k < len(terms):
            c, mono = terms[k]
            outside = ~mono.mask
            for mask, head, pos in reducers:
                if not mask & outside:
                    u = mono.divide(head)
                    if u is not None:
                        break
            else:
                k += 1
                continue
            blp = self.R[pos]
            h.poly = poly_axpy(h.poly, c, u, blp.poly)
            terms = h.poly.terms
            if h.mv is not None:
                h.mv = h.mv.axpy(c, u, blp.mv)
            trail.append(["phi", c, list(u.exps), pos])
            self.counters["phi_steps"] += 1
            self.trace.emit(
                "PhiPreReduce",
                call=i,
                h=h.pos,
                h_sig=sig_payload(h.sig),
                h_index=h.index,
                reductor=pos,
                reductor_index=blp.index,
                mult=mono_payload(u),
                coeff=c,
            )
            touched = True
        if touched:
            self._monic_in_place(h, trail)

    def _top_reduction(self, h: LabeledPolynomial, i: int) -> list[int]:
        """Returns positions to requeue; a completed element joins Done."""
        if h.poly.is_zero:
            self.counters["reductions_to_zero"] += 1
            self.trace.emit(
                "ReductionToZero", call=i, pos=h.pos, sig=sig_payload(h.sig)
            )
            return []
        red = self._is_reducible(h, i)
        if red is None:
            seq = self.trace.emit(
                "DoneInserted",
                call=i,
                pos=h.pos,
                sig=sig_payload(h.sig),
                poly=poly_payload(h.poly),
                creation_poly=poly_payload(self.creation_polys[h.pos]),
                trail=list(self.trails[h.pos]),
            )
            self.member_since[h.pos] = seq
            self.done_now.append(h.pos)
            if self.config.capture_snapshots:
                members = tuple(sorted(set(self.G) | set(self.done_now)))
                self.snapshots.append(
                    SnapshotRecord(seq, i, h.pos, members, self.rules.snapshot())
                )
            return []
        j_pos, u = red
        j = self.R[j_pos]
        msig = sig_mul(u, j.sig)
        c = sig_cmp(h.sig, msig, self.order)
        if c == EQ:
            raise InternalInvariantError("check (d) let an equal-signature reductor through")
        if c == GT:
            trail = self.trails[h.pos]
            h.poly = poly_axpy(h.poly, 1, u, j.poly)
            if h.mv is not None:
                h.mv = h.mv.axpy(1, u, j.mv)
            trail.append(["top", 1, list(u.exps), j_pos])
            scale = self._monic_in_place(h, trail)
            self.counters["reduction_steps"] += 1
            self.trace.emit(
                "ReductionStep",
                call=i,
                h=h.pos,
                h_sig=sig_payload(h.sig),
                reductor=j_pos,
                mult=mono_payload(u),
                msig=sig_payload(msig),
                coeff=1,
                post_scale=scale,
            )
            return [h.pos]
        one = self.ring.one_mono()
        poly = poly_axpy(j.poly.term_mul(1, u), 1, one, h.poly)
        mv = None
        if self.carry_vectors:
            mv = j.mv.term_mul(1, u).axpy(1, one, h.mv)
        poly, mv = self._monic_pair(poly, mv)
        lp = self._new_labeled(msig, poly, mv, Genealogy(j_pos, h.pos, u, one))
        self._add_rule(lp.sig, lp.pos)
        self.counters["new_from_top_reduction"] += 1
        self.trace.emit(
            "NewFromTopReduction",
            call=i,
            pos=lp.pos,
            sig=sig_payload(lp.sig),
            poly=poly_payload(lp.poly),
            j=j_pos,
            h=h.pos,
            u=mono_payload(u),
            u_under=mono_payload(one),
        )
        return [h.pos, lp.pos]

    def _is_reducible(self, h: LabeledPolynomial, i: int) -> Optional[tuple[int, Monomial]]:
        """First candidate passing checks (a)-(d), scanning by creation order."""
        candidates = sorted(set(self.G) | set(self.done_now))
        target = h.poly.head_mono
        for j_pos in candidates:
            j = self.R[j_pos]
            u = target.divide(j.poly.head_mono)
            if u is None:
                continue
            msig_mono = u.mul(j.sig.mono)
            blocked = self._f5_blocked(j.index, msig_mono)
            if blocked is not None:
                self.counters["f5_rejections"] += 1
                self.trace.emit(
                    "F5CritPairReject",
                    call=i,
                    where="is_reducible",
                    h=h.pos,
                    h_head=mono_payload(target),
                    cand=j_pos,
                    mult=mono_payload(u),
                    msig=sig_payload(Signature(msig_mono, j.index)),
                    blocked_by=blocked,
                )
                continue
            rw = self.rules.find_rewriter(j.index, msig_mono)
            if rw != j_pos:
                self.counters["rewritten_rejections"] += 1
                self.trace.emit(
                    "RewrittenReject",
                    call=i,
                    where="is_reducible",
                    check="c",
                    h=h.pos,
                    h_head=mono_payload(target),
                    cand=j_pos,
                    mult=mono_payload(u),
                    msig=sig_payload(Signature(msig_mono, j.index)),
                    rewriter=rw,
                )
                continue
            if msig_mono == h.sig.mono and j.index == h.index:
                self.counters["rewritten_rejections"] += 1
                self.trace.emit(
                    "RewrittenReject",
                    call=i,
                    where="is_reducible",
                    check="d",
                    h=h.pos,
                    h_head=mono_payload(target),
                    cand=j_pos,
                    mult=mono_payload(u),
                    msig=sig_payload(Signature(msig_mono, j.index)),
                    rewriter=h.pos,
                )
                continue
            return j_pos, u
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
