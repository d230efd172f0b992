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
from functools import partial
from heapq import heapify, heappop, heappush
from typing import NamedTuple, Optional, Sequence

from .poly import (
    Layout,
    Lazy,
    Monomial,
    Polynomial,
    Reducer,
    Ring,
    first_divisor,
    is_homogeneous,
    overflow_error,
    packed_monomial,
    poly_axpy,
    reduce_with,
)
from .sig import LabeledPolynomial, Signature, sig_key, sig_mul
from .trace import Trace


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
    """The budgets of one engine run.

    ``max_pairs``, ``max_degree`` and ``reduction_step_cap`` bound the run;
    hitting one raises ``BudgetExceeded`` with the partial trace.
    """

    max_pairs: int = 10**6
    max_degree: int = 80
    reduction_step_cap: int = 10**6


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
    """Per input index, the creation-ordered list of rule entries, each a
    packed rule monomial and its owner."""

    def __init__(self, m: int, lay: Layout):
        self.lay = lay
        self.tables: dict[int, list[tuple[int, int]]] = {i: [] for i in range(1, m + 1)}

    def add(self, index: int, mono: Monomial, pos: int) -> None:
        self.tables[index].append((mono.v, pos))

    def find_rewriter(self, index: int, v: int) -> int:
        """Newest rule whose monomial divides the monomial of packed value
        ``v``; its owner rewrites."""
        guard = self.lay.guard
        w = v | guard
        for mono, pos in reversed(self.tables[index]):
            if (w - mono) & guard == guard:
                return pos
        raise MissingRule(f"no rule in index {index} divides {packed_monomial(v, self.lay)!r}")


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
        self.rules = RuleTable(self.m, self.lay)
        self.G: list[int] = []
        self.done_now: list[int] = []
        # Two tables keyed by position, each filled on first read.  ``rows``
        # holds the element's row (packed head, packed signature monomial,
        # index): the pair loop, the reductor scan and the φ log read
        # elements through it, and a row may be read only once the element's
        # polynomial is final, for an input from its CallBegin on and for
        # any other element from its DoneInserted on.  ``reducers`` holds
        # the Reducer of an element of a completed G_i, whose polynomial no
        # longer changes, so each tail is keyed once per run.  Both refer to
        # R, never to the engine, so a finished engine is freed without
        # waiting for the cycle collector
        R = self.R
        self.rows = Lazy(lambda pos: (R[pos].poly.head_mono.v, R[pos].sig.mono.v, R[pos].index))
        self.reducers = Lazy(lambda pos: Reducer.of(R[pos].poly, pos))
        # G ∪ Done of the running reduction, ascending by position: the
        # reductor candidates, as (pos, *row)
        self.candidates: list[tuple[int, int, int, int]] = []
        self.trails: dict[int, list] = {}
        self.creation_polys: dict[int, Polynomial] = {}
        # index i -> packed monomial v -> the Reducer of the first element of
        # the completed basis G_i whose head divides v, or None: filled when
        # call i ends, and scanned (``poly.first_divisor``) only on a miss, as
        # G_i never changes again; the calls of lower index reduce and reject
        # by it.  G_{m+1} is empty: nothing blocks an element of index m
        self.divisor_memo: dict[int, Lazy] = {}
        self._end_call(self.m + 1, [])

    # -- helpers ----------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """The engine counters, read off the event counts of the log."""
        counts = self.trace.counts
        return {name: counts[kind] for name, kind in COUNTED_EVENTS.items()}

    def _budget(self, what: str, cond: bool) -> None:
        if cond:
            raise BudgetExceeded(what, self.trace.events, self.counters())

    def _new_labeled(self, sig: Signature, poly: Polynomial) -> LabeledPolynomial:
        lp = LabeledPolynomial(len(self.R), sig, poly)
        self.R.append(lp)
        self.creation_polys[lp.pos] = poly
        self.trails[lp.pos] = []
        return lp

    def _new_element(self, sig: Signature, a: LabeledPolynomial, ua: Monomial,
                     b: LabeledPolynomial, ub: Monomial) -> LabeledPolynomial:
        """The new element ua*a - ub*b under signature ``sig``, made monic,
        with its rule added."""
        poly, _ = poly_axpy(a.poly.term_mul(1, ua), 1, ub, b.poly).monic_scale()
        lp = self._new_labeled(sig, poly)
        self._add_rule(sig, lp.pos)
        return lp

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
            self._end_call(i, self.G)
        return EngineResult(
            ring=self.ring,
            inputs=self.inputs,
            R=self.R,
            basis=tuple(self.G),
            events=self.trace.events,
            counters=self.counters(),
        )

    def _end_call(self, i: int, basis: list[int]) -> None:
        """Freeze ``basis`` as G_i for the calls of lower index."""
        heads = [self.R[p].poly.head_mono for p in basis]
        self.divisor_memo[i] = Lazy(partial(
            first_divisor, self.lay, self.reducers, [(h.mask, h.v, p) for h, p in zip(heads, basis)]
        ))

    def _begin_call(self, i: int, g_next: list[int]) -> LabeledPolynomial:
        f = self.inputs[i - 1]
        sig = Signature(self.ring.one_mono(), i)
        lp = self._new_labeled(sig, f)
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
        pending = self._pairs(r_i.pos, g_next, i)
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
                pending += self._pairs(r, self.G, i)
                self.G.append(r)

    # -- critical pairs ---------------------------------------------------

    def _pairs(self, ra: int, others: list[int], i: int) -> list[CriticalPair]:
        """The critical pairs of r_ra with each of ``others``, in order, less
        those the F5 criterion rejects; each pair is logged as created or
        rejected.

        Each pair is worked out on packed values, read from the ``rows`` of
        r_ra and of each of ``others``: t is the lcm of the heads,
        u_k = t - head_k is exact because t is a multiple of head_k, and each
        signature multiple is u_k + sig_k, with one guard test for both.  The
        part with the greater multiplied signature comes first: the smaller
        index, then the greater order key.  A part is rejected when an
        element of G_{index+1} divides its signature multiple, read from
        ``divisor_memo``.  Monomials and signatures are built only for a pair
        that is created."""
        rows = self.rows
        lay = self.lay
        guard, shift, fieldwise = lay.guard, lay.shift, lay.fieldwise
        vkey = self.order.vkey
        exps = self.trace.exps
        log = self.trace.log
        counts = self.trace.counts
        blocks = self.divisor_memo
        max_pairs = self.config.max_pairs
        ha, sa, ia = rows[ra]
        out: list[CriticalPair] = []
        for rb in others:
            hb, sb, ib = rows[rb]
            t = fieldwise(ha, hb, True)
            u1, u2 = t - ha, t - hb
            m1, m2 = u1 + sa, u2 + sb
            if (m1 | m2) & guard:
                raise overflow_error(f"a signature multiple of the pair of r{ra} and r{rb}")
            if ia == ib:
                k1, k2 = vkey(m1), vkey(m2)
                swap = k1 < k2 or (k1 == k2 and ra < rb)
            else:
                swap = ia > ib
            if swap:
                p1, i1, p2, i2, u1, u2, m1, m2 = rb, ib, ra, ia, u2, u1, m2, m1
            else:
                p1, i1, p2, i2 = ra, ia, rb, ib
            blocked = blocks[i1 + 1][m1]
            part, pos, u, msig, index = 1, p1, u1, m1, i1
            if blocked is None:
                blocked = blocks[i2 + 1][m2]
                part, pos, u, msig, index = 2, p2, u2, m2, i2
            if blocked is not None:
                log({
                    "seq": None, "kind": "F5CritPairReject", "call": i,
                    "where": "crit_pair", "part": part, "pos": pos, "mult": exps[u],
                    "msig": {"mono": exps[msig], "index": index},
                    "blocked_by": blocked.tag,
                    "t": exps[t], "u1": exps[u1], "p1": p1, "u2": exps[u2], "p2": p2,
                })
                continue
            self._budget("pair budget exhausted", counts["CritPairCreated"] >= max_pairs)
            deg = t >> shift
            log({
                "seq": None, "kind": "CritPairCreated", "call": i, "deg": deg,
                "sig1": {"mono": exps[m1], "index": i1},
                "sig2": {"mono": exps[m2], "index": i2},
                "t": exps[t], "u1": exps[u1], "p1": p1, "u2": exps[u2], "p2": p2,
            })
            out.append(CriticalPair(
                packed_monomial(t, lay),
                packed_monomial(u1, lay),
                p1,
                packed_monomial(u2, lay),
                p2,
                deg,
                Signature(packed_monomial(m1, lay), i1),
                Signature(packed_monomial(m2, lay), i2),
            ))
        return out

    # -- S-polynomials ----------------------------------------------------

    def _spol(self, batch: list[CriticalPair], i: int) -> list[int]:
        out: list[int] = []
        for cp in batch:
            for part, (pos, u, s) in enumerate(
                ((cp.p1, cp.u1, cp.sig1), (cp.p2, cp.u2, cp.sig2)), start=1
            ):
                rw = self.rules.find_rewriter(s.index, s.mono.v)
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
                if sig_key(cp.sig1, self.order) <= sig_key(cp.sig2, self.order):
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
        keys = [sig_key(self.R[pos].sig, self.order) for pos in out]
        if any(x >= y for x, y in zip(keys, keys[1:])):
            raise InternalInvariantError("S-polynomial batch out of signature order")
        return out

    # -- reduction --------------------------------------------------------

    def _reduction(self, new: list[int], i: int) -> list[int]:
        """Reduce ToDo, smallest signature first: a heap on (signature key,
        position)."""
        todo = [(sig_key(self.R[p].sig, self.order), p) for p in new]
        heapify(todo)
        self.done_now = []
        rows = self.rows
        self.candidates = [(p, *rows[p]) for p in sorted(self.G)]
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
        """Full normal form of h modulo the previously computed basis G_{i+1},
        through the normal-form kernel ``poly.reduce_with``.

        Each step cancels the greatest reducible term with the first element
        of G_{i+1} whose head divides it, read from ``divisor_memo``, and
        costs the reducer's tail; the steps are logged in order, then h is
        made monic."""
        steps: list[tuple[int, int, int]] = []
        poly = reduce_with(h.poly, self.divisor_memo[i + 1].__getitem__, steps)
        if not steps:
            return
        exps, log, rows = self.trace.exps, self.trace.log, self.rows
        trail = self.trails[h.pos]
        h_pos, h_mono, h_index = h.pos, exps[h.sig.mono.v], h.index
        for c, u, pos in steps:
            mult = exps[u]
            trail.append(["phi", c, mult, pos])
            log({
                "seq": None, "kind": "PhiPreReduce", "call": i, "h": h_pos,
                "h_sig": {"mono": h_mono, "index": h_index}, "h_index": h_index,
                "reductor": pos, "reductor_index": rows[pos][2], "mult": mult, "coeff": c,
            })
        h.poly, s = poly.monic_scale()
        if s != 1:
            trail.append(["monic", s])

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
            insort(self.candidates, (h.pos, *self.rows[h.pos]))
            return []
        j_pos, u = red
        j = self.R[j_pos]
        msig = sig_mul(u, j.sig)
        h_key, m_key = sig_key(h.sig, self.order), sig_key(msig, self.order)
        if h_key == m_key:
            raise InternalInvariantError("check (d) let an equal-signature reductor through")
        if h_key > m_key:
            h.poly, scale = poly_axpy(h.poly, 1, u, j.poly).monic_scale()
            trail = self.trails[h.pos]
            trail.append(["top", 1, self.trace.mono_payload(u), j_pos])
            if scale != 1:
                trail.append(["monic", scale])
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
        """First candidate passing checks (a)-(d), scanning by creation order.

        Divisibility, the signature multiple and checks (b)-(d) run on
        packed values; a ``Monomial`` is built only for the multiplier of
        the reductor returned.  A rejected candidate is logged."""
        lay = self.lay
        guard = lay.guard
        blocks = self.divisor_memo
        find_rewriter = self.rules.find_rewriter
        target = h.poly.head_mono.v
        w = target | guard
        h_sig, h_index = h.sig.mono.v, h.index
        for j_pos, head, sig, index in self.candidates:
            u = w - head
            if u & guard != guard:
                continue
            u ^= guard
            msig = u + sig
            if msig & guard:
                raise overflow_error(
                    f"product of {packed_monomial(u, lay)!r} and {packed_monomial(sig, lay)!r}"
                )
            blocked = blocks[index + 1][msig]
            # a rejection logs ``check`` after ``where`` and the rejecting
            # position last
            if blocked is not None:
                ev = {"seq": None, "kind": "F5CritPairReject", "call": i,
                      "where": "is_reducible"}
                by, by_pos = "blocked_by", blocked.tag
            elif (rw := find_rewriter(index, msig)) != j_pos:
                ev = {"seq": None, "kind": "RewrittenReject", "call": i,
                      "where": "is_reducible", "check": "c"}
                by, by_pos = "rewriter", rw
            elif msig == h_sig and index == h_index:
                ev = {"seq": None, "kind": "RewrittenReject", "call": i,
                      "where": "is_reducible", "check": "d"}
                by, by_pos = "rewriter", h.pos
            else:
                return j_pos, packed_monomial(u, lay)
            exps = self.trace.exps
            ev["h"] = h.pos
            ev["h_head"] = exps[target]
            ev["cand"] = j_pos
            ev["mult"] = exps[u]
            ev["msig"] = {"mono": exps[msig], "index": index}
            ev[by] = by_pos
            self.trace.log(ev)
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
