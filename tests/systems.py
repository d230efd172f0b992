"""Shared rings, parsers, the acceptance suite of input systems, the
brute-force reference of the thm5 check and the Hilbert-function count."""

from __future__ import annotations

import itertools
import math
import random
from typing import NamedTuple, Optional, Sequence

from f5gb.cli import _parse_poly
from f5gb.engine import EngineConfig
from f5gb.oracle import DescentRun, GgSnapshot, done_snapshots
from f5gb.poly import ORDER_KINDS, Lazy, Monomial, MonomialOrder, Polynomial, Ring, overflow_error
from f5gb.sig import Signature, _input_count, apply_ops, sig_key
from f5gb.trace import Registry, RegistryEntry, _rows, build_registry, in_scope, membership_at


def make_ring(p: int, names, order: str = "degrevlex") -> Ring:
    return Ring(p, MonomialOrder(order, len(names)), list(names))


def P(ring: Ring, text: str) -> Polynomial:
    return _parse_poly(ring, text, 0)


def polys(ring: Ring, *texts: str) -> list[Polynomial]:
    return [P(ring, t) for t in texts]


def sig_from_payload(d: dict) -> Signature:
    """The signature that an event payload writes as ``{"mono", "index"}``."""
    return Signature(Monomial(d["mono"]), d["index"])


def poly_from_payload(ring: Ring, payload: list) -> Polynomial:
    """The polynomial that an event payload writes as [c, vector] terms."""
    return ring.poly([(c, Monomial(exps)) for c, exps in payload])


def replay_vectors(ring: Ring, ops: Sequence[tuple]) -> dict:
    """Each position's module vector at the end of the log: every operation
    of the log replay (``build_registry``), in order.  The reference that
    ``sig.ReplayedVectors`` and ``sig.replay_leads`` are tested against."""
    vectors: dict = {}
    apply_ops(ring, _input_count(ops), ops, vectors)
    return vectors


def replayed_vectors(result) -> dict:
    """The module vector of every position of an engine run, replayed from
    its log."""
    return build_registry(result.events, result.ring).vectors


def replayed_inputs(result) -> list:
    """The monic inputs f_1, ..., f_m of an engine run, as the replay of its
    log rebuilds them from the ``CallBegin`` events."""
    polys = build_registry(result.events, result.ring).polys
    begins = sorted((ev["call"], ev["input_pos"]) for ev in result.events
                    if ev["kind"] == "CallBegin")
    return [polys[pos] for _, pos in begins]


def run_snapshots(result) -> list:
    """The descent snapshots of an engine run, one per Done insertion."""
    return done_snapshots(build_registry(result.events, result.ring))


def snapshot(ring: Ring, entries, members, g_pos: int, rules: dict, seq, input_pos: dict,
             vectors) -> GgSnapshot:
    """A hand-built descent snapshot at ``seq``, over a registry of its own
    with these elements (``sig.LabeledPolynomial``s), rule tables, input
    positions (input index -> position) and module vectors."""
    registry = Registry(
        {pos: RegistryEntry(pos, e.sig) for pos, e in entries.items()},
        {call: {"input_pos": pos} for call, pos in input_pos.items()},
        rules=rules, ring=ring, polys={pos: e.poly for pos, e in entries.items()})
    registry.vectors = vectors
    return GgSnapshot(DescentRun(registry), members, g_pos, seq)


def rule_tables(rules: dict) -> dict:
    """Hand-written rule tables {index: ((mono, owner), ...)}, oldest first,
    in the format of ``Registry.rules``: (seq, mono, owner) entries, numbered
    in the order written.  A view at ``seq=math.inf`` reads all of them."""
    seqs = itertools.count()
    return {
        index: [(next(seqs), mono, owner) for mono, owner in table]
        for index, table in rules.items()
    }


def problem_text(p: int, names, texts) -> str:
    """A problem file over GF(p): degrevlex unless ``texts`` holds an
    ``order:`` line."""
    return "\n".join([f"p = {p}", "vars: " + ", ".join(names), *texts]) + "\n"


PIN_PRIMES = (3, 5, 2**31 - 1)


def random_problem_texts(count: int, seed: int) -> list[str]:
    """``count`` small random homogeneous problem files: 2-3 variables, 2-5
    polynomials of degree 1-3 with random supports.  System k is over
    ``PIN_PRIMES[k % 3]`` and alternates deglex and lex with k, so every
    prime meets both orders."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        p = PIN_PRIMES[k % 3]
        order = ("deglex", "lex")[k % 2]
        names = [f"x{i}" for i in range(rng.randint(2, 3))]
        texts = []
        for _ in range(rng.randint(2, 5)):
            d = rng.randint(1, 3)
            monos = [c for c in itertools.product(range(d + 1), repeat=len(names)) if sum(c) == d]
            terms = []
            for exps in rng.sample(monos, rng.randint(1, len(monos))):
                factors = [f"{x}^{e}" for x, e in zip(names, exps) if e]
                terms.append("*".join([str(rng.randrange(1, p))] + factors))
            texts.append(" + ".join(terms))
        out.append(problem_text(p, names, [f"order: {order}", *texts]))
    return out


def _pair_key(a: int, ua: int, b: int, ub: int) -> tuple[int, int, int, int]:
    """A pair's two (position, packed multiplier) parts, lower position first."""
    return (a, ua, b, ub) if a < b else (b, ub, a, ua)


def _rejection_index(events: Sequence[dict]):
    """Index the logged rejections by pair identity.

    A pair is keyed by ``_pair_key``; a rejection during a top-reduction is
    keyed by the reduced element, its head, the candidate and the
    multiplier.  Monomials are keyed by packed value, and each distinct
    payload exponent vector is packed once, through ``Monomial``, which
    rejects a bad one.  A rejection classifies its pair from its own
    sequence number on, so only the earliest one per key is kept.
    """
    crit: dict = {}
    isred: dict = {}
    monos = Lazy(Monomial)

    def mono(exps):
        return monos[tuple(exps)].v

    # where each kind of rejection is logged against a whole pair
    pair_where = {"F5CritPairReject": "crit_pair", "RewrittenReject": "spol"}
    for ev in events:
        kind = ev["kind"]
        if kind in pair_where:
            verdict = "f5" if kind == "F5CritPairReject" else "rewritten"
            if ev["where"] == pair_where[kind]:
                key = _pair_key(ev["p1"], mono(ev["u1"]), ev["p2"], mono(ev["u2"]))
                crit.setdefault(key, (ev["seq"], verdict))
            elif ev["where"] == "is_reducible":
                key = (ev["h"], mono(ev["h_head"]), ev["cand"], mono(ev["mult"]))
                isred.setdefault(key, (ev["seq"], verdict))
    return crit, isred


class _PairRules:
    """How the log classifies S-pairs, pair by pair: the brute-force
    reference's coding of the evidence rules, which ``trace.EvidenceIndex``
    codes apart for the check.

    A pair is rejected by the F5 or the rewritten criterion when the engine
    logged that rejection, at pair creation, at S-polynomial creation or as a
    rejected top-reduction of one part by the other.  It is completed once
    the element built from it is Done-inserted.  An element built from it
    that reduced to zero never enters the basis, but its rule, added at
    creation, rewrites both parts from then on, so the pair counts as
    rewritten once the zero reduction is logged.

    Rejections are read from the events; the elements built from a pair,
    from the registry's genealogies.  Pairs are formed on the packed values
    of the entries' heads and signature monomials, as ``Engine._pairs``
    forms them: no ``Monomial`` or ``Signature`` is built per pair.
    """

    def __init__(self, events: Sequence[dict], registry: Registry, order):
        self.entries, self.polys = registry.entries, registry.polys
        self.order = order
        key_one = order.vkey(0)
        # each entry's ``sig_key`` less the order key of 1, so that a part's
        # key is this plus the order key of its multiplier (``_shape``)
        self.key_base = {pos: sig_key(e.sig, order) - key_one
                         for pos, e in registry.entries.items()}
        self.crit, self.isred = _rejection_index(events)
        # pair key -> the entries built from the pair, in creation order
        self.created: dict[tuple, list[RegistryEntry]] = {}
        for e in registry.entries.values():
            if not e.is_input:
                greater, smaller, u_over, u_under = e.genealogy
                key = _pair_key(greater, u_over.v, smaller, u_under.v)
                self.created.setdefault(key, []).append(e)

    def _shape(self, a_pos: int, b_pos: int):
        """The pair's signature key and lcm degree, and its two parts as
        (position, packed head, packed multiplier) triples, the lower
        position first.  The key is the greater ``sig_key`` of the two
        multiplied signatures: signature keys are affine in the monomial, so
        each is key(sig) + key(u) - key(1)."""
        if a_pos > b_pos:
            a_pos, b_pos = b_pos, a_pos
        a, b = self.entries[a_pos], self.entries[b_pos]
        lay = self.order.lay
        ha, hb = self.polys[a_pos].head_mono.v, self.polys[b_pos].head_mono.v
        t = lay.lcm(ha, hb)
        ua, ub = t - ha, t - hb
        ma, mb = ua + a.sig.mono.v, ub + b.sig.mono.v
        if (ma | mb) & lay.guard:
            raise overflow_error(f"a signature multiple of the pair of r{a_pos} and r{b_pos}")
        vkey, base = self.order.vkey, self.key_base
        key = max(base[a_pos] + vkey(ua), base[b_pos] + vkey(ub))
        return key, t >> lay.shift, (a_pos, ha, ua), (b_pos, hb, ub)

    def _evidence(self, a: tuple, b: tuple) -> list[tuple]:
        """(from_seq, seq, outcome, via) per outcome logged for the pair of
        parts ``a`` and ``b``: the outcome, logged at ``seq``, classifies the
        pair at every insertion after ``from_seq``."""
        (a_pos, ha, ua), (b_pos, hb, ub) = a, b
        out = []
        key = (a_pos, ua, b_pos, ub)
        hit = self.crit.get(key)
        if hit is not None:
            out.append((hit[0], hit[0], hit[1], "pair_check"))
        for isred_key in ((b_pos, hb, a_pos, ua), (a_pos, ha, b_pos, ub)):
            hit = self.isred.get(isred_key)
            if hit is not None:
                out.append((hit[0], hit[0], hit[1], "is_reducible"))
        for ne in self.created.get(key, ()):
            s = ne.created_seq
            if ne.done_seq is not None:
                out.append((max(s, ne.done_seq), s, "completed", "trail"))
            elif ne.zero_seq is not None:
                out.append((max(s, ne.zero_seq), s, "rewritten", "syzygy_rule"))
        return out

    def pair(self, a_pos: int, b_pos: int) -> tuple[int, int, float]:
        """One S-pair of members as the thm5 check sees it: (key, deg,
        first), the sig_key of the greater multiplied signature, the degree
        of the lcm of the heads, and the earliest sequence number after
        which some outcome classifies the pair at every insertion (inf when
        the log holds none)."""
        key, deg, a, b = self._shape(a_pos, b_pos)
        evidence = self._evidence(a, b)
        return key, deg, min(evidence)[0] if evidence else math.inf

    def evidence(self, a_pos: int, b_pos: int) -> list[tuple]:
        _, _, a, b = self._shape(a_pos, b_pos)
        return self._evidence(a, b)


class PairClassification(NamedTuple):
    g_pos: int
    pair: tuple[int, int]
    outcome: str  # f5 | rewritten | completed | unclassified
    seq: Optional[int]
    via: str = ""


def classify_pairs_at_insertion(
    events: Sequence[dict],
    registry: Registry,
    ring: Ring,
    done_event: dict,
) -> list[PairClassification]:
    """Classify every S-pair of members in scope at the insertion (see
    ``in_scope``) by its first processing outcome.  This is the brute-force
    reference for ``check_thm5_exhaustive``."""
    rules = _PairRules(events, registry, ring.order)
    g_pos = done_event["pos"]
    g = registry.entries[g_pos]
    g_key = sig_key(g.sig, ring.order)
    g_deg = registry.polys[g_pos].head_mono.deg
    seq = done_event["seq"]
    members = membership_at(registry, done_event["call"], seq)
    out = []
    for i, a_pos in enumerate(members):
        for b_pos in members[i + 1:]:
            key, deg, _ = rules.pair(a_pos, b_pos)
            if not in_scope(key, deg, g_key, g_deg, ring.order):
                continue
            evidence = sorted(
                (s, outcome, via)
                for first, s, outcome, via in rules.evidence(a_pos, b_pos)
                if first < seq
            )
            seq0, outcome, via = evidence[0] if evidence else (None, "unclassified", "")
            out.append(PairClassification(g_pos, (a_pos, b_pos), outcome, seq0, via))
    return out


def thm5_brute_force(events, ring: Ring) -> tuple[int, list]:
    """(checked, failures) as ``check_thm5_exhaustive`` should report them,
    found by classifying every pair at every insertion one at a time."""
    registry = build_registry(events, ring)
    classified = [
        cls
        for ev in events
        if ev["kind"] == "DoneInserted"
        for cls in classify_pairs_at_insertion(events, registry, ring, ev)
    ]
    failures = [
        (c.g_pos, c.pair, "unclassified") for c in classified if c.outcome == "unclassified"
    ]
    return len(classified), failures


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


def strip_rejections(events) -> list[dict]:
    """The log without its criterion rejections: every pair they classified
    becomes unclassified."""
    return [
        ev for ev in events if ev["kind"] not in ("F5CritPairReject", "RewrittenReject")
    ]


# Coefficients of the "generic" systems were drawn once from a fixed seed and
# frozen here so every run sees identical inputs.

SUITE = {
    "two_gen_demo": (["x", "y"], ["x^2 + y^2", "x*y"]),
    "mono_pair": (["x", "y"], ["x^2*y", "x*y^2"]),
    "mono_triple": (["x", "y"], ["x^2", "x*y", "y^3"]),
    "quadric_pair": (
        ["x", "y", "z"],
        [
            "x^2 + 2*x*y + 3*y^2 + 4*x*z + 5*y*z + 6*z^2",
            "3*x^2 + x*y + 4*y^2 + x*z + 5*y*z + 2*z^2",
        ],
    ),
    "quadric_cubic": (
        ["x", "y", "z"],
        [
            "x^2 + 3*x*y + y^2 + 2*x*z + 4*y*z + z^2",
            "x^3 + 2*x^2*y + 3*x*y^2 + 4*y^3 + 5*x^2*z + x*y*z "
            "+ 2*y^2*z + 3*x*z^2 + 4*y*z^2 + 5*z^3",
        ],
    ),
    "cyclic3_homog": (
        ["x", "y", "z", "h"],
        ["x + y + z", "x*y + y*z + x*z", "x*y*z - h^3"],
    ),
    "katsura3_homog": (
        ["x0", "x1", "x2", "x3", "h"],
        [
            "x0 + 2*x1 + 2*x2 + 2*x3 - h",
            "x0^2 + 2*x1^2 + 2*x2^2 + 2*x3^2 - x0*h",
            "2*x0*x1 + 2*x1*x2 + 2*x2*x3 - x1*h",
            "x1^2 + 2*x0*x2 + 2*x1*x3 - x2*h",
        ],
    ),
    "nonregular_quadrics": (
        ["x", "y"],
        ["x^2 + 2*x*y + 3*y^2", "x^2 + 5*y^2", "x*y + y^2"],
    ),
    "nonregular_mixed": (
        ["x", "y"],
        [
            "4*x^2 + 4*x*y + 5*y^2",
            "2*x + 4*y",
            "x + 2*y",
            "x^3 + 2*x^2*y + 5*x*y^2 + 5*y^3",
        ],
    ),
}

SUITE_PRIMES = (7, 32003)

# cyclic-4, homogenized by h
CYCLIC4 = (
    ["x0", "x1", "x2", "x3", "h"],
    [
        "x0 + x1 + x2 + x3",
        "x0*x1 + x1*x2 + x2*x3 + x3*x0",
        "x0*x1*x2 + x1*x2*x3 + x2*x3*x0 + x3*x0*x1",
        "x0*x1*x2*x3 - h^4",
    ],
)


# katsura-5, homogenized by h
KATSURA5 = (
    ["x0", "x1", "x2", "x3", "x4", "x5", "h"],
    [
        "x0 + 2*x1 + 2*x2 + 2*x3 + 2*x4 + 2*x5 - h",
        "x0^2 + 2*x1^2 + 2*x2^2 + 2*x3^2 + 2*x4^2 + 2*x5^2 - x0*h",
        "2*x0*x1 + 2*x1*x2 + 2*x2*x3 + 2*x3*x4 + 2*x4*x5 - x1*h",
        "2*x0*x2 + x1^2 + 2*x1*x3 + 2*x2*x4 + 2*x3*x5 - x2*h",
        "2*x0*x3 + 2*x1*x2 + 2*x1*x4 + 2*x2*x5 - x3*h",
        "2*x0*x4 + 2*x1*x3 + 2*x1*x5 + x2^2 - x4*h",
    ],
)


# cyclic-5, homogenized by h
CYCLIC5 = (
    ["x0", "x1", "x2", "x3", "x4", "h"],
    [
        "x0 + x1 + x2 + x3 + x4",
        "x0*x1 + x1*x2 + x2*x3 + x3*x4 + x4*x0",
        "x0*x1*x2 + x1*x2*x3 + x2*x3*x4 + x3*x4*x0 + x4*x0*x1",
        "x0*x1*x2*x3 + x1*x2*x3*x4 + x2*x3*x4*x0 + x3*x4*x0*x1 + x4*x0*x1*x2",
        "x0*x1*x2*x3*x4 - h^5",
    ],
)

# the systems of the log plants (test_trace.py) and the engine plants
# (test_cli.py), over GF(32003) under degrevlex
PLANT_SYSTEMS = {"cyclic4": CYCLIC4, "katsura5": KATSURA5}

# the fields of each row of EVENT_SHAPES after ``kind``, (name, shape) in
# log order, with the shape the codec writes for a role, by the row's keys
ROW_FIELDS = {keys: row.fields[2:] for keys, row in _rows().items()}


# Not regular under deglex: its reduced basis tops out at degree 7, but F5
# inserts elements up to degree 19 (85 insertions, 6,033 events).  Not in
# SUITE, which the benchmark and the report digests read.
OVERSHOOT_DEGLEX = """p = 32003
vars: x0, x1, x2, x3
order: deglex
27479*x0^2*x3
17372*x0*x1*x3 + 21875*x1^3 + 11095*x1^2*x3
23632*x0*x3^2 + 4597*x0*x1*x2 + 26823*x0^3 + 17827*x1^2*x2
29259*x1*x3 + 13117*x2^2
"""


ENGINE_PIN_PRIMES = (3, 5, 7, 32003, 2**31 - 1)
# every fourth system of ``engine_pin_systems`` runs under one of these
# budgets; in the engine-log pin (400 systems) 38 of those 100 runs exit
# with a partial log
ENGINE_PIN_BUDGETS = (
    EngineConfig(max_degree=3),
    EngineConfig(max_pairs=4),
    EngineConfig(reduction_step_cap=3),
)


def engine_pin_systems(count: int, seed: int):
    """``count`` seeded small random homogeneous engine inputs, as (ring,
    polynomials, config): 2-3 variables, 2-5 polynomials of degree 1-3 with
    random supports.  System k is over ``ENGINE_PIN_PRIMES[k % 5]`` under
    ``ORDER_KINDS[k % 3]``, so every prime meets every order.  Every fourth
    system runs under a tight budget, the others under ``max_degree`` 12."""
    rng = random.Random(seed)
    for k in range(count):
        p = ENGINE_PIN_PRIMES[k % 5]
        names = [f"x{i}" for i in range(rng.randint(2, 3))]
        ring = make_ring(p, names, ORDER_KINDS[k % 3])
        inputs = []
        for _ in range(rng.randint(2, 5)):
            d = rng.randint(1, 3)
            monos = [e for e in itertools.product(range(d + 1), repeat=len(names))
                     if sum(e) == d]
            terms = [(rng.randrange(1, p), Monomial(e))
                     for e in rng.sample(monos, rng.randint(1, len(monos)))]
            inputs.append(ring.poly(terms))
        budget = ENGINE_PIN_BUDGETS[k // 4 % 3] if k % 4 == 3 else EngineConfig(max_degree=12)
        yield ring, inputs, budget


def suite_instances():
    for name, (names, texts) in SUITE.items():
        for p in SUITE_PRIMES:
            ring = make_ring(p, names)
            yield f"{name}_gf{p}", ring, polys(ring, *texts)


# Lex systems of the check-small benchmark (seed 0) whose harvest once
# offered descent seeds outside the scope of their snapshot's insertion:
# a signature below the inserted element's but, in the inserting call's
# index, a degree above its head.  Some of those seeds could not be
# descended (no stored trail for the head cancellation).
LEX_SCOPE = {
    "random147": """p = 32003
vars: x0, x1, x2
order: lex
31413*x0
7212*x0^3 + 18204*x0^2*x1 + 21390*x0^2*x2 + 5343*x0*x2^2 + 21655*x1^3 + 28806*x1*x2^2 + 16211*x2^3
26518*x0^2 + 31239*x0*x1 + 24163*x0*x2 + 15759*x1^2 + 17893*x1*x2 + 10288*x2^2
23077*x0^2 + 27781*x0*x1 + 2582*x0*x2 + 8493*x1^2 + 4504*x1*x2 + 19802*x2^2
13168*x0^3 + 23050*x0^2*x2 + 6261*x0*x1^2 + 26926*x0*x2^2 + 10369*x1*x2^2 + 25735*x2^3
""",
    "random256": """p = 5
vars: x0, x1, x2
order: lex
2*x0^2 + 2*x0*x1 + 3*x0*x2 + 4*x1^2 + 2*x2^2
x0^3 + 4*x0^2*x1 + 4*x0^2*x2 + 4*x0*x1^2 + 4*x0*x1*x2 + 2*x0*x2^2 + 4*x1^3 + 3*x1^2*x2 + 4*x1*x2^2 + 2*x2^3
3*x0*x1 + x1*x2 + x2^2
""",
    "random379": """p = 3
vars: x0, x1, x2
order: lex
x0^2 + 2*x0*x1 + x0*x2 + x1*x2 + 2*x2^2
2*x0^3 + 2*x0^2*x2
x0^3 + 2*x0^2*x1 + x0^2*x2 + x0*x1^2 + 2*x0*x1*x2 + 2*x0*x2^2 + 2*x1^3 + 2*x1^2*x2 + 2*x1*x2^2 + x2^3
2*x0^2 + 2*x0*x1 + x0*x2 + x1^2
""",
    "random397": """p = 2147483647
vars: x0, x1, x2
order: lex
250770794*x0^2 + 2022462985*x0*x2 + 338823432*x1^2 + 299136440*x1*x2 + 947993986*x2^2
1967246385*x1*x2 + 1823059599*x2^2
1151539863*x0^3 + 910139517*x0^2*x1 + 2011995040*x0^2*x2 + 385416992*x0*x1^2 + 1801809825*x0*x1*x2 + 82278518*x0*x2^2 + 641836255*x1^3 + 1610729262*x1^2*x2 + 1009739615*x1*x2^2
1230289084*x0^2 + 183143845*x0*x1 + 1465568035*x0*x2 + 787420726*x1^2 + 1390252485*x1*x2
""",
    "random540": """p = 2147483647
vars: x0, x1, x2
order: lex
333338894*x0*x1 + 889281889*x0*x2 + 1734099702*x1*x2 + 57254115*x2^2
641480080*x0^2*x1 + 1828326144*x2^3
383114747*x0*x1
2044191157*x0^2 + 1240434222*x0*x2 + 1733399003*x1^2
1742975771*x0^3 + 336451883*x0^2*x2 + 168053481*x0*x1*x2 + 904474910*x1^3 + 1856728434*x1^2*x2 + 1625392556*x1*x2^2 + 1099353208*x2^3
""",
}
