"""Exact multivariate polynomial arithmetic over a prime field GF(p).

Monomials are exponent vectors packed into one int (Monagan & Pearce,
CASC 2007): 16 bits per exponent, x_0 lowest, the total degree above them,
and a guard bit atop each field, so every exponent and degree is below
2^15 and an overflow raises instead of wrapping.  Multiplication is an
addition, division a subtraction, and each order key is derived from the
packed value.  Polynomials are term sequences kept strictly descending in
the ambient monomial order.  Everything here is immutable and hashable so
values can be shared freely between the engine, the checkers and the
oracle.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache, partial
from struct import Struct
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

LT, EQ, GT = -1, 0, 1

ORDER_KINDS = ("degrevlex", "deglex", "lex")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the 2^31 modulus cap."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


FIELD_BITS = 16
BOUND = 1 << (FIELD_BITS - 1)  # every exponent and degree is below this


class Layout:
    """The packed form of the monomials over n variables.

    Field k (bits 16k to 16k + 15) holds the exponent of x_k for k < n, and
    field n holds the total degree.  Bit 15 of each field is its guard bit,
    zero in every valid monomial, so values stay below 2^15 and a field that
    overflows in an addition, or borrows in a subtraction, shows in its guard
    bit without touching its neighbour.
    """

    __slots__ = ("n", "shift", "low", "guard", "exp_guard", "ones", "low_bytes", "codec")

    def __init__(self, n: int):
        self.n = n
        self.shift = FIELD_BITS * n  # offset of the degree field
        self.low = (1 << self.shift) - 1  # the n exponent fields
        every = ((1 << (FIELD_BITS * (n + 1))) - 1) // 0xFFFF  # 1 in each field
        self.guard = every << (FIELD_BITS - 1)
        self.exp_guard = self.guard & self.low
        self.ones = every & self.low
        self.low_bytes = self.ones * 0xFF  # the low byte of each exponent field
        self.codec = Struct(f"<{n}H")  # exponent fields, x_0 first

    def pack(self, exps: Sequence[int], deg: int) -> int:
        return int.from_bytes(self.codec.pack(*exps), "little") | deg << self.shift

    def unpack(self, v: int) -> tuple[int, ...]:
        """The exponent tuple of the packed value v."""
        return self.codec.unpack_from(v.to_bytes(2 * self.n + 2, "little"))

    def mask(self, v: int) -> int:
        """The divisibility mask of the packed value v (``Monomial.mask``)."""
        v, ones, guard = v | self.exp_guard, self.ones, self.exp_guard
        return (v - ones) & guard | ((v - 2 * ones) & guard) >> 1

    def fieldwise(self, a: int, b: int, take_max: bool) -> int:
        """The fieldwise max (lcm) or min (gcd) of the packed values a, b.

        The new degree is the sum of the exponent fields: as 2^16 = 1 modulo
        2^16 - 1, that is their packed value modulo 2^16 - 1, and it is exact
        because the sum is at most deg(a) + deg(b) < 2^16 - 1."""
        ge = ((a | self.guard) - b) & self.guard  # guard bit set where a >= b
        from_a = (ge - (ge >> (FIELD_BITS - 1))) & self.low  # value bits of those fields
        x, y = (a, b) if take_max else (b, a)
        exps = (y ^ ((x ^ y) & from_a)) & self.low
        deg = exps % 0xFFFF
        if deg >= BOUND:
            raise overflow_error(f"lcm of {self.unpack(a)} and {self.unpack(b)}")
        return exps | deg << self.shift


@cache
def _layout(n: int) -> Layout:
    return Layout(n)


def overflow_error(what: str) -> OverflowError:
    return OverflowError(f"{what}: exponents and degrees must be below 2^15 = {BOUND}")


class Monomial:
    """A power product over n variables, packed into one int ``v``.

    ``v`` holds one 16-bit field per exponent, x_0 lowest, and the total
    degree in the field above them (see ``Layout``).  Each field keeps its
    top bit as a guard, so every exponent and the degree must be below 2^15:
    building a monomial past that bound, or a ``mul`` or ``lcm`` whose result
    would pass it, raises ``OverflowError``; nothing wraps.  On this form
    ``mul`` is one addition, ``divides`` and ``divide`` one subtraction with
    a test of the guard bits, and ``lcm``/``gcd`` a fieldwise max/min.

    Two values are computed on first use only: the exponent tuple (``exps``)
    and the divisibility mask (``mask``).  Order keys are not stored: each
    ``MonomialOrder.key`` is computed from ``v``.
    """

    __slots__ = ("v", "lay", "_exps", "_mask")

    def __init__(self, exps: Sequence[int]):
        exps = tuple(exps)
        if exps and min(exps) < 0:
            raise ValueError(f"negative exponent in {exps}")
        deg = sum(exps)
        if deg >= BOUND:
            raise overflow_error(f"degree {deg} of {exps}")
        lay = _layout(len(exps))
        self.v = lay.pack(exps, deg)
        self.lay = lay
        self._exps = exps
        self._mask = None

    @staticmethod
    def one(n: int) -> "Monomial":
        return packed_monomial(0, _layout(n))

    @property
    def exps(self) -> tuple[int, ...]:
        exps = self._exps
        if exps is None:
            exps = self._exps = self.lay.unpack(self.v)
        return exps

    @property
    def deg(self) -> int:
        return self.v >> self.lay.shift

    @property
    def is_one(self) -> bool:
        return not self.v

    def mul(self, other: "Monomial") -> "Monomial":
        v = self.v + other.v
        lay = self.lay
        if v & lay.guard:
            raise overflow_error(f"product of {self!r} and {other!r}")
        return packed_monomial(v, lay)

    __mul__ = mul

    def divide(self, other: "Monomial") -> Optional["Monomial"]:
        """self / other, or None when some exponent would go negative."""
        lay = self.lay
        guard = lay.guard
        v = (self.v | guard) - other.v
        if v & guard != guard:
            return None
        return packed_monomial(v ^ guard, lay)

    def divides(self, other: "Monomial") -> bool:
        guard = self.lay.guard
        return ((other.v | guard) - self.v) & guard == guard

    @property
    def mask(self) -> int:
        """Two bits per variable, bits 16k + 15 and 16k + 14, set when the
        exponent of x_k is >= 1 and >= 2.

        If a divides b then every bit of ``a.mask`` is set in ``b.mask``, so
        ``a.mask & ~b.mask`` rules out most non-divisors without a division
        (Roune & Stillman's divmask).
        """
        mask = self._mask
        if mask is None:
            mask = self._mask = self.lay.mask(self.v)
        return mask

    def lcm(self, other: "Monomial") -> "Monomial":
        lay = self.lay
        return packed_monomial(lay.fieldwise(self.v, other.v, True), lay)

    def gcd(self, other: "Monomial") -> "Monomial":
        lay = self.lay
        return packed_monomial(lay.fieldwise(self.v, other.v, False), lay)

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.v == other.v and self.lay.n == other.lay.n

    def __hash__(self) -> int:
        return hash(self.v)

    def __repr__(self) -> str:
        return f"Monomial({self.exps})"

    def text(self, names: Optional[Sequence[str]] = None) -> str:
        if self.deg == 0:
            return "1"
        names = names or [f"x{i}" for i in range(len(self.exps))]
        parts = []
        for name, e in zip(names, self.exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)


def packed_monomial(v: int, lay: Layout) -> Monomial:
    """The monomial with packed value ``v``, known to be valid."""
    m = object.__new__(Monomial)
    m.v = v
    m.lay = lay
    m._exps = m._mask = None
    return m


class MonomialOrder:
    """A total degree-compatible-or-lex order on monomials over n variables.

    ``key`` returns an int ascending in the order, so ``sorted`` and
    ``min``/``max`` can be used directly.  ``vkey(v)`` is the same key for a
    packed value, with no ``Monomial``.

    The keys are ints laid out like the packed form, and each is computed
    from the packed value with no exponent decode.  degrevlex: the packed
    value with every exponent field complemented, so the degree decides
    first and then a smaller exponent of the last variable wins.  lex: the
    exponent fields in reverse, x_0 most significant; that is the exponent
    fields with the two bytes of each swapped, read as a big-endian int.
    deglex: the degree above the lex key.
    """

    __slots__ = ("kind", "n", "lay", "vkey")

    def __init__(self, kind: str, n: int):
        if kind not in ORDER_KINDS:
            raise ValueError(f"unknown monomial order {kind!r}")
        self.kind = kind
        self.n = n
        self.lay = lay = _layout(n)
        if kind == "degrevlex":
            self.vkey = lay.low.__xor__
            return

        low, low_bytes, size, lex = lay.low, lay.low_bytes, 2 * n, kind == "lex"

        def vkey(v: int) -> int:
            exps = v & low
            swapped = (exps & low_bytes) << 8 | (exps >> 8) & low_bytes
            key = int.from_bytes(swapped.to_bytes(size, "little"), "big")
            return key if lex else v - exps | key

        self.vkey = vkey

    def key(self, m: Monomial) -> int:
        return self.vkey(m.v)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.n == other.n
        )

    def __repr__(self) -> str:
        return f"MonomialOrder({self.kind!r}, {self.n})"


def quotient_key(num: Monomial, den: Monomial, order: MonomialOrder) -> int:
    """An int ascending in the order extended to formal quotients: n1/d1 >
    n2/d2 when n1*d2 > n2*d1.  Order keys are affine in the packed value, so
    key(n1*d2) - key(n2*d1) = (key(n1) - key(d1)) - (key(n2) - key(d2)), and
    no product is formed."""
    return order.vkey(num.v) - order.vkey(den.v)


class Ring:
    """GF(p)[x_1..x_n] with a fixed monomial order."""

    __slots__ = ("p", "order", "n", "names")

    def __init__(self, p: int, order: MonomialOrder, names: Optional[Sequence[str]] = None):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        if p >= 2**31:
            raise ValueError("modulus must be below 2^31")
        self.p = p
        self.order = order
        self.n = order.n
        self.names = tuple(names) if names else tuple(f"x{i}" for i in range(self.n))

    def inv(self, c: int) -> int:
        if c % self.p == 0:
            raise ZeroDivisionError("inverse of zero in GF(p)")
        return pow(c, -1, self.p)

    def poly(self, terms: Iterable[tuple[int, Monomial]]) -> "Polynomial":
        """Build a polynomial, merging duplicates and dropping zeros."""
        acc: dict[int, int] = {}
        monos: dict[int, Monomial] = {}
        for c, m in terms:
            key = m.v
            acc[key] = (acc.get(key, 0) + c) % self.p
            monos[key] = m
        out = [
            (c, monos[k])
            for k, c in acc.items()
            if c % self.p != 0
        ]
        out.sort(key=lambda t: self.order.key(t[1]), reverse=True)
        return Polynomial(self, tuple(out))

    def product_terms(
        self, products: Iterable[tuple[int, Monomial, "Polynomial"]]
    ) -> dict[int, int]:
        """The sum of c * t * q over the (c, t, q) triples, in one pass, as
        {packed monomial: coefficient}, in no order; empty when the sum is 0.

        Each product monomial is one addition of packed values, used as the
        dict key with no ``Monomial`` built; a key with a guard bit set is an
        exponent or degree that reached 2^15 and raises ``OverflowError`` as
        ``mul`` does.  Coefficients are reduced modulo p once per key, and
        only the nonzero ones are kept.
        """
        acc: dict[int, int] = {}
        get = acc.get
        for c, t, q in products:
            tv = t.v
            for cq, m in q.terms:
                v = tv + m.v
                acc[v] = get(v, 0) + c * cq
        guard, p = _layout(self.n).guard, self.p
        out = {}
        for v, c in acc.items():
            if v & guard:
                raise overflow_error("a product in product_sum")
            c %= p
            if c:
                out[v] = c
        return out

    def product_sum(self, products: Iterable[tuple[int, Monomial, "Polynomial"]]) -> "Polynomial":
        """The sum of c * t * q over the (c, t, q) triples: ``product_terms``,
        with monomials built for the terms that survive, then sorted once."""
        lay = _layout(self.n)
        out = [(c, packed_monomial(v, lay)) for v, c in self.product_terms(products).items()]
        key = self.order.key
        out.sort(key=lambda t: key(t[1]), reverse=True)
        return Polynomial(self, tuple(out))

    @property
    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def one_mono(self) -> Monomial:
        return Monomial.one(self.n)

    def variable(self, i: int) -> Monomial:
        exps = [0] * self.n
        exps[i] = 1
        return Monomial(exps)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Ring)
            and self.p == other.p
            and self.order == other.order
        )

    def __repr__(self) -> str:
        return f"Ring(GF({self.p}), {self.order!r})"


class Polynomial:
    """Terms strictly descending in the ring order; no zero coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: tuple[tuple[int, Monomial], ...]):
        self.ring = ring
        self.terms = terms

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def head_coeff(self) -> int:
        return self.terms[0][0]

    @property
    def head_mono(self) -> Monomial:
        return self.terms[0][1]

    @property
    def degree(self) -> int:
        """Total degree of the head monomial; -1 for the zero polynomial."""
        return self.terms[0][1].deg if self.terms else -1

    def add(self, other: "Polynomial") -> "Polynomial":
        return self.ring.poly(list(self.terms) + list(other.terms))

    def sub(self, other: "Polynomial") -> "Polynomial":
        p = self.ring.p
        return self.ring.poly(
            list(self.terms) + [((-c) % p, m) for c, m in other.terms]
        )

    def scale(self, c: int) -> "Polynomial":
        c %= self.ring.p
        if c == 0:
            return self.ring.zero
        if c == 1:
            return self
        p = self.ring.p
        return Polynomial(self.ring, tuple((ck * c % p, m) for ck, m in self.terms))

    def term_mul(self, c: int, t: Monomial) -> "Polynomial":
        """c * t * self."""
        c %= self.ring.p
        if c == 0:
            return self.ring.zero
        p = self.ring.p
        terms = tuple((ck * c % p, m.mul(t)) for ck, m in self.terms)
        return Polynomial(self.ring, terms)

    def monic(self) -> "Polynomial":
        return self.monic_scale()[0]

    def monic_scale(self) -> tuple["Polynomial", int]:
        """self scaled to leading coefficient 1, and the scale s; s is 1 when
        self is zero or already monic."""
        if self.is_zero or self.head_coeff == 1:
            return self, 1
        s = self.ring.inv(self.head_coeff)
        return self.scale(s), s

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash(tuple((c, m.v) for c, m in self.terms))

    def __repr__(self) -> str:
        return f"Polynomial({self.text()})"

    def text(self, names: Optional[Sequence[str]] = None) -> str:
        if self.is_zero:
            return "0"
        names = names or self.ring.names
        parts = []
        for c, m in self.terms:
            if m.deg == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(m.text(names))
            else:
                parts.append(f"{c}*{m.text(names)}")
        return " + ".join(parts)


def poly_axpy(p: Polynomial, c: int, t: Monomial, q: Polynomial) -> Polynomial:
    """p - c*t*q with terms merged and order maintained.

    One linear merge of the two descending term lists: multiplying by t
    keeps q's terms descending, so no sort is needed.  The merge runs on
    packed values and their order keys: each product is one addition with a
    test of its guard bits, which raises ``OverflowError`` as ``mul`` does,
    also for a term that would cancel, and a ``Monomial`` is built only for
    a product that enters the result unmerged.
    """
    ring = p.ring
    mod = ring.p
    minus_c = -c % mod
    if minus_c == 0 or not q.terms:
        return p
    vkey = ring.order.vkey
    lay = t.lay
    guard = lay.guard
    tv = t.v
    a = p.terms
    na = len(a)
    out = []
    i = 0
    ka = vkey(a[0][1].v) if na else None
    for cq, mq in q.terms:
        v = mq.v + tv
        if v & guard:
            raise overflow_error(f"product of {t!r} and {mq!r}")
        km = vkey(v)
        while i < na and ka > km:
            out.append(a[i])
            i += 1
            if i < na:
                ka = vkey(a[i][1].v)
        cm = cq * minus_c % mod
        if i < na and ka == km:
            cm = (a[i][0] + cm) % mod
            if cm:
                out.append((cm, a[i][1]))
            i += 1
            if i < na:
                ka = vkey(a[i][1].v)
        else:
            out.append((cm, packed_monomial(v, lay)))
    out.extend(a[i:])
    return Polynomial(ring, tuple(out))


def is_homogeneous(p: Polynomial) -> bool:
    """True when all terms share one total degree; vacuously true for 0."""
    if p.is_zero:
        return True
    d = p.terms[0][1].deg
    return all(m.deg == d for _, m in p.terms)


class Lazy(dict):
    """A dict whose value for each key is ``make(key)``, computed on first
    use."""

    __slots__ = ("make",)

    def __init__(self, make: Callable):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class Reducer(NamedTuple):
    """A divisor prepared for ``reduce_with``: its head's packed value,
    -1/lc mod p, its tail as (order key, coefficient, packed value) triples,
    descending and keyed once, and a tag that names it in the steps."""

    head: int
    neg_inv: int
    tail: tuple[tuple[int, int, int], ...]
    tag: object

    @classmethod
    def of(cls, b: "Polynomial", tag: object) -> "Reducer":
        ring = b.ring
        vkey = ring.order.vkey
        tail = tuple([(vkey(m.v), c, m.v) for c, m in b.terms[1:]])
        return cls(b.head_mono.v, ring.p - ring.inv(b.head_coeff), tail, tag)


def reduce_with(
    p: Polynomial,
    reducer: Callable[[int], Optional[Reducer]],
    steps: Optional[list] = None,
) -> Polynomial:
    """The normal-form kernel: the remainder of p when every term, greatest
    first, is cancelled by the divisor that ``reducer`` gives for its packed
    monomial, or kept when it gives None.  The divisor's head must divide
    the term.  For each cancellation of c*m by b, (c, packed m / head(b),
    b's tag) is appended to ``steps`` when given.

    p's terms are scanned from the head until ``reducer`` answers for one.
    When none has a divisor, p itself is returned.  Otherwise the terms
    above the first reducible one are kept as they are, and only the rest
    enters the remainder, which is kept ascending, its head at the end, as
    parallel lists of order keys, coefficients and packed values: a
    divisor's tail is inserted term by term with ``bisect``, so no step
    rebuilds the whole remainder.  Order keys are affine in the packed
    value, so a product's key is its tail term's key plus key(u) - key(1),
    with no key computed per product; each product's guard bits are tested
    first, and one that reaches 2^15 raises ``OverflowError`` as
    ``Monomial.mul`` does, also when it would cancel.  A term of p that
    survives keeps its ``Monomial``; one is built only for a product term
    that enters the remainder.
    """
    terms = p.terms
    for first, (c, m) in enumerate(terms):
        found = reducer(m.v)
        if found is not None:
            break
    else:
        return p
    ring = p.ring
    mod = ring.p
    lay = m.lay
    guard = lay.guard
    vkey = ring.order.vkey
    key_one = vkey(0)
    v = m.v
    rest = terms[:first:-1]  # the terms below the first reducible one, ascending
    kept = {mono.v: mono for _, mono in rest}  # p's monomials are distinct
    vals = list(kept)
    keys = [vkey(x) for x in vals]
    coeffs = [cr for cr, _ in rest]
    out = list(terms[:first])
    while True:
        if found is None:
            out.append((c, kept.get(v) or packed_monomial(v, lay)))
        else:
            head, neg_inv, tail, tag = found
            u = (v | guard) - head ^ guard
            if steps is not None:
                steps.append((c, u, tag))
            factor = c * neg_inv % mod
            ku = vkey(u) - key_one
            hi = len(keys)
            for kb, cb, vb in tail:
                w = vb + u
                if w & guard:
                    raise overflow_error(
                        f"product of {packed_monomial(u, lay)!r} and {packed_monomial(vb, lay)!r}"
                    )
                k = kb + ku
                hi = bisect_left(keys, k, 0, hi)
                if hi < len(keys) and keys[hi] == k:
                    cn = (coeffs[hi] + cb * factor) % mod
                    if cn:
                        coeffs[hi] = cn
                    else:
                        del keys[hi], coeffs[hi], vals[hi]
                else:
                    keys.insert(hi, k)
                    coeffs.insert(hi, cb * factor % mod)
                    vals.insert(hi, w)
        if not keys:
            return Polynomial(ring, tuple(out))
        keys.pop()
        c = coeffs.pop()
        v = vals.pop()
        found = reducer(v)


def first_divisor(
    lay: Layout, reducers: Lazy, heads: Sequence[tuple[int, int, object]], v: int
) -> Optional[Reducer]:
    """``reducers[key]`` for the first of ``heads``, (divmask, packed head,
    key) in scan order, whose head divides the monomial of packed value
    ``v``, or None.  A head is tested only when its divmask fits; no
    ``Monomial`` is built."""
    guard = lay.guard
    outside = ~lay.mask(v)
    w = v | guard
    for mask, head, key in heads:
        if not mask & outside and (w - head) & guard == guard:
            return reducers[key]
    return None


def normal_form(p: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Full remainder of p modulo ``basis`` (scanned in the given order).

    No term of the result is divisible by any basis head monomial, and the
    result is congruent to p modulo the ideal the basis generates.  Each
    head term is reduced by the first basis element whose head divides it
    (``first_divisor``), through ``reduce_with``; a reducer's tail is keyed
    once per call, on first use.
    """
    heads = [(b.head_mono.mask, b.head_mono.v, k) for k, b in enumerate(basis) if b.terms]
    if not heads or not p.terms:
        return p
    prepared = Lazy(lambda k: Reducer.of(basis[k], k))
    return reduce_with(p, partial(first_divisor, _layout(p.ring.n), prepared, heads))
