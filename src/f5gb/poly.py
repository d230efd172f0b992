"""Exact multivariate polynomial arithmetic over a prime field GF(p).

Monomials are dense exponent vectors, polynomials are term sequences kept
strictly descending in the ambient monomial order.  Everything here is
immutable and hashable so values can be shared freely between the engine,
the checkers and the oracle.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import add, le, neg, sub
from typing import Iterable, Optional, Sequence

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


class Monomial:
    """A power product, stored as a tuple of non-negative exponents.

    Two values are computed on first use only: the divisibility mask
    (``mask``) and the order key, stored with the kind of order it was
    computed for (by ``MonomialOrder.key``).  Monomials built on paths that
    never ask for them pay nothing.
    """

    __slots__ = ("exps", "deg", "_mask", "_key", "_key_kind")

    def __init__(self, exps: Sequence[int]):
        self.exps = tuple(exps)
        self.deg = sum(self.exps)
        self._mask = None
        self._key_kind = None

    @staticmethod
    def one(n: int) -> "Monomial":
        return Monomial((0,) * n)

    @property
    def is_one(self) -> bool:
        return self.deg == 0

    def mul(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(map(add, self.exps, other.exps)))

    __mul__ = mul

    def divide(self, other: "Monomial") -> Optional["Monomial"]:
        """self / other, or None when some exponent would go negative."""
        out = tuple(map(sub, self.exps, other.exps))
        if out and min(out) < 0:
            return None
        return Monomial(out)

    def divides(self, other: "Monomial") -> bool:
        return all(map(le, self.exps, other.exps))

    @property
    def mask(self) -> int:
        """Two bits per variable, set when its exponent is >= 1 and >= 2.

        If a divides b then every bit of ``a.mask`` is set in ``b.mask``, so
        ``a.mask & ~b.mask`` rules out most non-divisors without a scan
        (Roune & Stillman's divmask).
        """
        mask = self._mask
        if mask is None:
            mask = 0
            for k, e in enumerate(self.exps):
                if e:
                    mask |= (1 if e == 1 else 3) << (2 * k)
            self._mask = mask
        return mask

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(map(max, self.exps, other.exps)))

    def gcd(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(min(a, b) for a, b in zip(self.exps, other.exps)))

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self) -> int:
        return hash(self.exps)

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


def _degrevlex_key(exps: tuple, deg: int):
    return (deg, tuple(map(neg, reversed(exps))))


def _deglex_key(exps: tuple, deg: int):
    return (deg, exps)


def _lex_key(exps: tuple, deg: int):
    return exps


_EXPS_KEYS = {"degrevlex": _degrevlex_key, "deglex": _deglex_key, "lex": _lex_key}


class MonomialOrder:
    """A total degree-compatible-or-lex order on monomials over n variables.

    ``key`` returns a tuple sorting ascending in the order, so ``sorted`` and
    ``min``/``max`` can be used directly.  ``exps_key(exps, deg)`` is the same
    key for an exponent tuple and its total degree, with no ``Monomial``.
    """

    __slots__ = ("kind", "n", "exps_key")

    def __init__(self, kind: str, n: int):
        if kind not in ORDER_KINDS:
            raise ValueError(f"unknown monomial order {kind!r}")
        self.kind = kind
        self.n = n
        self.exps_key = _EXPS_KEYS[kind]

    def key(self, m: Monomial):
        """Cached on ``m`` with the order kind; a key of another kind replaces it."""
        kind = self.kind
        if m._key_kind == kind:
            return m._key
        key = m._key = self.exps_key(m.exps, m.deg)
        m._key_kind = kind
        return key

    def cmp(self, a: Monomial, b: Monomial) -> int:
        ka, kb = self.key(a), self.key(b)
        if ka < kb:
            return LT
        if ka > kb:
            return GT
        return EQ

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.n == other.n
        )

    def __repr__(self) -> str:
        return f"MonomialOrder({self.kind!r}, {self.n})"


@dataclass(frozen=True)
class MonomialQuotient:
    """A formal quotient of monomials, compared only by cross-multiplication."""

    num: Monomial
    den: Monomial


def quotient_cmp(q1: MonomialQuotient, q2: MonomialQuotient, order: MonomialOrder) -> int:
    """Transitive extension of the order to quotients: n1/d1 vs n2/d2 by n1*d2 vs n2*d1."""
    return order.cmp(q1.num.mul(q2.den), q2.num.mul(q1.den))


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
        return pow(c, self.p - 2, self.p)

    def poly(self, terms: Iterable[tuple[int, Monomial]]) -> "Polynomial":
        """Build a polynomial, merging duplicates and dropping zeros."""
        acc: dict[tuple, int] = {}
        monos: dict[tuple, Monomial] = {}
        for c, m in terms:
            key = m.exps
            acc[key] = (acc.get(key, 0) + c) % self.p
            monos[key] = m
        out = [
            (c, monos[k])
            for k, c in acc.items()
            if c % self.p != 0
        ]
        out.sort(key=lambda t: self.order.key(t[1]), reverse=True)
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
        if self.is_zero or self.head_coeff == 1:
            return self
        return self.scale(self.ring.inv(self.head_coeff))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash(tuple((c, m.exps) for c, m in self.terms))

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
    keeps q's terms descending, so no sort is needed.
    """
    ring = p.ring
    mod = ring.p
    minus_c = -c % mod
    if minus_c == 0 or not q.terms:
        return p
    key = ring.order.key
    a = p.terms
    na = len(a)
    out = []
    i = 0
    ka = key(a[0][1]) if na else None
    for cq, mq in q.terms:
        m = mq.mul(t)
        km = key(m)
        while i < na and ka > km:
            out.append(a[i])
            i += 1
            if i < na:
                ka = key(a[i][1])
        cm = cq * minus_c % mod
        if i < na and ka == km:
            cm = (a[i][0] + cm) % mod
            if cm:
                out.append((cm, a[i][1]))
            i += 1
            if i < na:
                ka = key(a[i][1])
        else:
            out.append((cm, m))
    out.extend(a[i:])
    return Polynomial(ring, tuple(out))


def validate_poly(p: Polynomial) -> None:
    """Structural check: descending distinct monomials, coefficients in (0, p)."""
    order = p.ring.order
    for c, m in p.terms:
        if not (0 < c < p.ring.p):
            raise AssertionError(f"coefficient {c} out of range")
    for (c1, m1), (c2, m2) in zip(p.terms, p.terms[1:]):
        if order.cmp(m1, m2) != GT:
            raise AssertionError("terms out of order")


def is_homogeneous(p: Polynomial) -> bool:
    """True when all terms share one total degree; vacuously true for 0."""
    if p.is_zero:
        return True
    d = p.terms[0][1].deg
    return all(m.deg == d for _, m in p.terms)


def prepare_reducers(basis: Sequence[Polynomial]) -> list[tuple]:
    """(head mask, head, -1/lc, tail) per nonzero element of ``basis``, in
    basis order: what ``normal_form_by`` reduces with.  Preparing a basis
    once serves any number of normal forms modulo it."""
    return [
        (b.head_mono.mask, b.head_mono, b.ring.p - b.ring.inv(b.head_coeff), b.terms[1:])
        for b in basis
        if b.terms
    ]


def normal_form(p: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Full remainder of p modulo ``basis`` (scanned in the given order).

    No term of the result is divisible by any basis head monomial, and the
    result is congruent to p modulo the ideal the basis generates.  Each
    head term is reduced by the first basis element whose head divides it.
    """
    return normal_form_by(p, prepare_reducers(basis))


def normal_form_by(p: Polynomial, reducers: Sequence[tuple]) -> Polynomial:
    """``normal_form`` modulo a basis given as ``prepare_reducers`` made it.

    The remainder is kept ascending, its head at the end, as a list of order
    keys with parallel coefficient and monomial lists: a reducer's tail is
    inserted term by term with ``bisect``, so no step rebuilds the whole
    remainder.  A reducer is tried only when its head's divmask fits.
    """
    if not reducers or not p.terms:
        return p
    ring = p.ring
    mod = ring.p
    key = ring.order.key
    keys = [key(m) for _, m in reversed(p.terms)]
    coeffs = [c for c, _ in reversed(p.terms)]
    monos = [m for _, m in reversed(p.terms)]
    done: list[tuple[int, Monomial]] = []
    while keys:
        keys.pop()
        c = coeffs.pop()
        m = monos.pop()
        mmask = m.mask
        for hmask, head, neg_inv, tail in reducers:
            if hmask & ~mmask:
                continue
            u = m.divide(head)
            if u is None:
                continue
            factor = c * neg_inv % mod
            hi = len(keys)
            for cb, mb in tail:
                t = mb.mul(u)
                k = key(t)
                hi = bisect_left(keys, k, 0, hi)
                if hi < len(keys) and keys[hi] == k:
                    cn = (coeffs[hi] + cb * factor) % mod
                    if cn:
                        coeffs[hi] = cn
                    else:
                        del keys[hi], coeffs[hi], monos[hi]
                else:
                    keys.insert(hi, k)
                    coeffs.insert(hi, cb * factor % mod)
                    monos.insert(hi, t)
            break
        else:
            done.append((c, m))
    return Polynomial(ring, tuple(done))

