"""Arithmetic layer: orders, monomials, polynomials, normal forms."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f5gb.poly import (
    BOUND,
    EQ,
    GT,
    LT,
    ORDER_KINDS,
    Lazy,
    Monomial,
    MonomialOrder,
    Polynomial,
    Reducer,
    first_divisor,
    is_homogeneous,
    is_prime,
    normal_form,
    poly_axpy,
    quotient_key,
    reduce_with,
)

from order_reference import MonomialQuotient, direct_key, mono_cmp, quotient_cmp
from phi_reference import phi_reduce_reference
from systems import P, make_ring


@pytest.fixture
def ring():
    return make_ring(7, ["x", "y"])


def M(*exps):
    return Monomial(exps)


def validate_poly(p: Polynomial) -> None:
    """Structural check: descending distinct monomials, coefficients in (0, p)."""
    order = p.ring.order
    for c, m in p.terms:
        if not (0 < c < p.ring.p):
            raise AssertionError(f"coefficient {c} out of range")
    for (c1, m1), (c2, m2) in zip(p.terms, p.terms[1:]):
        if mono_cmp(m1, m2, order) != GT:
            raise AssertionError("terms out of order")


class TestMonomialOrder:
    def test_degrevlex_tiebreak(self):
        # forced by the reversed-exponent tie-break: y^2 > x*z
        order = MonomialOrder("degrevlex", 3)
        assert mono_cmp(M(0, 2, 0), M(1, 0, 1), order) == GT

    def test_identity(self):
        for kind in ("degrevlex", "deglex", "lex"):
            order = MonomialOrder(kind, 2)
            assert mono_cmp(M(1, 2), M(1, 2), order) == EQ

    def test_lex_ignores_degree(self):
        order = MonomialOrder("lex", 2)
        assert mono_cmp(M(1, 0), M(0, 5), order) == GT

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            MonomialOrder("weighted", 2)

    @given(
        st.data(),
        st.sampled_from(["degrevlex", "deglex", "lex"]),
    )
    @settings(max_examples=200)
    def test_total_order_on_random_triples(self, data, kind):
        n = 3
        order = MonomialOrder(kind, n)
        monos = st.builds(Monomial, st.tuples(*[st.integers(0, 5)] * n))
        a, b, c = data.draw(monos), data.draw(monos), data.draw(monos)
        # antisymmetry
        assert mono_cmp(a, b, order) == -mono_cmp(b, a, order)
        # transitivity
        if mono_cmp(a, b, order) != LT and mono_cmp(b, c, order) != LT:
            assert mono_cmp(a, c, order) != LT
        # degree compatibility
        if kind != "lex" and a.deg > b.deg:
            assert mono_cmp(a, b, order) == GT


class TestMonomial:
    def test_divide(self):
        assert M(2, 1).divide(M(1, 1)) == M(1, 0)
        assert M(1, 0).divide(M(0, 1)) is None
        assert M(3, 2).divide(M(0, 0)) == M(3, 2)

    def test_lcm(self):
        assert M(2, 0).lcm(M(1, 1)) == M(2, 1)
        assert M(1, 2).lcm(M(1, 2)) == M(1, 2)
        assert M(1, 0).lcm(M(0, 1)) == M(1, 1)

    def test_divides(self):
        assert M(1, 1).divides(M(2, 1))
        assert not M(2, 0).divides(M(1, 1))

    def test_packed_layout(self):
        # 16 bits per exponent, x_0 lowest, the degree in the field above
        assert M(1, 2).v == 1 | 2 << 16 | 3 << 32
        assert M(1, 2).exps == (1, 2) and M(1, 2).deg == 3
        assert Monomial.one(3).v == 0 and Monomial.one(3).exps == (0, 0, 0)

    def test_mask_bits(self):
        # bits 16k + 15 and 16k + 14 of x_k: exponent >= 1, exponent >= 2
        assert M(0, 1, 2, 5).mask == 0b10 << 30 | 0b11 << 46 | 0b11 << 62
        assert M(0, 0).mask == 0

    @given(st.data())
    @settings(max_examples=300)
    def test_mask_agrees_with_divides(self, data):
        monos = st.builds(Monomial, st.tuples(*[st.integers(0, 3)] * 4))
        a, b = data.draw(monos), data.draw(monos)
        if a.divides(b):
            assert a.mask & ~b.mask == 0
        if a.mask & ~b.mask:
            assert not a.divides(b)
            assert b.divide(a) is None

    def test_one_monomial_under_two_orders(self):
        a, b, c, d = M(1, 0, 2), M(0, 2, 1), M(0, 3, 0), M(2, 0, 0)
        revlex, deglex, lex = (MonomialOrder(k, 3) for k in ("degrevlex", "deglex", "lex"))
        ascending = [(revlex, [d, a, b, c]), (deglex, [d, b, c, a]), (lex, [b, c, a, d])]
        # each round keys the same monomials after another order's key was
        # cached on them
        for _ in range(2):
            for order, expected in ascending:
                assert sorted([a, b, c, d], key=order.key) == expected
                assert mono_cmp(a, b, order) == (LT if order is revlex else GT)
        # an equal order whose name is a separately built string
        for kind, order in (("degrev", revlex), ("deg", deglex)):
            same = MonomialOrder("".join([kind, "lex"]), 3)
            assert same.key(a) == order.key(a) and same.key(d) == order.key(d)

    def test_overflow_raises(self):
        top = BOUND - 1
        assert M(top, 0).deg == top
        with pytest.raises(OverflowError, match="2\\^15"):
            M(BOUND, 0)
        with pytest.raises(OverflowError, match="2\\^15"):
            M(top, 1)  # each exponent fits, the degree does not
        with pytest.raises(OverflowError, match="2\\^15"):
            M(top, 0).mul(M(1, 0))
        with pytest.raises(OverflowError, match="2\\^15"):
            M(top, 0).mul(M(0, 1))  # the guard of the degree field
        with pytest.raises(OverflowError, match="2\\^15"):
            M(top, 0).lcm(M(0, 1))
        with pytest.raises(ValueError):
            M(-1, 2)


# -- the tuple implementation the packed monomials must agree with ------------


def ref_divide(a, b):
    out = tuple(x - y for x, y in zip(a, b))
    return out if min(out, default=0) >= 0 else None


def ref_mask(a):
    mask = 0
    for k, e in enumerate(a):
        mask |= (e >= 1) << (16 * k + 15) | (e >= 2) << (16 * k + 14)
    return mask


def ref_key(kind, a):
    if kind == "degrevlex":
        return (sum(a), tuple(-e for e in reversed(a)))
    if kind == "deglex":
        return (sum(a), a)
    return a


def sign(x, y):
    return (x > y) - (x < y)


@st.composite
def exponent_vectors(draw, n, bound=BOUND):
    """n exponents in [0, 2^15 - 1] with a degree below ``bound``, 2^15 by
    default."""
    budget = draw(st.integers(0, bound - 1))
    exps = []
    for _ in range(n):
        e = draw(st.integers(0, budget))
        exps.append(e)
        budget -= e
    return tuple(draw(st.permutations(exps)))


class TestPackedAgainstTuples:
    @given(st.data(), st.integers(1, 8))
    @settings(max_examples=400)
    def test_operations_match_the_tuple_reference(self, data, n):
        ea, eb = data.draw(exponent_vectors(n)), data.draw(exponent_vectors(n))
        a, b = Monomial(ea), Monomial(eb)
        assert (a.exps, a.deg) == (ea, sum(ea))
        assert Monomial(a.exps) == a and hash(Monomial(a.exps)) == hash(a)
        assert a.mask == ref_mask(ea)
        prod = tuple(x + y for x, y in zip(ea, eb))
        pairs = [(a, b, ea, eb)]
        if sum(prod) >= BOUND:
            with pytest.raises(OverflowError):
                a.mul(b)
        else:
            ab = a.mul(b)
            assert ab.exps == prod and ab.deg == sum(prod)
            pairs += [(a, ab, ea, prod), (ab, b, prod, eb)]
        for x, y, ex, ey in pairs:
            for p, q, ep, eq in ((x, y, ex, ey), (y, x, ey, ex)):
                quo = ref_divide(ep, eq)
                got = p.divide(q)
                assert (got.exps if got is not None else None) == quo
                assert q.divides(p) == (quo is not None)
                if q.divides(p):
                    assert q.mask & ~p.mask == 0
            hi = tuple(map(max, ex, ey))
            if sum(hi) >= BOUND:
                with pytest.raises(OverflowError):
                    x.lcm(y)
            else:
                assert x.lcm(y).exps == hi and x.lcm(y).deg == sum(hi)
            for kind in ORDER_KINDS:
                order = MonomialOrder(kind, n)
                assert sign(order.key(x), order.key(y)) == sign(ref_key(kind, ex), ref_key(kind, ey))


class TestQuotientOrder:
    def test_shrinking_denominators(self):
        # x/x > x/x^2 > x/x^3 under cross-multiplication
        order = MonomialOrder("degrevlex", 1)
        q = lambda a, b: MonomialQuotient(M(a), M(b))
        assert quotient_cmp(q(1, 1), q(1, 2), order) == GT
        assert quotient_cmp(q(1, 2), q(1, 3), order) == GT

    def test_equal_quotients(self):
        order = MonomialOrder("degrevlex", 2)
        assert (
            quotient_cmp(
                MonomialQuotient(M(1, 1), M(1, 1)),
                MonomialQuotient(M(0, 0), M(0, 0)),
                order,
            )
            == EQ
        )
        assert quotient_key(M(1, 1), M(1, 1), order) == quotient_key(M(0, 0), M(0, 0), order)

    @pytest.mark.parametrize("kind", ORDER_KINDS)
    @given(data=st.data())
    @settings(max_examples=150)
    def test_key_order_is_cross_multiplication(self, kind, data):
        # degrees below 2^14, so the reference's cross products stay in
        # range; half the second quotients are the first times a monomial,
        # an equal quotient such as x/x against 1/1
        n = data.draw(st.integers(1, 4))
        order = MonomialOrder(kind, n)
        half = exponent_vectors(n, BOUND // 2)
        n1, d1 = Monomial(data.draw(half)), Monomial(data.draw(half))
        if data.draw(st.booleans()):
            t = Monomial(data.draw(exponent_vectors(n, BOUND // 2 - max(n1.deg, d1.deg))))
            n2, d2 = t.mul(n1), t.mul(d1)
        else:
            n2, d2 = Monomial(data.draw(half)), Monomial(data.draw(half))
        expected = quotient_cmp(MonomialQuotient(n1, d1), MonomialQuotient(n2, d2), order)
        got = sign(quotient_key(n1, d1, order), quotient_key(n2, d2, order))
        assert got == expected

    @given(st.data())
    @settings(max_examples=100)
    def test_agrees_with_mono_cmp_for_equal_denominators(self, data):
        order = MonomialOrder("degrevlex", 2)
        monos = st.builds(Monomial, st.tuples(st.integers(0, 4), st.integers(0, 4)))
        m1, m2, d = data.draw(monos), data.draw(monos), data.draw(monos)
        assert quotient_cmp(
            MonomialQuotient(m1, d), MonomialQuotient(m2, d), order
        ) == mono_cmp(m1, m2, order)


class TestOrderKeyMemo:
    @pytest.mark.parametrize("kind", ORDER_KINDS)
    @given(data=st.data())
    @settings(max_examples=300)
    def test_keys_match_the_direct_formula_and_stay_affine(self, kind, data):
        # each key is asked twice, so the second read comes from the memo
        # of deglex and lex; a product within the bound keeps the key affine
        n = data.draw(st.integers(1, 6))
        order = MonomialOrder(kind, n)
        ea, eb = data.draw(exponent_vectors(n)), data.draw(exponent_vectors(n))
        a, b = Monomial(ea), Monomial(eb)
        for _ in range(2):
            assert order.vkey(a.v) == order.key(a) == direct_key(ea, kind)
            assert order.vkey(b.v) == direct_key(eb, kind)
        if a.deg + b.deg < BOUND:
            ab = a.mul(b)
            assert order.key(ab) == direct_key(ab.exps, kind)
            assert order.key(ab) == order.key(a) + order.key(b) - order.vkey(0)

    @pytest.mark.parametrize("kind", ORDER_KINDS)
    def test_extreme_exponents(self, kind):
        # one exponent at 2^15 - 1, every variable in turn, and 1
        for n in range(1, 7):
            order = MonomialOrder(kind, n)
            for exps in [(0,) * n] + [tuple(BOUND - 1 if k == j else 0 for k in range(n))
                                      for j in range(n)]:
                assert order.key(Monomial(exps)) == direct_key(exps, kind)


class TestPolynomial:
    def test_axpy_basic(self, ring):
        p = P(ring, "x^2 + y^2")
        q = P(ring, "x")
        assert poly_axpy(p, 1, M(1, 0), q) == P(ring, "y^2")

    def test_axpy_zero_coefficient(self, ring):
        p = P(ring, "x^2 + y^2")
        assert poly_axpy(p, 0, M(1, 0), P(ring, "x")) == p

    def test_axpy_mod_p(self, ring):
        p = P(ring, "x^2 + 3*y^2")
        assert poly_axpy(p, 3, M(0, 0), P(ring, "y^2")) == P(ring, "x^2")

    def test_merging_and_zero_drop(self, ring):
        q = ring.poly([(3, M(1, 0)), (4, M(1, 0)), (2, M(0, 1))])
        assert q == P(ring, "2*y")

    def test_monic(self, ring):
        q = P(ring, "3*x^2 + 3*y^2")
        assert q.monic() == P(ring, "x^2 + y^2")
        assert ring.zero.monic().is_zero

    @given(st.data())
    @settings(max_examples=150)
    def test_axpy_structural_validity(self, data):
        ring = make_ring(7, ["x", "y"])
        monos = st.builds(Monomial, st.tuples(st.integers(0, 3), st.integers(0, 3)))
        terms = st.lists(st.tuples(st.integers(0, 6), monos), max_size=5)
        p = ring.poly(data.draw(terms))
        q = ring.poly(data.draw(terms))
        c = data.draw(st.integers(0, 6))
        t = data.draw(monos)
        out = poly_axpy(p, c, t, q)
        validate_poly(out)

    @given(st.data())
    @settings(max_examples=100)
    def test_homogeneous_axpy_preserves_homogeneity(self, data):
        ring = make_ring(7, ["x", "y"])
        deg = data.draw(st.integers(1, 4))
        monos = [Monomial((k, deg - k)) for k in range(deg + 1)]
        coeffs = st.lists(st.integers(0, 6), min_size=deg + 1, max_size=deg + 1)
        p = ring.poly(list(zip(data.draw(coeffs), monos)))
        q = ring.poly(list(zip(data.draw(coeffs), monos)))
        out = poly_axpy(p, data.draw(st.integers(1, 6)), Monomial((0, 0)), q)
        assert is_homogeneous(out)


AXPY_PRIMES = (3, 5, 32003, 2**31 - 1)


def axpy_reference(p, c, t, q):
    return p.sub(q.term_mul(c, t))


class TestAxpyKernel:
    """The merge in ``poly_axpy`` against the sort-based reference."""

    @given(
        st.data(),
        st.sampled_from(ORDER_KINDS),
        st.sampled_from(AXPY_PRIMES),
        st.sampled_from(["random", "zero", "cancel", "overlap"]),
    )
    @settings(max_examples=300)
    def test_matches_reference(self, data, kind, prime, shape):
        ring = make_ring(prime, ["x", "y", "z"], kind)
        monos = st.builds(Monomial, st.tuples(*[st.integers(0, 3)] * 3))
        terms = st.lists(st.tuples(st.integers(-prime, 2 * prime), monos), max_size=6)
        q = ring.poly(data.draw(terms))
        t = data.draw(monos)
        c = data.draw(
            st.one_of(
                st.integers(-2 * prime, 2 * prime), st.sampled_from([0, prime, -prime])
            )
        )
        if shape == "zero":
            p = ring.zero
        elif shape == "cancel":
            p = q.term_mul(c, t)
        elif shape == "overlap":
            shared = q.term_mul(data.draw(st.integers(1, prime - 1)), t)
            p = shared.add(ring.poly(data.draw(terms)))
        else:
            p = ring.poly(data.draw(terms))
        out = poly_axpy(p, c, t, q)
        validate_poly(out)
        assert out == axpy_reference(p, c, t, q)
        if shape == "cancel":
            assert out.is_zero

    @pytest.mark.parametrize("kind", ORDER_KINDS)
    @pytest.mark.parametrize("prime", AXPY_PRIMES)
    def test_degenerate_operands(self, kind, prime):
        ring = make_ring(prime, ["x", "y"], kind)
        p, q, t = P(ring, "x^2 + 2*x*y + y^2"), P(ring, "x + y"), M(1, 0)
        cases = [
            (p, 1, t, p.ring.zero),  # zero q
            (ring.zero, 2, t, q),  # zero p
            (p, 0, t, q),  # c = 0
            (p, prime, t, q),  # c = 0 mod p
            (q.term_mul(3, t), 3, t, q),  # total cancellation
            (q.term_mul(3, t), 3 + prime, t, q),  # total cancellation, c mod p
        ]
        for a, c, u, b in cases:
            out = poly_axpy(a, c, u, b)
            validate_poly(out)
            assert out == axpy_reference(a, c, u, b)
        assert poly_axpy(q.term_mul(3, t), 3, t, q).is_zero

    @pytest.mark.parametrize("kind", ORDER_KINDS)
    def test_overflow_raises(self, kind):
        # the guard is tested on every product t*m: one past 2^15 raises also
        # when the other product of q cancels a term of p, and when only its
        # degree is past the bound, which the lex key does not read
        ring = make_ring(7, ["x", "y"], kind)
        top = BOUND - 1
        for q in (P(ring, f"x^{top} + y"), P(ring, f"x + y^{top}")):
            assert poly_axpy(ring.zero, 6, M(0, 0), q) == q
            c, m = min(q.terms, key=lambda term: term[1].deg)
            for t in (M(1, 0), M(0, 1)):
                cancelled = Polynomial(ring, ((c, m.mul(t)),))
                for p in (ring.zero, cancelled):
                    with pytest.raises(OverflowError, match="2\\^15"):
                        poly_axpy(p, 1, t, q)


SUM_PRIMES = (3, 7, 32003, 2**31 - 1)


def product_sum_reference(ring, products):
    """The sum of c*t*q expanded term by term through ``Ring.poly``."""
    return ring.poly((c * cq, t.mul(m)) for c, t, q in products for cq, m in q.terms)


class TestProductSum:
    """``Ring.product_sum`` against a term-by-term ``Ring.poly`` expansion."""

    @pytest.mark.parametrize("kind", ORDER_KINDS)
    @pytest.mark.parametrize("prime", SUM_PRIMES)
    def test_matches_reference(self, kind, prime):
        ring = make_ring(prime, ["x", "y", "z"], kind)
        rng = random.Random(f"{kind}/{prime}")

        def mono():
            return Monomial([rng.randint(0, 3) for _ in range(3)])

        def poly():
            return ring.poly((rng.randint(-prime, 2 * prime), mono()) for _ in range(rng.randint(0, 6)))

        for _ in range(60):
            products = [
                (rng.randint(-prime, 2 * prime), mono(), poly()) for _ in range(rng.randint(0, 6))
            ]
            out = ring.product_sum(products)
            validate_poly(out)
            assert out == product_sum_reference(ring, products)
            # every product cancelled by its negative, in a shuffled order
            cancel = products + [(-c, t, q) for c, t, q in products]
            rng.shuffle(cancel)
            assert ring.product_sum(cancel).is_zero
        assert ring.product_sum([]) == ring.zero

    def test_overflow_raises(self):
        ring = make_ring(7, ["x", "y"])
        top = P(ring, f"x^{BOUND - 1}")
        assert ring.product_sum([(1, M(0, 0), top)]) == top
        with pytest.raises(OverflowError, match="2\\^15"):
            ring.product_sum([(1, M(1, 0), top)])  # the exponent field of x
        with pytest.raises(OverflowError, match="2\\^15"):
            ring.product_sum([(1, M(0, 1), top)])  # the degree field only
        with pytest.raises(OverflowError, match="2\\^15"):
            # the guard is tested on every key, also one whose terms cancel
            ring.product_sum([(1, M(0, 1), top), (6, M(0, 1), top)])


def normal_form_reference(p, basis):
    """Textbook division: reduce the head by the first basis element whose
    head divides it, with the sort-based ``sub``; else move it to the result."""
    ring = p.ring
    reducers = [b for b in basis if not b.is_zero]
    done = []
    while not p.is_zero:
        c, m = p.terms[0]
        for b in reducers:
            if b.head_mono.divides(m):
                factor = c * ring.inv(b.head_coeff)
                p = p.sub(b.term_mul(factor, m.divide(b.head_mono)))
                break
        else:
            done.append((c, m))
            p = Polynomial(ring, p.terms[1:])
    return Polynomial(ring, tuple(done))


class TestNormalForm:
    @given(
        st.data(),
        st.sampled_from(ORDER_KINDS),
        st.sampled_from(AXPY_PRIMES),
    )
    @settings(max_examples=300)
    def test_matches_reference(self, data, kind, prime):
        ring = make_ring(prime, ["x", "y", "z"], kind)
        key = ring.order.key
        monos = st.builds(Monomial, st.tuples(*[st.integers(0, 3)] * 3))
        terms = st.lists(st.tuples(st.integers(-prime, 2 * prime), monos), max_size=6)
        p = ring.poly(data.draw(terms))
        basis = [ring.poly(data.draw(terms)) for _ in range(data.draw(st.integers(0, 4)))]
        # zero reducers, and reducers sharing a head with an earlier one
        if data.draw(st.booleans()):
            basis.insert(data.draw(st.integers(0, len(basis))), ring.zero)
        for b in [b for b in basis if not b.is_zero]:
            if data.draw(st.booleans()):
                lower = [(c, m) for c, m in data.draw(terms) if key(m) < key(b.head_mono)]
                c = data.draw(st.integers(1, prime - 1))
                basis.append(ring.poly([(c, b.head_mono)] + lower))
        out = normal_form(p, basis)
        validate_poly(out)
        assert out == normal_form_reference(p, basis)
        for _, m in out.terms:
            assert not any(b.head_mono.divides(m) for b in basis if not b.is_zero)

    def test_overflow_raises(self):
        # under lex x + y^30000 has head x; x^2999 * y^30000 passes the bound
        ring = make_ring(7, ["x", "y"], "lex")
        with pytest.raises(OverflowError, match="2\\^15"):
            normal_form(P(ring, "x^3000"), [P(ring, "x + y^30000")])

    def test_head_reduction(self, ring):
        assert normal_form(P(ring, "x^2 + y^2"), [P(ring, "x^2")]) == P(ring, "y^2")

    def test_empty_basis(self, ring):
        p = P(ring, "x^2 + y^2")
        assert normal_form(p, []) == p

    def test_to_zero(self, ring):
        assert normal_form(P(ring, "x*y^2"), [P(ring, "x*y")]).is_zero

    def test_result_irreducible(self, ring):
        basis = [P(ring, "x^2 + y^2"), P(ring, "x*y")]
        r = normal_form(P(ring, "x^3 + x^2*y + x*y^2 + y^3"), basis)
        for _, m in r.terms:
            assert all(not b.head_mono.divides(m) for b in basis)

    @given(st.data())
    @settings(max_examples=60)
    def test_idempotent(self, data):
        ring = make_ring(7, ["x", "y"])
        monos = st.builds(Monomial, st.tuples(st.integers(0, 3), st.integers(0, 3)))
        terms = st.lists(st.tuples(st.integers(1, 6), monos), max_size=4)
        p = ring.poly(data.draw(terms))
        basis = [
            q for q in (ring.poly(data.draw(terms)) for _ in range(2)) if not q.is_zero
        ]
        once = normal_form(p, basis)
        assert normal_form(once, basis) == once


class TestReduceWith:
    """The normal-form kernel under the reducer ``normal_form`` builds,
    against the step loop of ``tests/phi_reference.py`` and the textbook
    division."""

    @staticmethod
    def reducer(ring, basis, queried):
        heads = [(b.head_mono.mask, b.head_mono.v, k) for k, b in enumerate(basis)]
        prepared = Lazy(lambda k: Reducer.of(basis[k], k))
        lay = ring.order.lay

        def reducer(v):
            queried.append(v)
            return first_divisor(lay, prepared, heads, v)

        return reducer

    @given(
        st.data(),
        st.sampled_from(ORDER_KINDS),
        st.sampled_from(AXPY_PRIMES),
    )
    @settings(max_examples=300)
    def test_matches_references(self, data, kind, prime):
        ring = make_ring(prime, ["x", "y", "z"], kind)
        monos = st.builds(Monomial, st.tuples(*[st.integers(0, 3)] * 3))
        terms = st.lists(st.tuples(st.integers(1, prime - 1), monos), max_size=6)
        p = ring.poly(data.draw(terms))
        basis = [b.monic() for b in (ring.poly(data.draw(terms)) for _ in range(
            data.draw(st.integers(1, 4)))) if not b.is_zero]
        queried, steps = [], []
        out = reduce_with(p, self.reducer(ring, basis, queried), steps)
        remainder, ref_steps, scale = phi_reduce_reference(p, list(enumerate(basis)))
        assert out.scale(scale) == remainder
        assert out == normal_form_reference(p, basis)
        assert steps == [(c, u.v, k) for c, u, k in ref_steps]
        # each term is offered to the reducer once, greatest first: every
        # cancelled term, and every term of the remainder
        visited = [u.v + basis[k].head_mono.v for _, u, k in ref_steps]
        visited += [m.v for _, m in out.terms]
        assert queried == sorted(visited, key=ring.order.vkey, reverse=True)
        if not steps:
            assert out is p
        # a term of p that survives keeps its Monomial
        of_p = {m.v: m for _, m in p.terms}
        assert all(m is of_p[m.v] for _, m in out.terms if m.v in of_p)

    def test_untouched_prefix_is_kept(self, ring):
        p = P(ring, "x^3 + x^2*y + x*y^2 + y^3")
        out = reduce_with(p, TestReduceWith.reducer(ring, [P(ring, "x*y^2 + y^3")], []))
        assert out == P(ring, "x^3 + x^2*y")
        assert out.terms[0] is p.terms[0] and out.terms[1] is p.terms[1]

    def test_overflow_raises_also_when_it_would_cancel(self):
        # the tail term of this reducer would cancel y, but its packed value
        # carries a guard bit: the guard test comes before the merge
        ring = make_ring(7, ["x", "y"], "lex")
        p = P(ring, "x + 3*y")
        y = M(0, 1)
        bad = y.v | y.lay.guard
        found = Reducer(M(1, 0).v, 6, ((ring.order.key(y), 3, bad),), 0)
        with pytest.raises(OverflowError, match="2\\^15"):
            reduce_with(p, lambda v: found if v == M(1, 0).v else None)
        # the same reducer with the valid value cancels y
        ok = found._replace(tail=((ring.order.key(y), 3, y.v),))
        assert reduce_with(p, lambda v: ok if v == M(1, 0).v else None).is_zero


class TestHomogeneity:
    def test_cases(self, ring):
        assert is_homogeneous(P(ring, "x^2 + y^2"))
        assert not is_homogeneous(P(ring, "x^2 + y"))
        assert is_homogeneous(ring.zero)


def test_is_prime():
    assert is_prime(7) and is_prime(32003) and is_prime(2147483647)
    assert not is_prime(1) and not is_prime(4) and not is_prime(32001)


def test_is_prime_tests_each_modulus_once():
    # rings over one modulus share one Miller-Rabin run; a bool or a float
    # equal to an int gets its own answer, as it did uncached
    is_prime.cache_clear()
    for _ in range(3):
        make_ring(32003, ["x", "y"])
    assert is_prime.cache_info().misses == 1
    assert is_prime(2) and not is_prime(True) and is_prime.cache_info().misses == 3


def test_ring_rejects_bad_modulus():
    with pytest.raises(ValueError):
        make_ring(6, ["x"])
    with pytest.raises(ValueError):
        make_ring(2**31 + 11, ["x"])
