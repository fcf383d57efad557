import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oqecc.errors import (
    FieldTooLargeError,
    NotInSubfieldError,
    NotPrimeError,
    OutOfRangeError,
)
from oqecc.galois import find_normal_beta, gf_make

SMALL_FIELDS = [(2, 1), (2, 2), (3, 1), (2, 3), (5, 1), (7, 1), (3, 2)]
ALL_FIELDS = [(p, m) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
              for m in range(1, 7) if p**m <= 64]
# q^2 <= 256: small enough to check every pair against the polynomial oracle.
PAIRWISE_FIELDS = [(p, m) for p, m in ALL_FIELDS if p ** (2 * m) <= 256]


def _both_fields(ctx):
    """(oracle, add, neg, sub, mul, inv, pow) for GF(q) and for GF(q^2)."""
    return (
        (oracles.PolyField(ctx.p, ctx.modulus_poly),
         ctx.add, ctx.neg, ctx.sub, ctx.mul, ctx.inv, ctx.pow),
        (oracles.PolyField(ctx.p, ctx.ext_modulus_poly),
         ctx.ext_add, ctx.ext_neg, ctx.ext_sub, ctx.ext_mul, ctx.ext_inv, ctx.ext_pow),
    )


def _check_pair(field, x, y):
    oracle, add, neg, sub, mul, inv, pow_ = field
    assert add(x, y) == oracle.add(x, y)
    assert sub(x, y) == oracle.add(x, oracle.neg(y))
    assert mul(x, y) == oracle.mul(x, y)


def _check_element(field, x, exponents):
    oracle, add, neg, sub, mul, inv, pow_ = field
    assert neg(x) == oracle.neg(x)
    if x:
        assert inv(x) == oracle.inv(x)
    else:
        with pytest.raises(ZeroDivisionError):
            inv(x)
    for e in exponents:
        if x or e >= 0:
            assert pow_(x, e) == oracle.pow(x, e)
        else:
            with pytest.raises(ZeroDivisionError):
                pow_(x, e)


@pytest.mark.parametrize("p,m", PAIRWISE_FIELDS)
def test_every_pair_matches_the_polynomial_oracle(p, m):
    for field in _both_fields(gf_make(p, m)):
        size = field[0].size
        for x in range(size):
            for y in range(size):
                _check_pair(field, x, y)
            _check_element(field, x, (-size, -2, -1, 0, 1, 2, p, size - 1, size, 2 * size + 1))


@pytest.mark.parametrize("p,m", ALL_FIELDS)
@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_drawn_elements_match_the_polynomial_oracle(p, m, data):
    for field in _both_fields(gf_make(p, m)):
        element = st.integers(0, field[0].size - 1)
        exponent = st.integers(-3 * field[0].size, 3 * field[0].size)
        x = data.draw(element)
        _check_pair(field, x, data.draw(element))
        _check_element(field, x, (data.draw(exponent), 0, -1))


def test_prime_field_context():
    ctx = gf_make(2, 1)
    assert ctx.q == 2
    assert ctx.modulus_poly == (0, 1)  # the polynomial X
    assert ctx.beta not in (0, 1)
    assert ctx.ext_pow(ctx.beta, 2) != ctx.beta


def test_gf4_modulus_is_irreducible_by_root_check():
    ctx = gf_make(2, 2)
    assert ctx.modulus_poly == (1, 1, 1)
    # A quadratic over F_2 is irreducible iff it has no roots; evaluate with
    # plain integer arithmetic.
    c0, c1, c2 = ctx.modulus_poly
    for x in range(2):
        assert (c0 + c1 * x + c2 * x * x) % 2 != 0


def _poly_divides(divisor, poly, p):
    """Naive trial division of coefficient lists over F_p (test-local oracle)."""
    rem = list(poly)
    while len(rem) >= len(divisor) and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(divisor):
            break
        lead = rem[-1] * pow(divisor[-1], -1, p) % p
        shift = len(rem) - len(divisor)
        for i, c in enumerate(divisor):
            rem[shift + i] = (rem[shift + i] - lead * c) % p
    return not any(rem)


@pytest.mark.parametrize("p,m", SMALL_FIELDS)
def test_modulus_polynomials_are_irreducible_by_trial_division(p, m):
    ctx = gf_make(p, m)
    for poly in (ctx.modulus_poly, ctx.ext_modulus_poly):
        degree = len(poly) - 1
        for d in range(1, degree):
            for t in range(p**d):
                divisor = []
                value = t
                for _ in range(d):
                    divisor.append(value % p)
                    value //= p
                divisor.append(1)
                assert not _poly_divides(divisor, list(poly), p), (poly, divisor)


def test_gf9_normal_element_exists_and_least_is_chosen():
    ctx = gf_make(3, 1)
    embedded = set(ctx.embed_table)
    independents = []
    for v in range(1, ctx.q2):
        frobenius = ctx.ext_pow(v, ctx.q)
        if all(frobenius != ctx.ext_mul(ctx.embed(c), v) for c in range(ctx.q)):
            independents.append(v)
    assert independents, "a normal element must exist"
    assert ctx.beta == min(independents)
    assert find_normal_beta(ctx) == ctx.beta
    assert ctx.beta not in embedded


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2)])
def test_find_normal_beta_matches_exhaustive_scan(p, m):
    ctx = gf_make(p, m)
    valid = []
    for v in range(1, ctx.q2):
        frobenius = ctx.ext_pow(v, ctx.q)
        if all(frobenius != ctx.ext_mul(ctx.embed(c), v) for c in range(ctx.q)):
            valid.append(v)
    assert find_normal_beta(ctx) == min(valid)


def test_gf4_multiplication_by_hand():
    # x * x = x + 1 mod x^2 + x + 1, i.e. 2 * 2 = 3.
    ctx = gf_make(2, 2)
    assert ctx.mul(2, 2) == 3


@pytest.mark.parametrize("p,m", SMALL_FIELDS)
def test_identity_and_absorbing_element(p, m):
    ctx = gf_make(p, m)
    for x in ctx.elements():
        assert ctx.mul(x, 1) == x
        assert ctx.mul(x, 0) == 0


def test_trace_examples():
    assert gf_make(2, 1).trace(1) == 1
    ctx = gf_make(2, 2)
    assert ctx.trace(0) == 0
    assert ctx.trace(2) == 1  # x + x^2 = x + (x+1) = 1


@pytest.mark.parametrize("p,m", SMALL_FIELDS)
def test_trace_is_linear_and_onto_prime_field(p, m):
    ctx = gf_make(p, m)
    values = set()
    for x in ctx.elements():
        values.add(ctx.trace(x))
        for y in ctx.elements():
            assert ctx.trace(ctx.add(x, y)) == (ctx.trace(x) + ctx.trace(y)) % p
    assert values == set(range(p))


@pytest.mark.parametrize("p,m", SMALL_FIELDS)
def test_inverses(p, m):
    ctx = gf_make(p, m)
    for x in range(1, ctx.q):
        assert ctx.mul(x, ctx.inv(x)) == 1
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)


@pytest.mark.parametrize("p,m", SMALL_FIELDS)
def test_frobenius_is_additive_and_multiplicative(p, m):
    ctx = gf_make(p, m)
    for x in ctx.elements():
        for y in ctx.elements():
            assert ctx.pow(ctx.add(x, y), p) == ctx.add(ctx.pow(x, p), ctx.pow(y, p))
            assert ctx.pow(ctx.mul(x, y), p) == ctx.mul(ctx.pow(x, p), ctx.pow(y, p))


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (2, 3), (3, 1), (5, 1), (7, 1)])
def test_embedding_is_a_field_homomorphism(p, m):
    ctx = gf_make(p, m)
    assert ctx.embed(0) == 0
    assert ctx.embed(1) == 1
    for x in ctx.elements():
        for y in ctx.elements():
            assert ctx.embed(ctx.mul(x, y)) == ctx.ext_mul(ctx.embed(x), ctx.embed(y))
            assert ctx.embed(ctx.add(x, y)) == ctx.ext_add(ctx.embed(x), ctx.embed(y))


def test_ext_trace_to_base():
    for p, m in [(2, 1), (2, 2)]:
        ctx = gf_make(p, m)
        assert ctx.ext_trace_to_base(ctx.embed(0)) == 0
        # trace of 1 is m * 1 in F_p
        assert ctx.ext_trace_to_base(ctx.embed(1)) == m % p
    ctx = gf_make(2, 2)
    outside = next(z for z in ctx.ext_elements() if not ctx.is_embedded(z))
    with pytest.raises(NotInSubfieldError):
        ctx.ext_trace_to_base(outside)


def test_ext_field_laws_gf16():
    ctx = gf_make(2, 2)
    for x in ctx.ext_elements():
        for y in ctx.ext_elements():
            assert ctx.ext_mul(x, y) == ctx.ext_mul(y, x)
            assert ctx.ext_pow(ctx.ext_add(x, y), 2) == ctx.ext_add(
                ctx.ext_pow(x, 2), ctx.ext_pow(y, 2)
            )
        if x:
            assert ctx.ext_mul(x, ctx.ext_inv(x)) == 1


def test_beta_and_frobenius_conjugate_are_independent():
    for p, m in [(2, 1), (2, 2), (3, 1), (5, 1)]:
        ctx = gf_make(p, m)
        for c in ctx.elements():
            assert ctx.beta_q != ctx.ext_mul(ctx.embed(c), ctx.beta)


def test_construction_errors():
    with pytest.raises(NotPrimeError):
        gf_make(4, 1)
    with pytest.raises(NotPrimeError):
        gf_make(1, 1)
    with pytest.raises(FieldTooLargeError):
        gf_make(2, 7)
    with pytest.raises(FieldTooLargeError):
        gf_make(67, 1)
    with pytest.raises(ValueError):
        gf_make(2, 0)


def test_out_of_range_encodings():
    ctx = gf_make(2, 2)
    with pytest.raises(OutOfRangeError):
        ctx.mul(4, 0)
    with pytest.raises(OutOfRangeError):
        ctx.trace(-1)
    with pytest.raises(OutOfRangeError):
        ctx.ext_mul(16, 0)


def test_contexts_are_cached_and_deterministic():
    a = gf_make(3, 1)
    b = gf_make(3, 1)
    assert a is b
    rebuilt = type(a)(3, 1)
    assert rebuilt.modulus_poly == a.modulus_poly
    assert rebuilt.ext_modulus_poly == a.ext_modulus_poly
    assert rebuilt.embed_table == a.embed_table
    assert rebuilt.beta == a.beta
