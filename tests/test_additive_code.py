import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oqecc import _linalg
from oqecc.additive_code import (
    AdditiveCode,
    CodeVector,
    HERMITIAN,
    SYMPLECTIC,
    ambient_vectors,
    phi_inverse,
    phi_map,
    stacked_duality,
    symplectic_form,
    trace_alternating_form,
)
from oqecc.errors import (
    DimensionMismatchError,
    LayoutMismatchError,
    OutOfRangeError,
)
from oqecc.galois import gf_make


def vec(ctx, coords, layout=SYMPLECTIC):
    return CodeVector(ctx, layout, tuple(coords))


# -- construction ------------------------------------------------------------


def test_empty_generators_give_zero_code():
    ctx = gf_make(2, 1)
    code = AdditiveCode.from_generators(ctx, 2, SYMPLECTIC, [])
    assert code.rank == 0 and code.size == 1
    assert list(code.vectors())[0].is_zero()


def test_single_generator():
    ctx = gf_make(2, 1)
    code = AdditiveCode.from_generators(ctx, 2, SYMPLECTIC, [(1, 1, 0, 0)])
    assert code.rank == 1 and code.size == 2


def test_two_generators_span_whole_space():
    ctx = gf_make(2, 1)
    code = AdditiveCode.from_generators(ctx, 1, SYMPLECTIC, [(1, 0), (0, 1)])
    assert code.rank == 2 and code.size == 4
    assert code == AdditiveCode.whole(ctx, 1, SYMPLECTIC)


def test_canonical_form_makes_equal_codes_compare_equal():
    ctx = gf_make(3, 1)
    a = AdditiveCode.from_generators(ctx, 2, SYMPLECTIC, [(1, 2, 0, 1), (0, 1, 1, 1)])
    b = AdditiveCode.from_generators(
        ctx, 2, SYMPLECTIC, [(1, 0, 1, 2), (0, 2, 2, 2), (1, 2, 0, 1)]
    )
    assert oracles.code_vector_set(a) == oracles.code_vector_set(b)
    assert a == b
    assert hash(a) == hash(b)


def test_generator_shape_mismatch():
    ctx = gf_make(2, 1)
    with pytest.raises(DimensionMismatchError):
        AdditiveCode.from_generators(ctx, 2, SYMPLECTIC, [(1, 0)])
    with pytest.raises(OutOfRangeError):
        AdditiveCode.from_generators(ctx, 1, SYMPLECTIC, [(2, 0)])


def test_vector_digit_round_trip():
    for p, m in [(2, 1), (3, 1), (2, 2)]:
        ctx = gf_make(p, m)
        for layout in (SYMPLECTIC, HERMITIAN):
            rng = random.Random(17)
            size = ctx.q if layout == SYMPLECTIC else ctx.q2
            count = 4 if layout == SYMPLECTIC else 2
            for _ in range(25):
                coords = tuple(rng.randrange(size) for _ in range(count))
                v = vec(ctx, coords, layout)
                assert CodeVector.from_digits(ctx, layout, v.to_digits()) == v


def test_ambient_vectors_are_in_encoding_order():
    ctx = gf_make(2, 1)
    indices = [v.encoding_index() for v in ambient_vectors(ctx, 2, SYMPLECTIC)]
    assert indices == list(range(16))


# -- symplectic form -----------------------------------------------------------


def test_symplectic_form_alternating_everywhere():
    ctx = gf_make(2, 1)
    for u in ambient_vectors(ctx, 2, SYMPLECTIC):
        assert symplectic_form(u, u) == 0


def test_symplectic_form_matches_matrix_commutator_oracle():
    # Single qubit: X = X(1), Z = Z(1).  The commutator XZX^-1Z^-1 is -I,
    # i.e. omega^1, so s((1|0),(0|1)) must be 1.
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1, -1]).astype(complex)
    comm = x @ z @ np.linalg.inv(x) @ np.linalg.inv(z)
    assert np.allclose(comm, -np.eye(2))
    ctx = gf_make(2, 1)
    assert symplectic_form(vec(ctx, (1, 0)), vec(ctx, (0, 1))) == 1


def test_symplectic_form_example_n2():
    ctx = gf_make(2, 1)
    assert symplectic_form(vec(ctx, (1, 1, 0, 0)), vec(ctx, (0, 0, 1, 0))) == 1


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2)])
def test_symplectic_form_bilinear(p, m):
    ctx = gf_make(p, m)
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 3)
        u, v, w = (
            vec(ctx, [rng.randrange(ctx.q) for _ in range(2 * n)]) for _ in range(3)
        )
        s_uv = symplectic_form(u, v)
        s_uw = symplectic_form(u, w)
        vw = vec(ctx, [ctx.add(a, b) for a, b in zip(v.coords, w.coords)])
        assert symplectic_form(u, vw) == (s_uv + s_uw) % p
        assert symplectic_form(v, u) == (-s_uv) % p


def test_form_layout_mismatch():
    ctx = gf_make(2, 1)
    u = vec(ctx, (1, 0))
    h = vec(ctx, (1,), HERMITIAN)
    with pytest.raises(LayoutMismatchError):
        symplectic_form(u, h)
    with pytest.raises(LayoutMismatchError):
        trace_alternating_form(u, u)
    other = gf_make(3, 1)
    with pytest.raises(DimensionMismatchError):
        symplectic_form(u, vec(other, (1, 0)))


# -- trace-alternating form and the isometry ---------------------------------


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2)])
def test_trace_alternating_form_alternating_and_zero(p, m):
    ctx = gf_make(p, m)
    rng = random.Random(11)
    zero = vec(ctx, (0, 0), HERMITIAN)
    for _ in range(100):
        v = vec(ctx, [rng.randrange(ctx.q2) for _ in range(2)], HERMITIAN)
        assert trace_alternating_form(v, v) == 0
        assert trace_alternating_form(v, zero) == 0


def test_form_transport_exhaustive_q2():
    ctx = gf_make(2, 1)
    for n in (1, 2):
        for c in ambient_vectors(ctx, n, SYMPLECTIC):
            for d in ambient_vectors(ctx, n, SYMPLECTIC):
                assert trace_alternating_form(phi_map(c), phi_map(d)) == symplectic_form(c, d)


@pytest.mark.parametrize("p,m", [(3, 1), (2, 2), (2, 3), (3, 2), (5, 1), (7, 1)])
def test_form_transport_random(p, m):
    ctx = gf_make(p, m)
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randint(1, 3)
        c = vec(ctx, [rng.randrange(ctx.q) for _ in range(2 * n)])
        d = vec(ctx, [rng.randrange(ctx.q) for _ in range(2 * n)])
        assert trace_alternating_form(phi_map(c), phi_map(d)) == symplectic_form(c, d)


def test_largest_supported_field_is_usable():
    # q = 61 sits at the size cap; its quadratic extension still has exact
    # tables and a working pairing.
    ctx = gf_make(61, 1)
    rng = random.Random(61)
    for _ in range(50):
        c = vec(ctx, [rng.randrange(61) for _ in range(2)])
        d = vec(ctx, [rng.randrange(61) for _ in range(2)])
        assert trace_alternating_form(phi_map(c), phi_map(d)) == symplectic_form(c, d)
    code = AdditiveCode.from_generators(ctx, 1, SYMPLECTIC, [(1, 0)])
    assert code.size * code.dual().size == 61**2


def test_phi_examples_and_round_trip():
    ctx = gf_make(2, 1)
    zero = vec(ctx, (0, 0, 0, 0))
    assert phi_map(zero).is_zero()
    # phi((a|0)) has the same support as a
    v = vec(ctx, (1, 0, 0, 0))
    image = phi_map(v)
    assert sum(1 for c in image.coords if c) == 1
    for n in (1, 2, 3):
        for c in ambient_vectors(ctx, n, SYMPLECTIC):
            assert phi_inverse(phi_map(c)) == c
    ctx3 = gf_make(3, 1)
    for c in ambient_vectors(ctx3, 1, SYMPLECTIC):
        assert phi_inverse(phi_map(c)) == c


def test_phi_image_round_trip_on_codes():
    rng = random.Random(3)
    for p, m in [(2, 1), (3, 1), (2, 2)]:
        ctx = gf_make(p, m)
        for _ in range(10):
            code = oracles.random_code(rng, ctx, rng.randint(1, 3))
            image = code.phi_image()
            assert image.layout == HERMITIAN
            assert image.size == code.size
            assert image.phi_preimage() == code


# -- duals, hulls, set algebra -------------------------------------------------


def test_dual_of_zero_and_whole():
    ctx = gf_make(2, 1)
    zero = AdditiveCode.zero(ctx, 2, SYMPLECTIC)
    whole = AdditiveCode.whole(ctx, 2, SYMPLECTIC)
    assert zero.dual() == whole
    assert whole.dual() == zero
    assert zero.hull() == zero == whole.hull()
    assert zero.hull().dual() == whole == whole.hull().dual()


def test_dual_example_vs_brute_scan():
    ctx = gf_make(2, 1)
    code = AdditiveCode.from_generators(ctx, 2, SYMPLECTIC, [(1, 1, 0, 0)])
    dual = code.dual()
    assert dual.size == 8
    expected = oracles.brute_dual(ctx, 2, SYMPLECTIC, [(1, 1, 0, 0)])
    assert oracles.code_vector_set(dual) == expected
    # b1 + b2 = 0 characterizes the dual here
    assert all((v.coords[2] + v.coords[3]) % 2 == 0 for v in dual.vectors())


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2)])
def test_dual_involution_and_size_pairing(p, m):
    ctx = gf_make(p, m)
    rng = random.Random(p * 10 + m)
    for _ in range(25):
        n = rng.randint(1, 4)
        layout = rng.choice([SYMPLECTIC, HERMITIAN])
        code = oracles.random_code(rng, ctx, n, layout)
        dual = code.dual()
        assert code.size * dual.size == p ** (2 * n * m)
        assert dual.dual() == code


@st.composite
def _code_stacks(draw):
    """One to three codes of one shape (any rank, zero included) in either
    layout; ambient spaces of at most 256 vectors keep the brute duals quick."""
    p, m, top = draw(st.sampled_from([(2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 1), (7, 1, 1)]))
    n = draw(st.integers(1, top))
    layout = draw(st.sampled_from([SYMPLECTIC, HERMITIAN]))
    cols = 2 * n * m
    row = st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols)
    codes = [AdditiveCode.from_digit_rows(gf_make(p, m), n, layout, draw(st.lists(row, max_size=cols)))
             for _ in range(draw(st.integers(1, 3)))]
    return codes


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(codes=_code_stacks())
def test_duality_properties_against_the_brute_oracle(codes):
    ctx, n, layout, p = codes[0].ctx, codes[0].n, codes[0].layout, codes[0].ctx.p
    cols = codes[0].num_columns
    stack = np.zeros((len(codes), cols, cols), dtype=np.int64)  # zero rows pad each code
    for mat, code in zip(stack, codes):
        mat[: code.rank] = code.basis
    (duals, dual_ranks), (hulls, hull_ranks), (hull_duals, hull_dual_ranks) = stacked_duality(
        ctx, n, layout, stack)
    for b, code in enumerate(codes):
        dual, hull = code.dual(), code.hull()
        # |X| |X^perp| = p^(2nm), and X^perp perp = X.
        assert code.size * dual.size == p ** (2 * n * ctx.m)
        assert dual.dual() == code
        x_set = oracles.code_vector_set(code)
        dual_set = oracles.brute_dual(ctx, n, layout, [v.coords for v in code.basis_vectors()])
        assert oracles.code_vector_set(dual) == dual_set
        # hull = X intersected with X^perp, three ways.
        assert oracles.code_vector_set(hull) == x_set & dual_set
        assert np.array_equal(hull.basis, _linalg.intersect_rowspaces(code.basis, dual.basis, p))
        # A stack of several padded codes agrees with each code's own stack of one.
        assert dual_ranks[b] == dual.rank and np.array_equal(duals[b, : dual.rank], dual.basis)
        assert hull_ranks[b] == hull.rank and np.array_equal(hulls[b, : hull.rank], hull.basis)
        assert hull_dual_ranks[b] == hull.dual().rank
        assert np.array_equal(hull_duals[b, : hull_dual_ranks[b]], hull.dual().basis)
        assert not duals[b, dual.rank :].any() and not hulls[b, hull.rank :].any()


def test_intersect_and_sum_trivia():
    ctx = gf_make(2, 1)
    code = AdditiveCode.from_generators(ctx, 2, SYMPLECTIC, [(1, 1, 0, 0), (0, 0, 1, 1)])
    whole = AdditiveCode.whole(ctx, 2, SYMPLECTIC)
    zero = AdditiveCode.zero(ctx, 2, SYMPLECTIC)
    assert code.intersect(whole) == code
    assert code.code_sum(zero) == code
    assert code.intersect(zero) == zero
    assert code.code_sum(whole) == whole


def test_intersect_with_dual_on_self_orthogonal_generator():
    ctx = gf_make(2, 1)
    code = AdditiveCode.from_generators(ctx, 2, SYMPLECTIC, [(1, 1, 0, 0)])
    g = vec(ctx, (1, 1, 0, 0))
    assert symplectic_form(g, g) == 0
    assert code.intersect(code.dual()) == code


def test_hull_examples():
    ctx = gf_make(2, 1)
    # self-dual code: X = span{(1|1)} over one coordinate
    self_dual = AdditiveCode.from_generators(ctx, 1, SYMPLECTIC, [(1, 1)])
    assert self_dual.dual() == self_dual
    assert self_dual.hull() == self_dual
    whole = AdditiveCode.whole(ctx, 2, SYMPLECTIC)
    assert whole.hull() == AdditiveCode.zero(ctx, 2, SYMPLECTIC)
    code = AdditiveCode.from_generators(ctx, 2, SYMPLECTIC, [(1, 1, 0, 0)])
    assert code.hull() == code
    assert code.hull().size == 2


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2)])
def test_hull_is_self_orthogonal_and_brute_checked(p, m):
    ctx = gf_make(p, m)
    rng = random.Random(p + m)
    for _ in range(15):
        n = rng.randint(1, 3)
        code = oracles.random_code(rng, ctx, n)
        hull = code.hull()
        for u in hull.vectors():
            for w in hull.vectors():
                assert symplectic_form(u, w) == 0
        x_set = oracles.code_vector_set(code)
        expected_hull = {
            v
            for v in x_set
            if all(oracles.brute_symplectic_form(ctx, u, v) == 0 for u in x_set)
        }
        assert oracles.code_vector_set(hull) == expected_hull


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2)])
def test_sum_with_dual_equals_dual_of_hull(p, m):
    ctx = gf_make(p, m)
    rng = random.Random(40 + p + m)
    for _ in range(20):
        n = rng.randint(1, 4)
        layout = rng.choice([SYMPLECTIC, HERMITIAN])
        code = oracles.random_code(rng, ctx, n, layout)
        assert code.code_sum(code.dual()) == code.hull().dual()


def test_contains():
    ctx = gf_make(2, 1)
    code = AdditiveCode.from_generators(ctx, 2, SYMPLECTIC, [(1, 1, 0, 0), (0, 0, 1, 1)])
    assert vec(ctx, (1, 1, 1, 1)) in code
    assert vec(ctx, (1, 0, 0, 0)) not in code
    with pytest.raises(DimensionMismatchError):
        code.contains(vec(ctx, (1, 0)))


def test_codes_are_immutable():
    ctx = gf_make(2, 1)
    code = AdditiveCode.from_generators(ctx, 2, SYMPLECTIC, [(1, 1, 0, 0)])
    with pytest.raises(AttributeError):
        code.n = 3
    with pytest.raises(ValueError):
        code.basis[0, 0] = 1
