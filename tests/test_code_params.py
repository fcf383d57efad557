import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from oqecc import code_params
from oqecc.additive_code import AdditiveCode, CodeVector, HERMITIAN, SYMPLECTIC, ambient_vectors, phi_map
from oqecc.code_params import (
    BASIS,
    EXHAUSTIVE,
    UNBOUNDED,
    hamming_wt,
    min_distance,
    min_distance_with_witness,
    subsystem_params,
    swt,
)
from oqecc.cli import main
from oqecc.codefile import emit_code_file
from oqecc.errors import CapExceededError, LayoutMismatchError, ZeroCodeError
from oqecc.galois import gf_make


def vec(ctx, coords, layout=SYMPLECTIC):
    return CodeVector(ctx, layout, tuple(coords))


RUNNING_CODE_GENS = [(1, 1, 0, 0)]


def running_code():
    return AdditiveCode.from_generators(gf_make(2, 1), 2, SYMPLECTIC, RUNNING_CODE_GENS)


# -- weights -------------------------------------------------------------------


def test_swt_examples():
    ctx = gf_make(2, 1)
    assert swt(vec(ctx, (0, 0, 0, 0))) == 0
    assert swt(vec(ctx, (1, 1, 0, 0))) == 2
    assert swt(vec(ctx, (1, 0, 1, 0))) == 1  # a and b overlap on position 1


def test_hamming_examples():
    ctx = gf_make(2, 1)
    assert hamming_wt(vec(ctx, (0, 0), HERMITIAN)) == 0
    assert hamming_wt(phi_map(vec(ctx, (1, 0, 1, 0)))) == 1
    assert hamming_wt(vec(ctx, (3, 2, 1), HERMITIAN)) == 3


def test_weight_layout_guards():
    ctx = gf_make(2, 1)
    with pytest.raises(LayoutMismatchError):
        swt(vec(ctx, (1,), HERMITIAN))
    with pytest.raises(LayoutMismatchError):
        hamming_wt(vec(ctx, (1, 0)))


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2)])
def test_isometry_swt_equals_hamming_of_phi(p, m):
    ctx = gf_make(p, m)
    if p == 2 and m == 1:
        for n in (1, 2, 3):
            for c in ambient_vectors(ctx, n, SYMPLECTIC):
                assert swt(c) == hamming_wt(phi_map(c))
    else:
        rng = random.Random(2)
        for _ in range(500):
            n = rng.randint(1, 3)
            c = vec(ctx, [rng.randrange(ctx.q) for _ in range(2 * n)])
            assert swt(c) == hamming_wt(phi_map(c))


# -- parameters ----------------------------------------------------------------


def test_running_example_params():
    params = subsystem_params(running_code())
    assert (params.x, params.y) == (2, 2)
    assert (params.dim_a, params.dim_b, params.dim_c) == (2, 1, 2)
    assert (params.k, params.r) == (Fraction(1), Fraction(0))
    assert params.d == 1
    assert params.quartet() == "[[2,1,0,1]]_2"
    assert params.dimension_form() == "((2,2,1,1))_2"


def test_whole_space_params():
    ctx = gf_make(2, 1)
    whole = AdditiveCode.whole(ctx, 1, SYMPLECTIC)
    params = subsystem_params(whole)
    assert (params.x, params.y) == (4, 1)
    assert (params.dim_a, params.dim_b) == (1, 2)
    assert params.d == UNBOUNDED
    assert params.quartet() == "[[1,0,1,unbounded]]_2"
    assert params.dimension_form() == "((1,1,2,unbounded))_2"
    assert params.to_json()["d"] == "unbounded"


def test_params_to_json_holds_the_nine_logged_fields():
    record = subsystem_params(running_code()).to_json()
    assert record == {
        "n": 2, "q": 2, "x": 2, "y": 2, "dim_a": 2, "dim_b": 1, "k": "1", "r": "0", "d": 1,
    }


def test_zero_code_rejected():
    ctx = gf_make(2, 1)
    zero = AdditiveCode.zero(ctx, 2, SYMPLECTIC)
    with pytest.raises(ZeroCodeError):
        subsystem_params(zero)
    with pytest.raises(ZeroCodeError):
        min_distance(zero)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2)])
def test_dimension_identities_on_random_codes(p, m):
    ctx = gf_make(p, m)
    rng = random.Random(31 + p * m)
    for _ in range(25):
        n = rng.randint(1, 3)
        layout = rng.choice([SYMPLECTIC, HERMITIAN])
        code = oracles.random_code(rng, ctx, n, layout)
        params = subsystem_params(code, distance_method=BASIS)
        assert params.x * params.y == p ** (code.rank + code.hull().rank)
        assert params.dim_a * params.dim_b == ctx.q**n // params.y
        assert params.dim_c == params.dim_a * params.dim_b
        assert ctx.q ** params.k == params.dim_a
        assert ctx.q ** params.r == params.dim_b


def test_fractional_exponents_print_as_rationals():
    # An odd-rank additive code over GF(4) has half-integer k.
    ctx = gf_make(2, 2)
    code = AdditiveCode.from_digit_rows(ctx, 1, SYMPLECTIC, [[1, 0, 0, 0]])
    params = subsystem_params(code)
    assert params.k == Fraction(1, 2)
    assert "1/2" in params.quartet()


# -- minimum distance ------------------------------------------------------------


def test_running_example_distance_and_witness():
    code = running_code()
    for method in (EXHAUSTIVE, BASIS):
        d, witness = min_distance_with_witness(code, method=method)
        assert d == 1
        assert witness.coords == (1, 0, 0, 0)


def test_witness_tie_break_is_smallest_encoding():
    # Both (1,0|0,0) and (0,1|0,0) are weight-1 members of the difference
    # set; the little-endian encoding order prefers the first.
    code = running_code()
    _, witness = min_distance_with_witness(code)
    assert witness.encoding_index() < vec(gf_make(2, 1), (0, 1, 0, 0)).encoding_index()


def test_unbounded_cases():
    ctx = gf_make(2, 1)
    whole = AdditiveCode.whole(ctx, 1, SYMPLECTIC)
    assert min_distance(whole) == UNBOUNDED
    assert min_distance_with_witness(whole) == (UNBOUNDED, None)
    self_dual = AdditiveCode.from_generators(ctx, 1, SYMPLECTIC, [(1, 1)])
    assert self_dual.hull().dual() == self_dual
    assert min_distance(self_dual) == UNBOUNDED


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1)])
def test_methods_agree_and_match_brute_oracle(p, m):
    ctx = gf_make(p, m)
    rng = random.Random(77 + p)
    for _ in range(20):
        n = rng.randint(1, 3) if p == 2 else rng.randint(1, 2)
        code = oracles.random_code(rng, ctx, n)
        exhaustive = min_distance_with_witness(code, method=EXHAUSTIVE)
        basis = min_distance_with_witness(code, method=BASIS)
        assert exhaustive == basis
        expected_d, expected_witness = oracles.brute_min_distance(
            ctx, n, SYMPLECTIC, oracles.code_vector_set(code)
        )
        assert exhaustive[0] == expected_d
        if expected_witness is None:
            assert exhaustive[1] is None
        else:
            assert exhaustive[1].coords == expected_witness


def test_distance_on_hermitian_layout_against_brute():
    ctx = gf_make(2, 1)
    rng = random.Random(9)
    for _ in range(10):
        n = rng.randint(1, 3)
        code = oracles.random_code(rng, ctx, n, HERMITIAN)
        d = min_distance(code, method=BASIS)
        expected_d, _ = oracles.brute_min_distance(ctx, n, HERMITIAN, oracles.code_vector_set(code))
        assert d == expected_d


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2)])
def test_layout_agreement_through_phi(p, m):
    ctx = gf_make(p, m)
    rng = random.Random(101)
    for _ in range(10):
        n = rng.randint(1, 3)
        code = oracles.random_code(rng, ctx, n)
        assert min_distance(code, method=BASIS) == min_distance(code.phi_image(), method=BASIS)


def test_all_parameters_agree_across_layouts():
    # The isometry preserves sizes and pairings, so every parameter of the
    # subsystem code must coincide, not just the distance.
    rng = random.Random(202)
    for p, m in [(2, 1), (3, 1), (2, 2)]:
        ctx = gf_make(p, m)
        for _ in range(8):
            code = oracles.random_code(rng, ctx, rng.randint(1, 2))
            a = subsystem_params(code, distance_method=BASIS)
            b = subsystem_params(code.phi_image(), distance_method=BASIS)
            assert (a.x, a.y, a.dim_a, a.dim_b, a.k, a.r, a.d) == (
                b.x,
                b.y,
                b.dim_a,
                b.dim_b,
                b.k,
                b.r,
                b.d,
            )


def test_detection_radius_property():
    ctx = gf_make(2, 1)
    rng = random.Random(55)
    for _ in range(10):
        code = oracles.random_code(rng, ctx, 2)
        d, witness = min_distance_with_witness(code)
        difference = oracles.code_vector_set(code.hull().dual()) - oracles.code_vector_set(code)
        if d == UNBOUNDED:
            assert not difference
            continue
        assert witness.coords in difference
        assert swt(witness) == d
        assert all(oracles.brute_weight(SYMPLECTIC, c) >= d for c in difference)


def test_enumeration_caps():
    # A single self-orthogonal generator in a 2^26 ambient space: the hull
    # dual has 2^25 elements, over the basis cap, but d = 1, so the
    # weight-ordered sweep stops after the 39 vectors of weight 1.
    ctx = gf_make(2, 1)
    big = AdditiveCode.from_generators(ctx, 13, SYMPLECTIC, [tuple([1] + [0] * 25)])
    d, witness = min_distance_with_witness(big, method=EXHAUSTIVE)
    assert d == 1 and swt(witness) == 1
    assert witness in big.hull().dual() and witness not in big
    with pytest.raises(CapExceededError):
        min_distance(big, method=BASIS)
    # The degenerate whole space never enumerates, so no cap applies.
    whole = AdditiveCode.whole(ctx, 13, SYMPLECTIC)
    assert min_distance(whole, method=BASIS) == UNBOUNDED


def test_exhaustive_sweep_stops_after_the_first_weight_with_a_hit(monkeypatch):
    code = oracles.bacon_shor(gf_make(2, 1), 3, 3)  # [[9,1,4,3]]_2
    swept = []
    real = code_params._bulk_membership
    monkeypatch.setattr(code_params, "_bulk_membership",
                        lambda rows, c: swept.append(len(rows)) or real(rows, c))
    d, witness = min_distance_with_witness(code, method=EXHAUSTIVE)
    # Two membership tests per block; weights 1, 2 and 3 of 9 qubits.
    assert sum(swept) == 2 * sum(math.comb(9, w) * 3**w for w in (1, 2, 3)) == 2 * 2619
    assert d == 3 and witness.coords == (1, 1, 1) + (0,) * 15
    assert (d, witness) == oracles.full_scan_distance(code)


def test_exhaustive_cap_counts_the_sweep(monkeypatch, tmp_path, capsys):
    # 27 vectors of weight 1, then 27 + 36 * 9 = 351 through weight 2.
    monkeypatch.setattr(code_params, "ENUMERATION_CAP", 100)
    code = oracles.bacon_shor(gf_make(2, 1), 3, 3)  # [[9,1,4,3]]_2
    with pytest.raises(CapExceededError, match=r"weight 2 \(351 vectors\) exceeds 100"):
        min_distance(code, method=EXHAUSTIVE)
    path = tmp_path / "bacon_shor.json"
    emit_code_file(code, path)
    assert main(["params", "-i", str(path)]) == 3
    assert "351" in capsys.readouterr().err


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2)])
def test_exhaustive_blocks_of_any_size_give_the_same_witness(monkeypatch, p, m):
    # With 5-row blocks a support's value tuples span several blocks (and
    # several supports share a block at weight 1 over GF(2)).
    monkeypatch.setattr(code_params, "_CHUNK", 5)
    ctx = gf_make(p, m)
    rng = random.Random(17 + p * m)
    for _ in range(10):
        code = oracles.random_code(rng, ctx, rng.randint(1, 3), rng.choice([SYMPLECTIC, HERMITIAN]))
        assert min_distance_with_witness(code, EXHAUSTIVE) == oracles.full_scan_distance(code)


def test_exhaustive_blocks_of_a_wide_code_stay_small(monkeypatch):
    # n = 13, so 26 digit columns: 4-row blocks would hold more digits than
    # the 4 * 24 budget, so the 39 weight-1 vectors go 3 rows at a time.
    monkeypatch.setattr(code_params, "_CHUNK", 4)
    sizes = []
    real = code_params._bulk_membership
    monkeypatch.setattr(code_params, "_bulk_membership",
                        lambda rows, c: sizes.append(rows.shape) or real(rows, c))
    big = AdditiveCode.from_generators(gf_make(2, 1), 13, SYMPLECTIC, [tuple([1] + [0] * 25)])
    assert min_distance(big, method=EXHAUSTIVE) == 1
    assert max(sizes) == (3, 26) and sum(rows for rows, _ in sizes) == 2 * 39


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2)])
def test_basis_walk_in_small_chunks_gives_the_same_witness(monkeypatch, p, m):
    # p^low <= 5 walked rows per chunk, so the high rows of the basis run
    # through many chunks, the first ones wholly inside X.
    monkeypatch.setattr(code_params, "_CHUNK", 5)
    ctx = gf_make(p, m)
    rng = random.Random(23 + p * m)
    for _ in range(10):
        code = oracles.random_code(rng, ctx, rng.randint(1, 3), rng.choice([SYMPLECTIC, HERMITIAN]))
        assert min_distance_with_witness(code, BASIS) == oracles.full_scan_distance(code)


def test_basis_walk_of_a_stack_equals_the_walk_of_each_code(monkeypatch):
    # Groups of one code each (a 1-byte budget) and groups as large as they come.
    ctx, rng = gf_make(3, 1), random.Random(5)
    codes = [oracles.random_code(rng, ctx, 2, HERMITIAN) for _ in range(12)]
    codes.append(AdditiveCode.whole(ctx, 2, HERMITIAN))  # unbounded
    stacks = [np.zeros((len(codes), 4, 4), dtype=np.int64) for _ in range(2)]
    for b, code in enumerate(codes):
        stacks[0][b, : code.rank] = code.basis
        stacks[1][b, : code.hull().dual().rank] = code.hull().dual().basis
    ranks = np.array([c.rank for c in codes]), np.array([c.hull().dual().rank for c in codes])
    walks = []
    for budget in (1, 1 << 20):
        monkeypatch.setattr(code_params, "_WALK_BYTES", budget)
        walks.append(code_params._basis_walk(stacks[0], ranks[0], stacks[1], ranks[1], 3, 1, 2,
                                             HERMITIAN, witness=True))
    for d, rows in walks:
        for b, code in enumerate(codes):
            want_d, want_witness = min_distance_with_witness(code, EXHAUSTIVE)
            assert d[b] == want_d
            if want_witness is not None:
                assert CodeVector.from_digits(ctx, HERMITIAN, rows[b]) == want_witness


@st.composite
def _distance_codes(draw):
    p, m, top = draw(st.sampled_from([(2, 1, 4), (3, 1, 3), (2, 2, 3)]))
    n = draw(st.integers(1, top))
    cols = 2 * n * m
    row = st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols)
    layout = draw(st.sampled_from([SYMPLECTIC, HERMITIAN]))
    code = AdditiveCode.from_digit_rows(gf_make(p, m), n, layout, draw(st.lists(row, min_size=1, max_size=cols)))
    assume(not code.is_zero())
    return code


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(code=_distance_codes())
@example(code=AdditiveCode.whole(gf_make(3, 1), 2, HERMITIAN))
@example(code=AdditiveCode.from_generators(gf_make(2, 1), 1, SYMPLECTIC, [(1, 1)]))
def test_weight_ordered_sweep_equals_the_full_scan_and_the_basis_walk(code):
    d, witness = min_distance_with_witness(code, method=EXHAUSTIVE)
    assert (d, witness) == oracles.full_scan_distance(code)
    # Both methods pick the least encoding key at the least weight.
    assert min_distance_with_witness(code, method=BASIS) == (d, witness)
    if d == UNBOUNDED:
        assert witness is None and code.hull().dual() == code
    else:
        assert oracles.brute_weight(code.layout, witness.coords) == d
        assert witness in code.hull().dual() and witness not in code


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        min_distance(running_code(), method="guess")


def test_enlarging_code_keeps_dimension_identity():
    # Growing X one generator at a time must keep dim
    # A*dim B = q^n / |hull| consistent at every step.
    ctx = gf_make(2, 1)
    gens = [(1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 0, 0), (0, 0, 0, 1)]
    for cut in range(1, len(gens) + 1):
        code = AdditiveCode.from_generators(ctx, 2, SYMPLECTIC, gens[:cut])
        params = subsystem_params(code, distance_method=BASIS)
        assert params.dim_c == ctx.q**2 // params.y
