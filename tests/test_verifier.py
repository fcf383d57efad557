import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from oracles import check_detectable
from oqecc.additive_code import AdditiveCode, CodeVector, HERMITIAN, SYMPLECTIC, ambient_vectors, symplectic_form
from oqecc import code_params, verifier
from oqecc.cli import main
from oqecc.codefile import emit_code_file
from oqecc.code_params import BASIS, UNBOUNDED, min_distance, subsystem_dimensions, subsystem_params
from oqecc.errors import (
    CapExceededError,
    DimensionMismatchError,
    LayoutMismatchError,
    ZeroCodeError,
)
from oqecc.galois import gf_make
from oqecc.verifier import (
    VerifierReport,
    build_projector,
    is_subsystem_detectable,
    pauli_matrix,
    restricted_logical_ops,
    run_checks,
    verify_character_support,
    verify_detectability,
    verify_rank,
    verify_tensor_factorization,
)

# A [[4,1,1,2]] code found by the seeded search harness (p=2, m=1, n=4,
# seed=7); its parameters are re-derived below before it is used.
SEARCHED_4112_GENS = [
    (1, 0, 1, 0, 0, 0, 0, 0),
    (0, 1, 1, 0, 1, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 1, 1),
    (0, 0, 0, 0, 0, 1, 1, 1),
]


def running_code():
    return AdditiveCode.from_generators(gf_make(2, 1), 2, SYMPLECTIC, [(1, 1, 0, 0)])


def gauge_code():
    # hull {0}: one data qubit, one gauge qubit
    return AdditiveCode.from_generators(gf_make(2, 1), 2, SYMPLECTIC, [(1, 0, 0, 0), (0, 0, 1, 0)])


def searched_4112():
    code = AdditiveCode.from_generators(gf_make(2, 1), 4, SYMPLECTIC, SEARCHED_4112_GENS)
    params = subsystem_params(code, distance_method="basis")
    assert params.quartet() == "[[4,1,1,2]]_2"
    return code


# -- error operators -------------------------------------------------------------


def test_identity_operator():
    ctx = gf_make(2, 1)
    op = pauli_matrix(ctx, (0, 0), (0, 0))
    assert np.array_equal(op.realization, np.eye(4))


def test_shift_operator_matrix():
    # X(1) permutes |x> to |x+1>
    ctx = gf_make(2, 1)
    op = pauli_matrix(ctx, (1,), (0,))
    assert np.array_equal(op.realization, np.array([[0, 1], [1, 0]], dtype=complex))


def test_phase_operator_matrix_q3():
    ctx = gf_make(3, 1)
    op = pauli_matrix(ctx, (0,), (1,))
    omega = np.exp(2j * np.pi / 3)
    assert np.allclose(op.realization, np.diag([1, omega, omega**2]))


def test_single_qubit_commutator_example():
    ctx = gf_make(2, 1)
    x = pauli_matrix(ctx, (1,), (0,)).realization
    z = pauli_matrix(ctx, (0,), (1,)).realization
    comm = x @ z @ np.linalg.inv(x) @ np.linalg.inv(z)
    assert np.allclose(comm, -np.eye(2))
    assert symplectic_form(
        CodeVector(ctx, SYMPLECTIC, (1, 0)), CodeVector(ctx, SYMPLECTIC, (0, 1))
    ) == 1


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2)])
def test_realizations_are_unitary(p, m):
    ctx = gf_make(p, m)
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(1, 2)
        a = [rng.randrange(ctx.q) for _ in range(n)]
        b = [rng.randrange(ctx.q) for _ in range(n)]
        mat = pauli_matrix(ctx, a, b).realization
        assert np.abs(mat @ mat.conj().T - np.eye(ctx.q**n)).max() <= 1e-9


def test_phase_exponent_bookkeeping():
    ctx = gf_make(2, 1)
    op = pauli_matrix(ctx, (1,), (1,), phase_exp=1)
    assert op.phase_modulus == 4
    assert np.allclose(op.realization, 1j * pauli_matrix(ctx, (1,), (1,)).realization)
    # X(1)Z(1) squares to -I, so its eigenvalues are 4th roots of unity.
    squared = pauli_matrix(ctx, (1,), (1,)).realization
    assert np.allclose(squared @ squared, -np.eye(2))
    ctx3 = gf_make(3, 1)
    assert pauli_matrix(ctx3, (1,), (1,)).phase_modulus == 3


@pytest.mark.parametrize("p,m,n_max", [(2, 1, 2), (3, 1, 2), (2, 2, 1), (5, 1, 1)])
def test_commutator_phase_equals_form_exhaustively(p, m, n_max):
    ctx = gf_make(p, m)
    omega = np.exp(2j * np.pi / p)
    for n in range(1, n_max + 1):
        vectors = list(ambient_vectors(ctx, n, SYMPLECTIC))
        mats = {v.coords: pauli_matrix(ctx, v.a_coords, v.b_coords).realization for v in vectors}
        for u in vectors:
            mu = mats[u.coords]
            for v in vectors:
                mv = mats[v.coords]
                comm = mu @ mv @ mu.conj().T @ mv.conj().T
                expected = omega ** symplectic_form(u, v) * np.eye(ctx.q**n)
                assert np.abs(comm - expected).max() <= 1e-9


@pytest.mark.parametrize("p,m,n_max", [(2, 1, 2), (3, 1, 2), (2, 2, 1), (5, 1, 1)])
def test_monomial_lift_matches_kron_oracle(p, m, n_max):
    ctx = gf_make(p, m)
    for n in range(1, n_max + 1):
        for v in ambient_vectors(ctx, n, SYMPLECTIC):
            for phase_exp in (0, 1):
                lift = pauli_matrix(ctx, v.a_coords, v.b_coords, phase_exp).realization
                dense = oracles.kron_lift(ctx, v.a_coords, v.b_coords, phase_exp)
                assert np.abs(lift - dense).max() <= 1e-12, (v, phase_exp)


def test_matrix_cap():
    ctx = gf_make(2, 1)
    with pytest.raises(CapExceededError):
        pauli_matrix(ctx, (0,) * 13, (0,) * 13)


def test_matrix_cap_env_override(monkeypatch):
    ctx = gf_make(2, 1)
    monkeypatch.setenv("OQECC_MAX_DIM", "8")
    with pytest.raises(CapExceededError):
        pauli_matrix(ctx, (0,) * 4, (0,) * 4)
    monkeypatch.setenv("OQECC_MAX_DIM", "16")
    assert pauli_matrix(ctx, (0,) * 4, (0,) * 4).realization.shape == (16, 16)


def test_detect_refuses_its_working_set_before_building_the_projector(monkeypatch, tmp_path, capsys):
    def never(code):
        raise AssertionError("the projector was built")

    monkeypatch.setattr(verifier, "build_projector", never)
    code = oracles.bacon_shor(gf_make(2, 1), 3, 4)  # q^n = 4096, K = 128
    message = (r"about 4294967296 bytes per a \(64 q\^n K\^2 with q\^n = 4096, K = 128\), "
               r"over its cap 2147483648")
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match=message):
        run_checks(code, ["rank", "detect"])
    with pytest.raises(CapExceededError, match=message):
        verify_detectability(code)
    path = tmp_path / "bacon_shor_3x4.json"
    emit_code_file(code, path)
    assert main(["verify", "-i", str(path), "--checks", "detect"]) == 3
    assert "4294967296" in capsys.readouterr().err
    assert time.perf_counter() - start < 2


def test_detect_budget_boundary(monkeypatch):
    # The running example: q^n = 4, K = 2, so 64 * 4 * 2^2 = 1024 bytes.
    monkeypatch.setattr(verifier, "DETECT_BYTES_CAP", 1023)
    with pytest.raises(CapExceededError, match="about 1024 bytes"):
        verify_detectability(running_code())
    assert [r.check for r in run_checks(running_code(), ["rank", "support"])] == ["rank", "support"]
    monkeypatch.setattr(verifier, "DETECT_BYTES_CAP", 1024)
    assert verify_detectability(running_code()).passed


def test_over_cap_files_keep_the_matrix_cap_message():
    big = AdditiveCode.from_generators(gf_make(2, 1), 13, SYMPLECTIC, [tuple([1] + [0] * 25)])
    with pytest.raises(CapExceededError, match="q\\^n = 8192 exceeds the matrix cap 4096"):
        run_checks(big, ["detect"])


# -- projector -------------------------------------------------------------------


def test_trivial_hull_gives_identity_projector():
    code = gauge_code()
    assert code.hull().rank == 0
    projector = build_projector(code)
    assert np.array_equal(projector.matrix, np.eye(4))
    assert projector.rank == 4


def test_running_example_projector_rank():
    projector = build_projector(running_code())
    assert projector.rank == 2  # q^n / |hull| = 4 / 2


def test_searched_code_projector_rank():
    projector = build_projector(searched_4112())
    assert projector.rank == 4  # 16 / 4


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1)])
def test_projector_invariants_random(p, m):
    ctx = gf_make(p, m)
    rng = random.Random(p)
    for _ in range(15):
        n = rng.randint(1, 3 if p == 2 else 2)
        code = oracles.random_code(rng, ctx, n)
        projector = build_projector(code)
        mat = projector.matrix
        assert np.abs(mat - mat.conj().T).max() <= 1e-9
        assert np.abs(mat @ mat - mat).max() <= 1e-9
        assert projector.rank == ctx.q**n // code.hull().size
        iso = projector.isometry
        assert iso.shape == (ctx.q**n, projector.rank)
        assert np.abs(iso.conj().T @ iso - np.eye(projector.rank)).max() <= verifier.OPERATOR_TOL
        assert np.abs(iso @ iso.conj().T - mat).max() <= verifier.OPERATOR_TOL


@pytest.mark.parametrize("p,m", [(2, 2), (5, 1)])
def test_all_checks_on_larger_fields(p, m):
    # GF(4) exercises extension-field lifts, GF(5) the odd-prime eigenvalue
    # path (5 candidates per generator).
    ctx = gf_make(p, m)
    rng = random.Random(60 + p * m)
    for _ in range(4):
        code = oracles.random_code(rng, ctx, rng.randint(1, 2))
        reports = run_checks(code)
        assert all(r.passed for r in reports), [
            (r.check, r.witnesses[:2]) for r in reports if not r.passed
        ]
        rank_report = reports[0]
        assert rank_report.details["rank"] == ctx.q**code.n // code.hull().size


def test_eigenvalue_choice_independence():
    # Any realizable eigenvalue tuple must give the same rank; include a
    # code whose lift has order 4 (eigenvalues +-i).
    ctx = gf_make(2, 1)
    codes = [
        running_code(),
        AdditiveCode.from_generators(ctx, 1, SYMPLECTIC, [(1, 1)]),
        AdditiveCode.from_generators(ctx, 3, SYMPLECTIC, [(1, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 1)]),
    ]
    for code in codes:
        hull_rank = code.hull().rank
        ranks = set()
        choices = set()
        for picks in itertools.product(range(2), repeat=hull_rank):
            projector = build_projector(code, eigenvalue_picks=picks)
            ranks.add(projector.rank)
            choices.add(projector.eigenvalue_choices)
        assert ranks == {2 ** (code.n * 1) // code.hull().size}
        assert len(choices) == 2**hull_rank


def test_projector_guards():
    ctx = gf_make(2, 1)
    with pytest.raises(ZeroCodeError):
        build_projector(AdditiveCode.zero(ctx, 2, SYMPLECTIC))
    hermitian = running_code().phi_image()
    assert hermitian.layout == HERMITIAN
    with pytest.raises(LayoutMismatchError):
        build_projector(hermitian)
    with pytest.raises(DimensionMismatchError):
        build_projector(running_code(), eigenvalue_picks=(0, 0, 0))


# -- detectability -----------------------------------------------------------------


def test_identity_is_detectable_with_lambda_one():
    projector = build_projector(running_code())
    ctx = gf_make(2, 1)
    detectable, lam = check_detectable(projector, pauli_matrix(ctx, (0, 0), (0, 0)))
    assert detectable
    assert abs(lam - 1) <= 1e-9


def test_gauge_error_in_hull_is_scalar_on_code_space():
    code = running_code()
    projector = build_projector(code)
    ctx = gf_make(2, 1)
    detectable, lam = check_detectable(projector, pauli_matrix(ctx, (1, 1), (0, 0)))
    assert detectable
    assert abs(abs(lam) - 1) <= 1e-9


def test_logical_error_is_not_detectable():
    code = running_code()
    projector = build_projector(code)
    ctx = gf_make(2, 1)
    # (1,0|0,0) sits in dual(hull) - X
    error = pauli_matrix(ctx, (1, 0), (0, 0))
    detectable, lam = check_detectable(projector, error)
    assert not detectable and lam is None
    assert not is_subsystem_detectable(projector, error)


def test_gauge_errors_detectable_at_subsystem_level_only():
    # On a code with trivial hull, gauge errors move vectors inside the code
    # space (not scalars there) yet touch only the gauge factor.
    code = gauge_code()
    projector = build_projector(code)
    ctx = gf_make(2, 1)
    gauge_error = pauli_matrix(ctx, (1, 0), (0, 0))  # in X, not in hull
    subspace, _ = check_detectable(projector, gauge_error)
    assert not subspace
    assert is_subsystem_detectable(projector, gauge_error)
    logical_error = pauli_matrix(ctx, (0, 1), (0, 0))  # in dual(hull) - X
    assert not is_subsystem_detectable(projector, logical_error)


def test_check_detectable_dimension_guard():
    projector = build_projector(running_code())
    ctx = gf_make(2, 1)
    with pytest.raises(DimensionMismatchError):
        check_detectable(projector, pauli_matrix(ctx, (0,), (0,)))


@pytest.mark.parametrize(
    "gens,n",
    [
        ([(1, 1, 0, 0)], 2),
        ([(1, 0, 0, 0), (0, 0, 1, 0)], 2),
        ([(1, 0), (0, 1)], 1),
    ],
)
def test_verify_detectability_q2(gens, n):
    code = AdditiveCode.from_generators(gf_make(2, 1), n, SYMPLECTIC, gens)
    report = verify_detectability(code)
    assert report.passed
    assert report.details["errors_swept"] == 4**n


def test_verify_detectability_q3_example():
    code = AdditiveCode.from_generators(gf_make(3, 1), 1, SYMPLECTIC, [(1, 0)])
    report = verify_detectability(code)
    assert report.passed
    assert report.details["errors_swept"] == 9
    assert report.details["detectable"] == 9  # difference set is empty here
    assert report.details["distance"] == UNBOUNDED


def test_whole_space_every_error_detectable():
    code = AdditiveCode.whole(gf_make(2, 1), 1, SYMPLECTIC)
    report = verify_detectability(code)
    assert report.passed
    assert report.details["detectable"] == 4


# -- code-space restriction against the dense sandwich oracle -------------------------


def _stabilizer_state_code():
    # Z on both qubits: X is its own hull, |hull| = q^n, so K = 1.
    return AdditiveCode.from_generators(gf_make(2, 1), 2, SYMPLECTIC, [(0, 0, 1, 0), (0, 0, 0, 1)])


def _random_code(p, m, n_max, seed):
    def make():
        rng = random.Random(seed)
        return oracles.random_code(rng, gf_make(p, m), rng.randint(1, n_max))
    return make


_RESTRICTION_CODES = {
    "hull0": gauge_code,
    "k1": _stabilizer_state_code,
    "running": running_code,
    # Seeds picked for n = n_max and a spread of hull ranks, hull 0 (K = N) included.
    **{f"q2_{s}": _random_code(2, 1, 3, s) for s in (5, 17, 27)},
    **{f"q3_{s}": _random_code(3, 1, 2, s) for s in (5, 12)},
    **{f"gf4_{s}": _random_code(2, 2, 2, s) for s in (5, 12, 16)},
}


def _tensor_oracle(code, P, dim_a, dim_b):
    """(details, witnesses) of the tensor check from dense P l P sandwiches."""
    ctx = code.ctx

    def restricted(vectors):
        return [(v.coords, oracles.sandwich(P, oracles.kron_lift(ctx, v.a_coords, v.b_coords))) for v in vectors]

    def span(ops):
        singular = np.linalg.svd(np.stack([op.ravel() for _, op in ops]), compute_uv=False)
        return int((singular > verifier.SPAN_SV_RTOL * singular[0]).sum())

    gauge, logical = restricted(code.vectors()), restricted(code.dual().vectors())
    witnesses = [{"gauge": g, "logical": l} for g, gop in gauge for l, lop in logical
                 if np.abs(gop @ lop - lop @ gop).max() > 1e-9]
    gauge_span, logical_span = span(gauge), span(logical)
    if gauge_span != dim_b**2 or logical_span != dim_a**2:
        witnesses.append({"gauge_span": gauge_span, "expected_gauge_span": dim_b**2,
                          "logical_span": logical_span, "expected_logical_span": dim_a**2})
    details = {"dim_a": dim_a, "dim_b": dim_b, "gauge_span": gauge_span, "logical_span": logical_span}
    return details, tuple(witnesses)


@pytest.mark.parametrize("make_code", _RESTRICTION_CODES.values(), ids=_RESTRICTION_CODES.keys())
def test_code_space_restriction_matches_the_sandwich_oracle(make_code, monkeypatch):
    code = make_code()
    ctx = code.ctx
    projector = build_projector(code)
    P, K = projector.matrix, projector.rank
    logical = [oracles.sandwich(P, oracles.kron_lift(ctx, v.a_coords, v.b_coords))
               for v in code.dual().basis_vectors()]
    logical_ops = restricted_logical_ops(projector)
    assert all(op.shape == (K, K) for op in logical_ops)
    outcomes = set()
    for vec in ambient_vectors(ctx, code.n, SYMPLECTIC):
        sandwiched = oracles.sandwich(P, oracles.kron_lift(ctx, vec.a_coords, vec.b_coords))
        lam = complex(np.trace(sandwiched) / K)
        scalar = bool(np.abs(sandwiched - lam * P).max() <= 1e-9)
        subsystem = scalar or all(np.abs(sandwiched @ op - op @ sandwiched).max() <= 1e-9 for op in logical)
        error = pauli_matrix(ctx, vec.a_coords, vec.b_coords)
        detectable, got = check_detectable(projector, error)
        assert detectable == scalar, vec
        if scalar:
            assert abs(got - lam) <= 1e-9, vec
        else:
            assert got is None, vec
        assert is_subsystem_detectable(projector, error, logical_ops) == subsystem, vec
        outcomes.add((scalar, subsystem))
    assert is_subsystem_detectable(projector, error) == subsystem  # builds its own logical ops
    assert (True, True) in outcomes

    dim_a, dim_b = subsystem_dimensions(code)
    report = verify_tensor_factorization(code)
    assert report.passed
    assert (report.details, report.witnesses) == _tensor_oracle(code, P, dim_a, dim_b)
    # A wrong expected dim A forces a span witness; both sides must report it alike.
    monkeypatch.setattr(verifier, "subsystem_dimensions", lambda c: (dim_a + 1, dim_b))
    forced = verify_tensor_factorization(code)
    assert not forced.passed
    assert (forced.details, forced.witnesses) == _tensor_oracle(code, P, dim_a + 1, dim_b)


# -- tensor factorization ------------------------------------------------------------


def test_tensor_factorization_whole_space():
    report = verify_tensor_factorization(AdditiveCode.whole(gf_make(2, 1), 1, SYMPLECTIC))
    assert report.passed
    assert report.details == {"dim_a": 1, "dim_b": 2, "gauge_span": 4, "logical_span": 1}


def test_tensor_factorization_running_example():
    report = verify_tensor_factorization(running_code())
    assert report.passed
    assert report.details == {"dim_a": 2, "dim_b": 1, "gauge_span": 1, "logical_span": 4}


def test_tensor_factorization_searched_code():
    report = verify_tensor_factorization(searched_4112())
    assert report.passed
    assert report.details == {"dim_a": 2, "dim_b": 2, "gauge_span": 4, "logical_span": 4}


# -- character support ---------------------------------------------------------------


def test_character_support_running_example():
    report = verify_character_support(running_code())
    assert report.passed
    assert report.details["support_size"] == 2
    assert report.details["hull_size"] == 2


def test_character_support_whole_space():
    report = verify_character_support(AdditiveCode.whole(gf_make(2, 1), 1, SYMPLECTIC))
    assert report.passed
    assert report.details["support_size"] == 1


def test_character_support_magnitudes():
    code = running_code()
    projector = build_projector(code)
    ctx = gf_make(2, 1)
    for v in code.hull().vectors():
        value = np.trace(pauli_matrix(ctx, v.a_coords, v.b_coords).realization @ projector.matrix)
        assert abs(abs(value) - projector.rank) <= 1e-9


# -- report plumbing -------------------------------------------------------------------


def test_failing_report_requires_witness():
    with pytest.raises(AssertionError):
        VerifierReport(check="rank", passed=False)


def test_run_checks_order_and_selection():
    reports = run_checks(running_code(), ["support", "rank"])
    assert [r.check for r in reports] == ["rank", "support"]
    assert all(r.passed for r in reports)
    with pytest.raises(ValueError):
        run_checks(running_code(), ["bogus"])


def test_verify_rank_report():
    report = verify_rank(searched_4112())
    assert report.passed
    assert report.details["rank"] == 4
    assert report.details["hull_size"] == 4


# -- the shared certification context ---------------------------------------------


def test_run_checks_builds_the_projector_once(monkeypatch):
    calls = []
    real = verifier.build_projector

    def counting(code, *args, **kwargs):
        calls.append(code)
        return real(code, *args, **kwargs)

    monkeypatch.setattr(verifier, "build_projector", counting)
    reports = run_checks(searched_4112())
    assert [r.check for r in reports] == ["rank", "detect", "tensor", "support"]
    assert all(r.passed for r in reports)
    assert len(calls) == 1
    calls.clear()
    verify_rank(searched_4112())  # a check on its own builds its own
    assert len(calls) == 1


def _per_vector_sweeps(code, member=lambda vec, subspace: vec in subspace):
    """(details, witnesses) of the detect and support checks, computed one
    CodeVector at a time with kron-chain lifts and dense traces."""
    ctx = code.ctx
    projector = build_projector(code)
    P = projector.matrix
    hull = code.hull()
    hull_dual = hull.dual()
    logical = [oracles.sandwich(P, oracles.kron_lift(ctx, v.a_coords, v.b_coords)) for v in code.dual().basis_vectors()]
    d = min_distance(code, method=BASIS)
    mismatches, light, detectable, total = [], [], 0, 0
    support_mismatches, support = [], 0
    for vec in ambient_vectors(ctx, code.n, SYMPLECTIC):
        total += 1
        error = oracles.kron_lift(ctx, vec.a_coords, vec.b_coords)
        sandwiched = oracles.sandwich(P, error)
        lam = np.trace(sandwiched) / projector.rank
        numeric = bool(
            np.abs(sandwiched - lam * P).max() <= 1e-9
            or all(np.abs(sandwiched @ op - op @ sandwiched).max() <= 1e-9 for op in logical)
        )
        predicted = not (member(vec, hull_dual) and not member(vec, code))
        if numeric != predicted:
            mismatches.append({"vector": vec.coords, "numeric": numeric, "predicted": predicted})
        detectable += numeric
        weight = oracles.brute_weight(SYMPLECTIC, vec.coords)
        if weight < d and not numeric:
            light.append({"vector": vec.coords, "swt": weight})
        trace = complex(np.trace(error @ P))
        nonzero = abs(trace) > 1e-6
        support += nonzero
        if nonzero != member(vec, hull):
            support_mismatches.append({"vector": vec.coords, "trace": trace, "in_hull": member(vec, hull)})
    detect = ({"errors_swept": total, "detectable": detectable, "distance": d}, tuple(mismatches + light))
    support_report = (
        {"errors_swept": total, "support_size": support, "hull_size": hull.size},
        tuple(support_mismatches),
    )
    return detect, support_report


def _assert_same_support_witnesses(got, expected):
    assert [(w["vector"], w["in_hull"]) for w in got] == [(w["vector"], w["in_hull"]) for w in expected]
    assert all(abs(g["trace"] - e["trace"]) <= 1e-9 for g, e in zip(got, expected))


def _gf4_code():
    return oracles.random_code(random.Random(11), gf_make(2, 2), 2)


@pytest.mark.parametrize("make_code", [_gf4_code, searched_4112], ids=["gf4", "searched_4112"])
def test_sweeps_match_the_per_vector_oracle(make_code, monkeypatch):
    # A small chunk puts chunk boundaries inside the sweep.
    monkeypatch.setattr(code_params, "_CHUNK", 7)
    code = make_code()
    (detect_details, detect_witnesses), (support_details, support_witnesses) = _per_vector_sweeps(code)
    detect = verify_detectability(code)
    support = verify_character_support(code)
    assert detect.passed and support.passed
    assert (detect.details, detect.witnesses) == (detect_details, detect_witnesses)
    assert (support.details, support.witnesses) == (support_details, support_witnesses)


# (p, m, largest n): q^n up to 16, so the per-error oracle stays quick.
_PROPERTY_FIELDS = [(2, 1, 3), (3, 1, 2), (2, 2, 2)]


@st.composite
def _small_codes(draw):
    p, m, top = draw(st.sampled_from(_PROPERTY_FIELDS))
    n = draw(st.integers(1, top))
    cols = 2 * n * m
    row = st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols)
    code = AdditiveCode.from_digit_rows(gf_make(p, m), n, SYMPLECTIC, draw(st.lists(row, min_size=1, max_size=cols)))
    assume(not code.is_zero())
    return code


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(code=_small_codes())
def test_transform_sweeps_equal_the_per_error_oracle(code):
    (detect_details, detect_witnesses), (support_details, support_witnesses) = _per_vector_sweeps(code)
    detect = verify_detectability(code)
    support = verify_character_support(code)
    assert (detect.details, detect.witnesses) == (detect_details, detect_witnesses)
    assert support.details == support_details
    _assert_same_support_witnesses(support.witnesses, support_witnesses)


def test_sweeps_build_no_lift_per_error(monkeypatch):
    code = _gf4_code()
    projector = build_projector(code)
    monkeypatch.setattr(verifier, "build_projector", lambda c: projector)
    built = []
    real_init = verifier.ErrorOperator.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(verifier.ErrorOperator, "__init__", counting)
    assert verify_detectability(code).passed
    assert len(built) == code.dual().rank  # the lifts behind restricted_logical_ops
    built.clear()
    assert verify_character_support(code).passed
    assert built == []


def _y_code():
    # The hull lift X(1)Z(1) has eigenvalues +-i, so Tr(e P) is not real.
    return AdditiveCode.from_generators(gf_make(2, 1), 1, SYMPLECTIC, [(1, 1)])


def _flip_membership_in(target, monkeypatch):
    """Negate bulk membership in `target` on the verifier's predicate side;
    returns the per-vector oracle's membership with the same flip."""
    real = verifier._bulk_membership

    def membership(digits, subspace):
        mask = real(digits, subspace)
        return ~mask if subspace == target else mask

    monkeypatch.setattr(verifier, "_bulk_membership", membership)
    return lambda vec, subspace: (vec in subspace) != (subspace == target)


@pytest.mark.parametrize("make_code", [_gf4_code, running_code], ids=["gf4", "running"])
def test_forced_detect_failures_give_the_oracle_witnesses(make_code, monkeypatch):
    code = make_code()
    member = _flip_membership_in(code.hull().dual(), monkeypatch)
    (details, witnesses), _ = _per_vector_sweeps(code, member)
    report = verify_detectability(code)
    assert not report.passed and witnesses
    assert (report.details, report.witnesses) == (details, witnesses)


@pytest.mark.parametrize("make_code", [_gf4_code, running_code, _y_code], ids=["gf4", "running", "y"])
def test_forced_support_failures_give_the_oracle_witnesses(make_code, monkeypatch):
    code = make_code()
    member = _flip_membership_in(code.hull(), monkeypatch)
    _, (details, witnesses) = _per_vector_sweeps(code, member)
    report = verify_character_support(code)
    assert not report.passed and witnesses
    assert report.details == details
    _assert_same_support_witnesses(report.witnesses, witnesses)
