"""Desk-scale numeric certification on explicit q^n-dimensional matrices.

The error operators are X(a)|x> = |x+a> and Z(b)|x> = omega^tr(bx)|x> with
omega = exp(2*pi*i/p), tensored coordinate-wise with the first coordinate
most significant.  A vector (a|b) lifts to the monomial unitary
X(a)Z(b)|x> = omega^tr(b.x)|x+a>: a target index and a phase exponent per
basis state, read from the field's q x q add and tr(b x) arrays.  The code
projector P of a nonzero symplectic-layout code X is the product of
commuting eigenspace projectors of the lifted hull generators, one chosen
eigenvalue each; the orthonormal columns of its isometry V span the
K-dimensional code space, on which a lift l restricts to V^dagger l V (K x K).
run_checks builds one context per code (projector, minimum distance) that
every check reads.  The detect and support sweeps build no lift per error:
at one a, the lifts X(a)Z(b) differ only by the character omega^tr(b.x), so
one product with the character table of F_q^n gives all their values; set
membership is taken in bulk by encoding index.  The checks certify, entirely
numerically:

  * rank(P) = K = q^n / |hull(X)|,
  * an error is subsystem-detectable exactly when its vector is outside
    dual(hull(X)) - X,
  * restricted gauge and logical operators commute and span algebras of
    dimension (dim B)^2 and (dim A)^2,
  * Tr(e P) is nonzero exactly for vectors in the hull.

Dense matrices are capped at q^n <= 4096 by default; the OQECC_MAX_DIM
environment variable, a positive integer, raises the cap for the patient.
detect, which holds about 64 q^n K^2 bytes at a time, refuses above 2 GiB.
"""

from __future__ import annotations

import itertools
import os
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .additive_code import AdditiveCode, CodeVector, SYMPLECTIC
from .code_params import (BASIS, _bulk_membership, _bulk_weights, _digit_chunks, min_distance,
                          subsystem_dimensions)
from .errors import (CapExceededError, DimensionMismatchError, LayoutMismatchError,
                     NonCommutingLiftError, RankMismatchError, TheoryViolationError, ZeroCodeError)
from .galois import GfContext

DEFAULT_MAX_DIM = 4096
DETECT_BYTES_CAP = 2 << 30
OPERATOR_TOL = 1e-9
TRACE_TOL = 1e-6
SPAN_SV_RTOL = 1e-7


def max_matrix_dim() -> int:
    """Current cap on dense matrix dimension (env OQECC_MAX_DIM overrides)."""
    raw = os.environ.get("OQECC_MAX_DIM")
    if not raw:
        return DEFAULT_MAX_DIM
    try:
        cap = int(raw)
    except ValueError:  # reported below, naming the variable
        cap = 0
    if cap < 1:
        raise ValueError(f"OQECC_MAX_DIM must be a positive integer, got {raw!r}")
    return cap


def _check_dim(ctx: GfContext, n: int) -> int:
    dim = ctx.q**n
    cap = max_matrix_dim()
    if dim > cap:
        raise CapExceededError(f"q^n = {dim} exceeds the matrix cap {cap}")
    return dim


def _check_detect_budget(code: AdditiveCode) -> None:
    """Refuse detect before the projector is built when its working set per a,
    about 64 q^n K^2 bytes with K = q^n/|hull|, exceeds DETECT_BYTES_CAP."""
    dim_a, dim_b = subsystem_dimensions(code)
    dim, k = _check_dim(code.ctx, code.n), dim_a * dim_b
    if 64 * dim * k * k > DETECT_BYTES_CAP:
        raise CapExceededError(f"detect would hold about {64 * dim * k * k} bytes per a (64 q^n K^2 "
                               f"with q^n = {dim}, K = {k}), over its cap {DETECT_BYTES_CAP}")


class ErrorOperator:
    """A phase exponent plus a vector (a|b), realizable as a q^n unitary.

    The phase exponent counts powers of a primitive 2p-th root of unity when
    p = 2 (lifts like X(1)Z(1) square to -I) and of a p-th root otherwise.
    """

    def __init__(self, ctx: GfContext, a: Sequence[int], b: Sequence[int], phase_exp: int = 0):
        if len(a) != len(b):
            raise DimensionMismatchError("a and b must have the same length")
        self.ctx = ctx
        self.a = tuple(ctx._check(x) for x in a)
        self.b = tuple(ctx._check(x) for x in b)
        self.phase_modulus = 2 * ctx.p if ctx.p == 2 else ctx.p
        self.phase_exp = phase_exp % self.phase_modulus
        _check_dim(ctx, self.n)

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def vector(self) -> CodeVector:
        """The image (a|b) in F_q^(2n)."""
        return CodeVector(self.ctx, SYMPLECTIC, self.a + self.b)

    @cached_property
    def _monomial(self) -> tuple[np.ndarray, np.ndarray]:
        """(target, phase): column x holds phase[x] in row target[x], the index
        of x + a.  Built one coordinate at a time, as a kron chain would be."""
        ctx = self.ctx
        target = exponent = np.zeros(1, dtype=np.int64)
        for ai, bi in zip(self.a, self.b):
            target = (target[:, None] * ctx.q + ctx.add_table[ai]).ravel()
            exponent = (exponent[:, None] + ctx.trace_mul_table[bi]).ravel()
        modulus = self.phase_modulus
        exponent = exponent * (modulus // ctx.p) + self.phase_exp
        return target, np.exp(2j * np.pi * (exponent % modulus) / modulus)

    @cached_property
    def realization(self) -> np.ndarray:
        """Dense unitary, first coordinate as the leftmost tensor factor."""
        target, phase = self._monomial
        mat = np.zeros((target.size, target.size), dtype=np.complex128)
        mat[target, np.arange(target.size)] = phase
        return mat

    def __repr__(self) -> str:
        return f"ErrorOperator(a={self.a}, b={self.b}, phase_exp={self.phase_exp})"


def pauli_matrix(ctx: GfContext, a: Sequence[int], b: Sequence[int], phase_exp: int = 0) -> ErrorOperator:
    """Lift of the vector (a|b): the operator X(a)Z(b) times a phase."""
    return ErrorOperator(ctx, a, b, phase_exp)


def _max_abs(mat: np.ndarray) -> float:
    return float(np.abs(mat).max()) if mat.size else 0.0


def _eigenvalue_candidates(ctx: GfContext, v: CodeVector) -> list[complex]:
    """Admissible eigenvalues of the phase-0 lift, smallest argument first.

    For odd p the lift has order p.  For p = 2 it squares to (-1)^tr(a.b) I,
    so the eigenvalues are +-1 or +-i depending on that sign.
    """
    p = ctx.p
    if p == 2:
        # The trace is additive, so tr(a.b) = sum_i tr(a_i b_i) mod 2.
        if ctx.trace_mul_table[v.a_coords, v.b_coords].sum() % 2:
            return [1j, -1j]
        return [1.0 + 0j, -1.0 + 0j]
    omega = np.exp(2j * np.pi / p)
    return [omega**j for j in range(p)]


def _eigenspace_projector(op: np.ndarray, eigenvalue: complex, p: int) -> np.ndarray:
    """(1/p) * sum_j (eigenvalue^-1 op)^j, the projector onto the eigenspace."""
    scaled = op / eigenvalue
    term = np.eye(op.shape[0], dtype=np.complex128)
    total = term.copy()
    for _ in range(p - 1):
        term = term @ scaled
        total += term
    return total / p


@dataclass(frozen=True, eq=False)
class Projector:
    """The code projector with the data used to build it; isometry is V, whose
    orthonormal columns span the code space, so V V^dagger = matrix."""

    matrix: np.ndarray
    source_code: AdditiveCode
    hull_basis: tuple[CodeVector, ...]
    eigenvalue_choices: tuple[complex, ...]
    rank: int
    isometry: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def build_projector(code: AdditiveCode, eigenvalue_picks: Sequence[int] | None = None) -> Projector:
    """Projector onto the joint chosen-eigenvalue space of the lifted hull.

    Default eigenvalues follow a fixed rule: per generator, the eigenvalue
    of largest multiplicity, ties broken by smallest complex argument (for
    phase-0 lifts all multiplicities tie at q^n/p, so the argument order
    decides).  eigenvalue_picks forces index choices instead, for checking
    that every tuple gives the same rank: the lifts of independent hull
    generators commute and no nontrivial product of them is a scalar, so
    every joint eigenspace has dimension q^n/|hull|.
    """
    if code.layout != SYMPLECTIC:
        raise LayoutMismatchError("the projector needs a symplectic-layout code")
    if code.is_zero():
        raise ZeroCodeError("the projector needs a nonzero code")
    ctx = code.ctx
    dim = _check_dim(ctx, code.n)
    hull = code.hull()
    generators = hull.basis_vectors()
    mats = [pauli_matrix(v.ctx, v.a_coords, v.b_coords).realization for v in generators]

    for i, j in itertools.combinations(range(len(mats)), 2):
        if _max_abs(mats[i] @ mats[j] - mats[j] @ mats[i]) > OPERATOR_TOL:
            raise NonCommutingLiftError(
                f"lifted hull generators {generators[i]!r} and {generators[j]!r} do not commute"
            )

    picks = [0] * len(generators) if eigenvalue_picks is None else eigenvalue_picks
    if len(picks) != len(generators):
        raise DimensionMismatchError("one eigenvalue pick per hull generator required")
    choices = [_eigenvalue_candidates(ctx, v)[i] for v, i in zip(generators, picks)]
    matrix = np.eye(dim, dtype=np.complex128)
    for mat, eigenvalue in zip(mats, choices):
        matrix = matrix @ _eigenspace_projector(mat, eigenvalue, ctx.p)

    if _max_abs(matrix - matrix.conj().T) > OPERATOR_TOL:
        raise TheoryViolationError("projector is not Hermitian within tolerance")
    if _max_abs(matrix @ matrix - matrix) > OPERATOR_TOL:
        raise TheoryViolationError("projector is not idempotent within tolerance")
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    isometry = eigenvectors[:, eigenvalues > 0.5]
    rank = isometry.shape[1]
    expected = dim // (ctx.p**hull.rank)
    if rank != expected:
        raise RankMismatchError(
            f"projector rank {rank} but q^n/|hull| = {expected}; the theory was violated"
        )
    return Projector(matrix=matrix, source_code=code, hull_basis=generators,
                     eigenvalue_choices=tuple(choices), rank=rank, isometry=isometry)


def _restrict(projector: Projector, error: ErrorOperator) -> np.ndarray:
    """V^dagger e V, a row gather of V: (e V)[target[x]] = phase[x] V[x]."""
    target, phase = error._monomial
    if target.size != projector.dim:
        raise DimensionMismatchError("projector and error dimensions differ")
    isometry = projector.isometry
    return isometry[target].conj().T @ (phase[:, None] * isometry)


@dataclass(frozen=True)
class VerifierReport:
    """Outcome of one certification check; failing reports carry witnesses."""

    check: str
    passed: bool
    witnesses: tuple = ()
    tolerances: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        assert self.passed or self.witnesses, "a failing report must carry a witness"


def _restricted(projector: Projector, vectors: Iterable[CodeVector]) -> list[np.ndarray]:
    return [_restrict(projector, pauli_matrix(v.ctx, v.a_coords, v.b_coords)) for v in vectors]


def restricted_logical_ops(projector: Projector) -> list[np.ndarray]:
    """V^dagger l V (K x K) for lifts l of a basis of dual(X); they generate the
    restricted logical algebra, which acts only on the logical tensor factor."""
    return _restricted(projector, projector.source_code.dual().basis_vectors())


def is_subsystem_detectable(
    projector: Projector, error: ErrorOperator, logical_ops: Sequence[np.ndarray] | None = None
) -> bool:
    """Numeric subsystem-level detectability of an error.

    An error is harmless to the encoded information iff its restriction to
    the code space acts as a scalar on the logical factor, equivalently iff
    V^dagger e V commutes with the whole restricted logical algebra (so does
    a scalar on all of the code space).
    """
    if logical_ops is None:
        logical_ops = restricted_logical_ops(projector)
    restricted = _restrict(projector, error)
    return all(_max_abs(restricted @ op - op @ restricted) <= OPERATOR_TOL for op in logical_ops)


class _Certification:
    """What the checks share about one code, each built once: the projector
    and the distance (the code caches its own hull, dual(hull) and dual)."""

    def __init__(self, code: AdditiveCode):
        self.code = code

    @cached_property
    def projector(self) -> Projector:
        return build_projector(self.code)

    @cached_property
    def distance(self) -> int | float:
        return min_distance(self.code, method=BASIS)


# The context that run_checks shares between its checks while they run.
_bound: ContextVar[_Certification | None] = ContextVar("oqecc_certification", default=None)


def _context(code: AdditiveCode) -> _Certification:
    bound = _bound.get()
    return bound if bound is not None and bound.code is code else _Certification(code)


def _error_sweep(code: AdditiveCode, values_at) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Digit rows of every error vector (a|b) with the value of X(a)Z(b), a chunk
    at a time in encoding order.  values_at(shift[a], chi) gives the values at a
    for every b, from shift[a, x] = index of x + a and chi[b, x] = omega^tr(b.x),
    folded like ErrorOperator._monomial (first coordinate most significant);
    reversing the 2n coordinate axes of the stacked [a, b] array gives encoding order."""
    ctx, n, q = code.ctx, code.n, code.ctx.q
    shift = chi = np.zeros((1, 1), dtype=np.int64)
    for _ in range(n):
        shift = (shift[:, None, :, None] * q + ctx.add_table[:, None]).reshape(q * len(shift), -1)
        chi = (chi[:, None, :, None] + ctx.trace_mul_table[:, None]).reshape(q * len(chi), -1)
    chi = np.exp(2j * np.pi * (chi % ctx.p) / ctx.p)
    values = np.stack([values_at(row, chi) for row in shift])
    del shift, chi  # q^n x q^n each; the chunks below need only the values
    values = values.reshape((q,) * (2 * n)).transpose(range(2 * n - 1, -1, -1)).reshape(-1)
    for digits in _digit_chunks(ctx.p, code.num_columns):
        yield digits, values[:len(digits)]
        values = values[len(digits):]


def _vector(code: AdditiveCode, digits: np.ndarray) -> tuple[int, ...]:
    return CodeVector.from_digits(code.ctx, SYMPLECTIC, digits).coords


def verify_rank(code: AdditiveCode) -> VerifierReport:
    """Certify rank(P) = q^n/|hull| (build_projector aborts if violated)."""
    projector = _context(code).projector
    return VerifierReport(
        check="rank",
        passed=True,
        tolerances={"operator": OPERATOR_TOL, "eigenvalue_threshold": 0.5},
        details={
            "rank": projector.rank,
            "dim": projector.dim,
            "hull_size": code.hull().size,
            "eigenvalues": [str(v) for v in projector.eigenvalue_choices],
        },
    )


def verify_detectability(code: AdditiveCode) -> VerifierReport:
    """Sweep every error vector and compare numerics with the set predicate.

    An error is detectable by the logical subsystem iff its K x K restriction
    V^dagger e V commutes with the whole restricted logical algebra; at one a
    those of all X(a)Z(b) are sum_x chi[b, x] conj(V[x+a]) (x) V[x], tested
    against one logical generator after another until one fails.  The
    predicate side says: the vector lies outside dual(hull(X)) - X.  The sweep
    also certifies that everything lighter than d is detectable.
    """
    _check_detect_budget(code)
    cx = _context(code)
    isometry = cx.projector.isometry
    # Only this check reads them; kept on the context they would outlive it.
    logical_ops = restricted_logical_ops(cx.projector)

    def detectable_at(shift: np.ndarray, chi: np.ndarray) -> np.ndarray:
        pairs = isometry[shift].conj()[:, :, None] * isometry[:, None, :]
        restricted = (chi @ pairs.reshape(len(chi), -1)).reshape(pairs.shape)
        alive = np.arange(len(chi))
        for op in logical_ops:
            keep = np.abs(restricted @ op - op @ restricted).max(axis=(1, 2)) <= OPERATOR_TOL
            restricted, alive = restricted[keep], alive[keep]
        return np.isin(np.arange(len(chi)), alive)

    mismatches, below_distance_failures = [], []
    total = detectable_count = 0
    for digits, numeric in _error_sweep(code, detectable_at):
        predicted = ~_bulk_membership(digits, code.hull().dual()) | _bulk_membership(digits, code)
        weights = _bulk_weights(digits, code.ctx.m, code.n, SYMPLECTIC)
        mismatches += [{"vector": _vector(code, digits[i]), "numeric": bool(numeric[i]),
                        "predicted": bool(predicted[i])} for i in np.flatnonzero(numeric != predicted)]
        below_distance_failures += [{"vector": _vector(code, digits[i]), "swt": int(weights[i])}
                                    for i in np.flatnonzero((weights < cx.distance) & ~numeric)]
        detectable_count += int(numeric.sum())
        total += len(digits)

    return VerifierReport(
        check="detect",
        passed=not (mismatches or below_distance_failures),
        witnesses=tuple(mismatches + below_distance_failures),
        tolerances={"operator": OPERATOR_TOL},
        details={"errors_swept": total, "detectable": detectable_count, "distance": cx.distance},
    )


def _span_dimension(ops: Sequence[np.ndarray]) -> int:
    """Dimension of the span of K x K operators, one of which is I_K."""
    stack = np.stack([op.reshape(-1) for op in ops])
    singular_values = np.linalg.svd(stack, compute_uv=False)
    return int((singular_values > SPAN_SV_RTOL * singular_values[0]).sum())


def verify_tensor_factorization(code: AdditiveCode) -> VerifierReport:
    """Certify the gauge/logical split of the code space.

    Lifts of X restrict (V^dagger l V) to operators acting only on the gauge
    factor, lifts of dual(X) only on the logical factor: all cross pairs
    must commute and the spans must have dimensions (dim B)^2 and (dim A)^2.
    """
    projector = _context(code).projector
    dim_a, dim_b = subsystem_dimensions(code)
    dual = code.dual()
    budget = max_matrix_dim()
    if code.size > budget or dual.size > budget:
        raise CapExceededError(
            f"enumerating {code.size} gauge and {dual.size} logical lifts exceeds the cap {budget}"
        )
    gauge_vectors = list(code.vectors())
    logical_vectors = list(dual.vectors())
    gauge_ops = _restricted(projector, gauge_vectors)
    logical_ops = _restricted(projector, logical_vectors)

    violations = []
    for gv, gop in zip(gauge_vectors, gauge_ops):
        for lv, lop in zip(logical_vectors, logical_ops):
            if _max_abs(gop @ lop - lop @ gop) > OPERATOR_TOL:
                violations.append({"gauge": gv.coords, "logical": lv.coords})

    gauge_span = _span_dimension(gauge_ops)
    logical_span = _span_dimension(logical_ops)
    if gauge_span != dim_b**2 or logical_span != dim_a**2:
        violations.append({"gauge_span": gauge_span, "expected_gauge_span": dim_b**2,
                           "logical_span": logical_span, "expected_logical_span": dim_a**2})
    return VerifierReport(
        check="tensor",
        passed=not violations,
        witnesses=tuple(violations),
        tolerances={"operator": OPERATOR_TOL, "singular_value_rtol": SPAN_SV_RTOL},
        details={"dim_a": dim_a, "dim_b": dim_b,
                 "gauge_span": gauge_span, "logical_span": logical_span},
    )


def verify_character_support(code: AdditiveCode) -> VerifierReport:
    """Certify that Tr(e P) is nonzero exactly on lifts of hull vectors.

    For a hull vector the magnitude is exactly q^n/|hull|, otherwise exactly
    zero, so the 1e-6 threshold has enormous margin.  For one a, the traces
    of all X(a)Z(b) are one character transform,
    Tr(X(a)Z(b) P) = sum_x chi[b, x] P[x, x+a].
    """
    matrix = _context(code).projector.matrix
    states = np.arange(len(matrix))
    mismatches = []
    total = support = 0
    for digits, traces in _error_sweep(code, lambda shift, chi: chi @ matrix[states, shift]):
        nonzero = np.abs(traces) > TRACE_TOL
        member = _bulk_membership(digits, code.hull())
        mismatches += [{"vector": _vector(code, digits[i]), "trace": complex(traces[i]),
                        "in_hull": bool(member[i])} for i in np.flatnonzero(nonzero != member)]
        support += int(nonzero.sum())
        total += len(digits)
    return VerifierReport(
        check="support",
        passed=not mismatches,
        witnesses=tuple(mismatches),
        tolerances={"trace": TRACE_TOL},
        details={"errors_swept": total, "support_size": support, "hull_size": code.hull().size},
    )


ALL_CHECKS = ("rank", "detect", "tensor", "support")

_CHECK_FUNCTIONS = {
    "rank": verify_rank,
    "detect": verify_detectability,
    "tensor": verify_tensor_factorization,
    "support": verify_character_support,
}


def run_checks(code: AdditiveCode, checks: Sequence[str] = ALL_CHECKS) -> list[VerifierReport]:
    """Run the named certification checks in a fixed order, on one shared context."""
    unknown = [c for c in checks if c not in _CHECK_FUNCTIONS]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; available: {list(ALL_CHECKS)}")
    if "detect" in checks:
        _check_detect_budget(code)
    token = _bound.set(_Certification(code))
    try:
        return [_CHECK_FUNCTIONS[c](code) for c in ALL_CHECKS if c in checks]
    finally:
        _bound.reset(token)
