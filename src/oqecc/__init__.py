"""Operator quantum error-correcting (subsystem) codes from classical
additive codes over small finite fields, with desk-scale numeric
certification of the construction."""

from .additive_code import (
    AdditiveCode,
    CodeVector,
    HERMITIAN,
    SYMPLECTIC,
    ambient_vectors,
    phi_inverse,
    phi_map,
    symplectic_form,
    trace_alternating_form,
)
from .code_params import (
    BASIS,
    EXHAUSTIVE,
    UNBOUNDED,
    SubsystemParams,
    hamming_wt,
    min_distance,
    min_distance_with_witness,
    subsystem_dimensions,
    subsystem_params,
    swt,
)
from .codefile import code_from_json, code_to_json, emit_code_file, parse_code_file
from .errors import (
    CapExceededError,
    DimensionMismatchError,
    FieldTooLargeError,
    InvalidEncodingError,
    LayoutMismatchError,
    NonCommutingLiftError,
    NotInSubfieldError,
    NotPrimeError,
    OqeccError,
    OutOfRangeError,
    ParseError,
    RankMismatchError,
    TheoryViolationError,
    ZeroCodeError,
)
from .galois import GfContext, find_normal_beta, gf_make
from .search import pareto_summary, run_search, search_records
from .verifier import (
    ErrorOperator,
    Projector,
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

__version__ = "0.1.0"
