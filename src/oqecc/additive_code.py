"""Classical additive codes in symplectic and Hermitian layouts.

A code is an F_p-linear subspace of either F_q^(2n), with vectors written
(a|b), or of F_{q^2}^n.  Either way it is stored as a canonical matrix over
F_p in reduced row-echelon form whose columns are the F_p digits of the
coordinates, coordinate-major and least significant digit first (2*n*m
columns in both layouts).  Canonical storage makes structural equality
coincide with set equality.

The two layouts are exchanged by the coordinate-wise map
phi((a|b)) = beta*a + beta^q*b, which turns the symplectic pairing into the
trace-alternating pairing and symplectic weight into Hamming weight.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import _linalg
from .errors import (
    DimensionMismatchError,
    LayoutMismatchError,
    OutOfRangeError,
)
from .galois import GfContext, _digits, _undigits

SYMPLECTIC = "symplectic"
HERMITIAN = "hermitian"
LAYOUTS = (SYMPLECTIC, HERMITIAN)


def _coord_width(ctx: GfContext, layout: str) -> int:
    """F_p digits per coordinate: m for GF(q) entries, 2m for GF(q^2)."""
    return ctx.m if layout == SYMPLECTIC else 2 * ctx.m


def _coord_size(ctx: GfContext, layout: str) -> int:
    return ctx.q if layout == SYMPLECTIC else ctx.q2


def _coord_count(n: int, layout: str) -> int:
    return 2 * n if layout == SYMPLECTIC else n


def digit_columns(ctx: GfContext, n: int) -> int:
    """Number of F_p columns of a length-n code in either layout."""
    return 2 * n * ctx.m


@dataclass(frozen=True)
class CodeVector:
    """A single vector: (a|b) over GF(q), or a length-n word over GF(q^2)."""

    ctx: GfContext
    layout: str
    coords: tuple[int, ...]

    def __post_init__(self):
        if self.layout not in LAYOUTS:
            raise LayoutMismatchError(f"unknown layout {self.layout!r}")
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))
        if self.layout == SYMPLECTIC and len(self.coords) % 2:
            raise DimensionMismatchError("symplectic vectors need an even number of coordinates")
        size = _coord_size(self.ctx, self.layout)
        for c in self.coords:
            if not 0 <= c < size:
                raise OutOfRangeError(f"coordinate {c} is not an element encoding below {size}")

    @property
    def n(self) -> int:
        return len(self.coords) // 2 if self.layout == SYMPLECTIC else len(self.coords)

    @property
    def a_coords(self) -> tuple[int, ...]:
        self._require(SYMPLECTIC)
        return self.coords[: self.n]

    @property
    def b_coords(self) -> tuple[int, ...]:
        self._require(SYMPLECTIC)
        return self.coords[self.n :]

    def _require(self, layout: str) -> None:
        if self.layout != layout:
            raise LayoutMismatchError(f"expected a {layout} vector, got {self.layout}")

    def is_zero(self) -> bool:
        return not any(self.coords)

    @classmethod
    def zero(cls, ctx: GfContext, n: int, layout: str) -> "CodeVector":
        return cls(ctx, layout, (0,) * _coord_count(n, layout))

    def to_digits(self) -> np.ndarray:
        width = _coord_width(self.ctx, self.layout)
        out = np.empty(len(self.coords) * width, dtype=np.int64)
        for i, c in enumerate(self.coords):
            out[i * width : (i + 1) * width] = _digits(c, self.ctx.p, width)
        return out

    @classmethod
    def from_digits(cls, ctx: GfContext, layout: str, digits: Sequence[int]) -> "CodeVector":
        width = _coord_width(ctx, layout)
        if len(digits) % width:
            raise DimensionMismatchError(f"digit vector length {len(digits)} not a multiple of {width}")
        coords = tuple(
            _undigits([int(d) % ctx.p for d in digits[i : i + width]], ctx.p)
            for i in range(0, len(digits), width)
        )
        return cls(ctx, layout, coords)

    def encoding_index(self) -> int:
        """The vector as one little-endian base-p integer; fixes tie-breaks."""
        return _undigits(self.to_digits().tolist(), self.ctx.p)

    def __repr__(self) -> str:
        if self.layout == SYMPLECTIC:
            a = ",".join(map(str, self.a_coords))
            b = ",".join(map(str, self.b_coords))
            return f"({a}|{b})"
        return "(" + ",".join(map(str, self.coords)) + ")"


def ambient_vectors(ctx: GfContext, n: int, layout: str) -> Iterator[CodeVector]:
    """All vectors of the ambient space, ordered by encoding index."""
    size = _coord_size(ctx, layout)
    count = _coord_count(n, layout)
    for coords in itertools.product(range(size), repeat=count):
        yield CodeVector(ctx, layout, tuple(reversed(coords)))


# -- the bilinear forms ----------------------------------------------------


def symplectic_form(u: CodeVector, v: CodeVector) -> int:
    """tr_{q/p}(a'.b - a.b') for u = (a|b), v = (a'|b').

    This is the pairing realized by the error-operator commutators: the
    matrix commutator of the lifts of u and v is omega to this exponent.
    In particular it is F_p-bilinear and alternating.
    """
    u._require(SYMPLECTIC)
    v._require(SYMPLECTIC)
    _check_compatible(u, v)
    ctx = u.ctx
    n = u.n
    acc = 0
    for i in range(n):
        term = ctx.sub(ctx.mul(v.coords[i], u.coords[n + i]), ctx.mul(u.coords[i], v.coords[n + i]))
        acc = ctx.add(acc, term)
    return ctx.trace(acc)


def trace_alternating_form(v: CodeVector, w: CodeVector) -> int:
    """tr_{q/p}((v.w^q - v^q.w) / (beta^(2q) - beta^2)) on F_{q^2}^n words.

    The quotient always lies in the embedded base field; if it ever does
    not, something upstream broke an algebraic identity and the error from
    the pull-back is allowed to propagate.
    """
    v._require(HERMITIAN)
    w._require(HERMITIAN)
    _check_compatible(v, w)
    ctx = v.ctx
    q = ctx.q
    acc = 0
    for vi, wi in zip(v.coords, w.coords):
        term = ctx.ext_sub(
            ctx.ext_mul(vi, ctx.ext_pow(wi, q)),
            ctx.ext_mul(ctx.ext_pow(vi, q), wi),
        )
        acc = ctx.ext_add(acc, term)
    t = ctx.ext_mul(acc, _phi_tables(ctx).denominator_inv)
    return ctx.ext_trace_to_base(t)


def _check_compatible(u: CodeVector, v: CodeVector) -> None:
    if u.ctx != v.ctx or len(u.coords) != len(v.coords):
        raise DimensionMismatchError("vectors disagree on field or length")


def form_value(u: CodeVector, v: CodeVector) -> int:
    """The layout's pairing: symplectic or trace-alternating."""
    if u.layout != v.layout:
        raise LayoutMismatchError("cannot pair vectors of different layouts")
    if u.layout == SYMPLECTIC:
        return symplectic_form(u, v)
    return trace_alternating_form(u, v)


@lru_cache(maxsize=None)
def _gram(ctx: GfContext, n: int, layout: str) -> np.ndarray:
    """Gram matrix of the layout's form on the F_p digit basis."""
    cols = digit_columns(ctx, n)
    units = []
    for j in range(cols):
        digits = np.zeros(cols, dtype=np.int64)
        digits[j] = 1
        units.append(CodeVector.from_digits(ctx, layout, digits))
    gram = np.zeros((cols, cols), dtype=np.int64)
    for i in range(cols):
        for j in range(cols):
            gram[i, j] = form_value(units[i], units[j])
    assert _linalg.rank(gram, ctx.p) == cols, "form is degenerate; broken tables"
    gram.setflags(write=False)
    return gram


def stacked_duality(ctx: GfContext, n: int, layout: str, codes: np.ndarray) -> tuple:
    """dual(X), hull(X) and dual(hull(X)) for a (B, rows, cols) stack of
    codes X given by RREF rows (zero rows pad), each as a padded RREF stack
    with its (B,) ranks.

    With G the Gram matrix of the form, dual(X) = ker(X G) and the hull is
    ker(X G X^T) X: the combinations of X's rows that pair to zero with X.
    AdditiveCode.dual and .hull run one code through it as a stack of one.
    """
    p, gram = ctx.p, _gram(ctx, n, layout)
    paired = codes @ gram % p
    duals = _linalg.nullspace(paired, p)
    kernels, _ = _linalg.nullspace(paired @ codes.transpose(0, 2, 1) % p, p)
    hulls = _linalg.rref(kernels @ codes % p, p)
    return duals, hulls, _linalg.nullspace(hulls[0] @ gram % p, p)


# -- the layout isometry -----------------------------------------------------


@dataclass(frozen=True)
class _PhiTables:
    forward: dict
    inverse: dict
    denominator_inv: int


@lru_cache(maxsize=None)
def _phi_tables(ctx: GfContext) -> _PhiTables:
    q = ctx.q
    forward = {}
    inverse = {}
    for a in range(q):
        ta = ctx.ext_mul(ctx.beta, ctx.embed(a))
        for b in range(q):
            value = ctx.ext_add(ta, ctx.ext_mul(ctx.beta_q, ctx.embed(b)))
            forward[(a, b)] = value
            inverse[value] = (a, b)
    assert len(inverse) == q * q, "(beta, beta^q) failed to be a basis"
    denom = ctx.ext_sub(ctx.ext_pow(ctx.beta, 2 * q), ctx.ext_pow(ctx.beta, 2))
    assert denom != 0
    return _PhiTables(forward, inverse, ctx.ext_inv(denom))


def phi_map(c: CodeVector) -> CodeVector:
    """Coordinate-wise beta*a_i + beta^q*b_i, from (a|b) to F_{q^2}^n."""
    tables = _phi_tables(c.ctx).forward
    coords = tuple(tables[pair] for pair in zip(c.a_coords, c.b_coords))
    return CodeVector(c.ctx, HERMITIAN, coords)


def phi_inverse(v: CodeVector) -> CodeVector:
    v._require(HERMITIAN)
    tables = _phi_tables(v.ctx).inverse
    pairs = [tables[x] for x in v.coords]
    coords = tuple(a for a, _ in pairs) + tuple(b for _, b in pairs)
    return CodeVector(v.ctx, SYMPLECTIC, coords)


# -- codes -------------------------------------------------------------------


class AdditiveCode:
    """An F_p-linear subspace in canonical (RREF basis) form.

    Instances are immutable; all operations return new codes.  Two codes
    compare equal exactly when they are the same set of vectors.
    """

    __slots__ = ("ctx", "n", "layout", "basis", "_cache")

    def __init__(self, ctx: GfContext, n: int, layout: str, basis: np.ndarray):
        if layout not in LAYOUTS:
            raise LayoutMismatchError(f"unknown layout {layout!r}")
        if basis.shape[1] != digit_columns(ctx, n):
            raise DimensionMismatchError(
                f"basis has {basis.shape[1]} columns, expected {digit_columns(ctx, n)}"
            )
        basis = np.ascontiguousarray(basis, dtype=np.int64)
        basis.setflags(write=False)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("AdditiveCode is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_generators(
        cls, ctx: GfContext, n: int, layout: str, generators: Iterable
    ) -> "AdditiveCode":
        """Canonical span of the given vectors (CodeVector or coordinate lists)."""
        rows = []
        for g in generators:
            if not isinstance(g, CodeVector):
                g = CodeVector(ctx, layout, tuple(g))
            if g.ctx != ctx or g.layout != layout or g.n != n:
                raise DimensionMismatchError(f"generator {g!r} does not match the code shape")
            rows.append(g.to_digits())
        return cls.from_digit_rows(ctx, n, layout, rows)

    @classmethod
    def from_digit_rows(cls, ctx: GfContext, n: int, layout: str, rows) -> "AdditiveCode":
        cols = digit_columns(ctx, n)
        mat = np.array(rows, dtype=np.int64).reshape(len(rows), cols) if len(rows) else np.zeros((0, cols), dtype=np.int64)
        reduced, _ = _linalg.rref(mat, ctx.p)
        return cls(ctx, n, layout, reduced)

    @classmethod
    def zero(cls, ctx: GfContext, n: int, layout: str) -> "AdditiveCode":
        return cls.from_digit_rows(ctx, n, layout, [])

    @classmethod
    def whole(cls, ctx: GfContext, n: int, layout: str) -> "AdditiveCode":
        return cls(ctx, n, layout, np.eye(digit_columns(ctx, n), dtype=np.int64))

    # -- basic structure ----------------------------------------------------

    @property
    def rank(self) -> int:
        """F_p dimension of the code."""
        return self.basis.shape[0]

    @property
    def size(self) -> int:
        """Number of vectors, p^rank."""
        return self.ctx.p ** self.rank

    @property
    def num_columns(self) -> int:
        return self.basis.shape[1]

    def is_zero(self) -> bool:
        return self.rank == 0

    def basis_vectors(self) -> tuple[CodeVector, ...]:
        return tuple(CodeVector.from_digits(self.ctx, self.layout, row) for row in self.basis)

    def generator_rows(self) -> tuple[tuple[int, ...], ...]:
        """Canonical basis rows as coordinate encodings (file format form)."""
        return tuple(v.coords for v in self.basis_vectors())

    def vectors(self) -> Iterator[CodeVector]:
        """Every vector of the code; p^rank of them, deterministic order."""
        p = self.ctx.p
        if self.rank == 0:
            yield CodeVector.zero(self.ctx, self.n, self.layout)
            return
        for coeffs in itertools.product(range(p), repeat=self.rank):
            digits = (np.array(coeffs, dtype=np.int64) @ self.basis) % p
            yield CodeVector.from_digits(self.ctx, self.layout, digits)

    def contains(self, v: CodeVector) -> bool:
        if v.ctx != self.ctx or v.layout != self.layout or v.n != self.n:
            raise DimensionMismatchError(f"{v!r} does not match the code shape")
        return _linalg.in_rowspan(self.basis, v.to_digits(), self.ctx.p)

    def __contains__(self, v: CodeVector) -> bool:
        return self.contains(v)

    def parity_check(self) -> np.ndarray:
        """Rows spanning the standard-dot-product kernel; v is in the code
        iff parity_check() @ v vanishes mod p (used for bulk membership)."""
        cached = self._cache.get("parity_check")
        if cached is None:
            cached = _linalg.nullspace(self.basis, self.ctx.p)
            cached.setflags(write=False)
            self._cache["parity_check"] = cached
        return cached

    # -- set algebra and duality ---------------------------------------------

    def dual(self) -> "AdditiveCode":
        """All vectors pairing to zero with the whole code, under the
        layout's form.  Sizes satisfy |X| * |dual(X)| = p^(2nm)."""
        if "dual" not in self._cache:
            self._fill_duality()
        return self._cache["dual"]

    def hull(self) -> "AdditiveCode":
        """The intersection with the dual; the form vanishes on it."""
        if "hull" not in self._cache:
            self._fill_duality()
        return self._cache["hull"]

    def _fill_duality(self) -> None:
        """Cache the dual, the hull and the hull's dual from one stack of one."""
        duals, hulls, hull_duals = stacked_duality(self.ctx, self.n, self.layout, self.basis[None])
        dual, hull, hull_dual = (
            AdditiveCode(self.ctx, self.n, self.layout, rows[0, : ranks[0]])
            for rows, ranks in (duals, hulls, hull_duals)
        )
        hull._cache["dual"] = hull_dual
        self._cache.update(dual=dual, hull=hull)

    def intersect(self, other: "AdditiveCode") -> "AdditiveCode":
        self._check_same_space(other)
        rows = _linalg.intersect_rowspaces(self.basis, other.basis, self.ctx.p)
        return AdditiveCode(self.ctx, self.n, self.layout, rows)

    def code_sum(self, other: "AdditiveCode") -> "AdditiveCode":
        self._check_same_space(other)
        return AdditiveCode.from_digit_rows(
            self.ctx, self.n, self.layout, list(self.basis) + list(other.basis)
        )

    def _check_same_space(self, other: "AdditiveCode") -> None:
        if not isinstance(other, AdditiveCode):
            raise DimensionMismatchError(f"expected an AdditiveCode, got {type(other).__name__}")
        if other.ctx != self.ctx or other.n != self.n:
            raise DimensionMismatchError("codes live in different spaces")
        if other.layout != self.layout:
            raise LayoutMismatchError("codes have different layouts")

    # -- layout conversion ----------------------------------------------------

    def phi_image(self) -> "AdditiveCode":
        """The Hermitian-layout image under the coordinate isometry."""
        if self.layout != SYMPLECTIC:
            raise LayoutMismatchError("phi_image needs a symplectic-layout code")
        gens = [phi_map(v) for v in self.basis_vectors()]
        return AdditiveCode.from_generators(self.ctx, self.n, HERMITIAN, gens)

    def phi_preimage(self) -> "AdditiveCode":
        if self.layout != HERMITIAN:
            raise LayoutMismatchError("phi_preimage needs a hermitian-layout code")
        gens = [phi_inverse(v) for v in self.basis_vectors()]
        return AdditiveCode.from_generators(self.ctx, self.n, SYMPLECTIC, gens)

    # ----------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AdditiveCode)
            and self.ctx == other.ctx
            and self.n == other.n
            and self.layout == other.layout
            and self.basis.shape == other.basis.shape
            and bool(np.array_equal(self.basis, other.basis))
        )

    def __hash__(self) -> int:
        return hash((self.ctx, self.n, self.layout, self.basis.tobytes()))

    def __repr__(self) -> str:
        return (
            f"AdditiveCode(q={self.ctx.q}, n={self.n}, layout={self.layout!r}, "
            f"rank={self.rank})"
        )
