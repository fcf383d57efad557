"""Subsystem-code parameters and minimum distance of an additive code.

A nonzero code X with hull Y = X n dual(X) yields a subsystem code on n
q-ary systems whose logical subsystem has dimension q^n / sqrt(|X||Y|) and
whose gauge subsystem has dimension sqrt(|X|/|Y|); both are exact integers
because the form is nondegenerate on X/Y.  The minimum distance is the
smallest weight in dual(Y) - X, with the layout's weight: symplectic weight
counts positions where a or b is nonzero, Hermitian layout counts ordinary
Hamming weight.  When dual(Y) = X the difference is empty and the distance
is reported as the UNBOUNDED sentinel (math.inf).

Two independent enumeration strategies are provided and must agree:
"exhaustive" sweeps the ambient space by increasing weight, testing each
vector with parity checks and stopping after the first weight with a hit;
"basis" walks dual(Y) through its F_p basis.  Witnesses tie-break by
smallest encoding index.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .additive_code import AdditiveCode, CodeVector, HERMITIAN, SYMPLECTIC
from .errors import CapExceededError, ZeroCodeError
from .galois import _undigits

EXHAUSTIVE = "exhaustive"
BASIS = "basis"
METHODS = (EXHAUSTIVE, BASIS)

UNBOUNDED = math.inf
ENUMERATION_CAP = 1 << 24
_CHUNK = 1 << 15


def _distance_json(d: int | float) -> int | str:
    """A distance as stored and printed: the integer, or "unbounded"."""
    return "unbounded" if d == UNBOUNDED else d


def swt(c: CodeVector) -> int:
    """Symplectic weight: positions i where (a_i, b_i) != (0, 0)."""
    return sum(1 for a, b in zip(c.a_coords, c.b_coords) if a or b)


def hamming_wt(v: CodeVector) -> int:
    """Hamming weight of a Hermitian-layout word."""
    v._require(HERMITIAN)
    return sum(1 for x in v.coords if x)


def _bulk_weights(digits: np.ndarray, m: int, n: int, layout: str) -> np.ndarray:
    """Weights of many digit rows at once (rows are coordinate-major)."""
    if layout == SYMPLECTIC:
        per_coord = digits.reshape(len(digits), 2 * n, m).any(axis=2)
        active = per_coord[:, :n] | per_coord[:, n:]
    else:
        active = digits.reshape(len(digits), n, 2 * m).any(axis=2)
    return active.sum(axis=1)


def _bulk_membership(digits: np.ndarray, code: AdditiveCode) -> np.ndarray:
    """Boolean mask of rows that lie in the code (parity-check product)."""
    check = code.parity_check()
    if check.shape[0] == 0:
        return np.ones(len(digits), dtype=bool)
    return ~(((digits @ check.T) % code.ctx.p).any(axis=1))


def _digit_chunks(p: int, width: int) -> Iterator[np.ndarray]:
    """Little-endian base-p digit rows of all p^width vectors in encoding
    order, _CHUNK rows at a time."""
    total = p**width
    for start in range(0, total, _CHUNK):
        rest = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        digits = np.empty((rest.size, width), dtype=np.int64)
        for j in range(width):
            digits[:, j] = rest % p
            rest //= p
        yield digits


def _distance_scan(code: AdditiveCode, method: str) -> tuple[int | float, CodeVector | None]:
    if method not in METHODS:
        raise ValueError(f"unknown distance method {method!r}; use one of {METHODS}")
    if code.is_zero():
        raise ZeroCodeError("minimum distance needs a nonzero code")
    ctx, p, cols = code.ctx, code.ctx.p, code.num_columns
    hull_dual = code.hull().dual()
    # The two descriptions of the scanned set must coincide.
    assert code.code_sum(code.dual()) == hull_dual, "X + dual(X) != dual(hull(X))"
    # X is always contained in dual(hull(X)); equal ranks mean an empty
    # difference set and an unbounded distance.
    if hull_dual.rank == code.rank:
        return UNBOUNDED, None

    if method == EXHAUSTIVE:
        # By weight w = 1, 2, ...: each support of w positions (lexicographic) with each
        # tuple of nonzero symbols, picked by the w base-(q^2 - 1) digits of its index;
        # position i owns the 2m digit columns of a_i and b_i, or of coordinate i.
        n, width = code.n, 2 * ctx.m
        halves = 2 if code.layout == SYMPLECTIC else 1
        columns = np.arange(cols).reshape(halves, n, -1).transpose(1, 0, 2).reshape(n, width)
        symbols = (np.arange(1, p**width)[:, None] // p ** np.arange(width)) % p
        block = max(1, min(_CHUNK, _CHUNK * 24 // cols))  # rows; wide codes get fewer
        for w in range(1, n + 1):
            tuples = len(symbols) ** w
            swept = sum(math.comb(n, v) * len(symbols) ** v for v in range(1, w + 1))
            if swept > ENUMERATION_CAP:
                raise CapExceededError(
                    f"exhaustive sweep through weight {w} ({swept} vectors) exceeds {ENUMERATION_CAP}")
            supports = columns[list(itertools.combinations(range(n), w))].reshape(-1, w * width)
            least = []  # the least-key hit of each block
            for start in range(0, len(supports) * tuples, block):
                index = np.arange(start, min(start + block, len(supports) * tuples))
                picks = (index % tuples)[:, None] // len(symbols) ** np.arange(w) % len(symbols)
                values = symbols[picks].reshape(len(index), -1)
                rows = np.zeros((len(index), cols), dtype=np.int64)
                np.put_along_axis(rows, supports[index // tuples], values, axis=1)
                hits = rows[_bulk_membership(rows, hull_dual) & ~_bulk_membership(rows, code)]
                least += hits[np.lexsort(hits.T)[:1]].tolist()  # last column most significant
            if least:
                return w, CodeVector.from_digits(ctx, code.layout, min(least, key=lambda r: r[::-1]))
    else:
        best_w = best_key = best_digits = None
        basis = hull_dual.basis
        rank = hull_dual.rank
        total = p**rank
        if total > ENUMERATION_CAP:
            raise CapExceededError(
                f"basis enumeration of p^{rank} = {total} vectors exceeds {ENUMERATION_CAP}"
            )
        for coeffs in _digit_chunks(p, rank):
            digits = (coeffs @ basis) % p
            outside = ~_bulk_membership(digits, code)
            if not outside.any():
                continue
            candidates = digits[outside]
            weights = _bulk_weights(candidates, ctx.m, code.n, code.layout)
            w = int(weights.min())
            if best_w is not None and w > best_w:
                continue
            at_min = candidates[weights == w]
            key, row = min((_undigits(r, p), tuple(r)) for r in at_min.tolist())
            if best_w is None or w < best_w or key < best_key:
                best_w, best_key, best_digits = w, key, np.array(row, dtype=np.int64)

    assert best_digits is not None, "difference set was nonempty but nothing was found"
    witness = CodeVector.from_digits(ctx, code.layout, best_digits)
    return best_w, witness


def min_distance(code: AdditiveCode, method: str = EXHAUSTIVE) -> int | float:
    """Minimum weight over dual(hull(X)) - X, or UNBOUNDED if that is empty."""
    return _distance_scan(code, method)[0]


def min_distance_with_witness(
    code: AdditiveCode, method: str = EXHAUSTIVE
) -> tuple[int | float, CodeVector | None]:
    """Distance plus a smallest-encoding witness of that weight (None if unbounded)."""
    return _distance_scan(code, method)


@dataclass(frozen=True)
class SubsystemParams:
    """The parameter tuple of the subsystem code built from an additive code.

    k and r are exact base-q logarithms of the subsystem dimensions; for
    additive codes they can be proper fractions, so they are kept as
    Fraction values.
    """

    n: int
    q: int
    x: int
    y: int
    dim_a: int
    dim_b: int
    dim_c: int
    k: Fraction
    r: Fraction
    d: int | float
    distance_method: str

    def quartet(self) -> str:
        """Bracket form [[n,k,r,d]]_q."""
        return f"[[{self.n},{self.k},{self.r},{_distance_json(self.d)}]]_{self.q}"

    def dimension_form(self) -> str:
        """Dimension form ((n,dimA,dimB,d))_q."""
        return f"(({self.n},{self.dim_a},{self.dim_b},{_distance_json(self.d)}))_{self.q}"

    def to_json(self) -> dict:
        """The nine fields a search record stores, as JSON values."""
        return {"n": self.n, "q": self.q, "x": self.x, "y": self.y,
                "dim_a": self.dim_a, "dim_b": self.dim_b,
                "k": str(self.k), "r": str(self.r), "d": _distance_json(self.d)}

    def stabilizer_comparison_key(self) -> tuple[Fraction, Fraction, int | float]:
        """(n - r, k, d): the footprint a plain stabilizer code would need."""
        return (Fraction(self.n) - self.r, self.k, self.d)


def subsystem_dimensions(code: AdditiveCode) -> tuple[int, int]:
    """(dim A, dim B) from the hull ranks alone, no distance computation.

    dim A = q^n / sqrt(|X||Y|) and dim B = sqrt(|X|/|Y|); both exponents are
    integers because the form is nondegenerate on X/Y and Y sits inside
    dual(X).  Asserted, never rounded.
    """
    if code.is_zero():
        raise ZeroCodeError("subsystem dimensions need a nonzero code")
    ctx = code.ctx
    p, m, n = ctx.p, ctx.m, code.n
    ex, ey = code.rank, code.hull().rank
    assert (ex - ey) % 2 == 0, "odd |X|/|Y| exponent; the form tables are broken"
    assert ex + ey <= 2 * n * m, "hull is larger than the dual allows"
    dim_b = p ** ((ex - ey) // 2)
    dim_a = p ** (n * m - (ex + ey) // 2)
    assert dim_a * dim_b == ctx.q**n // p**ey
    return dim_a, dim_b


def subsystem_params(code: AdditiveCode, distance_method: str = EXHAUSTIVE) -> SubsystemParams:
    """Exact parameters of the subsystem code attached to a nonzero code."""
    dim_a, dim_b = subsystem_dimensions(code)
    ctx = code.ctx
    p, m, n = ctx.p, ctx.m, code.n
    ex, ey = code.rank, code.hull().rank
    k = Fraction(n * m - (ex + ey) // 2, m)
    r = Fraction((ex - ey) // 2, m)
    return SubsystemParams(n=n, q=ctx.q, x=p**ex, y=p**ey, dim_a=dim_a, dim_b=dim_b,
                           dim_c=dim_a * dim_b, k=k, r=r, d=min_distance(code, distance_method),
                           distance_method=distance_method)
