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

EXHAUSTIVE = "exhaustive"
BASIS = "basis"
METHODS = (EXHAUSTIVE, BASIS)

UNBOUNDED = math.inf
ENUMERATION_CAP = 1 << 24
_CHUNK = 1 << 15
_WALK_BYTES = 1 << 20


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
    """Weights of many digit rows at once (rows are coordinate-major, along
    the last axis), in the least unsigned type that holds n + 1."""
    lead = digits.shape[:-1]
    coords = digits.reshape(lead + (-1, m if layout == SYMPLECTIC else 2 * m))
    active = coords[..., 0] != 0
    for j in range(1, coords.shape[-1]):
        active |= coords[..., j] != 0
    if layout == SYMPLECTIC:
        active = active[..., :n] | active[..., n:]
    weights = active[..., 0].astype(np.min_scalar_type(n + 1))
    for i in range(1, n):
        weights += active[..., i]
    return weights


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


def _add_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a + b mod p for int8 digit arrays (p <= 61, so the sum fits)."""
    total = a + b
    total -= p * (total >= p).view(np.int8)
    return total


def _span(rows: np.ndarray, p: int) -> np.ndarray:
    """Every F_p combination of the j rows of each basis in a (B, j, C)
    stack, first row least significant: (B, p^j, C) int8 digits."""
    out = np.zeros((len(rows), 1, rows.shape[2]), dtype=np.int8)
    for j in range(rows.shape[1]):
        multiples = (np.arange(p)[:, None] * rows[:, j, None, :] % p).astype(np.int8)
        out = _add_mod(out[:, None], multiples[:, :, None], p).reshape(len(rows), -1, rows.shape[2])
    return out


def _leads(stack: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Pivot column of each row of a stack of RREFs; cols for padding rows."""
    held = np.arange(stack.shape[1]) < ranks[:, None]
    return np.where(held, (stack != 0).argmax(axis=2), stack.shape[2])


def _walk_group(bases: np.ndarray, inside: np.ndarray, p: int, m: int, n: int, layout: str,
                witness: bool) -> tuple[np.ndarray, np.ndarray]:
    """Least weight, and its least-key vector if asked, over span(bases[b])
    outside the span of its first inside[b] rows, for a (B, k, C) stack.

    Coefficient vectors are walked in order, first row least significant, so
    index i lies in the span of the first inside[b] rows iff i < p^inside[b].
    The low rows are spanned once; each chunk adds one combination of the
    high rows to all of them.
    """
    low = 0
    while low < bases.shape[1] and p ** (low + 1) <= _CHUNK:
        low += 1
    inner, outer = _span(bases[:, :low], p), _span(bases[:, low:], p)
    size, limit = inner.shape[1], p ** inside
    best = np.full(len(bases), n + 1)
    best_rows = np.zeros(bases.shape[::2], dtype=np.int8)
    for o in range(outer.shape[1]):
        live = np.flatnonzero(limit < (o + 1) * size)  # codes with rows outside X here
        if not live.size:
            continue
        rows = _add_mod(inner[live], outer[live, o, None], p)
        weights = _bulk_weights(rows, m, n, layout)
        weights[o * size + np.arange(size) < limit[live, None]] = n + 1
        least = weights.min(axis=1)
        if not witness:
            best[live] = np.minimum(best[live], least)
            continue
        for j, b in enumerate(live):
            if least[j] <= best[b]:
                ties = rows[j][weights[j] == least[j]]
                if least[j] == best[b]:
                    ties = np.vstack([ties, best_rows[b]])
                best[b], best_rows[b] = least[j], ties[np.lexsort(ties.T)[0]]
    return best, best_rows


def _basis_walk(codes: np.ndarray, ranks: np.ndarray, hull_duals: np.ndarray,
                dual_ranks: np.ndarray, p: int, m: int, n: int, layout: str,
                witness: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The basis-method distance of each code X of a stack, from the RREF
    stacks of X and of dual(hull(X)) and their ranks.

    dual(hull) is walked through the rows of X followed by the rows of its
    own RREF whose pivot columns X lacks (X's pivots are among them, since X
    lies inside), so the vectors outside X are the combinations that use a
    row beyond X's.  Codes are walked in groups of one rank of dual(hull),
    each group split so its digit chunks stay near _WALK_BYTES.  Returns
    the distances (UNBOUNDED where dual(hull) = X) and, if asked, a
    least-key witness row per code.
    """
    distances = np.full(len(codes), UNBOUNDED)
    witnesses = np.zeros(hull_duals.shape[::2], dtype=np.int8)
    bounded = dual_ranks > ranks
    for rank in dual_ranks[bounded]:
        if p ** int(rank) > ENUMERATION_CAP:
            raise CapExceededError(
                f"basis enumeration of p^{rank} = {p ** int(rank)} vectors exceeds {ENUMERATION_CAP}")
    cols = codes.shape[2]
    code_leads, dual_leads = _leads(codes, ranks), _leads(hull_duals, dual_ranks)
    taken = np.zeros((len(codes), cols + 1), dtype=bool)
    np.put_along_axis(taken, code_leads, True, axis=1)
    keep = np.concatenate([code_leads < cols, ~np.take_along_axis(taken, dual_leads, axis=1)
                           & (dual_leads < cols)], axis=1)
    order = np.argsort(~keep, axis=1, kind="stable")
    bases = np.take_along_axis(np.concatenate([codes, hull_duals], axis=1), order[:, :, None], axis=1)
    for rank in sorted(set(dual_ranks[bounded].tolist())):
        group = np.flatnonzero(bounded & (dual_ranks == rank))
        # Per walked row: its int8 digits, plus its weight, masks and temporaries.
        per = max(1, _WALK_BYTES // (min(p**rank, _CHUNK) * (cols + 16)))
        for start in range(0, len(group), per):
            part = group[start:start + per]
            best, rows = _walk_group(bases[part, :rank], ranks[part], p, m, n, layout, witness)
            distances[part], witnesses[part] = best, rows
    return distances, witnesses


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
        raise AssertionError("difference set was nonempty but nothing was found")
    else:
        (d,), (row,) = _basis_walk(code.basis[None], np.array([code.rank]), hull_dual.basis[None],
                                   np.array([hull_dual.rank]), p, ctx.m, code.n, code.layout,
                                   witness=True)
        return int(d), CodeVector.from_digits(ctx, code.layout, row)


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


def _dimensions(ctx, n: int, ex: int, ey: int) -> tuple[int, int]:
    p, m = ctx.p, ctx.m
    assert (ex - ey) % 2 == 0, "odd |X|/|Y| exponent; the form tables are broken"
    assert ex + ey <= 2 * n * m, "hull is larger than the dual allows"
    dim_b = p ** ((ex - ey) // 2)
    dim_a = p ** (n * m - (ex + ey) // 2)
    assert dim_a * dim_b == ctx.q**n // p**ey
    return dim_a, dim_b


def subsystem_dimensions(code: AdditiveCode) -> tuple[int, int]:
    """(dim A, dim B) from the hull ranks alone, no distance computation.

    dim A = q^n / sqrt(|X||Y|) and dim B = sqrt(|X|/|Y|); both exponents are
    integers because the form is nondegenerate on X/Y and Y sits inside
    dual(X).  Asserted, never rounded.
    """
    if code.is_zero():
        raise ZeroCodeError("subsystem dimensions need a nonzero code")
    return _dimensions(code.ctx, code.n, code.rank, code.hull().rank)


def params_from_ranks(ctx, n: int, ex: int, ey: int, d: int | float,
                      distance_method: str) -> SubsystemParams:
    """The parameters of a nonzero code of F_p rank ex whose hull has rank ey."""
    dim_a, dim_b = _dimensions(ctx, n, ex, ey)
    p, m = ctx.p, ctx.m
    return SubsystemParams(n=n, q=ctx.q, x=p**ex, y=p**ey, dim_a=dim_a, dim_b=dim_b,
                           dim_c=dim_a * dim_b, k=Fraction(n * m - (ex + ey) // 2, m),
                           r=Fraction((ex - ey) // 2, m), d=d, distance_method=distance_method)


def subsystem_params(code: AdditiveCode, distance_method: str = EXHAUSTIVE) -> SubsystemParams:
    """Exact parameters of the subsystem code attached to a nonzero code."""
    if code.is_zero():  # refused before any distance work
        raise ZeroCodeError("subsystem dimensions need a nonzero code")
    return params_from_ranks(code.ctx, code.n, code.rank, code.hull().rank,
                             min_distance(code, distance_method), distance_method)
