"""Dense linear algebra over the prime field F_p on small numpy matrices.

All matrices are int64 arrays with entries already reduced mod p.  Shapes
stay desk-scale (tens of columns), so plain Gaussian elimination is fine.

rref and nullspace take one (rows, cols) matrix or a (B, rows, cols) stack
of them.  A stack runs through the same elimination loop, one column at a
time for every matrix at once; each matrix comes back padded to the stack's
row count with zero rows (which change no row space), together with its
rank.  A single matrix is eliminated as a stack of one.
"""

from __future__ import annotations

import numpy as np


def _eliminate(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-reduce the (B, rows, cols) stack a, which it may overwrite;
    returns the reduced stack and the ranks."""
    stack, rows, cols = a.shape
    inverse = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int64)
    residue = np.arange(p * p) % p  # x mod p by lookup for 0 <= x < p^2; faster than %
    ranks = np.zeros(stack, dtype=np.int64)
    unused = np.ones((stack, rows), dtype=bool)  # rows not yet holding a pivot
    every = np.arange(stack)
    for c in range(cols):
        live = a[:, :, c] != 0
        live &= unused
        found = every[live.any(axis=1)]  # the matrices with a pivot in column c
        if not found.size:
            continue
        whole = found.size == stack
        sub = a if whole else a[found]
        r = ranks[found]
        pivot = (live if whole else live[found]).argmax(axis=1)
        index = every[: found.size]
        top = sub[index, pivot]
        sub[index, pivot] = sub[index, r]
        if p == 2:  # the pivot is already 1, and subtracting is XOR
            sub ^= sub[:, :, c, None] & top[:, None, :]
        else:  # scale the pivot row to 1, then add (p - a[i, c]) times it to each row i
            top = residue[top * inverse[top[:, c], None]]
            sub = residue[sub + sub[:, :, c, None] * residue[p - top][:, None, :]]
        sub[index, r] = top
        if whole:
            a = sub
        else:
            a[found] = sub
        unused[found, r] = False
        ranks[found] += 1
        if not unused.any():
            break
    return a, ranks


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...] | np.ndarray]:
    """Reduced row-echelon form over F_p.

    For one matrix: the nonzero rows (a canonical basis of the row space: the
    RREF of a row space is unique) together with the pivot columns.  For a
    stack: the (B, rows, cols) stack of RREFs, nonzero rows first, together
    with the (B,) ranks.
    """
    a = np.array(mat, dtype=np.int64) % p
    if a.ndim == 3:
        return _eliminate(a, p)
    (a,), (r,) = _eliminate(a[None], p)
    return a[:r], tuple(int(c) for c in (a[:r] != 0).argmax(axis=1))


def rank(mat: np.ndarray, p: int) -> int:
    return rref(mat, p)[0].shape[0]


def nullspace(mat: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray] | np.ndarray:
    """Canonical basis (RREF rows) of the right kernel {v : mat @ v = 0}.

    For a stack: the (B, cols, cols) stack of kernel RREFs with the (B,)
    kernel dimensions.
    """
    mat = np.asarray(mat, dtype=np.int64)
    red, ranks = rref(mat if mat.ndim == 3 else mat[None], p)
    stack, rows, cols = red.shape
    # Row i of a reduced matrix leads at column lead[b, i]; every other
    # column f is free, with kernel vector e_f - sum_i red[b, i, f] e_lead[b, i].
    held = np.arange(rows) < ranks[:, None]
    b, i = np.nonzero(held)
    lead = (red[b, i] != 0).argmax(axis=1) if b.size else b  # argmax fails on 0 columns
    basis = np.zeros((stack, cols, cols), dtype=np.int64)
    basis[b, :, lead] = -red[b, i] % p
    basis[:, np.arange(cols), np.arange(cols)] = 1
    basis[b, lead] = 0
    out, kernel_ranks = rref(basis, p)
    return (out, kernel_ranks) if mat.ndim == 3 else out[0, : kernel_ranks[0]]


def intersect_rowspaces(b1: np.ndarray, b2: np.ndarray, p: int) -> np.ndarray:
    """Canonical basis of rowspace(b1) intersected with rowspace(b2)."""
    r1 = b1.shape[0]
    if r1 == 0 or b2.shape[0] == 0:
        return np.zeros((0, b1.shape[1]), dtype=np.int64)
    stacked = np.vstack([b1, b2]) % p
    # Kernel rows (x | y) satisfy x @ b1 + y @ b2 = 0, so x @ b1 runs over
    # the intersection as (x | y) runs over the kernel.
    kernel = nullspace(stacked.T, p)
    if kernel.shape[0] == 0:
        return np.zeros((0, b1.shape[1]), dtype=np.int64)
    vectors = (kernel[:, :r1] @ b1) % p
    out, _ = rref(vectors, p)
    return out


def in_rowspan(basis_rref: np.ndarray, vec: np.ndarray, p: int) -> bool:
    """Membership of a single vector in a row space given by RREF rows."""
    v = np.array(vec, dtype=np.int64) % p
    for row in basis_rref:
        lead = int(np.argmax(row != 0)) if row.any() else -1
        if lead >= 0 and v[lead]:
            v = (v - v[lead] * row) % p
    return not v.any()
