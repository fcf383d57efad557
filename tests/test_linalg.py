"""The stacked F_p elimination against the scalar row loop in oracles.py."""

import numpy as np
from hypothesis import given, settings, strategies as st

import oracles
from oqecc import _linalg


@st.composite
def _stacks(draw):
    """A stack of p-ary matrices: random, zero, full-rank (identity-led) and
    row-padded ones, all with the stack's row and column counts."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(1, 7))
    entries = st.lists(st.integers(0, p - 1), min_size=rows * cols, max_size=rows * cols)
    mats = []
    for kind in draw(st.lists(st.sampled_from(["random", "zero", "full", "padded"]), min_size=1, max_size=6)):
        mat = np.array(draw(entries), dtype=np.int64).reshape(rows, cols)
        if kind == "zero":
            mat[:] = 0
        elif kind == "full":
            k = min(rows, cols)  # upper triangular with a nonzero diagonal: rank k
            mat[:k, :k] = np.triu(mat[:k, :k], 1) + np.eye(k, dtype=np.int64) * draw(st.integers(1, p - 1))
        elif kind == "padded":
            mat[draw(st.integers(0, rows)):] = 0
        mats.append(mat)
    return p, np.stack(mats)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(case=_stacks())
def test_stacked_rref_and_nullspace_equal_the_scalar_oracle(case):
    p, stack = case
    reduced, ranks = _linalg.rref(stack, p)
    kernels, kernel_ranks = _linalg.nullspace(stack, p)
    rows, cols = stack.shape[1:]
    assert reduced.shape == stack.shape and kernels.shape == (len(stack), cols, cols)
    for mat, red, rank, kernel, kernel_rank in zip(stack, reduced, ranks, kernels, kernel_ranks):
        want, pivots = oracles.scalar_rref(mat, p)
        assert rank == len(want) and np.array_equal(red[:rank], want) and not red[rank:].any()
        assert _linalg.rref(mat, p)[0].tolist() == want.tolist()
        assert _linalg.rref(mat, p)[1] == pivots
        want_kernel = oracles.scalar_nullspace(mat, p)
        assert kernel_rank == len(want_kernel) == cols - rank
        assert np.array_equal(kernel[:kernel_rank], want_kernel) and not kernel[kernel_rank:].any()
        assert np.array_equal(_linalg.nullspace(mat, p), want_kernel)
        assert not (mat @ want_kernel.T % p).any()

