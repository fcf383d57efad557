"""Seedable random search for good subsystem codes.

Candidates are uniform random F_p generator matrices with a random rank
target, drawn from one rng in draw order.  The draws are streamed a block
at a time: each block is reduced to canonical form as one stack, zero spans
and spans already seen in the run are dropped (the first occurrence in draw
order stays), and the survivors are evaluated together as stacks.  Blocks
are sized by their working set in bytes, so memory stays bounded in the
count.  Every surviving candidate becomes one JSON line; for a fixed seed
the output file is byte-identical across runs and across worker counts,
because evaluation is an exact pure function of the block.

Each record stores the canonical generator matrix, the parameters
(n, k, r, d), and the (n - r, k, d) footprint a plain stabilizer code would
need for the same job, which is the fair point of comparison.
"""

from __future__ import annotations

import json
import math
import os
import random
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

import numpy as np

from . import _linalg
from .additive_code import SYMPLECTIC, digit_columns, stacked_duality
from .code_params import BASIS, UNBOUNDED, _basis_walk, _distance_json, params_from_ranks
from .galois import MAX_FIELD_SIZE, _exceeds_field_cap, _is_prime, gf_make

# A block holds as many candidates as fit in BLOCK_BYTES at 128 cols^2 bytes
# each: the int64 stacks of a candidate (its draw, X, dual(X), the hull, its
# dual and X + dual(X)) and their elimination temporaries come to about
# sixteen (cols, cols) matrices.  The distance walk keeps to its own bound.
BLOCK_BYTES = 1 << 20


def _block_size(cols: int) -> int:
    return max(1, BLOCK_BYTES // (128 * cols * cols))


def _draw_candidate(rng: random.Random, p: int, cols: int) -> list[list[int]]:
    rank_target = rng.randint(1, cols - 1)
    return [[rng.randrange(p) for _ in range(cols)] for _ in range(rank_target)]


def _blocks(p: int, m: int, n: int, count: int, seed: int, size: int) -> Iterator[tuple]:
    """The canonical new spans of each block of `size` draws, in draw order."""
    cols = digit_columns(gf_make(p, m), n)
    rng = random.Random(seed)
    seen: set[bytes] = set()
    for start in range(0, count, size):
        stack = np.zeros((min(size, count - start), cols - 1, cols), dtype=np.int64)
        for rows in stack:
            draw = _draw_candidate(rng, p, cols)
            rows[: len(draw)] = draw
        reduced, ranks = _linalg.rref(stack, p)
        keep = []
        for i, rank in enumerate(ranks.tolist()):
            key = reduced[i, :rank].tobytes()
            if rank and key not in seen:
                seen.add(key)
                keep.append(i)
        if keep:
            top = int(ranks[keep].max())
            yield [start + i for i in keep], seed, p, m, n, reduced[keep, :top], ranks[keep]


def _evaluate_candidate(block: tuple) -> list[dict]:
    """The records of one block of distinct, nonzero canonical spans X: the
    duality stacks of the block, then one basis walk of dual(hull) per rank."""
    indices, seed, p, m, n, codes, ranks = block
    (duals, _), (_, hull_ranks), (hull_duals, dual_ranks) = stacked_duality(
        gf_make(p, m), n, SYMPLECTIC, codes)
    sums, _ = _linalg.rref(np.concatenate([codes, duals], axis=1), p)
    # The two descriptions of the walked set must coincide.
    assert np.array_equal(sums[:, :hull_duals.shape[1]], hull_duals), "X + dual(X) != dual(hull(X))"
    distances, _ = _basis_walk(codes, ranks, hull_duals, dual_ranks, p, m, n, SYMPLECTIC)
    weights = p ** np.arange(m)
    records = []
    for index, code, ex, ey, d in zip(indices, codes, ranks.tolist(), hull_ranks.tolist(),
                                      distances.tolist()):
        params, stabilizer_key = _summary(p, m, n, ex, ey, UNBOUNDED if math.isinf(d) else int(d))
        records.append({
            "index": index,
            "seed": seed,
            "p": p,
            "m": m,
            "n": n,
            "layout": SYMPLECTIC,
            "generators": (code[:ex].reshape(ex, 2 * n, m) @ weights).tolist(),
            "params": dict(params),
            "distance_method": BASIS,
            "stabilizer_key": list(stabilizer_key),
        })
    return records


@lru_cache(maxsize=None)
def _summary(p: int, m: int, n: int, ex: int, ey: int, d: int | float) -> tuple[dict, list]:
    """The params JSON and stabilizer key of every code with these ranks and d."""
    params = params_from_ranks(gf_make(p, m), n, ex, ey, d, BASIS)
    n_minus_r, k, _ = params.stabilizer_comparison_key()
    return params.to_json(), [str(n_minus_r), str(k), _distance_json(d)]


def search_records(
    p: int, m: int, n: int, count: int, seed: int, jobs: int = 1
) -> list[dict]:
    """Evaluate `count` seeded candidates; deduplicated, in draw order.

    With jobs > 1 the blocks go to min(jobs, CPUs, blocks) worker processes,
    two blocks per worker in flight; the records are the same for any jobs.
    """
    if p <= MAX_FIELD_SIZE and not _is_prime(p):
        raise ValueError(f"p must be prime, got p={p}")
    if m >= 1 and _exceeds_field_cap(p, m):  # gf_make reports m < 1
        lower = "p" if p > MAX_FIELD_SIZE else "m"
        raise ValueError(f"q = p^m = {p}^{m} exceeds the field cap {MAX_FIELD_SIZE}; lower {lower}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    size = _block_size(digit_columns(gf_make(p, m), n))
    blocks = _blocks(p, m, n, count, seed, size)
    workers = min(jobs, os.cpu_count() or 1, -(-count // size))
    if workers == 1:
        return [record for block in map(_evaluate_candidate, blocks) for record in block]
    # Keep 2 blocks per worker submitted: the parent draws and reduces the
    # next block while the workers evaluate, and collects in draw order.
    records, pending = [], deque()
    with ProcessPoolExecutor(max_workers=workers) as executor:
        for block in blocks:
            pending.append(executor.submit(_evaluate_candidate, block))
            if len(pending) == 2 * workers:
                records += pending.popleft().result()
        for future in pending:
            records += future.result()
    return records


def write_records(records: list[dict], out_path: str) -> None:
    """One compact JSON object per line, stable key order."""
    with open(out_path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True, separators=(",", ":")))
            handle.write("\n")


# k and r take few values; Fraction parses strings slowly.  For the 7,974
# records of the n = 4 search at seed 100 the cells parse in about 90 ms
# uncached and 7 ms cached (one core of a shared 2-core x86-64 host).
_fraction = lru_cache(maxsize=None)(Fraction)


def pareto_summary(records: list[dict]) -> dict[tuple[Fraction, Fraction], int | float]:
    """Best distance found per (k, r) cell."""
    best: dict[tuple[Fraction, Fraction], int | float] = {}
    for record in records:
        params = record["params"]
        cell = (_fraction(params["k"]), _fraction(params["r"]))
        d = UNBOUNDED if params["d"] == "unbounded" else params["d"]
        if cell not in best or d > best[cell]:
            best[cell] = d
    return best


def run_search(
    p: int, m: int, n: int, count: int, seed: int, out_path: str, jobs: int = 1
) -> tuple[list[dict], dict]:
    records = search_records(p, m, n, count, seed, jobs=jobs)
    write_records(records, out_path)
    return records, pareto_summary(records)
