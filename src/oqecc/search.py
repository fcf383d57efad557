"""Seedable random search for good subsystem codes.

Candidates are uniform random F_p generator matrices with a random rank
target, canonicalized and deduplicated within a run.  Every surviving
candidate becomes one JSON line; for a fixed seed the output file is
byte-identical across runs and across worker counts, because all randomness
is drawn up front and evaluation is an exact pure function of the draw.

Each record stores the canonical generator matrix, the parameters
(n, k, r, d), and the (n - r, k, d) footprint a plain stabilizer code would
need for the same job, which is the fair point of comparison.
"""

from __future__ import annotations

import json
import random
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from typing import Iterable

from .additive_code import AdditiveCode, SYMPLECTIC, digit_columns
from .code_params import BASIS, UNBOUNDED, _distance_json, subsystem_params
from .galois import MAX_FIELD_SIZE, _exceeds_field_cap, _is_prime, gf_make


def _draw_candidate(rng: random.Random, p: int, cols: int) -> list[list[int]]:
    rank_target = rng.randint(1, cols - 1)
    return [[rng.randrange(p) for _ in range(cols)] for _ in range(rank_target)]


def _evaluate_candidate(payload: tuple) -> dict | None:
    """Pure evaluation of one drawn candidate; None for the zero span."""
    index, seed, p, m, n, rows = payload
    ctx = gf_make(p, m)
    code = AdditiveCode.from_digit_rows(ctx, n, SYMPLECTIC, rows)
    if code.is_zero():
        return None
    params = subsystem_params(code, distance_method=BASIS)
    n_minus_r, k, _ = params.stabilizer_comparison_key()
    return {
        "index": index,
        "seed": seed,
        "p": p,
        "m": m,
        "n": n,
        "layout": SYMPLECTIC,
        "generators": [list(row) for row in code.generator_rows()],
        "params": params.to_json(),
        "distance_method": params.distance_method,
        "stabilizer_key": [str(n_minus_r), str(k), _distance_json(params.d)],
    }


def search_records(
    p: int, m: int, n: int, count: int, seed: int, jobs: int = 1
) -> list[dict]:
    """Evaluate `count` seeded candidates; deduplicated, in draw order."""
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
    ctx = gf_make(p, m)
    cols = digit_columns(ctx, n)
    rng = random.Random(seed)
    payloads = [(i, seed, p, m, n, _draw_candidate(rng, p, cols)) for i in range(count)]

    if jobs == 1:
        evaluated: Iterable[dict | None] = map(_evaluate_candidate, payloads)
    else:
        executor = ProcessPoolExecutor(max_workers=jobs)
        try:
            evaluated = list(executor.map(_evaluate_candidate, payloads, chunksize=64))
        finally:
            executor.shutdown()

    records = []
    seen: set[tuple] = set()
    for record in evaluated:
        if record is None:
            continue
        key = tuple(tuple(row) for row in record["generators"])
        if key in seen:
            continue
        seen.add(key)
        records.append(record)
    return records


def write_records(records: list[dict], out_path: str) -> None:
    """One compact JSON object per line, stable key order."""
    with open(out_path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True, separators=(",", ":")))
            handle.write("\n")


def pareto_summary(records: list[dict]) -> dict[tuple[Fraction, Fraction], int | float]:
    """Best distance found per (k, r) cell."""
    best: dict[tuple[Fraction, Fraction], int | float] = {}
    for record in records:
        params = record["params"]
        cell = (Fraction(params["k"]), Fraction(params["r"]))
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
