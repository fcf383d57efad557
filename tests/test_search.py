import json
import random
from concurrent.futures import Future
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from oqecc import search
from oqecc.additive_code import AdditiveCode, SYMPLECTIC
from oqecc.code_params import BASIS, UNBOUNDED, subsystem_params
from oqecc.galois import gf_make
from oqecc.search import pareto_summary, run_search, search_records


def test_fixed_seed_is_byte_deterministic(tmp_path):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    run_search(2, 1, 2, count=120, seed=99, out_path=str(out1))
    run_search(2, 1, 2, count=120, seed=99, out_path=str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_worker_count_does_not_change_output(tmp_path):
    sequential = tmp_path / "seq.jsonl"
    parallel = tmp_path / "par.jsonl"
    run_search(2, 1, 3, count=60, seed=5, out_path=str(sequential), jobs=1)
    run_search(2, 1, 3, count=60, seed=5, out_path=str(parallel), jobs=2)
    assert sequential.read_bytes() == parallel.read_bytes()


def test_records_replay_exactly(tmp_path):
    out = tmp_path / "records.jsonl"
    records, _ = run_search(3, 1, 2, count=40, seed=12, out_path=str(out))
    assert records
    for line in out.read_text().splitlines():
        record = json.loads(line)
        ctx = gf_make(record["p"], record["m"])
        code = AdditiveCode.from_generators(
            ctx, record["n"], SYMPLECTIC, [tuple(g) for g in record["generators"]]
        )
        # stored generators are already canonical
        assert [list(r) for r in code.generator_rows()] == record["generators"]
        params = subsystem_params(code, distance_method=BASIS)
        stored = record["params"]
        assert stored["x"] == params.x and stored["y"] == params.y
        assert Fraction(stored["k"]) == params.k and Fraction(stored["r"]) == params.r
        expected_d = "unbounded" if params.d == UNBOUNDED else params.d
        assert stored["d"] == expected_d
        assert record["distance_method"] == params.distance_method


def test_duplicates_and_zero_spans_are_dropped():
    records = search_records(2, 1, 1, count=300, seed=0)
    keys = [tuple(tuple(r) for r in record["generators"]) for record in records]
    assert len(keys) == len(set(keys))
    assert len(keys) < 300  # rank-1 draws over F_2^2 collide quickly
    assert all(record["generators"] for record in records)


def test_pareto_best_distance_per_cell():
    records = [
        {"params": {"k": "1", "r": "0", "d": 1}},
        {"params": {"k": "1", "r": "0", "d": 2}},
        {"params": {"k": "1", "r": "1", "d": "unbounded"}},
    ]
    best = pareto_summary(records)
    assert best[(Fraction(1), Fraction(0))] == 2
    assert best[(Fraction(1), Fraction(1))] == UNBOUNDED


def test_invalid_arguments():
    with pytest.raises(ValueError):
        search_records(2, 1, 2, count=0, seed=1)
    with pytest.raises(ValueError):
        search_records(2, 1, 2, count=1, seed=1, jobs=0)


# -- block evaluation -------------------------------------------------------------


def _json_lines(records):
    return [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records]


def _oracle_records(p, m, n, seed, draws):
    """Per-candidate records in draw order, first occurrence of each span kept."""
    ctx, seen, out = gf_make(p, m), set(), []
    for index, rows in enumerate(draws):
        record = oracles.candidate_record(index, seed, ctx, n, rows)
        key = record and str(record["generators"])
        if record is not None and key not in seen:
            seen.add(key)
            out.append(record)
    return out


@st.composite
def _draw_lists(draw):
    """Draw sequences mixing random spans, zero spans, repeats of earlier
    spans (as fresh combinations of their rows) and unbounded codes: the
    a-halves {(a|0)}, where dual(hull) = X."""
    p, m, top = draw(st.sampled_from([(2, 1, 3), (2, 2, 3), (3, 1, 3), (5, 1, 2), (2, 3, 2)]))
    n = draw(st.integers(1, top))
    cols = 2 * n * m
    digit_rows = lambda k: st.lists(st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
                                    min_size=k, max_size=k)
    draws = []
    for kind in draw(st.lists(st.sampled_from(["random", "zero", "repeat", "unbounded"]),
                              min_size=1, max_size=14)):
        if kind == "zero":
            draws.append([[0] * cols] * draw(st.integers(1, cols - 1)))
        elif kind == "repeat" and draws:
            rows = np.array(draw(st.sampled_from(draws)), dtype=np.int64)
            mix = np.eye(len(rows), dtype=np.int64) + np.triu(np.array(draw(digit_rows(len(rows))))[:, :len(rows)], 1)
            draws.append((mix @ rows % p).tolist())  # an invertible recombination: the same span
        elif kind == "unbounded":
            draws.append(np.eye(cols, dtype=np.int64)[: n * m].tolist())
        else:
            draws.append(draw(digit_rows(draw(st.integers(1, cols - 1)))))
    return p, m, n, draws


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(case=_draw_lists())
@example(case=(2, 1, 2, [[[1, 0, 0, 0], [0, 1, 0, 0]], [[0, 0, 0, 0]], [[1, 1, 0, 0]],
                         [[0, 1, 0, 0], [1, 1, 0, 0]], [[1, 0, 1, 0]], [[1, 0, 1, 0]]]))
def test_blocks_equal_the_per_candidate_records(case):
    p, m, n, draws = case
    with pytest.MonkeyPatch.context() as mp:
        stream = iter(draws)
        mp.setattr(search, "_draw_candidate", lambda rng, p_, cols: next(stream))
        mp.setattr(search, "_block_size", lambda cols: 3)  # repeats and zero spans cross blocks
        records = search_records(p, m, n, count=len(draws), seed=4)
    assert _json_lines(records) == _json_lines(_oracle_records(p, m, n, 4, draws))


def test_seeded_search_equals_the_per_candidate_records():
    p, m, n, count, seed = 3, 1, 2, 150, 21
    rng = random.Random(seed)
    draws = [search._draw_candidate(rng, p, 2 * n * m) for _ in range(count)]
    assert _json_lines(search_records(p, m, n, count, seed)) == _json_lines(
        _oracle_records(p, m, n, seed, draws))


def test_draws_are_streamed_one_block_at_a_time(monkeypatch):
    drawn, at_evaluation = [], []
    real_draw, real_evaluate = search._draw_candidate, search._evaluate_candidate
    monkeypatch.setattr(search, "_draw_candidate", lambda *a: drawn.append(1) or real_draw(*a))
    monkeypatch.setattr(search, "_evaluate_candidate",
                        lambda block: at_evaluation.append(len(drawn)) or real_evaluate(block))
    size = search._block_size(8)
    search_records(2, 1, 4, count=3 * size + 5, seed=3)
    assert len(drawn) == 3 * size + 5
    assert at_evaluation[0] <= size
    assert at_evaluation == sorted(at_evaluation) and len(at_evaluation) == 4


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs in-process."""

    made: list[int] = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, item):
        future = Future()
        future.set_result(fn(item))
        return future


@pytest.mark.parametrize("cpus,count,workers", [(4, 10, 4), (8, 3, 3), (None, 10, None), (2, 1, None)])
def test_jobs_start_no_more_workers_than_cpus_or_blocks(monkeypatch, cpus, count, workers):
    monkeypatch.setattr(search, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(search.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(search, "_block_size", lambda cols: 1)  # one block per draw
    _InlinePool.made = []
    records = search_records(2, 1, 2, count=count, seed=8, jobs=100_000)
    # None: one worker would do, so the blocks run in this process.
    assert _InlinePool.made == ([] if workers is None else [workers])
    assert _json_lines(records) == _json_lines(search_records(2, 1, 2, count=count, seed=8))
