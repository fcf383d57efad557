"""Per-layer tracing of in-process oqecc CLI calls, from outside the package.

run_traced() runs a list of run.Call objects through oqecc.cli.main twice:
once as is, and once with wrappers around the functions listed in SPANS and
COUNTS.  The difference in wall time is the tracing overhead.  Nothing under
src/ changes: a wrapper replaces the function on its class, or on its
defining module and on every oqecc module (or module-level dict, such as the
verifier's check table) that imported it by name, and everything is put back
after the traced pass.

Every span holds its name, start, end, parent span and the index of the CLI
call it belongs to.  Spans stay in memory until write_spans() stores them,
with their self time (duration minus the time covered by child spans).
Before each call the package's lru caches are cleared, so every call pays
what a fresh `oqecc` process pays, field construction included.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import io
import json
import math
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

IMPORT_PROBE = ("import time; t = time.perf_counter(); import oqecc.cli; "
                "print(time.perf_counter() - t)")

MODULES = ("galois", "_linalg", "additive_code", "codefile", "code_params", "verifier",
           "search", "cli")

# Timed spans, by module: functions, or Class.method.
SPANS = {
    "cli": ("main", "cmd_params", "cmd_mindist", "cmd_verify", "cmd_search"),
    "codefile": ("parse_code_file", "code_from_json"),
    "galois": ("gf_make",),
    "_linalg": ("rref", "nullspace", "intersect_rowspaces"),
    "additive_code": ("AdditiveCode.dual", "AdditiveCode.hull", "AdditiveCode.phi_preimage"),
    "code_params": ("subsystem_params", "min_distance", "min_distance_with_witness",
                    "_distance_scan"),
    "verifier": ("build_projector", "verify_rank", "verify_detectability",
                 "verify_tensor_factorization", "verify_character_support", "run_checks"),
    "search": ("search_records", "_evaluate_candidate", "write_records"),
}
# Call counts only: these run up to millions of times per call.
COUNTS = {
    "galois": ("GfContext.mul", "GfContext.ext_mul"),
    "_linalg": ("in_rowspan",),
    "additive_code": ("AdditiveCode.contains",),
    "verifier": ("ErrorOperator.__init__",),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, attrs]
        self.stack: list[int] = []
        self.counts: dict[str, list[int]] = {}
        self.op = -1
        self.paused = False
        self._undo: list = []

    def timed(self, name: str, fn, annotate=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if annotate is not None:
                self.paused = True
                try:
                    rec[5] = annotate(args, kwargs, result)
                finally:
                    self.paused = False
            return result

        return wrapper

    def counted(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap every target and patch each place that holds it by name."""
        replaced = {}
        for table, make in ((SPANS, self._make_timed), (COUNTS, self.counted)):
            for short, paths in table.items():
                for path in paths:
                    owner = modules[short]
                    *cls, attr = path.split(".")
                    if cls:
                        owner = getattr(owner, cls[0])
                    original = owner.__dict__[attr]
                    wrapper = make(f"{short.lstrip('_')}.{path}", original)
                    if cls:
                        self._set(owner, attr, wrapper)
                    else:
                        replaced[id(original)] = (original, wrapper)
        for module in _package_modules():
            for key, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, key, hit[1])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        hit = replaced.get(id(v))
                        if hit is not None and hit[0] is v:
                            self._set(value, k, hit[1])

    def _make_timed(self, name: str, fn):
        return self.timed(name, fn, ANNOTATE.get(name))

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._undo.clear()


def _scan_attrs(args, kwargs, result):
    """Vectors the distance scan enumerates: p^cols (exhaustive) or
    p^rank(dual(hull)) (basis); none when the distance is unbounded."""
    code = args[0]
    method = args[1] if len(args) > 1 else kwargs["method"]
    p, cols = code.ctx.p, code.num_columns
    if math.isinf(result[0]):
        swept = 0
    elif method == "exhaustive":
        swept = p**cols
    else:
        swept = p ** (cols - code.hull().rank)
    return {"method": method, "swept": swept}


def _records_attrs(args, kwargs, result):
    count = args[3] if len(args) > 3 else kwargs["count"]
    return {"count": count, "kept": len(result)}


def _report_attrs(args, kwargs, result):
    return {"errors_swept": int(result.details["errors_swept"])}


ANNOTATE = {
    "code_params._distance_scan": _scan_attrs,
    "search.search_records": _records_attrs,
    "verifier.verify_detectability": _report_attrs,
    "verifier.verify_character_support": _report_attrs,
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "oqecc" or name.startswith("oqecc."))]


def _cache_clearers() -> list:
    seen, out = set(), []
    for module in _package_modules():
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear) and id(value) not in seen:
                seen.add(id(value))
                out.append(clear)
    return out


def _run_call(main, argv: list[str]) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed call, as it is for a child
            traceback.print_exc()
            code = 1
        wall = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), wall


def run_traced(calls, evaluate, src: str) -> dict:
    """Run the calls untraced, then traced; per-layer metrics and checks.

    evaluate(raw) turns {label: (exit_code, stdout, stderr, wall_s)} into
    checked outcomes, objects with a `problems` list.
    """
    sys.path.insert(0, src)
    modules = {short: importlib.import_module(f"oqecc.{short}") for short in MODULES}
    clearers = _cache_clearers()
    attempted = failed = 0
    problems: list[str] = []

    def one_pass(tracer: Tracer | None) -> float:
        nonlocal attempted, failed
        raw = {}
        for i, call in enumerate(calls):
            for clear in clearers:
                clear()
            if call.output is not None:
                call.output.unlink(missing_ok=True)
            if tracer is not None:
                tracer.op = i
            raw[call.label] = _run_call(modules["cli"].main, call.argv)
        for label, outcome in evaluate(raw).items():
            attempted += 1
            if outcome.problems:
                failed += 1
                problems.extend(f"{label}: {p}" for p in outcome.problems)
        return sum(r[3] for r in raw.values())

    untraced_s = one_pass(None)
    tracer = Tracer()
    tracer.install(modules)
    try:
        traced_s = one_pass(tracer)
    finally:
        tracer.uninstall()
    metrics = per_layer_metrics(tracer)
    metrics["trace_overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    spans = {"ops": [c.label for c in calls], "spans": tracer.spans,
             "counts": {k: v[0] for k, v in tracer.counts.items()}}
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "spans": spans}


def per_layer_metrics(tracer: Tracer) -> dict:
    durations: dict[str, list[float]] = {}
    first_in_op: dict[str, dict[int, float]] = {}  # spans are in start order
    attrs: dict[str, list[tuple[float, dict]]] = {}
    for name, start, end, _parent, op, extra in tracer.spans:
        durations.setdefault(name, []).append(end - start)
        first_in_op.setdefault(name, {}).setdefault(op, end - start)
        if extra is not None:
            attrs.setdefault(name, []).append((end - start, extra))

    def total(name):
        return sum(durations.get(name, ()), 0.0)

    def calls(name):
        return len(durations.get(name, ()))

    def first_call_median(name):
        """Median over CLI calls of each call's first span of this name; with
        caches cleared per call, that is the cold one."""
        values = list(first_in_op.get(name, {}).values())
        return statistics.median(values) if values else 0.0

    def count(name):
        return tracer.counts.get(name, [0])[0]

    by_method = {"exhaustive": 0.0, "basis": 0.0}
    swept = 0
    for seconds, extra in attrs.get("code_params._distance_scan", ()):
        by_method[extra["method"]] += seconds
        swept += extra["swept"]
    scan_s = sum(by_method.values())
    evaluate = sorted(durations.get("search._evaluate_candidate", ()))
    records = [a for _, a in attrs.get("search.search_records", ())]
    drawn = sum(a["count"] for a in records)
    kept = sum(a["kept"] for a in records)
    reports = [a for name in ("verifier.verify_detectability", "verifier.verify_character_support")
               for _, a in attrs.get(name, ())]

    return {
        "galois.gf_make_s": (first_call_median("galois.gf_make"), "s"),
        "codefile.parse_s": (first_call_median("codefile.parse_code_file"), "s"),
        "linalg.rref_calls": (calls("linalg.rref"), "count"),
        "linalg.rref_s": (total("linalg.rref"), "s"),
        "linalg.nullspace_calls": (calls("linalg.nullspace"), "count"),
        "additive_code.dual_s": (total("additive_code.AdditiveCode.dual"), "s"),
        "additive_code.hull_s": (total("additive_code.AdditiveCode.hull"), "s"),
        "galois.mul_calls": (count("galois.GfContext.mul"), "count"),
        "galois.ext_mul_calls": (count("galois.GfContext.ext_mul"), "count"),
        "search.evaluate_median_s": (statistics.median(evaluate) if evaluate else 0.0, "s"),
        "search.evaluate_p99_s": (
            statistics.quantiles(evaluate, n=100)[98] if len(evaluate) >= 2 else 0.0, "s"),
        "search.write_s": (total("search.write_records"), "s"),
        "search.kept_ratio": (kept / drawn if drawn else 0.0, "ratio"),
        "code_params.min_distance_exhaustive_s": (by_method["exhaustive"], "s"),
        "code_params.min_distance_basis_s": (by_method["basis"], "s"),
        "code_params.vectors_swept": (swept, "vectors"),
        "code_params.vectors_per_s": (swept / scan_s if scan_s else 0.0, "vectors/s"),
        "verifier.build_projector_s": (total("verifier.build_projector"), "s"),
        "verifier.build_projector_calls": (calls("verifier.build_projector"), "count"),
        "verifier.rank_s": (total("verifier.verify_rank"), "s"),
        "verifier.detect_s": (total("verifier.verify_detectability"), "s"),
        "verifier.tensor_s": (total("verifier.verify_tensor_factorization"), "s"),
        "verifier.support_s": (total("verifier.verify_character_support"), "s"),
        "verifier.errors_swept": (sum(a["errors_swept"] for a in reports), "count"),
        "verifier.lifts_built": (count("verifier.ErrorOperator.__init__"), "count"),
        "additive_code.contains_calls": (count("additive_code.AdditiveCode.contains"), "count"),
        "linalg.in_rowspan_calls": (count("linalg.in_rowspan"), "count"),
    }


def write_spans(data: dict, path: Path) -> None:
    """Store spans as [id, name, op, parent, start, end, self_s, attrs] rows."""
    spans = data["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op, extra in spans:
        if parent >= 0:
            child_time[parent] += end - start
    rows = [[i, name, op, parent, start, end, end - start - child_time[i], extra]
            for i, (name, start, end, parent, op, extra) in enumerate(spans)]
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        json.dump({"ops": data["ops"], "counts": data["counts"],
                   "columns": ["id", "name", "op", "parent", "start", "end", "self_s", "attrs"],
                   "spans": rows}, handle)
