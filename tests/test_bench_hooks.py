"""The benchmark's tracer wraps package functions by name; keep them findable.

bench/tracing.py is loaded from its file, as the benchmark runs it.  Every
entry of its SPANS and COUNTS tables must resolve the way Tracer.install
resolves it: a function in the module's vars(), or Class.method in the
class's own __dict__ (an inherited or removed method is a KeyError there).
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("oqecc_bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
TARGETS = [(short, path) for table in (tracing.SPANS, tracing.COUNTS)
           for short, paths in table.items() for path in paths]


@pytest.mark.parametrize("short,path", TARGETS, ids=[f"{s}.{p}" for s, p in TARGETS])
def test_trace_target_resolves_as_install_resolves_it(short, path):
    assert short in tracing.MODULES
    owner = importlib.import_module(f"oqecc.{short}")
    *cls, attr = path.split(".")
    if cls:
        owner = vars(owner)[cls[0]]
    assert callable(vars(owner)[attr])


def test_install_wraps_every_target_and_uninstall_restores_it():
    modules = {short: importlib.import_module(f"oqecc.{short}") for short in tracing.MODULES}
    galois = modules["galois"]
    before = dict(vars(galois.GfContext)), dict(vars(galois))
    tracer = tracing.Tracer()
    try:
        tracer.install(modules)
        assert vars(galois.GfContext)["mul"] is not before[0]["mul"]
        assert vars(galois.GfContext)["ext_mul"] is not before[0]["ext_mul"]
        assert vars(galois)["gf_make"] is not before[1]["gf_make"]
    finally:
        tracer.uninstall()
    assert dict(vars(galois.GfContext)) == before[0]
    assert dict(vars(galois)) == before[1]
