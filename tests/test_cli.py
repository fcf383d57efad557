import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oqecc
from oqecc.cli import main
from oqecc.codefile import parse_code_file

RUNNING = '{"p":2,"m":1,"n":2,"layout":"symplectic","generators":[[1,1,0,0]]}'


@pytest.fixture
def running_file(tmp_path):
    path = tmp_path / "code.json"
    path.write_text(RUNNING, encoding="utf-8")
    return str(path)


def test_params_output(running_file, capsys):
    assert main(["params", "-i", running_file]) == 0
    out = capsys.readouterr().out
    assert "[[2,1,0,1]]_2" in out
    assert "((2,2,1,1))_2" in out


def test_params_json(running_file, capsys):
    assert main(["params", "-i", running_file, "--json"]) == 0
    out = capsys.readouterr().out
    assert out == (
        '{"d": 1, "dim_a": 2, "dim_b": 1, "dim_c": 2, "distance_method": "exhaustive", '
        '"k": "1", "n": 2, "q": 2, "quartet": "[[2,1,0,1]]_2", "r": "0", "x": 2, "y": 2}\n'
    )
    record = json.loads(out)
    assert record["quartet"] == "[[2,1,0,1]]_2"
    assert record["d"] == 1
    assert record["k"] == "1" and record["r"] == "0"


def test_mindist_methods_agree(running_file, capsys):
    assert main(["mindist", "-i", running_file, "--method", "exhaustive"]) == 0
    first = capsys.readouterr().out
    assert main(["mindist", "-i", running_file, "--method", "basis"]) == 0
    second = capsys.readouterr().out
    assert first.replace("exhaustive", "") == second.replace("basis", "")
    assert "d = 1" in first


def test_dual_round_trip(running_file, tmp_path, capsys):
    out = tmp_path / "dual.json"
    assert main(["dual", "-i", running_file, "-o", str(out)]) == 0
    dual = parse_code_file(out)
    assert dual.size == 8
    assert dual.dual() == parse_code_file(running_file)


def test_verify_all_checks_pass(running_file, capsys):
    assert main(["verify", "-i", running_file]) == 0
    out = capsys.readouterr().out
    for name in ("rank", "detect", "tensor", "support"):
        assert f"{name:<8} pass" in out


def test_verify_subset_and_json(running_file, capsys):
    assert main(["verify", "-i", running_file, "--checks", "rank,support", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["check"] for r in payload] == ["rank", "support"]
    assert all(r["passed"] for r in payload)


def test_verify_hermitian_input_converts(tmp_path, capsys):
    sym = tmp_path / "sym.json"
    sym.write_text(RUNNING, encoding="utf-8")
    hermitian = parse_code_file(sym).phi_image()
    from oqecc.codefile import emit_code_file

    herm_path = tmp_path / "herm.json"
    emit_code_file(hermitian, herm_path)
    assert main(["verify", "-i", str(herm_path), "--json"]) == 0
    captured = capsys.readouterr()
    assert "hermitian input converted" in captured.err
    payload = json.loads(captured.out)  # stdout stays machine-clean
    assert all(r["passed"] for r in payload)


def test_exit_code_zero_code(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text('{"p":2,"m":1,"n":2,"layout":"symplectic","generators":[]}')
    assert main(["params", "-i", str(path)]) == 2


def test_exit_code_cap_exceeded(tmp_path, capsys):
    # dual(hull) has 2^25 vectors, over the basis cap; the exhaustive sweep
    # answers this d = 1 code (its own refusal: test_exhaustive_cap_counts_the_sweep).
    gens = [[1] + [0] * 25]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"p": 2, "m": 1, "n": 13, "layout": "symplectic", "generators": gens}))
    assert main(["mindist", "-i", str(path), "--method", "basis"]) == 3


def test_exit_code_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    assert main(["params", "-i", str(path)]) == 4
    missing = tmp_path / "missing.json"
    assert main(["params", "-i", str(missing)]) == 1  # io error


def test_a_code_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + RUNNING.encode("utf-16-le"))
    assert main(["params", "-i", str(path)]) == 4
    assert capsys.readouterr().err == f"error: {path}: not UTF-8 text (invalid start byte at byte 0)\n"


@pytest.mark.parametrize("field", [{"p": 2**61 - 1, "m": 1}, {"p": 2, "m": 10**9}], ids=["huge_p", "huge_m"])
def test_a_huge_field_in_a_code_file_is_refused_at_once(tmp_path, capsys, field):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({**field, "n": 1, "layout": "symplectic", "generators": [[1, 0]]}))
    start = time.perf_counter()
    assert main(["params", "-i", str(path)]) == 4
    assert time.perf_counter() - start < 2
    p, m = field["p"], field["m"]
    assert capsys.readouterr().err == (
        f"error: {path}: invalid field parameters p={p}, m={m}: q = {p}^{m} exceeds the cap 64\n")


def test_exit_code_invalid_encoding(tmp_path, capsys):
    path = tmp_path / "enc.json"
    path.write_text('{"p":2,"m":1,"n":2,"layout":"symplectic","generators":[[2,0,0,0]]}')
    assert main(["params", "-i", str(path)]) == 4


def test_exit_code_unknown_verify_check(running_file, capsys):
    assert main(["verify", "-i", running_file, "--checks", "bogus"]) == 4


@pytest.mark.parametrize("checks", ["", ",", " , "])
def test_empty_verify_check_selection_is_a_parse_error(running_file, capsys, checks):
    assert main(["verify", "-i", running_file, "--checks", checks]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no checks selected; available: rank,detect,tensor,support\n"
    assert main(["verify", "-i", running_file, "--checks", checks, "--json"]) == 4


def test_verify_failure_exits_with_theory_code(running_file, monkeypatch, capsys):
    from oqecc import cli
    from oqecc.verifier import VerifierReport

    failing = VerifierReport(check="detect", passed=False, witnesses=({"vector": (1, 0, 0, 0)},))
    monkeypatch.setattr(cli, "run_checks", lambda code, checks: [failing])
    assert main(["verify", "-i", running_file]) == 5
    assert "FAIL" in capsys.readouterr().out


def test_verify_json_with_a_failing_support_check(running_file, monkeypatch, capsys):
    from oqecc import verifier

    assert main(["verify", "-i", running_file, "--checks", "support", "--json"]) == 0
    passing = capsys.readouterr().out
    assert json.loads(passing)[0]["witnesses"] == []
    real = verifier._bulk_membership
    monkeypatch.setattr(verifier, "_bulk_membership", lambda digits, sub: ~real(digits, sub))
    assert main(["verify", "-i", running_file, "--checks", "support", "--json"]) == 5
    captured = capsys.readouterr()
    assert captured.err == ""
    (report,) = json.loads(captured.out)
    assert report["check"] == "support" and not report["passed"]
    assert report["witnesses"]
    for witness in report["witnesses"]:
        assert isinstance(witness["trace"], str)
        assert (abs(complex(witness["trace"])) > verifier.TRACE_TOL) != witness["in_hull"]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["params"])  # missing -i
    assert err.value.code == 64
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 64


def test_search_argument_validation(tmp_path, capsys):
    out = tmp_path / "log.jsonl"
    base = ["search", "-p", "2", "-m", "1", "-n", "2", "--seed", "1", "-o", str(out)]
    assert main(base + ["--count", "0"]) == 64
    assert main(base + ["--count", "5", "--jobs", "0"]) == 64


@pytest.mark.parametrize("n", ["0", "-3"])
def test_search_rejects_a_nonpositive_length(tmp_path, capsys, n):
    out = tmp_path / "log.jsonl"
    argv = ["search", "-p", "2", "-m", "1", "-n", n, "--count", "5", "--seed", "1", "-o", str(out)]
    assert main(argv) == 64
    assert capsys.readouterr().err == "error: n must be >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize("flags,message", [
    (["-p", "4", "-m", "1"], "error: p must be prime, got p=4\n"),
    (["-p", "2", "-m", "7"], "error: q = p^m = 2^7 exceeds the field cap 64; lower m\n"),
    (["-p", str(2**61 - 1), "-m", "1"],
     f"error: q = p^m = {2**61 - 1}^1 exceeds the field cap 64; lower p\n"),
    (["-p", "2", "-m", str(10**9)], f"error: q = p^m = 2^{10**9} exceeds the field cap 64; lower m\n"),
])
def test_search_rejects_an_invalid_field(tmp_path, capsys, flags, message):
    out = tmp_path / "log.jsonl"
    argv = ["search", *flags, "-n", "2", "--count", "5", "--seed", "1", "-o", str(out)]
    start = time.perf_counter()
    assert main(argv) == 64
    assert time.perf_counter() - start < 2  # no trial division of a huge p, no huge p^m
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_search_cli(tmp_path, capsys):
    out = tmp_path / "log.jsonl"
    assert (
        main(
            ["search", "-p", "2", "-m", "1", "-n", "2", "--count", "50", "--seed", "3", "-o", str(out)]
        )
        == 0
    )
    printed = capsys.readouterr().out
    assert "best d" in printed
    lines = out.read_text().splitlines()
    assert lines and all(json.loads(line)["seed"] == 3 for line in lines)


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_invalid_matrix_cap_is_a_usage_error(running_file, monkeypatch, capsys, value):
    monkeypatch.setenv("OQECC_MAX_DIM", value)
    assert main(["verify", "-i", running_file]) == 64
    err = capsys.readouterr().err
    assert "OQECC_MAX_DIM" in err and repr(value) in err


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_quietly(running_file, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["params", "-i", running_file]) == 1
    assert capsys.readouterr().err == ""


def test_closed_pipe_in_a_child_process_is_quiet(running_file):
    # The read end is closed before the child starts, so its first write fails.
    src = str(Path(oqecc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "oqecc", "params", "-i", running_file],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert child.returncode == 1
    assert child.stderr == b""


def test_exit_code_table_lists_subclasses_before_bases():
    from oqecc import cli

    kinds = list(cli._EXIT_CODES)
    for i, early in enumerate(kinds):
        assert not any(issubclass(late, early) for late in kinds[i + 1 :]), early
