"""End-to-end benchmark of the oqecc command line.

    python3 bench/run.py --workload verify|distance|search|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the program under test is the source tree beside this
directory (../src), run as `python -m oqecc` child processes.

With --trace 0 the benchmark is a closed loop with one client: it starts one
CLI child at a time, waits for it with os.wait4, checks its exit code and
output, and repeats whole passes over the workload's calls while another
pass fits in --seconds of their wall time.  setup_s is the median time of a
call on a trivial code, made ten times at the start and twice before every
workload call, so that it samples the whole run.  Children get one BLAS
thread each, so no more than two processes or threads run at once
(`search --jobs 2`, made once per run and not counted in work_s).  With
--trace 1 the same calls run in-process through oqecc.cli.main, once untraced and once with timing wrappers around each
module's public functions (see tracing.py), and the per-layer metrics are
reported instead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --workload all it covers every
workload, and each metric is named <workload>.<metric>, as in
verify.setup_s.  Each result, with a record of the environment, is also
written under bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

BLAS_THREADS = 1
# The traced run computes in this process; BLAS reads these when numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

import codes  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
EXPECTED = BENCH / "expected.json"

DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
WORKLOADS = ("verify", "distance", "search")
SETUP_REPEATS = 10
SETUP_PER_CALL = 2
IMPORT_REPEATS = 3
SEARCH_JOBS = 2
CHILD_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 165.0  # every run must end within 180 s
CHECK_SEARCH_RECORDS = 20

# (name, p, m, n, count): search draws; the first is the acceptance-suite size.
SEARCH_DRAWS = (("n4", 2, 1, 4, 10_000), ("gf4_n3", 2, 2, 3, 1_000))


# -- one CLI call ----------------------------------------------------------------


@dataclass
class Call:
    """One oqecc invocation, the metric group it counts toward and its check.

    check(exit_code, stdout, stderr) returns a list of problems; empty means
    the output is correct.
    """

    label: str
    argv: list[str]
    group: str | None
    check: Callable[[int, str, str], list[str]]
    output: Path | None = None
    once: bool = False  # made and checked in the first pass only, and not part of work_s


@dataclass
class Outcome:
    exit_code: int
    stdout: str
    stderr: str
    wall_s: float
    rss_mb: float = 0.0
    problems: list[str] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("OQECC_") and k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    return env


class ChildRunner:
    """Starts one child at a time and reaps it with os.wait4 for its ru_maxrss."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = child_env()

    def run(self, args: list[str]) -> Outcome:
        timeout = min(CHILD_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout <= 0:
            return Outcome(-1, "", "", 0.0, problems=["run deadline reached before the call"])
        out_path, err_path = self.workdir / "stdout.txt", self.workdir / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(proc.returncode, out_path.read_text(), err_path.read_text(), wall,
                       usage.ru_maxrss / 1024.0)

    def cli(self, argv: list[str]) -> Outcome:
        return self.run(["-m", "oqecc", *argv])


# -- output checks ------------------------------------------------------------------


def expected_record(seed: int) -> dict:
    """Outputs recorded for the default seed at the seed commit."""
    if seed != DEFAULT_SEED:
        return {}
    with open(EXPECTED, encoding="utf-8") as handle:
        return json.load(handle)


def check_params(spec: codes.CodeSpec, known_d):
    def check(code: int, out: str, err: str) -> list[str]:
        if code != 0:
            return [f"exit {code}: {err.strip()[-200:]}"]
        try:
            rec = json.loads(out)
        except json.JSONDecodeError:
            return [f"not JSON: {out[:200]!r}"]
        problems = []
        want = {"n": spec.n, "q": spec.q, "x": spec.p**spec.rank, "y": spec.p**spec.hull,
                "k": str(spec.k), "r": str(spec.r), "distance_method": "exhaustive"}
        for key, value in want.items():
            if rec.get(key) != value:
                problems.append(f"{key} = {rec.get(key)!r}, expected {value!r}")
        if known_d is not None and rec.get("d") != known_d:
            problems.append(f"d = {rec.get('d')!r}, expected {known_d}")
        if not isinstance(rec.get("d"), int) or rec["d"] < 1:
            problems.append(f"d = {rec.get('d')!r} is not a positive distance")
        return problems
    return check


def check_mindist(spec: codes.CodeSpec, known_d):
    coords = 2 * spec.n if spec.layout == codes.SYMPLECTIC else spec.n

    def check(code: int, out: str, err: str) -> list[str]:
        if code != 0:
            return [f"exit {code}: {err.strip()[-200:]}"]
        try:
            rec = json.loads(out)
        except json.JSONDecodeError:
            return [f"not JSON: {out[:200]!r}"]
        problems = []
        if rec.get("method") != "basis":
            problems.append(f"method = {rec.get('method')!r}")
        if known_d is not None and rec.get("d") != known_d:
            problems.append(f"d = {rec.get('d')!r}, expected {known_d}")
        witness = rec.get("witness")
        if not isinstance(witness, list) or len(witness) != coords:
            problems.append(f"witness {witness!r} does not have {coords} coordinates")
        return problems
    return check


def check_verify(spec: codes.CodeSpec, known_d):
    dim, hull_size = spec.q**spec.n, spec.p**spec.hull
    want = {
        "rank": {"rank": str(dim // hull_size), "dim": str(dim), "hull_size": str(hull_size)},
        "detect": {"errors_swept": str(dim * dim)},
        "tensor": {},
        "support": {"errors_swept": str(dim * dim), "support_size": str(hull_size)},
    }
    if known_d is not None:
        want["detect"]["distance"] = str(known_d)

    def check(code: int, out: str, err: str) -> list[str]:
        if code != 0:
            return [f"exit {code}: {out.strip()[-300:]} {err.strip()[-200:]}"]
        lines = out.splitlines()
        problems = []
        if [line.split()[:2] for line in lines] != [[c, "pass"] for c in want]:
            return [f"expected four passing checks, got {out!r}"]
        for line, (name, fields) in zip(lines, want.items()):
            details = dict(tok.split("=", 1) for tok in line.split()[2:] if "=" in tok)
            for key, value in fields.items():
                if details.get(key) != value:
                    problems.append(f"{name}: {key} = {details.get(key)!r}, expected {value}")
        return problems
    return check


def check_cap(code: int, out: str, err: str) -> list[str]:
    if code != 3:
        return [f"exit {code}, expected 3 (cap exceeded)"]
    if "matrix cap 4096" not in err:
        return [f"cap message does not name the cap: {err.strip()!r}"]
    return []


def check_search(p: int, m: int, n: int, count: int, log: Path):
    def check(code: int, out: str, err: str) -> list[str]:
        if code != 0:
            return [f"exit {code}: {err.strip()[-200:]}"]
        head = out.splitlines()[0] if out else ""
        prefix = f"evaluated {count} candidates, kept "
        if not head.startswith(prefix):
            return [f"unexpected summary {head!r}"]
        kept = int(head[len(prefix):].split()[0])
        lines = log.read_bytes().splitlines()
        if len(lines) != kept or not 0 < kept <= count:
            return [f"log has {len(lines)} records, summary says {kept}"]
        problems = []
        last = -1
        for raw in lines:
            rec = json.loads(raw)
            if not last < rec["index"] < count:
                problems.append(f"record index {rec['index']} out of order")
                break
            last = rec["index"]
        for raw in lines[:CHECK_SEARCH_RECORDS]:
            problems += _check_search_record(json.loads(raw), p, m, n)
        return problems
    return check


def _check_search_record(rec: dict, p: int, m: int, n: int) -> list[str]:
    """Recompute k and r of a logged code with the benchmark's own algebra."""
    coords = np.array(rec["generators"], dtype=np.int64)
    digits = np.stack([(coords // p**j) % p for j in range(m)], axis=2).reshape(len(coords), -1)
    rank_x = codes.rank(digits, p)
    hull = codes.hull_rank(digits, p, m, n)
    k = Fraction(n * m - (rank_x + hull) // 2, m)
    r = Fraction((rank_x - hull) // 2, m)
    params = rec["params"]
    if (params["k"], params["r"], params["x"], params["y"]) != (str(k), str(r), p**rank_x, p**hull):
        return [f"record {rec['index']}: params {params} disagree with k={k} r={r}"]
    return []


# -- workloads ------------------------------------------------------------------------


def _seed_for(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).hexdigest()
    return int(digest[:8], 16)


def verify_calls(seed: int, inputs: Path, expected: dict) -> list[Call]:
    calls = []
    for spec in codes.verify_files(seed):
        label = f"verify/{spec.name}"
        known_d = spec.distance if spec.distance is not None else expected.get("distance", {}).get(label)
        calls.append(Call(label, ["verify", "-i", spec.write(inputs)], "verify_s",
                          check_verify(spec, known_d)))
    cap = codes.cap_file(seed)
    calls.append(Call(f"verify/{cap.name}", ["verify", "-i", cap.write(inputs)], None, check_cap))
    return calls


def distance_calls(seed: int, inputs: Path, expected: dict) -> list[Call]:
    calls = []
    for spec in codes.distance_files(seed):
        path = spec.write(inputs)
        known_d = spec.distance if spec.distance is not None else expected.get("distance", {}).get(spec.name)
        calls.append(Call(f"params/{spec.name}",
                          ["params", "--json", "--method", "exhaustive", "-i", path],
                          "params_s", check_params(spec, known_d)))
        calls.append(Call(f"mindist/{spec.name}",
                          ["mindist", "--json", "--method", "basis", "-i", path],
                          "mindist_basis_s", check_mindist(spec, known_d)))
    return calls


def search_calls(seed: int, inputs: Path, expected: dict, jobs=(1, SEARCH_JOBS)) -> list[Call]:
    calls = []
    for name, p, m, n, count in SEARCH_DRAWS:
        for j in jobs:
            log = inputs / f"{name}_jobs{j}.jsonl"
            argv = ["search", "-p", str(p), "-m", str(m), "-n", str(n), "--count", str(count),
                    "--seed", str(_seed_for(seed, name)), "-o", str(log), "--jobs", str(j)]
            # The pool keeps more processes busy than there are cores (its
            # parent feeds and collects while both workers compute), so its
            # time follows the host's load more than the program's work.
            group = "search_jobs1_s" if j == 1 else "search_jobs2_s"
            calls.append(Call(f"search/{name}/jobs{j}", argv, group,
                              check_search(p, m, n, count, log), log, once=j > 1))
    return calls


def check_outcomes(workload: str, calls: list[Call], outcomes: dict[str, Outcome],
                   expected: dict) -> None:
    """Check each call's output, then the rules that span several calls;
    problems go to the calls involved."""
    for call in calls:
        outcome = outcomes[call.label]
        try:
            outcome.problems += call.check(outcome.exit_code, outcome.stdout, outcome.stderr)
        except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
            outcome.problems.append(f"malformed output: {exc!r}")
    if workload == "distance":
        for call in calls:
            if not call.label.startswith("params/"):
                continue
            name = call.label.split("/", 1)[1]
            params, mindist = outcomes.get(call.label), outcomes.get(f"mindist/{name}")
            if params is None or mindist is None or params.problems or mindist.problems:
                continue
            exhaustive, basis = json.loads(params.stdout), json.loads(mindist.stdout)
            if exhaustive["d"] != basis["d"]:
                msg = f"two-witness rule: exhaustive d={exhaustive['d']}, basis d={basis['d']}"
                params.problems.append(msg)
                mindist.problems.append(msg)
            want = expected.get("quartet", {}).get(name)
            got = exhaustive.get("quartet")
            if want is not None and got != want:
                params.problems.append(f"quartet {got}, recorded {want}")
    if workload == "search":
        logs = {c.label: c.output.read_bytes() for c in calls
                if c.label in outcomes and not outcomes[c.label].problems}
        for call in calls:
            if call.label not in logs:
                continue
            name = call.label.split("/")[1]
            first = logs.get(f"search/{name}/jobs1")
            if first is not None and logs[call.label] != first:
                outcomes[call.label].problems.append("log differs from the --jobs 1 log")
            want = expected.get("search_sha256", {}).get(name)
            got = hashlib.sha256(logs[call.label]).hexdigest()
            if want is not None and got != want:
                outcomes[call.label].problems.append(f"log sha256 {got}, recorded {want}")


WORKLOAD_CALLS = {"verify": verify_calls, "distance": distance_calls, "search": search_calls}


# -- the environment record -------------------------------------------------------------


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def blas_library() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_library(),
        "child_blas_threads": BLAS_THREADS,
        "search_jobs": SEARCH_JOBS,
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


# -- measuring ---------------------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else 0.0


def run_untraced(workload: str, seed: int, seconds: int, workdir: Path) -> dict:
    expected = expected_record(seed)
    runner = ChildRunner(workdir, time.monotonic() + RUN_DEADLINE_S)
    attempted = failed = 0
    peak_rss = 0.0
    problems: list[str] = []

    def account(label: str, outcome: Outcome) -> None:
        nonlocal attempted, failed, peak_rss
        attempted += 1
        peak_rss = max(peak_rss, outcome.rss_mb)
        if outcome.problems:
            failed += 1
            problems.extend(f"{label}: {p}" for p in outcome.problems)

    trivial_argv = ["params", "-i", codes.trivial().write(workdir)]
    setup_times = []

    def setup_call(timed: bool = True) -> None:
        outcome = runner.cli(trivial_argv)
        if outcome.exit_code != 0 or "[[2,1,0,1]]_2" not in outcome.stdout:
            outcome.problems.append(f"exit {outcome.exit_code}: {outcome.stdout!r} {outcome.stderr!r}")
        account("setup", outcome)
        if timed:
            setup_times.append(outcome.wall_s)

    setup_call(timed=False)  # warms the bytecode cache
    for _ in range(SETUP_REPEATS):
        setup_call()

    calls = WORKLOAD_CALLS[workload](seed, workdir, expected)
    walls: dict[str, list[float]] = {c.label: [] for c in calls}
    spent = 0.0  # wall time of the workload's calls; set-up samples do not count
    passes = 0
    while True:
        pass_start = time.monotonic()
        active = [call for call in calls if passes == 0 or not call.once]
        outcomes = {}
        for call in active:
            # Set-up is also sampled between the calls, so its median covers
            # the whole run, as the work times do, and not just its start.
            for _ in range(SETUP_PER_CALL):
                setup_call()
            if call.output is not None:
                call.output.unlink(missing_ok=True)
            outcomes[call.label] = runner.cli(call.argv)
        check_outcomes(workload, active, outcomes, expected)
        for call in active:
            walls[call.label].append(outcomes[call.label].wall_s)
            account(call.label, outcomes[call.label])
        passes += 1
        pass_work = sum(outcomes[call.label].wall_s for call in active)
        spent += pass_work
        now = time.monotonic()
        if spent + pass_work > seconds or now + (now - pass_start) > runner.deadline:
            break

    groups: dict[str, float] = {}
    for call in calls:
        if call.group:
            groups[call.group] = groups.get(call.group, 0.0) + _median(walls[call.label])
    work = sum(_median(walls[call.label]) for call in calls if call.group and not call.once)
    metrics = {
        "setup_s": (_median(setup_times), "s"),
        "work_s": (work, "s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    named = dict(groups)
    if workload == "search":
        drawn = sum(count for *_, count in SEARCH_DRAWS)
        named = {"search_cand_per_s": drawn / groups["search_jobs1_s"],
                 "search_jobs2_cand_per_s": drawn / groups["search_jobs2_s"]}
    return {
        "metrics": metrics,
        "named": named,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "passes": passes,
        "setup_times": setup_times,
        "calls": walls,
    }


def run_traced(workload: str, seed: int, workdir: Path) -> dict:
    import tracing  # installs nothing until asked; kept out of untraced runs

    expected = expected_record(seed)
    runner = ChildRunner(workdir, time.monotonic() + RUN_DEADLINE_S)
    import_times, attempted, failed, problems = [], 0, 0, []
    for _ in range(IMPORT_REPEATS + 1):
        outcome = runner.run(["-c", tracing.IMPORT_PROBE])
        attempted += 1
        try:
            import_times.append(float(outcome.stdout))
        except ValueError:
            failed += 1
            problems.append(f"import probe: exit {outcome.exit_code} {outcome.stderr[-200:]!r}")
    import_s = _median(import_times[1:])  # the first call warms the bytecode cache

    # Process pools would run outside the tracer, so only --jobs 1 calls run here.
    make = WORKLOAD_CALLS[workload]
    calls = make(seed, workdir, expected, jobs=(1,)) if workload == "search" else make(seed, workdir, expected)

    def evaluate(raw: dict) -> dict[str, Outcome]:
        outcomes = {label: Outcome(*values) for label, values in raw.items()}
        check_outcomes(workload, calls, outcomes, expected)
        return outcomes

    result = tracing.run_traced(calls, evaluate, str(SRC))
    metrics = {"cli.import_s": (import_s, "s"), **result["metrics"]}
    spans_path = OUT / f"spans-{workload}-seed{seed}.json.gz"
    tracing.write_spans(result["spans"], spans_path)
    return {
        "metrics": metrics,
        "attempted": attempted + result["attempted"],
        "failed": failed + result["failed"],
        "problems": problems + result["problems"],
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


WORKLOAD_METRICS = {  # printed by name; work_s sums the times behind all but the --jobs 2 one
    "verify": ("verify_s",),
    "distance": ("params_s", "mindist_basis_s"),
    "search": ("search_cand_per_s", "search_jobs2_cand_per_s"),
}
UNITS = {"verify_s": "s", "params_s": "s", "mindist_basis_s": "s",
         "search_cand_per_s": "cand/s", "search_jobs2_cand_per_s": "cand/s"}


def report(workload: str, res: dict, trace: int) -> dict:
    """Print a readable summary and return the contract's result object."""
    print(f"== {workload}: {res['attempted']} calls, {res['failed']} failed"
          + (f", {res['passes']} passes" if "passes" in res else ""))
    if not trace:
        for name in WORKLOAD_METRICS[workload]:
            print(f"  {name:<26} {res['named'][name]:12.4f} {UNITS[name]}")
    for name, (value, unit) in res["metrics"].items():
        print(f"  {name:<26} {value:12.6g} {unit}")
    print(f"  {'failed_frac':<26} {res['failed'] / max(res['attempted'], 1):12.4f} ratio")
    for problem in res["problems"][:20]:
        print(f"  FAILED {problem}")
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in res["metrics"].items()},
    }


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=_non_negative, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "oqecc" / "__init__.py").is_file():
        print(f"error: no oqecc sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, _exit_on_signal)
    signal.signal(signal.SIGALRM, _exit_on_signal)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    env = environment(args.workload, args.seed, args.seconds, args.trace)
    print("env " + json.dumps(env, sort_keys=True))
    results = {}
    for workload in workloads:
        workdir = OUT / f"run-{workload}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        # A hung in-process call would outlive the child deadline; end the run instead.
        signal.alarm(int(RUN_DEADLINE_S) + 10)
        if args.trace:
            res = run_traced(workload, args.seed, workdir)
        else:
            res = run_untraced(workload, args.seed, args.seconds, workdir)
        results[workload] = report(workload, res, args.trace)
        record = {"env": env, "result": results[workload], "detail": res}
        with open(OUT / f"result-{workload}-seed{args.seed}-trace{args.trace}.json", "w",
                  encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, default=str)
        shutil.rmtree(workdir, ignore_errors=True)
    signal.alarm(0)
    if len(results) == 1:
        print(json.dumps(results[workloads[0]]))
    else:  # one object over all workloads; each metric is named <workload>.<metric>
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": value for w, r in results.items()
                        for name, value in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
