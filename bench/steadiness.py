"""Run-to-run spread of the end-to-end metrics, as BENCHMARK.json bounds them.

    python3 bench/steadiness.py [--first-seed 100] [--out bench/results/steadiness.json]

Each of two sets runs bench/run.py once per seed, over ten seeds, on every
workload, workloads interleaved, with the run length from BENCHMARK.json.
For every metric it reports the median, the quartiles
(statistics.quantiles, n=4) and their distance as a share of the median,
and the change of the second set's median against the first set's.  The
spread of every set, and the change in either direction, must stay within
the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=180)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["elapsed_s"] = elapsed
    result["env"] = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--out", default=str(BENCH / "results" / "steadiness.json"))
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs: dict[str, list[list[dict]]] = {w: [] for w in WORKLOADS}
    for s in range(SETS):
        for w in WORKLOADS:
            runs[w].append([])
        for i in range(RUNS):
            seed = args.first_seed + s * RUNS + i
            for w in WORKLOADS:
                result = run_once(w, seed, spec["run_seconds"])
                result["seed"] = seed
                runs[w][s].append(result)
                print(f"set {s} {w} seed {seed}: correct={result['correct']} "
                      f"{ {k: round(v['value'], 4) for k, v in result['metrics'].items()} } "
                      f"({result['elapsed_s']:.1f} s)", flush=True)

    first = runs[WORKLOADS[0]][0][0]["env"]
    env = {k: v for k, v in first.items() if k not in ("workload", "seed")}
    report = {"env": env, "run_seconds": spec["run_seconds"], "runs_per_set": RUNS,
              "workloads": {}}
    ok = True
    for w in WORKLOADS:
        entry = report["workloads"][w] = {}
        for name, bound in bounds.items():
            sets = [summarize([r["metrics"][name]["value"] for r in rs]) for rs in runs[w]]
            for st in sets:
                st["median_change"] = (st["median"] - sets[0]["median"]) / sets[0]["median"]
            spread_ok = all(st["spread"] <= bound for st in sets)
            median_ok = all(abs(st["median_change"]) <= bound for st in sets)
            ok &= spread_ok and median_ok and all(r["correct"] for rs in runs[w] for r in rs)
            entry[name] = {"bound": bound, "sets": sets,
                           "values": [[r["metrics"][name]["value"] for r in rs] for rs in runs[w]]}
            print(f"{w:<9} {name:<12} bound {bound:<5} "
                  + "  ".join(f"median {st['median']:.4f} spread {st['spread']:.3f} "
                              f"change {st['median_change']:+.3f}" for st in sets))
        entry["seeds"] = [[r["seed"] for r in rs] for rs in runs[w]]
        entry["elapsed_s"] = [[round(r["elapsed_s"], 2) for r in rs] for rs in runs[w]]
        entry["failed"] = sum(r["failed"] for rs in runs[w] for r in rs)
    report["within_bounds"] = ok
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"within bounds: {ok}; wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
