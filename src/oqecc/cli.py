"""Command-line interface.

Subcommands: params, mindist, dual, verify, search.  Exit codes are stable:
0 success, 1 other domain errors, 2 zero code, 3 desk-scale cap exceeded,
4 parse/validation error, 5 theory violation or failed verification check,
64 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .additive_code import HERMITIAN
from .code_params import (
    EXHAUSTIVE,
    METHODS,
    _distance_json,
    min_distance_with_witness,
    subsystem_params,
)
from .codefile import emit_code_file, parse_code_file
from .errors import (
    CapExceededError,
    OqeccError,
    ParseError,
    TheoryViolationError,
    ZeroCodeError,
)
from .search import run_search
from .verifier import ALL_CHECKS, run_checks

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ZERO_CODE = 2
EXIT_CAP = 3
EXIT_PARSE = 4
EXIT_THEORY = 5
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit code 2 free for ZeroCode
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def cmd_params(args) -> int:
    code = parse_code_file(args.input)
    params = subsystem_params(code, distance_method=args.method)
    if args.json:
        record = {
            **params.to_json(),
            "dim_c": params.dim_c,
            "distance_method": params.distance_method,
            "quartet": params.quartet(),
        }
        print(json.dumps(record, sort_keys=True))
    else:
        print(f"code: {params.quartet()}   {params.dimension_form()}")
        print(f"  n={params.n} q={params.q} |X|={params.x} |Y|={params.y}")
        print(f"  dim A={params.dim_a} dim B={params.dim_b} dim C={params.dim_c}")
        print(f"  k={params.k} r={params.r} d={_distance_json(params.d)} ({params.distance_method})")
    return EXIT_OK


def cmd_mindist(args) -> int:
    code = parse_code_file(args.input)
    d, witness = min_distance_with_witness(code, method=args.method)
    if args.json:
        record = {
            "d": _distance_json(d),
            "method": args.method,
            "witness": list(witness.coords) if witness is not None else None,
        }
        print(json.dumps(record, sort_keys=True))
    else:
        print(f"d = {_distance_json(d)} (method {args.method})")
        if witness is not None:
            print(f"  witness {witness!r}")
    return EXIT_OK


def cmd_dual(args) -> int:
    code = parse_code_file(args.input)
    dual = code.dual()
    emit_code_file(dual, args.output)
    print(f"wrote dual code (rank {dual.rank}, |X^perp| = {dual.size}) to {args.output}")
    return EXIT_OK


def cmd_verify(args) -> int:
    code = parse_code_file(args.input)
    if code.layout == HERMITIAN:
        # The verifier works on (a|b) vectors; the isometry preserves
        # everything being certified.
        code = code.phi_preimage()
        print("note: hermitian input converted to the symplectic layout", file=sys.stderr)
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    unknown = [c for c in checks if c not in ALL_CHECKS]
    if unknown or not checks:
        problem = f"unknown checks {unknown}" if unknown else "no checks selected"
        raise ParseError(f"{problem}; available: {','.join(ALL_CHECKS)}")
    reports = run_checks(code, checks)
    if args.json:
        payload = [
            {
                "check": r.check,
                "passed": r.passed,
                "witnesses": list(r.witnesses),
                "details": {k: str(v) for k, v in r.details.items()},
            }
            for r in reports
        ]
        # A support witness carries its trace as a complex: written as str.
        print(json.dumps(payload, sort_keys=True, default=str))
    else:
        for r in reports:
            status = "pass" if r.passed else "FAIL"
            detail = " ".join(f"{k}={v}" for k, v in r.details.items())
            print(f"{r.check:<8} {status}  {detail}")
            if not r.passed:
                for witness in r.witnesses[:5]:
                    print(f"  witness: {witness}")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_THEORY


def cmd_search(args) -> int:
    records, pareto = run_search(
        args.p, args.m, args.n, args.count, args.seed, args.output, jobs=args.jobs
    )
    print(f"evaluated {args.count} candidates, kept {len(records)} records -> {args.output}")
    print(f"{'k':>6} {'r':>6} {'best d':>10}  stabilizer needs")
    for (k, r), d in sorted(pareto.items()):
        footprint = Fraction(args.n) - r
        best = _distance_json(d)
        print(f"{str(k):>6} {str(r):>6} {best:>10}  [[{footprint},{k},{best}]]")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="oqecc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_params = sub.add_parser("params", help="subsystem parameters [[n,k,r,d]]_q of a code file")
    p_params.add_argument("-i", "--input", required=True)
    p_params.add_argument("--json", action="store_true")
    p_params.add_argument("--method", choices=METHODS, default=EXHAUSTIVE)
    p_params.set_defaults(func=cmd_params)

    p_mindist = sub.add_parser("mindist", help="minimum distance with a witness")
    p_mindist.add_argument("-i", "--input", required=True)
    p_mindist.add_argument("--method", choices=METHODS, default=EXHAUSTIVE)
    p_mindist.add_argument("--json", action="store_true")
    p_mindist.set_defaults(func=cmd_mindist)

    p_dual = sub.add_parser("dual", help="write the dual code to a new file")
    p_dual.add_argument("-i", "--input", required=True)
    p_dual.add_argument("-o", "--output", required=True)
    p_dual.set_defaults(func=cmd_dual)

    p_verify = sub.add_parser("verify", help="numeric certification checks")
    p_verify.add_argument("-i", "--input", required=True)
    p_verify.add_argument("--checks", default=",".join(ALL_CHECKS))
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_search = sub.add_parser("search", help="seeded random search, JSON-lines log")
    p_search.add_argument("-p", type=int, required=True)
    p_search.add_argument("-m", type=int, required=True)
    p_search.add_argument("-n", type=int, required=True)
    p_search.add_argument("--count", type=int, required=True)
    p_search.add_argument("--seed", type=int, required=True)
    p_search.add_argument("-o", "--output", required=True)
    p_search.add_argument("--jobs", type=int, default=1)
    p_search.set_defaults(func=cmd_search)

    return parser


# Checked in order, so a subclass must come before its base.
_EXIT_CODES = {
    BrokenPipeError: EXIT_ERROR,
    ValueError: EXIT_USAGE,
    ZeroCodeError: EXIT_ZERO_CODE,
    CapExceededError: EXIT_CAP,
    ParseError: EXIT_PARSE,
    TheoryViolationError: EXIT_THEORY,
    OqeccError: EXIT_ERROR,
    OSError: EXIT_ERROR,
}


def _drop_stdout() -> None:
    """Point stdout at devnull, so the interpreter's final flush of a closed
    pipe raises nothing at exit."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # no file descriptor, or already closed
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return status
    except tuple(_EXIT_CODES) as exc:
        kind = next(k for k in _EXIT_CODES if isinstance(exc, k))
        if kind is BrokenPipeError:
            _drop_stdout()  # the reader is gone: exit quietly
        else:
            print(f"{'io error' if kind is OSError else 'error'}: {exc}", file=sys.stderr)
        return _EXIT_CODES[kind]


if __name__ == "__main__":
    sys.exit(main())
