"""The JSON code-file format.

A code file is a single JSON object:

    {"p": 2, "m": 1, "n": 2, "layout": "symplectic",
     "generators": [[1, 1, 0, 0]]}

Generator entries are element encodings in the package's little-endian
base-p convention; rows have 2n entries in the symplectic layout and n in
the Hermitian layout.  Parsing canonicalizes, so parse(emit(parse(f))) and
parse(f) agree.
"""

from __future__ import annotations

import json
import os
from typing import Any

from .additive_code import AdditiveCode, LAYOUTS, _coord_count, _coord_size
from .errors import (
    FieldTooLargeError,
    InvalidEncodingError,
    NotPrimeError,
    ParseError,
)
from .galois import gf_make

_REQUIRED_FIELDS = ("p", "m", "n", "layout", "generators")


def _require_int(obj: dict, name: str, source: str) -> int:
    value = obj[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{source}: field {name!r} must be an integer, got {value!r}")
    return value


def code_from_json(obj: Any, source: str = "<memory>") -> AdditiveCode:
    """Validate a decoded JSON object and build the canonical code."""
    if not isinstance(obj, dict):
        raise ParseError(f"{source}: top level must be a JSON object")
    missing = [f for f in _REQUIRED_FIELDS if f not in obj]
    if missing:
        raise ParseError(f"{source}: missing fields {missing}")
    p = _require_int(obj, "p", source)
    m = _require_int(obj, "m", source)
    n = _require_int(obj, "n", source)
    layout = obj["layout"]
    if layout not in LAYOUTS:
        raise ParseError(f"{source}: field 'layout' must be one of {list(LAYOUTS)}, got {layout!r}")
    if n < 1:
        raise ParseError(f"{source}: field 'n' must be >= 1, got {n}")
    try:
        ctx = gf_make(p, m)
    except (NotPrimeError, FieldTooLargeError, ValueError) as exc:
        raise ParseError(f"{source}: invalid field parameters p={p}, m={m}: {exc}") from exc

    generators = obj["generators"]
    if not isinstance(generators, list):
        raise ParseError(f"{source}: field 'generators' must be a list of rows")
    expected_len = _coord_count(n, layout)
    size = _coord_size(ctx, layout)
    rows = []
    for idx, row in enumerate(generators):
        if not isinstance(row, list) or len(row) != expected_len:
            raise ParseError(
                f"{source}: generator {idx} must be a list of {expected_len} encodings"
            )
        for entry in row:
            if isinstance(entry, bool) or not isinstance(entry, int):
                raise ParseError(f"{source}: generator {idx} has non-integer entry {entry!r}")
            if not 0 <= entry < size:
                raise InvalidEncodingError(
                    f"{source}: generator {idx} entry {entry} is not below {size}"
                )
        rows.append(tuple(row))
    return AdditiveCode.from_generators(ctx, n, layout, rows)


def parse_code_file(path: str | os.PathLike) -> AdditiveCode:
    """Read, validate, and canonicalize a code file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:  # a ValueError, which the CLI reads as a usage error
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    return code_from_json(obj, source=str(path))


def code_to_json(code: AdditiveCode) -> dict:
    return {
        "p": code.ctx.p,
        "m": code.ctx.m,
        "n": code.n,
        "layout": code.layout,
        "generators": [list(row) for row in code.generator_rows()],
    }


def emit_code_file(code: AdditiveCode, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(code_to_json(code), handle, indent=2, sort_keys=True)
        handle.write("\n")
