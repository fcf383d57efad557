"""Deterministic code files for the benchmark.

Nothing here imports oqecc.  The field tables, the F_p linear algebra and the
symplectic Gram matrix are written out a second time, so the expected n, k and
r of every generated file come from an implementation independent of the
program under test.  The tables use oqecc's file-format conventions: an
element of GF(p^m) is the integer whose base-p digits, least significant
first, are its polynomial-basis coefficients, and the Hermitian layout stores
phi((a|b)) = beta*a + beta^q*b per coordinate.

Random codes are drawn with a prescribed F_p rank and hull rank.  The cost of
every oqecc command on a file depends on those two numbers (the projector
rank is q^n / p^hull, the basis distance sweep has p^(2nm - hull) vectors),
so fixing them keeps each file's cost the same from one benchmark seed to the
next while the code itself changes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

SYMPLECTIC = "symplectic"
HERMITIAN = "hermitian"

# GF(q) multiplication and trace-to-F_p tables, keyed by (p, m).  GF(4) is
# F_2[X]/(X^2 + X + 1), with 2 = X and 3 = X + 1.
_MUL = {
    (2, 1): ((0, 0), (0, 1)),
    (3, 1): ((0, 0, 0), (0, 1, 2), (0, 2, 1)),
    (2, 2): ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2)),
}
_TRACE = {(2, 1): (0, 1), (3, 1): (0, 1, 2), (2, 2): (0, 0, 1, 1)}
# phi((a|b)) as PHI[a][b], an encoding in GF(q^2).
_PHI = {
    (2, 1): ((0, 3), (2, 1)),
    (3, 1): ((0, 7, 5), (4, 2, 6), (8, 3, 1)),
    (2, 2): ((0, 3, 10, 9), (2, 1, 8, 11), (12, 15, 6, 5), (14, 13, 4, 7)),
}


# -- F_p linear algebra -------------------------------------------------------


def rref(mat: np.ndarray, p: int) -> np.ndarray:
    """Nonzero rows of the reduced row-echelon form over F_p."""
    a = np.array(mat, dtype=np.int64) % p
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hits = np.nonzero(a[r:, c])[0]
        if hits.size == 0:
            continue
        pivot = r + int(hits[0])
        a[[r, pivot]] = a[[pivot, r]]
        a[r] = (a[r] * pow(int(a[r, c]), -1, p)) % p
        others = np.nonzero(a[:, c])[0]
        for i in others[others != r]:
            a[i] = (a[i] - a[i, c] * a[r]) % p
        r += 1
    return a[:r]


def rank(mat: np.ndarray, p: int) -> int:
    return 0 if len(mat) == 0 else rref(mat, p).shape[0]


def nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis rows of {v : mat @ v = 0} over F_p."""
    cols = mat.shape[1]
    red = rref(mat, p)
    pivots = [int(np.argmax(row != 0)) for row in red]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, f in enumerate(free):
        basis[i, f] = 1
        for row, pc in zip(red, pivots):
            basis[i, pc] = (-row[f]) % p
    return basis


# -- the symplectic form on F_p digit columns ---------------------------------


def gram(p: int, m: int, n: int) -> np.ndarray:
    """Gram matrix of tr(a'.b - a.b') on the 2nm digit columns of (a|b)."""
    mul, trace = _MUL[(p, m)], _TRACE[(p, m)]
    cols = 2 * n * m
    g = np.zeros((cols, cols), dtype=np.int64)
    for i in range(n):
        for s in range(m):
            for t in range(m):
                value = trace[mul[p**s][p**t]]
                a_col, b_col = i * m + s, (n + i) * m + t
                g[a_col, b_col] = (-value) % p
                g[b_col, a_col] = value
    return g


def hull_rank(rows: np.ndarray, p: int, m: int, n: int) -> int:
    """F_p dimension of span(rows) intersected with its symplectic dual."""
    basis = rref(rows, p)
    return basis.shape[0] - rank((basis @ gram(p, m, n) @ basis.T) % p, p)


# -- code files ----------------------------------------------------------------


@dataclass(frozen=True)
class CodeSpec:
    """One generated code file and what the benchmark expects of it."""

    name: str
    p: int
    m: int
    n: int
    layout: str
    rows: np.ndarray  # F_p digit rows of the symplectic (a|b) form
    rank: int
    hull: int
    distance: int | None = None  # known for textbook codes only

    @property
    def q(self) -> int:
        return self.p**self.m

    @property
    def k(self) -> Fraction:
        return Fraction(self.n * self.m - (self.rank + self.hull) // 2, self.m)

    @property
    def r(self) -> Fraction:
        return Fraction((self.rank - self.hull) // 2, self.m)

    def generators(self) -> list[list[int]]:
        """Rows as coordinate encodings in the file's layout."""
        p, m, n = self.p, self.m, self.n
        weights = p ** np.arange(m)
        coords = (self.rows.reshape(len(self.rows), 2 * n, m) * weights).sum(axis=2)
        if self.layout == SYMPLECTIC:
            return coords.tolist()
        phi = _PHI[(p, m)]
        return [[phi[row[i]][row[n + i]] for i in range(n)] for row in coords.tolist()]

    def write(self, directory: str) -> str:
        path = os.path.join(directory, f"{self.name}.json")
        obj = {"p": self.p, "m": self.m, "n": self.n, "layout": self.layout,
               "generators": self.generators()}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(obj, handle)
        return path


def random_code(name: str, seed: int, p: int, m: int, n: int, rank_x: int, hull: int,
                layout: str = SYMPLECTIC) -> CodeSpec:
    """A seeded code of F_p rank rank_x whose hull has F_p rank hull.

    The hull part is a random isotropic subspace; the rest are hyperbolic
    pairs (u, w) orthogonal to everything drawn before, with <u, w> != 0, so
    the radical of the span is exactly the isotropic part.
    """
    if (rank_x - hull) % 2 or rank_x + hull > 2 * n * m:
        raise ValueError(f"{name}: no code of rank {rank_x} with hull rank {hull}")
    # The file name salts the stream so that files of one seed differ.
    rng = np.random.default_rng([seed, *name.encode()])
    g = gram(p, m, n)
    cols = 2 * n * m
    chosen = np.zeros((0, cols), dtype=np.int64)

    def draw() -> np.ndarray:
        space = nullspace((chosen @ g) % p, p) if len(chosen) else np.eye(cols, dtype=np.int64)
        while True:
            v = (rng.integers(0, p, len(space)) @ space) % p
            if rank(np.vstack([chosen, v]), p) > len(chosen):
                return v

    for _ in range(hull):
        chosen = np.vstack([chosen, draw()])
    for _ in range((rank_x - hull) // 2):
        u = draw()
        w = draw()
        while not (u @ g @ w) % p:
            w = draw()
        chosen = np.vstack([chosen, u, w])
    assert rank(chosen, p) == rank_x and hull_rank(chosen, p, m, n) == hull
    return CodeSpec(name, p, m, n, layout, chosen, rank_x, hull)


def _pauli_rows(n: int, paulis: list[str]) -> np.ndarray:
    """Qubit (a|b) rows from strings over I, X, Y, Z."""
    rows = np.zeros((len(paulis), 2 * n), dtype=np.int64)
    for r, word in enumerate(paulis):
        for i, ch in enumerate(word):
            rows[r, i] = ch in "XY"
            rows[r, n + i] = ch in "ZY"
    return rows


def _textbook(name: str, n: int, paulis: list[str], distance: int) -> CodeSpec:
    rows = _pauli_rows(n, paulis)
    return CodeSpec(name, 2, 1, n, SYMPLECTIC, rows, rank(rows, 2), hull_rank(rows, 2, 1, n),
                    distance)


def five_qubit() -> CodeSpec:
    """The [[5,1,3]] code from the cyclic shifts of XZZXI."""
    return _textbook("five_qubit", 5, ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"], 3)


def steane() -> CodeSpec:
    """The [[7,1,3]] code: X and Z checks of the [7,4,3] Hamming code."""
    checks = ["0001111", "0110011", "1010101"]
    gens = [c.replace("0", "I").replace("1", t) for t in "XZ" for c in checks]
    return _textbook("steane", 7, gens, 3)


def bacon_shor(rows: int, cols: int) -> CodeSpec:
    """Bacon-Shor on a rows x cols grid from its two-qubit gauge generators:
    XX on vertical neighbours and ZZ on horizontal neighbours."""
    n = rows * cols

    def pair(kind: str, i: int, j: int) -> str:
        word = ["I"] * n
        word[i] = word[j] = kind
        return "".join(word)

    gens = [pair("X", r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    gens += [pair("Z", r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    return _textbook(f"bacon_shor_{rows}x{cols}", n, gens, min(rows, cols))


def trivial() -> CodeSpec:
    """[[2,1,0,1]]_2, the README example: the cheapest file the CLI accepts."""
    return _textbook("trivial", 2, ["XX"], 1)


def verify_files(seed: int) -> list[CodeSpec]:
    """q^n from 32 to 128 over GF(2), GF(3) and GF(4); the projector rank
    K = q^n / p^hull runs from 2 (stabilizer codes) to q^n (hull 0)."""
    return [
        five_qubit(),
        random_code("rand_q2_n5_her", seed, 2, 1, 5, 2, 0, HERMITIAN),
        random_code("rand_q2_n6", seed, 2, 1, 6, 6, 2),
        random_code("rand_q3_n4", seed, 3, 1, 4, 3, 1),
        random_code("rand_q4_n3_her", seed, 2, 2, 3, 4, 2, HERMITIAN),
        steane(),
    ]


def cap_file(seed: int) -> CodeSpec:
    """q^n = 8192, above the default dense-matrix cap of 4096."""
    return random_code("rand_q2_n13_cap", seed, 2, 1, 13, 2, 0)


def distance_files(seed: int) -> list[CodeSpec]:
    """2^18 to 2^24 ambient F_p vectors, both layouts, d = 1 to 3."""
    return [
        bacon_shor(3, 3),
        bacon_shor(3, 4),
        random_code("rand_q2_n10_her", seed, 2, 1, 10, 8, 2, HERMITIAN),
        random_code("rand_q3_n7", seed, 3, 1, 7, 6, 2),
        random_code("rand_q4_n6_her", seed, 2, 2, 6, 10, 4, HERMITIAN),
    ]
