"""Independent brute-force oracles used to freeze and cross-check expectations.

Everything here avoids the library's linear-algebra paths: spans are built
by enumerating coefficient combinations over plain tuples, duals by scanning
the whole ambient space against the pairing, weights by direct counting,
subspace families by enumerating echelon matrices cell by cell, error
operators as kron chains of per-site matrices, restrictions to the code
space as dense P e P sandwiches, field arithmetic as polynomial
arithmetic on digit rows, and row reduction as a scalar loop over one
matrix's rows (scalar_rref, scalar_nullspace), the loop the library's
stacked elimination replaced.  Three exceptions read the library:
check_detectable, the code-subspace test lambda I_K that the verifier itself
no longer runs, reads its K x K restriction, which the sandwich tests check;
full_scan_distance, the whole-ambient-space scan the exhaustive distance
method replaced, reads its parity checks, which the brute duals check; and
candidate_record, the per-candidate search evaluation that block evaluation
replaced, builds one code object and its parameters per draw.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from oqecc import code_params, verifier
from oqecc.additive_code import AdditiveCode, CodeVector, SYMPLECTIC
from oqecc.code_params import BASIS, _distance_json, subsystem_params


class PolyField:
    """GF(p^k) as F_p[X]/(modulus) on base-p digit rows, least significant
    first: a schoolbook product and a long division on every multiplication,
    Fermat's little theorem for inverses."""

    def __init__(self, p, modulus):
        self.p = p
        self.modulus = tuple(modulus)
        self.k = len(modulus) - 1
        self.size = p**self.k
        self.rows = [[(x // p**i) % p for i in range(self.k)] for x in range(self.size)]
        self.weights = [p**i for i in range(self.k)]

    def row(self, x):
        return self.rows[x]

    def value(self, row):
        return sum(d * w for d, w in zip(row, self.weights))

    def add(self, x, y):
        return self.value([(a + b) % self.p for a, b in zip(self.row(x), self.row(y))])

    def neg(self, x):
        return self.value([-a % self.p for a in self.row(x)])

    def mul(self, x, y):
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, a in enumerate(self.row(x)):
            if a:
                for j, b in enumerate(self.row(y)):
                    prod[i + j] = (prod[i + j] + a * b) % p
        for top in range(2 * k - 2, k - 1, -1):  # subtract prod[top] X^(top-k) modulus
            lead = prod[top]
            for j, c in enumerate(self.modulus):
                prod[top - k + j] = (prod[top - k + j] - lead * c) % p
        return self.value(prod[:k])

    def pow(self, x, e):
        if e < 0:
            x, e = self.inv(x), -e
        out = 1
        while e:
            if e & 1:
                out = self.mul(out, x)
            x = self.mul(x, x)
            e >>= 1
        return out

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.pow(x, self.size - 2)


def coords_from_digits(ctx, layout, digits):
    width = ctx.m if layout == SYMPLECTIC else 2 * ctx.m
    out = []
    for i in range(0, len(digits), width):
        out.append(sum(int(d) * ctx.p**k for k, d in enumerate(digits[i : i + width])))
    return tuple(out)


def digits_from_coords(ctx, layout, coords):
    width = ctx.m if layout == SYMPLECTIC else 2 * ctx.m
    out = []
    for c in coords:
        for _ in range(width):
            out.append(c % ctx.p)
            c //= ctx.p
    return tuple(out)


def brute_span(p, gens):
    """All F_p combinations of the given digit tuples, as a set."""
    if not gens:
        return set()
    width = len(gens[0])
    vectors = set()
    for coeffs in itertools.product(range(p), repeat=len(gens)):
        v = [0] * width
        for c, g in zip(coeffs, gens):
            if c:
                for j in range(width):
                    v[j] = (v[j] + c * g[j]) % p
        vectors.add(tuple(v))
    return vectors


def brute_symplectic_form(ctx, u, v):
    """tr(a'.b - a.b') on coordinate tuples u = (a|b), v = (a'|b')."""
    n = len(u) // 2
    acc = 0
    for i in range(n):
        term = ctx.sub(ctx.mul(v[i], u[n + i]), ctx.mul(u[i], v[n + i]))
        acc = ctx.add(acc, term)
    return ctx.trace(acc)


def brute_trace_alternating_form(ctx, v, w):
    q = ctx.q
    beta = ctx.beta
    denom = ctx.ext_sub(ctx.ext_pow(beta, 2 * q), ctx.ext_pow(beta, 2))
    acc = 0
    for vi, wi in zip(v, w):
        term = ctx.ext_sub(
            ctx.ext_mul(vi, ctx.ext_pow(wi, q)), ctx.ext_mul(ctx.ext_pow(vi, q), wi)
        )
        acc = ctx.ext_add(acc, term)
    return ctx.ext_trace_to_base(ctx.ext_mul(acc, ctx.ext_inv(denom)))


def brute_form(ctx, layout, u, v):
    if layout == SYMPLECTIC:
        return brute_symplectic_form(ctx, u, v)
    return brute_trace_alternating_form(ctx, u, v)


def all_coord_vectors(ctx, n, layout):
    size = ctx.q if layout == SYMPLECTIC else ctx.q2
    count = 2 * n if layout == SYMPLECTIC else n
    # First coordinate least significant, matching the encoding-index order.
    for coords in itertools.product(range(size), repeat=count):
        yield tuple(reversed(coords))


def brute_dual(ctx, n, layout, subset):
    """All vectors pairing to zero against every element of the subset."""
    out = set()
    for cand in all_coord_vectors(ctx, n, layout):
        if all(brute_form(ctx, layout, s, cand) == 0 for s in subset):
            out.add(cand)
    return out


def brute_weight(layout, coords):
    if layout == SYMPLECTIC:
        n = len(coords) // 2
        return sum(1 for i in range(n) if coords[i] or coords[n + i])
    return sum(1 for c in coords if c)


def encoding_key(ctx, layout, coords):
    width = ctx.m if layout == SYMPLECTIC else 2 * ctx.m
    value = 0
    for c in reversed(coords):
        value = value * ctx.p**width + c
    return value


def brute_min_distance(ctx, n, layout, x_set):
    """(d, witness coords) over dual(hull) - X, scanned from raw sets."""
    hull = {v for v in x_set if all(brute_form(ctx, layout, u, v) == 0 for u in x_set)}
    hull_dual = brute_dual(ctx, n, layout, hull)
    difference = hull_dual - x_set
    if not difference:
        return float("inf"), None
    best = min(difference, key=lambda c: (brute_weight(layout, c), encoding_key(ctx, layout, c)))
    return brute_weight(layout, best), best


def full_scan_distance(code):
    """(d, witness) over dual(hull) - X from a parity-check test of every one
    of the p^(2nm) ambient vectors, in encoding order, so the first hit at the
    least weight has the least key; (UNBOUNDED, None) when there is no hit."""
    p, hull_dual = code.ctx.p, code.hull().dual()
    best = None
    for digits in code_params._digit_chunks(p, code.num_columns):
        hits = digits[code_params._bulk_membership(digits, hull_dual)
                      & ~code_params._bulk_membership(digits, code)]
        if not len(hits):
            continue
        weights = code_params._bulk_weights(hits, code.ctx.m, code.n, code.layout)
        w = int(weights.min())
        if best is None or w < best[0]:
            best = w, hits[np.argmax(weights == w)]
    if best is None:
        return code_params.UNBOUNDED, None
    return best[0], CodeVector.from_digits(code.ctx, code.layout, best[1])


def scalar_rref(mat, p):
    """RREF over F_p of one matrix by a row loop: (nonzero rows, pivot columns).
    The library eliminates whole stacks of matrices at once instead."""
    a = np.array(mat, dtype=np.int64) % p
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hits = np.nonzero(a[r:, c])[0]
        if hits.size == 0:
            continue
        pivot = r + int(hits[0])
        if pivot != r:
            a[[r, pivot]] = a[[pivot, r]]
        a[r] = (a[r] * pow(int(a[r, c]), -1, p)) % p
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] = (a[i] - a[i, c] * a[r]) % p
        pivots.append(c)
        r += 1
    return a[:r], tuple(pivots)


def scalar_nullspace(mat, p):
    """RREF basis of the right kernel of one matrix, from scalar_rref."""
    mat = np.asarray(mat, dtype=np.int64)
    cols = mat.shape[1]
    red, pivots = scalar_rref(mat, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, f in enumerate(free):
        basis[i, f] = 1
        for row, pc in zip(red, pivots):
            basis[i, pc] = (-row[f]) % p
    return scalar_rref(basis, p)[0]


def candidate_record(index, seed, ctx, n, rows):
    """One search record from its own code object, or None for the zero span:
    the per-candidate evaluation the search replaced by block evaluation."""
    code = AdditiveCode.from_digit_rows(ctx, n, SYMPLECTIC, rows)
    if code.is_zero():
        return None
    params = subsystem_params(code, distance_method=BASIS)
    n_minus_r, k, _ = params.stabilizer_comparison_key()
    return {
        "index": index,
        "seed": seed,
        "p": ctx.p,
        "m": ctx.m,
        "n": n,
        "layout": SYMPLECTIC,
        "generators": [list(row) for row in code.generator_rows()],
        "params": params.to_json(),
        "distance_method": params.distance_method,
        "stabilizer_key": [str(n_minus_r), str(k), _distance_json(params.d)],
    }


def echelon_bases(p, cols):
    """Every subspace of F_p^cols exactly once, as echelon basis row tuples."""
    yield ()
    for k in range(1, cols + 1):
        for pivots in itertools.combinations(range(cols), k):
            free_cells = []
            for i, ci in enumerate(pivots):
                for c in range(ci + 1, cols):
                    if c not in pivots:
                        free_cells.append((i, c))
            for fill in itertools.product(range(p), repeat=len(free_cells)):
                rows = [[0] * cols for _ in range(k)]
                for i, ci in enumerate(pivots):
                    rows[i][ci] = 1
                for (i, c), value in zip(free_cells, fill):
                    rows[i][c] = value
                yield tuple(tuple(r) for r in rows)


def random_code(rng: random.Random, ctx, n, layout=SYMPLECTIC, nonzero=True):
    """A random canonical code from a uniform generator-matrix draw."""
    cols = 2 * n * ctx.m
    while True:
        target = rng.randint(1, max(1, cols - 1))
        rows = [[rng.randrange(ctx.p) for _ in range(cols)] for _ in range(target)]
        code = AdditiveCode.from_digit_rows(ctx, n, layout, rows)
        if not (nonzero and code.is_zero()):
            return code


def bacon_shor(ctx, rows, cols):
    """Bacon-Shor on a rows x cols grid (qubit cols*r + c) from its gauge
    generators: XX on vertical neighbours (a half), ZZ on horizontal ones (b half)."""
    n = rows * cols
    pairs = [(i, i + cols, 0) for i in range(n - cols)]
    pairs += [(i, i + 1, n) for i in range(n) if i % cols < cols - 1]
    gens = [tuple(int(c in (i + half, j + half)) for c in range(2 * n)) for i, j, half in pairs]
    return AdditiveCode.from_generators(ctx, n, SYMPLECTIC, gens)


def code_vector_set(code: AdditiveCode) -> set:
    return {v.coords for v in code.vectors()}


def _single_x(ctx, a):
    mat = np.zeros((ctx.q, ctx.q), dtype=np.complex128)
    for x in range(ctx.q):
        mat[ctx.add(x, a), x] = 1.0
    return mat


def _single_z(ctx, b):
    omega = np.exp(2j * np.pi / ctx.p)
    return np.diag([omega ** ctx.trace(ctx.mul(b, x)) for x in range(ctx.q)])


def kron_lift(ctx, a, b, phase_exp=0):
    """Dense X(a)Z(b) times the global phase, as a kron chain of per-site
    X(a_i) Z(b_i) matrices with the first coordinate leftmost."""
    mat = np.eye(1, dtype=np.complex128)
    for ai, bi in zip(a, b):
        mat = np.kron(mat, _single_x(ctx, ai) @ _single_z(ctx, bi))
    modulus = 2 * ctx.p if ctx.p == 2 else ctx.p
    return mat * np.exp(2j * np.pi * phase_exp / modulus)


def sandwich(P, e):
    """P e P: the dense q^n x q^n restriction of e to the code space of P."""
    return P @ e @ P


def check_detectable(projector, error):
    """Whether V^dagger e V = lambda I_K, with lambda = Tr(V^dagger e V)/K when it holds.

    This is the code-subspace criterion; gauge errors that merely act inside
    the co-subsystem fail it without harming the encoded information (see
    verifier.verify_detectability)."""
    restricted = verifier._restrict(projector, error)
    lam = complex(np.trace(restricted) / projector.rank)
    if np.abs(restricted - lam * np.eye(projector.rank)).max() <= verifier.OPERATOR_TOL:
        return True, lam
    return False, None
