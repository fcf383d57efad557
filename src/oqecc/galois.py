"""Exact arithmetic in GF(p^m) and its quadratic extension GF(p^(2m)).

Field elements are encoded as integers: the base-p digits of an encoding,
least significant digit first, are the coefficients of the element in the
polynomial basis 1, X, X^2, ...  An element of GF(q) with q = p^m is an
integer in [0, q); an element of GF(q^2) is an integer in [0, q^2).  This
encoding is shared by every data format in the package.

The modulus polynomial of each field is the monic irreducible polynomial of
the required degree whose non-leading coefficients have the smallest integer
encoding, found by exhaustive search at construction time.  A context is
therefore fully determined by (p, m) and identical across runs and machines.

Both fields are one table type, _Field, built twice: addition and negation
work digit-wise on base-p digit rows; multiplication, inversion and powers
are lookups in exp/log tables of the least primitive element.  Polynomial
arithmetic runs only while those tables are built (q^2 <= 4096 elements).
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache, reduce

import numpy as np

from .errors import FieldTooLargeError, NotInSubfieldError, NotPrimeError, OutOfRangeError

MAX_FIELD_SIZE = 64


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _exceeds_field_cap(p: int, m: int) -> bool:
    """p^m > MAX_FIELD_SIZE (p >= 2, m >= 1) without building a huge p^m.  Callers
    run _is_prime only on p <= MAX_FIELD_SIZE: its trial division is endless on a huge p."""
    return p > MAX_FIELD_SIZE or m >= MAX_FIELD_SIZE.bit_length() or p**m > MAX_FIELD_SIZE


def _digits(value: int, p: int, width: int) -> tuple[int, ...]:
    """Base-p digits of value, least significant first, padded to width."""
    out = []
    for _ in range(width):
        out.append(value % p)
        value //= p
    return tuple(out)


def _undigits(digits, p: int) -> int:
    value = 0
    for d in reversed(digits):
        value = value * p + d
    return value


def _poly_rem(a, mod, p: int) -> list[int]:
    """Remainder of a (at least deg(mod) coefficients) modulo the monic mod, over F_p."""
    a = list(a)
    deg = len(mod) - 1
    for i in range(len(a) - 1, deg - 1, -1):
        if a[i]:
            for j in range(deg):
                a[i - deg + j] = (a[i - deg + j] - a[i] * mod[j]) % p
    return a[:deg]


def _least_irreducible(p: int, degree: int) -> tuple[int, ...]:
    """The least-encoded monic irreducible of the degree (at most 12), by trial division."""
    for t in range(p**degree):
        candidate = list(_digits(t, p, degree)) + [1]
        divisors = (list(_digits(s, p, d)) + [1]
                    for d in range(1, degree // 2 + 1) for s in range(p**d))
        if all(any(_poly_rem(candidate, divisor, p)) for divisor in divisors):
            return tuple(candidate)
    raise AssertionError(f"no irreducible polynomial of degree {degree} over F_{p}")


def _primitive_powers(p: int, modulus) -> list[int]:
    """g^0, g^1, ..., g^(p^k - 2) for the least primitive g of F_p[X]/(modulus)."""
    k = len(modulus) - 1
    for g in range(1, p**k):
        g_row = _digits(g, p, k)
        powers, row = [1], g_row
        while (x := _undigits(row, p)) != 1:
            powers.append(x)
            prod = [0] * (2 * k - 1)
            for i, a in enumerate(row):
                if a:
                    for j, b in enumerate(g_row):
                        prod[i + j] += a * b
            row = _poly_rem([c % p for c in prod], modulus, p)
        if len(powers) == p**k - 1:
            return powers
    raise AssertionError(f"F_{p}[X]/{modulus} has no primitive element")


class _Field:
    """GF(p^k) as tables over integer encodings.

    digits[x] is the base-p digit row of x.  exp lists the powers of the
    least primitive element twice over and log inverts it on the nonzero
    elements, so x * y = exp[log[x] + log[y]] needs no reduction.
    """

    def __init__(self, p: int, k: int):
        self.p = p
        self.size = p**k
        self.modulus = _least_irreducible(p, k)
        self.digits = tuple(_digits(x, p, k) for x in range(self.size))
        powers = _primitive_powers(p, self.modulus)
        self.exp = tuple(powers + powers)
        self.log = {x: i for i, x in enumerate(powers)}

    def check(self, x) -> int:
        x = operator.index(x)
        if not 0 <= x < self.size:
            raise OutOfRangeError(f"{x} is not an element encoding of GF({self.size})")
        return x

    def add(self, x: int, y: int) -> int:
        rows = zip(self.digits[self.check(x)], self.digits[self.check(y)])
        return _undigits([(a + b) % self.p for a, b in rows], self.p)

    def neg(self, x: int) -> int:
        return _undigits([-a % self.p for a in self.digits[self.check(x)]], self.p)

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        x, y = self.check(x), self.check(y)
        return self.exp[self.log[x] + self.log[y]] if x and y else 0

    def inv(self, x: int) -> int:
        if self.check(x) == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.size})")
        return self.exp[self.size - 1 - self.log[x]]

    def pow(self, x: int, k: int) -> int:
        if k < 0:
            x, k = self.inv(x), -k
        if self.check(x) == 0:
            return 0 if k else 1
        return self.exp[self.log[x] * k % (self.size - 1)]

    def evaluate(self, coeffs, z: int) -> int:
        """sum_i coeffs[i] z^i, for coefficients in the prime field."""
        return reduce(self.add, (self.mul(c, self.pow(z, i)) for i, c in enumerate(coeffs)))


class GfContext:
    """Arithmetic and metadata for GF(q), q = p^m, and for GF(q^2).

    Each field is a _Field: digit rows for addition, exp/log tables for
    multiplication, inversion and powers.  add_table[x, y] = x + y and
    trace_mul_table[b, x] = tr(b x) are read-only q x q numpy arrays for
    vectorized callers.  Instances are immutable after construction and safe
    to share between threads.  Build them through :func:`gf_make`, which
    caches one context per (p, m) pair.
    """

    def __init__(self, p: int, m: int):
        p, m = operator.index(p), operator.index(m)
        if p <= MAX_FIELD_SIZE and not _is_prime(p):
            raise NotPrimeError(f"p={p} is not prime")
        if m < 1:
            raise ValueError(f"extension degree m={m} must be >= 1")
        if _exceeds_field_cap(p, m):
            raise FieldTooLargeError(f"q = {p}^{m} exceeds the cap {MAX_FIELD_SIZE}")
        q = p**m

        self.p, self.m, self.q, self.q2 = p, m, q, q * q
        self._base = base = _Field(p, m)
        self._ext = ext = _Field(p, 2 * m)
        self.modulus_poly = base.modulus
        self.ext_modulus_poly = ext.modulus

        self._trace = tuple(reduce(base.add, (base.pow(x, p**i) for i in range(m)))
                            for x in range(q))
        assert max(self._trace) < p, "trace landed outside the prime field"

        # The least root of the base modulus inside GF(q^2) fixes the embedding:
        # x maps to its digit row evaluated at that root.
        root = next(z for z in range(self.q2) if ext.evaluate(self.modulus_poly, z) == 0)
        self.embed_table = tuple(ext.evaluate(row, root) for row in base.digits)
        self._embed_index = {v: x for x, v in enumerate(self.embed_table)}
        assert len(self._embed_index) == q, "embedding is not injective"
        assert self.embed_table[1] == 1

        self.beta = find_normal_beta(self)
        self.beta_q = ext.pow(self.beta, q)

        self.add_table = np.array([[base.add(x, y) for y in range(q)] for x in range(q)])
        products = np.array([[base.mul(b, x) for x in range(q)] for b in range(q)])
        self.trace_mul_table = np.array(self._trace)[products]
        self.add_table.setflags(write=False)
        self.trace_mul_table.setflags(write=False)

    # -- base field GF(q) ------------------------------------------------

    def elements(self) -> range:
        return range(self.q)

    def _check(self, x) -> int:
        return self._base.check(x)

    def add(self, x: int, y: int) -> int:
        return self._base.add(x, y)

    def neg(self, x: int) -> int:
        return self._base.neg(x)

    def sub(self, x: int, y: int) -> int:
        return self._base.sub(x, y)

    def mul(self, x: int, y: int) -> int:
        return self._base.mul(x, y)

    def inv(self, x: int) -> int:
        return self._base.inv(x)

    def pow(self, x: int, k: int) -> int:
        return self._base.pow(x, k)

    def trace(self, x: int) -> int:
        """Trace from GF(q) down to the prime field F_p."""
        return self._trace[self._base.check(x)]

    # -- quadratic extension GF(q^2) --------------------------------------

    def ext_elements(self) -> range:
        return range(self.q2)

    def ext_add(self, x: int, y: int) -> int:
        return self._ext.add(x, y)

    def ext_neg(self, x: int) -> int:
        return self._ext.neg(x)

    def ext_sub(self, x: int, y: int) -> int:
        return self._ext.sub(x, y)

    def ext_mul(self, x: int, y: int) -> int:
        return self._ext.mul(x, y)

    def ext_pow(self, x: int, k: int) -> int:
        return self._ext.pow(x, k)

    def ext_inv(self, x: int) -> int:
        return self._ext.inv(x)

    # -- moving between the fields ----------------------------------------

    def embed(self, x: int) -> int:
        """Map an element of GF(q) to its image in GF(q^2)."""
        return self.embed_table[self._base.check(x)]

    def is_embedded(self, z: int) -> bool:
        return self._ext.check(z) in self._embed_index

    def ext_to_base(self, z: int) -> int:
        """Pull an embedded extension element back to GF(q)."""
        z = self._ext.check(z)
        if z not in self._embed_index:
            raise NotInSubfieldError(
                f"{z} lies outside the embedded GF({self.q}) inside GF({self.q2})")
        return self._embed_index[z]

    def ext_trace_to_base(self, z: int) -> int:
        """Trace to F_p of an extension element known to sit in embedded GF(q)."""
        return self.trace(self.ext_to_base(z))

    # ----------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, GfContext) and (self.p, self.m) == (other.p, other.m)

    def __hash__(self) -> int:
        return hash((GfContext, self.p, self.m))

    def __repr__(self) -> str:
        return f"GfContext(p={self.p}, m={self.m})"


def find_normal_beta(ctx: GfContext) -> int:
    """Least beta in GF(q^2) such that (beta, beta^q) is a basis over GF(q).

    beta and beta^q are dependent exactly when beta^(q-1) falls inside the
    embedded base field, so the scan tests that ratio.  A normal element
    always exists for a quadratic extension.
    """
    for cand in range(1, ctx.q2):
        ratio = ctx.ext_mul(ctx.ext_pow(cand, ctx.q), ctx.ext_inv(cand))
        if not ctx.is_embedded(ratio):
            return cand
    raise AssertionError("no normal basis element found; impossible for q >= 2")


@lru_cache(maxsize=None)
def gf_make(p: int, m: int) -> GfContext:
    """Build (or fetch the cached) context for GF(p^m), p prime, p^m <= 64."""
    return GfContext(p, m)
