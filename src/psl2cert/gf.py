"""Arithmetic in F_p and its extensions F_{p^k} for k <= 4.

A field context fixes the prime p, the degree k and a monic irreducible
modulus of degree k over F_p.  Elements are residues modulo that modulus,
held as coefficient tuples (constant coefficient first) or, column-wise, as
(k, n) coefficient arrays; each has an integer encoding sum(c_i * p^i),
which indexes the precomputed tables.  There is no element class: `decode`
gives an element's tuple, a product is `poly_mul` then `poly_mod` by the
modulus, and `mul_arrays` multiplies whole arrays.  The element-at-a-time
field is a test oracle (tests/slow_paths.py).  The quadratic-character
table is -1 except at 0 (0) and at the encodings of the squares x*x (+1),
which `squares` computes once per table.  Every field has
q <= CHI_TABLE_MAX_Q: `field_size` refuses a larger one before a context
or a modulus search starts, so the table is the one character path, and
its bound is what refuses Full mode (F_{p^4}) from p = 37 on.

Contexts are immutable and safe to share; `fq_ctx` returns a cached
deterministic context whose modulus is the lexicographically smallest
monic irreducible of its degree, so results reproduce bit-for-bit.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .modarith import OutOfRangeError, is_prime
from .qpoly import power, trim

CHI_TABLE_MAX_Q = 1 << 20  # the largest field: every count reads its q-entry character table

Poly = tuple[int, ...]  # coefficients over F_p, constant term first


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (dense tuples, constant coefficient first)


def poly_mul(a: Poly, b: Poly, p: int) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return trim(out)


def poly_mod(a: Poly, m: Poly, p: int) -> Poly:
    """Remainder of a modulo the monic polynomial m."""
    r = list(a)
    dm = len(m) - 1
    while len(r) - 1 >= dm and r:
        lead = r[-1] % p
        if lead:
            shift = len(r) - 1 - dm
            for i in range(dm + 1):
                r[shift + i] = (r[shift + i] - lead * m[i]) % p
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return tuple(r)


def poly_eval(a: Poly, x: int, p: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def _coprime(a: Poly, b: Poly, p: int) -> bool:
    """Whether gcd(a, b) = 1 over F_p (Euclid, each divisor made monic)."""
    while b:
        inv = pow(b[-1], -1, p)
        a, b = b, poly_mod(a, tuple(c * inv % p for c in b), p)
    return len(a) == 1


def _has_root(m: Poly, p: int) -> bool:
    return any(poly_eval(m, c, p) == 0 for c in range(p))


def _monic_polys(p: int, d: int):
    """Monic degree-d polynomials over F_p in lexicographic order.

    Order is on the coefficient tuple read from the t^(d-1) coefficient
    down to the constant term.
    """
    for high_to_low in itertools.product(range(p), repeat=d):
        yield tuple(reversed(high_to_low)) + (1,)


def is_irreducible(m: Poly, p: int) -> bool:
    """Exact test for monic m of degree <= 4: a root check in degrees 2 and 3
    (reducible only through a linear factor), Rabin's test in degree 4:
    x^(p^2) - x is the product of the monic irreducibles of degree 1 and 2,
    so m is irreducible iff gcd(m, x^(p^2) - x) = 1, in O(log p) products."""
    d = len(m) - 1
    if d < 1 or d > 4:
        raise ValueError("degree out of range 1..4")
    if d < 4:
        return d == 1 or not _has_root(m, p)
    frob = list(power((0, 1), p * p, (1,), lambda a, b: poly_mod(poly_mul(a, b, p), m, p))) + [0, 0]
    frob[1] -= 1
    return _coprime(m, trim([c % p for c in frob]), p)


def field_size(p: int, k: int) -> int:
    """q = p^k for an odd prime p and 1 <= k <= 4; OutOfRangeError when q
    exceeds CHI_TABLE_MAX_Q, before any work on the field."""
    if not is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")
    if not 1 <= k <= 4:
        raise ValueError(f"extension degree must be 1..4, got {k}")
    q = p**k
    if q > CHI_TABLE_MAX_Q:
        raise OutOfRangeError(f"field of size {p}^{k} = {q} exceeds the {CHI_TABLE_MAX_Q}-entry character table")
    return q


class FieldCtx:
    """Context for F_{p^k}: prime, degree, monic irreducible modulus."""

    __slots__ = ("p", "k", "q", "modulus", "_chi", "_squares")

    def __init__(self, p: int, k: int, modulus: Poly):
        self.q = field_size(p, k)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if not is_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self.k = k
        self.modulus = tuple(c % p for c in modulus)
        self._chi = None
        self._squares = None

    # -- coefficient tuples, arrays and encodings -------------------------------

    def decode(self, enc: int) -> Poly:
        """The k coefficients of the element with encoding enc."""
        return tuple(enc // self.p**i % self.p for i in range(self.k))

    def encode_arrays(self, coeffs):
        """Encodings of a (k, n) coefficient array, row i holding t^i."""
        return np.ravel_multi_index(tuple(coeffs[::-1]), (self.p,) * self.k)

    def mul_arrays(self, a, b):
        """Column-wise products of (k, n) coefficient arrays: poly_mul, then
        reduction by the monic modulus."""
        p, k = self.p, self.k
        acc = np.int32 if 2 * k * p * p < 2**31 else np.int64  # bounds every partial sum
        prod = np.zeros((2 * k - 1,) + a.shape[1:], dtype=acc)
        for i, j in itertools.product(range(k), repeat=2):
            prod[i + j] += np.multiply(a[i], b[j], dtype=acc)
        for d in range(2 * k - 2, k - 1, -1):  # t^d = t^(d-k) * (t^k - modulus)
            prod[d] %= p
            for i, m in enumerate(self.modulus[:k]):
                prod[d - k + i] -= m * prod[d]
        return (prod[:k] % p).astype(np.int32)

    # -- quadratic character --------------------------------------------------

    def squares(self):
        """Encodings of x*x for every x, indexed by encoding.  Held for
        chi_table while it is unbuilt; it builds from them and drops them, so
        the field is squared once per table."""
        x = np.indices((self.p,) * self.k, dtype=np.int32).reshape(self.k, -1)[::-1]  # column e: encoding e
        squares = self.encode_arrays(self.mul_arrays(x, x))
        if self._chi is None:
            self._squares = squares
        return squares

    def chi_table(self):
        """numpy int8 array of chi over the whole field, indexed by encoding.

        Built lazily (idempotent) from the squares of all elements.
        """
        if self._chi is None:
            squares = self.squares() if self._squares is None else self._squares
            chi = np.full(self.q, -1, dtype=np.int8)
            chi[squares] = 1
            chi[0] = 0
            self._chi, self._squares = chi, None
        return self._chi


# fiber_traces, the only caller, asks for each field once; the cache keeps one
# context per field, so its character table is built once across calls
@lru_cache(maxsize=8)
def fq_ctx(p: int, k: int) -> FieldCtx:
    """Deterministic context for F_{p^k}: the modulus is the
    lexicographically smallest monic irreducible of degree k over F_p.
    A field above CHI_TABLE_MAX_Q is refused before the search."""
    field_size(p, k)
    return FieldCtx(p, k, next(m for m in _monic_polys(p, k) if is_irreducible(m, p)))  # t when k = 1

