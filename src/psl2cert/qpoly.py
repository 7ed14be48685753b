"""Exact polynomial arithmetic over Q, truncated power series, the "num/den"
text form written into certificates, and reductions mod l.

Newton's identities are written once, in the series_exp/series_log pair:
power sums and n-th power transforms of a quartic are read off its log.

Coefficients are `fractions.Fraction` throughout; nothing here ever touches
floating point.  Degrees stay tiny (at most 8 in this project), so the dense
representation and schoolbook algorithms are the right tool.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Iterable, Sequence

Q = Fraction


def trim(cs: list) -> tuple:
    """cs without its trailing zeros, as a tuple."""
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return tuple(cs[:n])


def power(a, n: int, one, mul):
    """a^n by repeated squaring under the product mul, with unit one."""
    result = one
    while n:
        if n & 1:
            result = mul(result, a)
        a = mul(a, a)
        n >>= 1
    return result


class QPolynomial:
    """Dense polynomial over Q; coefficients lowest degree first, no
    trailing zeros (the zero polynomial is the empty tuple)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        self.coeffs = trim([Q(c) for c in coeffs])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Q(0)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPolynomial([other])
        return isinstance(other, QPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPolynomial([other])
        n = max(len(self.coeffs), len(other.coeffs))
        return QPolynomial([self[i] + other[i] for i in range(n)])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPolynomial([other])
        n = max(len(self.coeffs), len(other.coeffs))
        return QPolynomial([self[i] - other[i] for i in range(n)])

    def __neg__(self):
        return QPolynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QPolynomial([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return QPolynomial()
        out = [Q(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return QPolynomial(out)

    __rmul__ = __mul__
    __radd__ = __add__

    def __pow__(self, n: int):
        return power(self, n, QPolynomial([1]), QPolynomial.__mul__)

    def __call__(self, x) -> Fraction:
        """Exact Horner evaluation."""
        acc = Q(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "QPolynomial":
        return QPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def divmod(self, other: "QPolynomial"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return QPolynomial(), self
        quo = [Q(0)] * (dq + 1)
        lead = other.coeffs[-1]
        for shift in range(dq, -1, -1):
            c = rem[shift + other.degree] / lead
            quo[shift] = c
            if c:
                for i, b in enumerate(other.coeffs):
                    rem[shift + i] -= c * b
        return QPolynomial(quo), QPolynomial(rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self) -> "QPolynomial":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return QPolynomial([c / lead for c in self.coeffs])

    def __repr__(self):
        return f"QPolynomial({format_poly(self, 'T')})"


def poly_gcd(a: QPolynomial, b: QPolynomial) -> QPolynomial:
    """Monic gcd by the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def format_poly(poly: QPolynomial, var: str = "T") -> str:
    """Human form like '1 - 2/9*T^2 + T^4'."""
    if poly.is_zero():
        return "0"
    parts = []
    for i, c in enumerate(poly.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            power = var if i == 1 else f"{var}^{i}"
            body = power if mag == 1 else f"{mag}*{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# power sums and n-th power transforms for quartics with P(0) = 1, via log P


def power_sums(poly: QPolynomial, count: int) -> list[Fraction]:
    """Power sums s_1..s_count of the inverse roots of a degree-4
    polynomial with constant term 1 (P = prod(1 - a_i T)), read off
    log P = -sum s_k T^k / k."""
    if poly.degree != 4:
        raise ValueError("power sums need a degree-4 polynomial")
    lg = series_log(poly.coeffs, count)
    return [-k * lg[k] for k in range(1, count + 1)]


def nth_power_poly(poly: QPolynomial, n: int) -> QPolynomial:
    """The quartic whose inverse roots are the n-th powers of poly's:
    exp(-sum_{k<=4} s_{nk} T^k / k), exact, with no root extraction."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    s = power_sums(poly, 4 * n)
    return QPolynomial(series_exp([0] + [-s[n * k - 1] / k for k in range(1, 5)], 4))


# ---------------------------------------------------------------------------
# text codec: a rational as "num/den" in lowest terms


def frac_str(x: Fraction | int) -> str:
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# reduction to F_l


class DenominatorDivisibleError(ValueError):
    """The denominator of an exact rational is divisible by the target prime."""


def reduce_mod(x: Fraction | int, ell: int) -> int:
    """Image of an exact rational in F_ell (num * den^-1 mod ell)."""
    if x.denominator % ell == 0:
        raise DenominatorDivisibleError(
            f"denominator of {x} is divisible by {ell}; invalid witness/l pairing"
        )
    return x.numerator * pow(x.denominator, -1, ell) % ell


# ---------------------------------------------------------------------------
# truncated power series (lists of coefficients, index = degree)


def series_exp(s: Sequence[Fraction], order: int) -> list[Fraction]:
    """exp of a series with zero constant term, to the given order."""
    if s and s[0] != 0:
        raise ValueError("series exp requires zero constant term")
    s = [Q(x) for x in s] + [Q(0)] * order
    e = [Q(1)] + [Q(0)] * order
    for n in range(1, order + 1):
        e[n] = sum((k * s[k] * e[n - k] for k in range(1, n + 1)), Q(0)) / n
    return e


def series_log(c: Sequence, order: int) -> list[Fraction]:
    """log of a power series with constant term 1, to the given order."""
    if c[0] != 1:
        raise ValueError("series log requires constant term 1")
    c = [Q(x) for x in c] + [Q(0)] * order
    lg = [Q(0)] * (order + 1)
    for n in range(1, order + 1):
        lg[n] = c[n] - sum((Q(k, n) * lg[k] * c[n - k] for k in range(1, n)), Q(0))
    return lg


# ---------------------------------------------------------------------------
# resultants / discriminants (tiny degrees: Sylvester determinant suffices)


def resultant(f: QPolynomial, g: QPolynomial) -> Fraction:
    m, n = f.degree, g.degree
    if m < 0 or n < 0:
        return Q(0)
    size = m + n
    rows = []
    fc = list(reversed(f.coeffs))  # leading coefficient first
    gc = list(reversed(g.coeffs))
    for i in range(n):
        rows.append([Q(0)] * i + fc + [Q(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([Q(0)] * i + gc + [Q(0)] * (size - n - 1 - i))
    # fraction-exact Gaussian elimination
    det = Q(1)
    for col in range(size):
        pivot = None
        for r in range(col, size):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Q(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        pv = rows[col][col]
        det *= pv
        for r in range(col + 1, size):
            factor = rows[r][col] / pv
            if factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return det


def discriminant(f: QPolynomial) -> Fraction:
    n = f.degree
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    sign = (-1) ** (n * (n - 1) // 2)
    return sign * resultant(f, f.derivative()) / f.coeffs[-1]


def rational_sqrt(x) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    x = Q(x)
    if x < 0:
        return None
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Q(rn, rd)
    return None
