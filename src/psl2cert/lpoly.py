"""Point counting on the fibers of t(t-1)(t+1) y^2 = x(x+1)(x+t^2) and exact
assembly of the degree-4 L-polynomial of the family over F_p.

The trace of Frobenius at a good parameter t0 in F_q is a character sum
    a(t0) = -chi(t0^3 - t0) * S(t0^2),  S(c) = sum_x chi(x) chi(x+1) chi(x+c).
S is a correlation over the additive group (Z/p)^k, so one float64 FFT gives
every S(c) and a degree-k trace sum costs O(q log q).  F_q is squared once
per call (for the S(t0^2) index and the character table); chi(t0^3 - t0)
and the recounts are rolls of chi on the (p,)*k digit grid.  Each call
proves its rounding: every S lies within 1/4 of an integer (|S| <= q <= 2^20),
every fiber meets the Hasse bound, and three fibers are recounted directly;
a failure raises, with no fallback.  The L-series is recovered from A_1, A_2
through exp(sum A_k T^k / k); the functional equation fills in the T^3 and
T^4 coefficients, and a "full direct" mode, up to FULL_DIRECT_MAX_P, recounts
over the degree-3 and degree-4 extensions to confirm them independently.
A field above the character table (q > 2^20) is refused with
OutOfRangeError before any work: `fq_ctx` refuses it before its modulus
search, and `lpolynomial` counts over F_{p^2} first.  The slow oracles (a
per-fiber trace, the closed-point Euler product) live in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gf import FieldCtx, fq_ctx, quad_char
from .modarith import OutOfRangeError, is_prime
from .qpoly import Q, QPolynomial, format_poly, rational_sqrt, series_exp

MODE_FE = "FE"
MODE_FULL = "Full"

FULL_DIRECT_MAX_P = 31  # largest p with p^4 <= CHI_TABLE_MAX_Q; cost guard


class HasseBoundError(ArithmeticError):
    """A computed trace violates |a| <= 2 sqrt(q); signals a counting bug."""


class KernelCheckError(ArithmeticError):
    """The FFT trace kernel failed its rounding-gap or exact-recount check."""


class WeilBoundError(ArithmeticError):
    """An assembled L-polynomial has a root off the unit circle."""


class ReciprocityError(ArithmeticError):
    """Direct degree-3/4 counts contradict the functional-equation completion."""


class ShapeViolation(ArithmeticError):
    """An L-polynomial does not match the shape law for its residue class."""


def _chi_grids(ctx: FieldCtx):
    """(grid, pair, chi_c): chi on the (p,)*k digit grid, chi(x) chi(x+1) on
    it, and chi(t^3 - t) = chi(t - 1) chi(t) chi(t + 1) indexed by encoding.
    An encoding is the C-order index of its digit vector (t^0 digit last),
    so chi(x + v) for every x is the grid rolled back by v's digits."""
    grid = ctx.chi_table().reshape((ctx.p,) * ctx.k)
    pair = grid * np.roll(grid, -1, axis=-1)
    return grid, pair, (pair * np.roll(grid, 1, axis=-1)).ravel()


def _fiber_trace_direct(ctx: FieldCtx, enc: int, grid, pair) -> int:
    """Trace at one encoded parameter by a direct sum over x of
    chi(x) chi(x+1) chi(x+t0^2) on the grid; the check on the FFT kernel."""
    t0 = ctx.decode(enc)
    c2 = t0 * t0
    c = c2 * t0 - t0
    if c.is_zero():
        raise ValueError(f"t0 = {t0!r} is a singular fiber")
    shifted = np.roll(grid, [-d for d in reversed(c2.coeffs)], axis=tuple(range(ctx.k)))
    a = -quad_char(ctx, c) * int((pair * shifted).sum())
    if a * a > 4 * ctx.q:
        raise HasseBoundError(f"|a|={abs(a)} exceeds 2*sqrt({ctx.q}) at t0={t0!r}")
    return a


def _correlation(grid, pair) -> np.ndarray:
    """S(c) = sum_x pair(x) chi(x + c) for every c, indexed by encoding,
    rounded to exact integers."""
    axes = tuple(range(grid.ndim))
    spectrum = np.conj(np.fft.rfftn(pair, axes=axes))
    spectrum *= np.fft.rfftn(grid, axes=axes)
    s = np.fft.irfftn(spectrum, s=grid.shape, axes=axes).ravel()
    s_exact = np.rint(s)
    gap = float(np.abs(s - s_exact).max())
    if not gap < 0.25:
        raise KernelCheckError(f"FFT rounding gap {gap} is not below 1/4 for q={s.size}")
    return s_exact.astype(np.int64)


def fiber_traces(p: int, k: int) -> np.ndarray:
    """Traces at every t0 in F_{p^k} by the FFT kernel, indexed by encoding;
    0 at the singular parameters 0, 1, -1.  fq_ctx refuses a field above
    the character-table bound before any work."""
    ctx = fq_ctx(p, k)
    square = ctx.squares()
    grid, pair, chi_c = _chi_grids(ctx)  # the table is built from those squares
    traces = -chi_c * _correlation(grid, pair)[square]  # chi_c is 0 exactly at 0, 1, -1
    over = np.flatnonzero(traces * traces > 4 * ctx.q)
    if over.size:
        bad, a = ctx.decode(int(over[0])), abs(traces[over[0]])
        raise HasseBoundError(f"|a|={a} exceeds 2*sqrt({ctx.q}) at t0={bad!r}")
    good = np.flatnonzero(chi_c)
    for enc in good[[0, good.size // 2, -1]].tolist() if good.size else ():
        if _fiber_trace_direct(ctx, enc, grid, pair) != traces[enc]:
            raise KernelCheckError(f"FFT trace disagrees with a direct count at t0={ctx.decode(enc)!r}")
    return traces


def trace_sum(p: int, k: int) -> int:
    """A_k = sum of fiber traces over all good t0 in F_{p^k}."""
    return int(fiber_traces(p, k).sum())


def roots_on_unit_circle(a: Fraction, b: Fraction) -> bool:
    """Whether 1 + aT + bT^2 + aT^3 + T^4 has all roots of absolute value 1.

    Equivalent to a real factorization (1+uT+T^2)(1+vT+T^2) with
    |u|, |v| <= 2, i.e. z^2 - a z + (b-2) has both roots in [-2, 2]:
    nonnegative discriminant plus sign conditions at z = +-2, all rational.
    """
    disc = a * a - 4 * (b - 2)
    return (
        abs(a) <= 4
        and abs(b) <= 6
        and disc >= 0
        and b - 2 * a + 2 >= 0
        and b + 2 * a + 2 >= 0
    )


def _denominator_is_p_power(x: Fraction, p: int) -> bool:
    d = x.denominator
    while d % p == 0:
        d //= p
    return d == 1


@dataclass(frozen=True)
class LPolynomial:
    """The reciprocal quartic 1 + a T + b T^2 + a T^3 + T^4 attached to an
    odd prime p, with a, b in Z[1/p] and all roots on the unit circle."""

    p: int
    a: Fraction
    b: Fraction

    def __post_init__(self):
        if not is_prime(self.p) or self.p == 2:
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if not _denominator_is_p_power(self.a, self.p) or not _denominator_is_p_power(
            self.b, self.p
        ):
            raise ValueError(f"coefficients of P_{self.p} not in Z[1/{self.p}]")
        if not roots_on_unit_circle(self.a, self.b):
            raise WeilBoundError(
                f"P_{self.p} = 1 + ({self.a})T + ({self.b})T^2 + ... has a root off |z|=1"
            )

    def as_qpoly(self) -> QPolynomial:
        return QPolynomial([1, self.a, self.b, self.a, 1])

    def __str__(self):
        return format_poly(self.as_qpoly(), "T")


def lpolynomial(p: int, mode: str = MODE_FE) -> LPolynomial:
    """Assemble P_p from point counts.

    MODE_FE uses degree-1 and degree-2 trace sums and completes the quartic
    by reciprocity.  MODE_FULL additionally counts over the degree-3 and
    degree-4 extensions and verifies the completed coefficients; any
    disagreement is a hard error, never repaired.
    """
    if not is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")
    if mode not in (MODE_FE, MODE_FULL):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == MODE_FULL and p > FULL_DIRECT_MAX_P:
        raise OutOfRangeError(f"full-direct mode limited to p <= {FULL_DIRECT_MAX_P}")

    a2 = trace_sum(p, 2)  # first: a field F_{p^2} above the table bound is refused before any count
    a1 = trace_sum(p, 1)
    coeffs = series_exp([Q(0), Q(a1), Q(a2, 2)], 2)
    if coeffs[1].denominator != 1 or coeffs[2].denominator != 1:
        raise HasseBoundError(f"non-integral L-series coefficients for p={p}")
    lp = LPolynomial(p, Q(coeffs[1], p), Q(coeffs[2], p * p))

    if mode == MODE_FULL:
        a3 = trace_sum(p, 3)
        a4 = trace_sum(p, 4)
        full = series_exp([Q(0), Q(a1), Q(a2, 2), Q(a3, 3), Q(a4, 4)], 4)
        if full[3] != lp.a * p**3 or full[4] != p**4:
            raise ReciprocityError(
                f"direct degree-3/4 counts for p={p} contradict the reciprocal "
                f"completion: got T^3 coeff {full[3]}, T^4 coeff {full[4]}"
            )
    return lp


@dataclass(frozen=True)
class _Shape:
    b: Fraction  # the middle coefficient of the shape law; b*p is integral

    @property
    def u(self) -> Fraction:
        """u_p = b^2, the squared trace of a Kronecker factor of Frobenius."""
        return self.b * self.b

    def describe(self) -> str:
        return f"{self.kind} b={self.b}"


class SquareShape(_Shape):
    """P = (1 + b T + T^2)^2 with b*p integral; the p = 1 (mod 4) shape."""

    kind = "square"


class BiquadraticShape(_Shape):
    """P = 1 + (b^2 - 2) T^2 + T^4 with b >= 0 and b*p integral; the
    p = 3 (mod 4) shape."""

    kind = "biquadratic"


Shape = SquareShape | BiquadraticShape


def shape_classify(lp: LPolynomial) -> Shape:
    """Match an L-polynomial against the residue-class shape law.

    A mismatch raises ShapeViolation with the offending polynomial; that
    outcome would contradict the shape law and must surface loudly.
    """
    p, a, b = lp.p, lp.a, lp.b
    if p % 4 == 1:
        half = a / 2
        if b != half * half + 2:
            raise ShapeViolation(f"P_{p} = {lp} is not a perfect square of a quadratic")
        if (half * p).denominator != 1:
            raise ShapeViolation(f"P_{p}: b*p = {half * p} is not integral")
        return SquareShape(half)
    if a != 0:
        raise ShapeViolation(f"P_{p} = {lp} has nonzero odd coefficients")
    root = rational_sqrt(b + 2)
    if root is None:
        raise ShapeViolation(f"P_{p} = {lp}: T^2 coefficient + 2 is not a rational square")
    if (root * p).denominator != 1:
        raise ShapeViolation(f"P_{p}: b*p = {root * p} is not integral")
    return BiquadraticShape(root)
