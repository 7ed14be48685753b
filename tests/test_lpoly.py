"""Fiber point counts, trace sums, the Euler-product oracle, and shapes."""

from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_python
from slow_paths import chi_cubic_by_products, euler_product_truncated, fiber_trace, fiber_trace_encoded
from psl2cert import lpoly as lpoly_module
from psl2cert.gf import fq_ctx, quad_char
from psl2cert.lpoly import (
    MODE_FULL,
    BiquadraticShape,
    HasseBoundError,
    KernelCheckError,
    LPolynomial,
    ReciprocityError,
    ShapeViolation,
    SquareShape,
    WeilBoundError,
    fiber_traces,
    lpolynomial,
    roots_on_unit_circle,
    shape_classify,
    trace_sum,
)
from psl2cert.modarith import primes_in_range
from psl2cert.qpoly import QPolynomial, series_log


def naive_fiber_count(p, k, t0):
    """Independent oracle: count projective points of
    (t0^3 - t0) y^2 = x (x+1) (x+t0^2) by brute force over F_q^2."""
    ctx = fq_ctx(p, k)
    t0 = ctx.elem(t0)
    c = t0 * t0 * t0 - t0
    assert not c.is_zero()
    count = 1  # the point at infinity
    elems = list(ctx.elements())
    for x in elems:
        rhs = x * (x + 1) * (x + t0 * t0)
        for y in elems:
            if c * y * y == rhs:
                count += 1
    return count


def test_fiber_trace_against_naive_count_f5():
    ctx = fq_ctx(5, 1)
    a = fiber_trace(5, 1, 2)
    assert a == 5 + 1 - naive_fiber_count(5, 1, 2)
    assert a == -2
    assert a * a <= 4 * 5


def test_fiber_trace_against_naive_count_extension():
    ctx = fq_ctx(3, 2)
    for t0 in ctx.elements():
        if t0.is_zero() or t0 == 1 or t0 == -1:
            continue
        assert fiber_trace(3, 2, t0) == 9 + 1 - naive_fiber_count(3, 2, t0)


def test_fiber_trace_rejects_singular_fibers():
    for bad in (0, 1, -1):
        with pytest.raises(ValueError):
            fiber_trace(5, 1, bad)


def test_fiber_symmetry_q_1_mod_4():
    # q = 13 = 1 (mod 4): the twist by -1 is trivial
    for t0 in range(2, 12):
        assert fiber_trace(13, 1, t0) == fiber_trace(13, 1, -t0)


def test_fiber_symmetry_character_twist():
    # in general the traces at t0 and -t0 differ by chi(-1)
    for (p, k) in [(7, 1), (11, 1), (3, 2)]:
        ctx = fq_ctx(p, k)
        chi_minus1 = quad_char(ctx, -1)
        for t0 in ctx.elements():
            if t0.is_zero() or t0 == 1 or t0 == -1:
                continue
            assert fiber_trace(p, k, t0) == chi_minus1 * fiber_trace(p, k, -t0)


def test_trace_sum_known_values():
    assert trace_sum(3, 1) == 0  # no good parameters in F_3 at all
    assert trace_sum(3, 2) == -4
    assert trace_sum(5, 1) == -4


def test_trace_sum_matches_naive_total_p13():
    total = sum(13 + 1 - naive_fiber_count(13, 1, t0) for t0 in range(2, 12))
    assert trace_sum(13, 1) == total


def test_fft_kernel_matches_direct_count_p67():
    # every fiber of F_{67^2}, not only the three the kernel recounts itself
    ctx = fq_ctx(67, 2)
    direct = [0 if e in (0, 1, 66) else fiber_trace(67, 2, ctx.decode(e)) for e in range(ctx.q)]
    assert fiber_traces(67, 2).tolist() == direct
    assert trace_sum(67, 2) == sum(direct)


def test_fft_kernel_checks_fail_loudly(monkeypatch):
    irfftn = np.fft.irfftn

    def shifted_irfftn(shift):
        return lambda *args, **kwargs: irfftn(*args, **kwargs) + shift

    monkeypatch.setattr(np.fft, "irfftn", shifted_irfftn(0.5))
    with pytest.raises(KernelCheckError, match="rounding gap"):
        fiber_traces(7, 2)
    monkeypatch.setattr(np.fft, "irfftn", shifted_irfftn(100.0))  # |a| >= 86 > 2*sqrt(49)
    with pytest.raises(HasseBoundError, match="at t0="):
        fiber_traces(7, 2)
    monkeypatch.setattr(np.fft, "irfftn", irfftn)
    monkeypatch.setattr(lpoly_module, "_fiber_trace_direct", lambda ctx, enc, grid, pair: 99)
    with pytest.raises(KernelCheckError, match="direct count"):
        fiber_traces(7, 2)


@pytest.mark.parametrize("p,k", [(7, 2), (13, 2), (5, 3), (11, 3), (3, 4), (7, 4)])
def test_grid_recount_matches_encoded_count_on_every_good_fiber(p, k):
    ctx = fq_ctx(p, k)
    grid, pair, chi_c = lpoly_module._chi_grids(ctx)
    good = np.flatnonzero(chi_c).tolist()
    assert len(good) == ctx.q - 3
    for enc in good:
        assert lpoly_module._fiber_trace_direct(ctx, enc, grid, pair) == fiber_trace_encoded(ctx, enc), enc


def test_rolled_chi_cubic_matches_field_products():
    fields = [(p, k) for p in primes_in_range(3, 5**4) for k in range(1, 5) if p**k <= 5**4] + [(11, 4)]
    for p, k in fields:
        ctx = fq_ctx(p, k)
        chi_c = lpoly_module._chi_grids(ctx)[2]
        assert np.array_equal(chi_c, chi_cubic_by_products(ctx)), (p, k)


def test_squares_are_built_once_and_not_held(monkeypatch):
    fq_ctx.cache_clear()
    ctx = fq_ctx(23, 3)
    calls = []
    squares = type(ctx).squares
    monkeypatch.setattr(type(ctx), "squares", lambda self: calls.append(self) or squares(self))
    fiber_traces(23, 3)
    assert calls == [ctx] and ctx._squares is None
    fiber_traces(23, 3)  # the table is built: the squares are not kept for it
    assert calls == [ctx, ctx] and ctx._squares is None


SMALL_FIELDS = [(p, k) for p in (3, 5, 7, 11, 13) for k in (1, 2, 3, 4) if p**k <= 2500]
KERNEL_FIELDS = SMALL_FIELDS + [(11, 4), (31, 2), (97, 2), (127, 2)]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(SMALL_FIELDS))
def test_trace_sum_is_sum_of_direct_fiber_traces(field):
    p, k = field
    ctx = fq_ctx(p, k)
    good = [e for e in range(ctx.q) if e not in (0, 1, p - 1)]
    assert trace_sum(p, k) == sum(fiber_trace(p, k, ctx.decode(e)) for e in good)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), st.integers(min_value=0))
def test_fft_traces_frobenius_invariant(field, n):
    p, k = field
    ctx = fq_ctx(p, k)
    traces = fiber_traces(p, k)
    t0 = ctx.decode(n % ctx.q)
    assert traces[ctx.encode(t0.frobenius())] == traces[ctx.encode(t0)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), st.integers(min_value=0))
def test_fft_traces_negation_twist(field, n):
    p, k = field
    ctx = fq_ctx(p, k)
    traces = fiber_traces(p, k)
    t0 = ctx.decode(n % ctx.q)
    assert traces[ctx.encode(-t0)] == quad_char(ctx, -1) * traces[ctx.encode(t0)]


def test_hasse_bound_exhaustive():
    for p in primes_in_range(3, 50):
        for k in (1, 2):
            trace_sum(p, k)  # every fiber is bound-checked internally


def test_lpolynomial_explicit_values():
    p3 = lpolynomial(3)
    assert (p3.a, p3.b) == (0, Q(-2, 9))
    p5 = lpolynomial(5)
    assert (p5.a, p5.b) == (Q(-4, 5), Q(54, 25))
    # P_5 is the square of 1 - 2/5 T + T^2
    assert p5.as_qpoly() == QPolynomial([1, Q(-2, 5), 1]) ** 2


def test_lpolynomial_full_direct_agreement():
    for p in (3, 5, 7):
        assert lpolynomial(p, MODE_FULL) == lpolynomial(p)


def test_lpolynomial_full_direct_agreement_large():
    # 31 is the top of the guard: 31^4 <= CHI_TABLE_MAX_Q < 37^4
    for p in (11, 13, 17, 31):
        assert lpolynomial(p, MODE_FULL) == lpolynomial(p)


def test_full_mode_rejects_a_wrong_degree_3_count(monkeypatch):
    monkeypatch.setattr(lpoly_module, "trace_sum", lambda p, k: trace_sum(p, k) + (k == 3))
    with pytest.raises(ReciprocityError):
        lpolynomial(7, MODE_FULL)


def test_fiber_trace_rejects_degree_above_four():
    with pytest.raises(ValueError):
        fiber_trace(5, 5, 2)
    with pytest.raises(ValueError):
        trace_sum(5, 5)


def test_lpolynomial_guards():
    with pytest.raises(ValueError):
        lpolynomial(9)
    with pytest.raises(ValueError):
        lpolynomial(37, MODE_FULL)  # cost guard
    with pytest.raises(ValueError):
        lpolynomial(3, "bogus")


def test_euler_product_known_truncations():
    assert euler_product_truncated(3, 2) == [1, 0, -2]
    assert euler_product_truncated(5, 2) == [1, -4, 54]
    assert euler_product_truncated(3, 1) == [1, 0]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_trace_sums_match_euler_product_deg2(p):
    series = euler_product_truncated(p, 2)
    lg = series_log(series, 2)
    recovered = [k * lg[k] for k in (1, 2)]
    assert recovered == [trace_sum(p, 1), trace_sum(p, 2)]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_trace_sums_match_euler_product_deg4(p):
    series = euler_product_truncated(p, 4)
    lg = series_log(series, 4)
    recovered = [k * lg[k] for k in (1, 2, 3, 4)]
    assert recovered == [trace_sum(p, k) for k in (1, 2, 3, 4)]


def test_lpolynomial_coefficient_denominators_divide_p_squared():
    for p in primes_in_range(3, 40):
        lp = lpolynomial(p)
        assert (lp.a * p * p).denominator == 1
        assert (lp.b * p * p).denominator == 1


def test_roots_on_unit_circle_detects_violations():
    assert roots_on_unit_circle(Q(0), Q(-2, 9))
    assert not roots_on_unit_circle(Q(5), Q(2))  # |a| too big
    assert not roots_on_unit_circle(Q(0), Q(7))  # |b| too big
    # a = 0, b = -3: u v = -5 with u + v = 0 forces |u| > 2
    assert not roots_on_unit_circle(Q(0), Q(-3))
    with pytest.raises(WeilBoundError):
        LPolynomial(3, Q(0), Q(-3))


@pytest.mark.parametrize("p", (0, 2, 9))
def test_lpolynomial_rejects_a_p_that_is_not_an_odd_prime(p):
    with pytest.raises(ValueError, match="odd prime"):
        LPolynomial(p, Q(0), Q(-2, 9))


@pytest.mark.parametrize("p", (1, -1))
def test_lpolynomial_rejects_a_unit_p_without_hanging(p):
    # a Z[1/p] check that divides the denominator by p = +-1 never ends
    code = f"from psl2cert.lpoly import LPolynomial, Q; LPolynomial({p}, Q(0), Q(-2, 9))"
    child = run_python("-c", code)
    assert child.returncode == 1
    assert child.stderr.strip().endswith(f"ValueError: p must be an odd prime, got {p}")


def test_lpolynomial_rejects_foreign_denominators():
    with pytest.raises(ValueError):
        LPolynomial(3, Q(1, 5), Q(0))


def test_shape_classify_known():
    s5 = shape_classify(lpolynomial(5))
    assert isinstance(s5, SquareShape) and s5.b == Q(-2, 5)
    assert s5.b * 5 == -2
    s3 = shape_classify(lpolynomial(3))
    assert isinstance(s3, BiquadraticShape) and s3.b == Q(4, 3)
    assert s3.u == Q(16, 9)
    s7 = shape_classify(lpolynomial(7))
    assert isinstance(s7, BiquadraticShape) and s7.b == Q(8, 7)


def test_shape_classify_all_small_primes():
    for p in primes_in_range(3, 300):
        shape = shape_classify(lpolynomial(p))
        assert (shape.b * p).denominator == 1
        if p % 4 == 1:
            assert isinstance(shape, SquareShape)
        else:
            assert isinstance(shape, BiquadraticShape)
            assert shape.b >= 0


def test_shape_classify_rejects_wrong_shape():
    with pytest.raises(ShapeViolation):
        shape_classify(LPolynomial(13, Q(0), Q(1)))  # a = 0 is not a square shape
    with pytest.raises(ShapeViolation):
        shape_classify(LPolynomial(7, Q(1, 7), Q(2)))  # nonzero odd coefficient
