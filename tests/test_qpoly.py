"""Exact rational polynomials, Newton transforms, reductions mod l."""

import random
from fractions import Fraction as Q

import pytest

from psl2cert.qpoly import (
    DenominatorDivisibleError,
    QPolynomial,
    discriminant,
    nth_power_poly,
    power_sums,
    rational_sqrt,
    reduce_mod,
    resultant,
    series_exp,
    series_log,
)
from slow_paths import nth_power_poly_recurrence, power_sums_recurrence, series_inverse, series_mul

P3 = QPolynomial([1, 0, Q(-2, 9), 0, 1])
P5 = QPolynomial([1, Q(-2, 5), 1]) ** 2


def test_polynomial_basics():
    f = QPolynomial([1, 2, 3])
    g = QPolynomial([0, 1])
    assert (f * g).coeffs == (0, 1, 2, 3)
    assert (f - f).is_zero()
    assert f(2) == 1 + 4 + 12
    assert f.derivative() == QPolynomial([2, 6])
    quo, rem = (f * g + QPolynomial([7])).divmod(g)
    assert quo == f and rem == QPolynomial([7])


def test_power_sums_all_roots_one():
    p = QPolynomial([1, -1]) ** 4  # (1 - T)^4, all inverse roots 1
    assert power_sums(p, 6) == [4, 4, 4, 4, 4, 4]


def test_power_sums_known_values():
    assert power_sums(P5, 1)[0] == Q(4, 5)
    s = power_sums(P3, 2)
    assert s[0] == 0
    # independent oracle: s2 = e1^2 - 2 e2 with e1 = 0, e2 = -2/9
    assert s[1] == Q(0) ** 2 - 2 * Q(-2, 9)
    assert s[1] == Q(4, 9)


def test_nth_power_poly_identity():
    assert nth_power_poly(P3, 1) == P3
    assert nth_power_poly(P5, 1) == P5


def square_of_quadratic(b):
    return QPolynomial([1, b, 1]) ** 2


def test_nth_power_poly_regression_values():
    assert nth_power_poly(P3, 2) == square_of_quadratic(Q(-2, 9))
    assert nth_power_poly(P3, 4) == square_of_quadratic(Q(158, 81))
    assert nth_power_poly(P5, 4) == square_of_quadratic(Q(-866, 625))


def random_reciprocal_unit_quartic(rng):
    """(1 + uT + T^2)(1 + vT + T^2) with u, v rational in [-2, 2]: all
    roots lie on the unit circle by construction."""
    u = Q(rng.randint(-20, 20), 10)
    v = Q(rng.randint(-20, 20), 10)
    return QPolynomial([1, u, 1]) * QPolynomial([1, v, 1])


def test_nth_power_poly_composition():
    rng = random.Random(20240)
    polys = [P3, P5] + [random_reciprocal_unit_quartic(rng) for _ in range(20)]
    for p in polys:
        for m in (2, 3, 4):
            for n in (2, 3):
                assert nth_power_poly(nth_power_poly(p, m), n) == nth_power_poly(p, m * n)


def test_nth_power_preserves_reciprocity():
    rng = random.Random(99)
    for p in [P3, P5] + [random_reciprocal_unit_quartic(rng) for _ in range(20)]:
        for n in (2, 3, 4):
            q = nth_power_poly(p, n)
            assert q[0] == q[4] == 1 and q[1] == q[3]


def test_series_transforms_match_newton_recurrence():
    # random quartics with P(0) = 1, not necessarily reciprocal
    rng = random.Random(7)
    for _ in range(60):
        coeffs = [Q(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(4)]
        p = QPolynomial([1, *coeffs[:3], coeffs[3] or 1])
        assert power_sums(p, 12) == power_sums_recurrence(p, 12)
        for n in range(1, 6):
            assert nth_power_poly(p, n) == nth_power_poly_recurrence(p, n)


def test_power_sums_reject_a_non_quartic_or_a_non_unit_constant():
    with pytest.raises(ValueError):
        power_sums(QPolynomial([1, 2, 3]), 4)
    with pytest.raises(ValueError):
        power_sums(QPolynomial([2, 0, 0, 0, 1]), 4)


def test_eval_exact_table():
    p34 = nth_power_poly(P3, 4)
    p54 = nth_power_poly(P5, 4)
    assert p34(1) == Q(102400, 6561)
    assert p34(-1) == Q(16, 6561)
    assert p54(5**4) == Q(2**14 * 3**2 * 5**2 * 7**2 * 29**2)


def test_reduce_mod():
    assert reduce_mod(Q(16, 9), 11) == 3
    assert reduce_mod(Q(0), 17) == 0
    with pytest.raises(DenominatorDivisibleError):
        reduce_mod(Q(1, 3), 3)


def test_reduce_mod_is_ring_homomorphism():
    rng = random.Random(5)
    ell = 13
    for _ in range(100):
        x = Q(rng.randint(-50, 50), rng.choice([1, 2, 5, 7, 9, 11]))
        y = Q(rng.randint(-50, 50), rng.choice([1, 2, 5, 7, 9, 11]))
        assert reduce_mod(x + y, ell) == (reduce_mod(x, ell) + reduce_mod(y, ell)) % ell
        assert reduce_mod(x * y, ell) == (reduce_mod(x, ell) * reduce_mod(y, ell)) % ell


def test_series_helpers():
    inv = series_inverse([1, -1], 4)
    assert inv == [1, 1, 1, 1, 1]
    assert series_mul([1, 2], [1, 3], 2) == [1, 5, 6]
    e = series_exp([Q(0), Q(1)], 4)
    assert e == [1, 1, Q(1, 2), Q(1, 6), Q(1, 24)]
    lg = series_log(e, 4)
    assert lg == [0, 1, 0, 0, 0]


def test_resultant_and_discriminant():
    # disc(T^2 - 1) = 4; resultant with derivative = -4
    f = QPolynomial([-1, 0, 1])
    assert resultant(f, f.derivative()) == -4
    assert discriminant(f) == 4
    assert discriminant(P3) == Q(2**16 * 5**2, 3**8)


def test_rational_sqrt():
    assert rational_sqrt(Q(16, 9)) == Q(4, 3)
    assert rational_sqrt(Q(2)) is None
    assert rational_sqrt(Q(-1)) is None
    assert rational_sqrt(Q(0)) == 0
