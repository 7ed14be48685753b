"""Weierstrass invariants, pole orders and Kodaira types of the surface."""

import random
from fractions import Fraction as Q

import pytest

from psl2cert.qpoly import QPolynomial
from psl2cert.weierstrass import (
    INF,
    NonMinimalModelError,
    RationalFunction,
    UnsupportedPlaceError,
    WeierstrassModel,
    bad_places,
    invariants,
    kodaira_table,
    kodaira_type,
    place_valuations,
    pole_order_lcm,
    pole_orders,
    surface_model,
    valuation,
)
from slow_paths import model_at_infinity, surface_model_from_fibration, valuations_at_infinity

T = QPolynomial([0, 1])
ONE = QPolynomial([1])


def test_discriminant_factorization():
    inv = invariants(surface_model())
    assert inv.delta == RationalFunction(16 * T**10 * (T - ONE) ** 8 * (T + ONE) ** 8)


def test_j_invariant():
    inv = invariants(surface_model())
    num = 256 * QPolynomial([1, 0, -1, 0, 1]) ** 3
    den = T**4 * (T - ONE) ** 2 * (T + ONE) ** 2
    assert inv.j == RationalFunction(num, den)


def test_c4_cubed_minus_c6_squared_is_1728_delta():
    inv = invariants(surface_model())
    assert inv.c4**3 - inv.c6**2 == 1728 * inv.delta


def test_cleared_fibration_model_agrees():
    # clearing the fibration form gives the same curve, so certainly equal j
    assert invariants(surface_model_from_fibration()).j == invariants(surface_model()).j
    assert surface_model_from_fibration() == surface_model()


def test_singular_model_rejected():
    with pytest.raises(ValueError):
        invariants(WeierstrassModel.from_coeffs(a4=QPolynomial([0])))  # y^2 = x^3


def test_pole_orders_of_j():
    inv = invariants(surface_model())
    assert pole_orders(inv.j) == {0: 4, 1: 2, -1: 2, INF: 4}
    assert pole_order_lcm(inv.j) == 4


def test_pole_orders_simple_cases():
    assert pole_orders(RationalFunction(QPolynomial([7]))) == {}
    assert pole_orders(RationalFunction(ONE, T**3)) == {0: 3}
    assert pole_orders(RationalFunction(T**5, T**2)) == {INF: 3}


def test_pole_orders_unsupported_place():
    with pytest.raises(UnsupportedPlaceError):
        pole_orders(RationalFunction(ONE, T - QPolynomial([2])))


def test_kodaira_type_table():
    assert kodaira_type(0, 0) == "I0"
    assert kodaira_type(0, 5) == "I0"
    assert kodaira_type(3, 0) == "I3"
    assert kodaira_type(2, 1) == "II"
    assert kodaira_type(3, 1) == "III"
    assert kodaira_type(4, 2) == "IV"
    assert kodaira_type(6, 2) == "I0*"
    assert kodaira_type(8, 2) == "I2*"
    assert kodaira_type(10, 2) == "I4*"
    assert kodaira_type(8, 3) == "IV*"
    assert kodaira_type(9, 3) == "III*"
    assert kodaira_type(10, 4) == "II*"
    with pytest.raises(NonMinimalModelError):
        kodaira_type(12, 4)
    with pytest.raises(ValueError):
        kodaira_type(5, 1)


def test_surface_valuations_at_bad_places():
    model = surface_model()
    assert place_valuations(model, 0) == (10, 2)
    assert place_valuations(model, 1) == (8, 2)
    assert place_valuations(model, -1) == (8, 2)
    assert place_valuations(model, INF) == (10, 2)


def test_surface_kodaira_table():
    assert kodaira_table(surface_model()) == {0: "I4*", 1: "I2*", -1: "I2*", INF: "I4*"}


def test_bad_places_are_exactly_the_four():
    assert bad_places(surface_model()) == [0, 1, -1, INF]


def test_model_at_infinity_is_integral_and_minimal():
    model = surface_model()
    limit, twist = model_at_infinity(model)
    assert twist == 3  # a2 = t^5 - t needs 3 = ceil(5/2), a4 needs ceil(8/4) = 2
    for coeff in (limit.a1, limit.a2, limit.a3, limit.a4, limit.a6):
        if not coeff.is_zero():
            assert valuation(coeff, 0) >= 0
    inv = invariants(model)
    v_delta, v_c4 = place_valuations(model, INF)
    assert v_delta == valuation(inv.delta, INF) + 12 * twist
    assert v_c4 == valuation(inv.c4, INF) + 4 * twist
    assert v_delta < 12 or v_c4 < 4


def _random_coeff(rng, rational: bool):
    """A random polynomial of degree <= 2 in t; if rational, half the time
    over a random linear denominator.  Low degrees keep the s = 1/t path fast."""
    def poly(degree):
        length = rng.randint(0, degree + 1)
        return QPolynomial([Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(length)])

    num = poly(2)
    den = poly(1) if rational and rng.random() < 0.5 else ONE
    return num if den.is_zero() else RationalFunction(num, den)


@pytest.mark.parametrize("rational", (False, True))
def test_valuations_at_infinity_match_the_model_in_one_over_t(rational):
    rng = random.Random(31 + rational)
    checked = 0
    while checked < 4:
        model = WeierstrassModel.from_coeffs(*(_random_coeff(rng, rational) for _ in range(5)))
        try:
            inv = invariants(model)
        except ValueError:
            continue  # singular
        if inv.c4.is_zero():
            continue  # v(c4) is undefined
        assert place_valuations(model, INF) == valuations_at_infinity(model)
        checked += 1


def test_rational_function_canonical_form():
    f = RationalFunction(T**2 - ONE, T - ONE)
    assert f == RationalFunction(T + ONE)
    g = RationalFunction(2 * T, 4 * T**2)
    assert g.den.coeffs[-1] == 1  # monic denominator
    assert g == RationalFunction(ONE, 2 * T)
