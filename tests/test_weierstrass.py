"""Weierstrass invariants, pole orders and Kodaira types of the surface."""

import random
from fractions import Fraction as Q

import pytest

from psl2cert.lpoly import lpolynomial
from psl2cert.qpoly import QPolynomial
from psl2cert.weierstrass import (
    INF,
    NonMinimalModelError,
    UnsupportedPlaceError,
    WeierstrassModel,
    bad_places,
    invariants,
    kodaira_table,
    kodaira_type,
    lowest_terms,
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
    assert inv.delta == 16 * T**10 * (T - ONE) ** 8 * (T + ONE) ** 8


def test_j_invariant():
    inv = invariants(surface_model())
    num = 256 * QPolynomial([1, 0, -1, 0, 1]) ** 3
    den = T**4 * (T - ONE) ** 2 * (T + ONE) ** 2
    assert inv.j == (num, den)


def test_c4_cubed_minus_c6_squared_is_1728_delta():
    inv = invariants(surface_model())
    assert inv.c4**3 - inv.c6**2 == 1728 * inv.delta


def test_cleared_fibration_model_agrees():
    # clearing the fibration form gives the same curve, so certainly equal j
    assert invariants(surface_model_from_fibration()).j == invariants(surface_model()).j
    assert surface_model_from_fibration() == surface_model()


def test_from_coeffs_reads_constants_and_coefficient_lists():
    model = WeierstrassModel.from_coeffs(1, Q(1, 2), a4=[0, 1])
    assert model == WeierstrassModel(ONE, Q(1, 2) * ONE, QPolynomial(), T, QPolynomial())
    assert WeierstrassModel.from_coeffs(a2=[0, -1, 0, 0, 0, 1], a4=[0, 0, 0, 0, 1, 0, -2, 0, 1]) == surface_model()


def test_singular_model_rejected():
    with pytest.raises(ValueError):
        invariants(WeierstrassModel.from_coeffs(a4=QPolynomial([0])))  # y^2 = x^3


def test_pole_orders_of_j():
    inv = invariants(surface_model())
    assert pole_orders(inv.j) == {0: 4, 1: 2, -1: 2, INF: 4}
    assert pole_order_lcm(inv.j) == 4


def test_pole_orders_simple_cases():
    assert pole_orders((QPolynomial([7]), ONE)) == {}
    assert pole_orders((QPolynomial(), T)) == {}
    assert pole_orders((ONE, T**3)) == {0: 3}
    assert pole_orders((T**5, T**2)) == {INF: 3}
    assert pole_orders((T, 2 * T**3)) == {0: 2}  # t cancels first


def test_pole_orders_unsupported_place():
    with pytest.raises(UnsupportedPlaceError):
        pole_orders((ONE, T - 2))
    # t - 2 cancels, so the reduced pair is 1 / t^3 and has no pole there
    assert pole_orders((T - 2, T**3 * (T - 2))) == {0: 3}


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


# (Euler number, component count) of each Kodaira fiber type; I_n and I_n*
# are read off the symbol
KODAIRA_EULER_COMPONENTS = {
    "I0": (0, 1), "II": (2, 1), "III": (3, 2), "IV": (4, 3), "IV*": (8, 7), "III*": (9, 8), "II*": (10, 9),
}


def euler_and_components(symbol: str) -> tuple[int, int]:
    if symbol in KODAIRA_EULER_COMPONENTS:
        return KODAIRA_EULER_COMPONENTS[symbol]
    n = int(symbol[1:].rstrip("*"))
    return (n + 6, n + 5) if symbol.endswith("*") else (n, n)


def test_euler_number_of_each_kodaira_type_is_v_delta():
    # every type kodaira_type returns, on its defining valuations (v(Delta), v(c4))
    defining = [(0, 0), (2, 1), (3, 1), (4, 2), (8, 3), (9, 3), (10, 4)]
    defining += [(n, 0) for n in range(1, 9)] + [(6 + n, 2) for n in range(9)]
    symbols = set()
    for v_delta, v_c4 in defining:
        symbol = kodaira_type(v_delta, v_c4)
        symbols.add(symbol)
        assert euler_and_components(symbol)[0] == v_delta, symbol
    assert {"I0", "I1", "I0*", "I1*", "II", "III", "IV", "IV*", "III*", "II*"} <= symbols


def test_transcendental_rank_is_four_from_the_kodaira_table():
    """Noether's formula and Shioda-Tate fix the rank of the part of H^2
    that P_p sees (Shioda, "On the Mordell-Weil lattices", Comment. Math.
    Univ. St. Paul. 39, 1990; Schuett and Shioda, "Elliptic surfaces", Adv.
    Stud. Pure Math. 60, 2010).  j is not constant, so q = 0 and b_1 = 0."""
    model = surface_model()
    assert bad_places(model) == [0, 1, -1, INF]  # no singular fiber elsewhere
    table = kodaira_table(model)
    assert list(table.values()) == ["I4*", "I2*", "I2*", "I4*"]
    euler = [euler_and_components(symbol)[0] for symbol in table.values()]
    v_delta = [place_valuations(model, place)[0] for place in table]
    assert euler == v_delta and sum(euler) == 36
    chi = sum(euler) // 12
    assert chi == 3
    b2 = 12 * chi - 2  # e(X) = 12 chi = 2 + b_2
    h11 = 10 * chi  # h^{1,1} = b_2 - 2 p_g with p_g = chi - 1
    assert (b2, h11) == (34, 30)
    trivial_rank = 2 + sum(euler_and_components(symbol)[1] - 1 for symbol in table.values())
    assert trivial_rank == 30 == h11  # trivial <= rho <= h^{1,1}, so rho = 30
    rho = trivial_rank
    for p in (3, 5, 7, 11):
        assert lpolynomial(p).as_qpoly().degree == b2 - rho == 4


def test_bad_places_are_exactly_the_four():
    assert bad_places(surface_model()) == [0, 1, -1, INF]


def test_model_at_infinity_is_integral_and_minimal():
    model = surface_model()
    limit, twist = model_at_infinity(model)
    assert twist == 3  # a2 = t^5 - t needs 3 = ceil(5/2), a4 needs ceil(8/4) = 2
    # in s = 1/t: a2 = s^(2*3 - 5) (1 - s^4), a4 = s^(4*3 - 8) (1 - 2 s^2 + s^4)
    assert (limit.a2, limit.a4) == (T - T**5, T**4 - 2 * T**6 + T**8)
    assert limit.a1.is_zero() and limit.a3.is_zero() and limit.a6.is_zero()
    inv = invariants(model)
    v_delta, v_c4 = place_valuations(model, INF)
    assert v_delta == valuation(inv.delta, INF) + 12 * twist
    assert v_c4 == valuation(inv.c4, INF) + 4 * twist
    assert v_delta < 12 or v_c4 < 4


def _random_coeff(rng):
    """A random polynomial of degree <= 2 in t.  Low degrees keep the
    s = 1/t path fast."""
    length = rng.randint(0, 3)
    return QPolynomial([Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(length)])


def test_valuations_at_infinity_match_the_model_in_one_over_t():
    rng = random.Random(31)
    checked = 0
    while checked < 4:
        model = WeierstrassModel.from_coeffs(*(_random_coeff(rng) for _ in range(5)))
        try:
            inv = invariants(model)
        except ValueError:
            continue  # singular
        if inv.c4.is_zero():
            continue  # v(c4) is undefined
        assert place_valuations(model, INF) == valuations_at_infinity(model)
        checked += 1


def test_lowest_terms_cancels_and_makes_the_denominator_monic():
    assert lowest_terms(T**2 - ONE, T - ONE) == (T + ONE, ONE)
    num, den = lowest_terms(2 * T, 4 * T**2)
    assert den.coeffs[-1] == 1  # monic denominator
    assert (num, den) == (Q(1, 2) * ONE, T)
    assert lowest_terms(QPolynomial(), T) == (QPolynomial(), ONE)
    with pytest.raises(ZeroDivisionError):
        lowest_terms(ONE, QPolynomial())
