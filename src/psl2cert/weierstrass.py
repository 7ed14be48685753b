"""Weierstrass models with polynomial coefficients in the parameter t, their
invariants (c4, c6 and Delta as polynomials, j as one reduced pair), pole
orders, and Kodaira fiber types at the four bad places {0, 1, -1, oo}.

No model in s = 1/t is built: the valuations at oo come from those in t,
since c4 and Delta have weights 4 and 12 in the coefficients a_i.

Only those four places are supported in valuation work; the surface under
study is fixed and its discriminant factors completely over them, so general
factorization over Q is deliberately out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import NamedTuple

from .qpoly import Q, QPolynomial, poly_gcd

INF = "oo"  # the place at infinity

FINITE_PLACES = (0, 1, -1)


class UnsupportedPlaceError(ValueError):
    """A denominator or discriminant has a factor outside {t, t-1, t+1}."""


class NonMinimalModelError(ValueError):
    """Valuations (v(c4) >= 4 and v(Delta) >= 12) are off the minimal table."""


def lowest_terms(num: QPolynomial, den: QPolynomial) -> tuple[QPolynomial, QPolynomial]:
    """num / den as a coprime pair with a monic denominator."""
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    g = poly_gcd(num, den)
    num, den = num // g, den // g
    scale = 1 / den.coeffs[-1]
    return num * scale, den * scale


def valuation(f: QPolynomial, place) -> int:
    """Order of vanishing of a nonzero polynomial at a finite place r in
    {0, 1, -1}, or minus its degree at oo."""
    if f.is_zero():
        raise ValueError("valuation of the zero polynomial")
    if place == INF:
        return -f.degree
    if place not in FINITE_PLACES:
        raise UnsupportedPlaceError(f"unsupported place {place!r}")
    factor = QPolynomial([-Q(place), 1])
    v = 0
    while True:
        quo, rem = f.divmod(factor)
        if not rem.is_zero():
            return v
        f, v = quo, v + 1


def _strip_supported_factors(f: QPolynomial) -> tuple[dict[int, int], QPolynomial]:
    mults = {}
    for r in FINITE_PLACES:
        v = valuation(f, r)
        if v:
            mults[r] = v
            f = f // QPolynomial([-Q(r), 1]) ** v
    return mults, f


def pole_orders(j: tuple[QPolynomial, QPolynomial]) -> dict:
    """Map place -> pole order of the quotient j = (num, den) for the
    supported places {0, 1, -1, oo}.

    Raises UnsupportedPlaceError if the reduced denominator has any other
    factor.
    """
    num, den = lowest_terms(*j)
    if num.is_zero():
        return {}
    mults, rest = _strip_supported_factors(den)
    if rest.degree > 0:
        raise UnsupportedPlaceError(f"denominator factor outside supported places: {rest!r}")
    orders = dict(mults)  # coprime form: a denominator root is a genuine pole
    inf_order = num.degree - den.degree
    if inf_order > 0:
        orders[INF] = inf_order
    return orders


class Invariants(NamedTuple):
    c4: QPolynomial
    c6: QPolynomial
    delta: QPolynomial
    j: tuple[QPolynomial, QPolynomial]  # c4^3 / Delta in lowest terms


@dataclass(frozen=True)
class WeierstrassModel:
    """Long Weierstrass coefficients a1..a6 in Q[t]."""

    a1: QPolynomial
    a2: QPolynomial
    a3: QPolynomial
    a4: QPolynomial
    a6: QPolynomial

    @staticmethod
    def from_coeffs(a1=0, a2=0, a3=0, a4=0, a6=0) -> "WeierstrassModel":
        """An int or Fraction is a constant, a list the coefficients lowest
        degree first."""
        coeffs = ([a] if isinstance(a, (int, Fraction)) else a for a in (a1, a2, a3, a4, a6))
        return WeierstrassModel(*(a if isinstance(a, QPolynomial) else QPolynomial(a) for a in coeffs))


@lru_cache(maxsize=8)
def invariants(model: WeierstrassModel) -> Invariants:
    """Exact c4, c6, Delta and the reduced pair j of the model; raises on
    Delta = 0.  Memoised: every place valuation of one model reads one
    computation."""
    a1, a2, a3, a4, a6 = model.a1, model.a2, model.a3, model.a4, model.a6
    b2 = a1**2 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3**2 + 4 * a6
    b8 = a1**2 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3**2 - a4**2
    c4 = b2**2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    delta = -(b2**2) * b8 - 8 * b4**3 - 27 * b6**2 + 9 * b2 * b4 * b6
    if delta.is_zero():
        raise ValueError("singular model: Delta = 0")
    c4_cubed = c4**3
    assert c4_cubed - c6**2 == 1728 * delta
    return Invariants(c4, c6, delta, lowest_terms(c4_cubed, delta))


def kodaira_type(v_delta: int, v_c4: int) -> str:
    """Kodaira symbol from minimal-model valuations (characteristic 0)."""
    if v_c4 >= 4 and v_delta >= 12:
        raise NonMinimalModelError(f"non-minimal valuations v(c4)={v_c4}, v(Delta)={v_delta}")
    if v_delta == 0:
        return "I0"
    if v_c4 == 0:
        return f"I{v_delta}"
    if v_delta == 2:
        return "II"
    if v_delta == 3:
        return "III"
    if v_delta == 4:
        return "IV"
    if v_delta == 6:
        return "I0*"
    if v_c4 == 2 and v_delta >= 7:
        return f"I{v_delta - 6}*"
    if v_delta == 8:
        return "IV*"
    if v_delta == 9:
        return "III*"
    if v_delta == 10:
        return "II*"
    raise ValueError(f"inconsistent valuations v(c4)={v_c4}, v(Delta)={v_delta}")


def place_valuations(model: WeierstrassModel, place) -> tuple[int, int]:
    """(v(Delta), v(c4)) at a supported place.

    At oo they are taken on the least twist a_i -> t^{-im} a_i regular
    there, m = max(0, max_i ceil(-v(a_i) / i)); it adds 12m to v(Delta) and
    4m to v(c4), their weights in the a_i.
    """
    inv = invariants(model)
    if place != INF:
        return valuation(inv.delta, place), valuation(inv.c4, place)
    weights = zip((1, 2, 3, 4, 6), (model.a1, model.a2, model.a3, model.a4, model.a6))
    m = max([0] + [-(valuation(a, INF) // i) for i, a in weights if not a.is_zero()])
    return valuation(inv.delta, INF) + 12 * m, valuation(inv.c4, INF) + 4 * m


def kodaira_table(model: WeierstrassModel) -> dict:
    """Kodaira type at each of the four supported places."""
    out = {}
    for place in (*FINITE_PLACES, INF):
        v_delta, v_c4 = place_valuations(model, place)
        out[place] = kodaira_type(v_delta, v_c4)
    return out


def bad_places(model: WeierstrassModel) -> list:
    """Places of bad reduction; errors if Delta vanishes anywhere else."""
    mults, rest = _strip_supported_factors(invariants(model).delta)
    if rest.degree > 0:
        raise UnsupportedPlaceError(f"Delta vanishes outside supported places: {rest!r}")
    out = [r for r in FINITE_PLACES if mults.get(r, 0) > 0]
    v_delta_inf, _ = place_valuations(model, INF)
    if v_delta_inf > 0:
        out.append(INF)
    return out


def pole_order_lcm(j: tuple[QPolynomial, QPolynomial]) -> int:
    orders = pole_orders(j)
    return lcm(*orders.values()) if orders else 1


# ---------------------------------------------------------------------------
# the fixed surface


def surface_model() -> WeierstrassModel:
    """y^2 = x^3 + (t^5 - t) x^2 + (t^8 - 2 t^6 + t^4) x."""
    a2 = QPolynomial([0, -1, 0, 0, 0, 1])
    a4 = QPolynomial([0, 0, 0, 0, 1, 0, -2, 0, 1])
    return WeierstrassModel.from_coeffs(a2=a2, a4=a4)
