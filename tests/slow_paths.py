"""Independent slow paths, kept as oracles for the code they were replaced by:

- the tuple-at-a-time group closure and the sequential Cartan-Dieudonne grid
  scan, for the batched versions in `tensor` and `ortho`: one 4x4 product per
  candidate, in plain Python;
- Newton's identities as hand-written recurrences, for the exp/log series
  form of `qpoly.power_sums`, `qpoly.nth_power_poly` and
  `ortho.reciprocal_charpoly`;
- the Weierstrass model rewritten in s = 1/t and twisted to be regular at
  s = 0, for the weight formula of `weierstrass.place_valuations` at oo;
- u_p mod l read off the reduced quartic P_p mod l in the SL2 (x) SL2 model,
  for the one definition of u_p mod l that `certify` records;
- a polynomial reduced mod l one coefficient and one inverse at a time, for
  `certify`'s residues over one common denominator per witness;
- a fiber count that re-encodes two shifted copies of F_q, and chi(t^3 - t)
  from field products, for the grid rolls of `lpoly`'s kernel;
- reducibility read off every product of two monic factors, for Rabin's
  test in `gf.is_irreducible`;
- the full lexicographic modulus search, binomials included, for
  `gf.fq_ctx`, which skips the binomials of degree 4 when p = 3 (mod 4);
- matrix products and the bilinear pairing as generator sums over index
  pairs, for the `map(mul, ...)` sums of `ortho`;
- the L-series as a literal Euler product over the closed points of degree
  <= 4, each fiber counted in its own residue field (with the enumeration
  of monic irreducibles and the truncated series product and inverse it
  needs), for the single-field trace sums of `lpoly`;
- the trace of one fiber by a direct sum, for the FFT kernel
  `lpoly.fiber_traces`;
- the surface cleared from its fibration form t(t-1)(t+1) y^2 =
  x (x+1) (x+t^2) by a quadratic twist, for the long model
  `weierstrass.surface_model`.

Only the tests import this module; nothing under `src/` does.
"""

import itertools
from fractions import Fraction as Q
from typing import Sequence

import numpy as np

from psl2cert.gf import FieldCtx, Poly, _monic_polys, fq_ctx, is_irreducible, poly_mul
from psl2cert.lpoly import _chi_grids, _fiber_trace_direct
from psl2cert.modarith import is_prime

from psl2cert.ortho import (
    GRID,
    OrthMatrix,
    identity,
    mat_mul,
    mat_reduce,
    mat_trace,
    mat_vec,
    reflection_matrix,
)
from psl2cert.qpoly import QPolynomial, reduce_mod
from psl2cert import tensor
from psl2cert.weierstrass import RationalFunction, WeierstrassModel, _coerce, invariants, valuation


def group_order_tuple_bfs(generators, ell: int) -> int:
    """Order of the group generated over F_l, one product at a time, with
    each element keyed by its entries read as base-l digits; the same
    `tensor.CLOSURE_CAP` as the batched closure."""

    def pack(m) -> int:
        key = 0
        for row in m:
            for x in row:
                key = key * ell + x
        return key

    gens = [mat_reduce(g, ell) for g in generators]
    start = identity(len(gens[0]))
    seen = {pack(start)}
    frontier = [start]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = mat_mul(m, g, ell)
                key = pack(prod)
                if key not in seen:
                    seen.add(key)
                    if len(seen) > tensor.CLOSURE_CAP:
                        raise tensor.CapExceededError(f"group closure exceeded cap {tensor.CLOSURE_CAP}")
                    nxt.append(prod)
        frontier = nxt
    return len(seen)


def _factor_sequential(mat, basis, form):
    if mat == identity():
        return []
    ell = form.ell
    first = None
    for coeffs in itertools.product(range(GRID), repeat=len(basis)):
        x = tuple(sum(c * b[k] for c, b in zip(coeffs, basis)) % ell for k in range(4))
        qx = form.norm(x)
        if qx == 0:
            continue
        if first is None:
            first = x
        w = tuple((y - z) % ell for y, z in zip(mat_vec(mat, x, ell), x))
        if any(w) and form.norm(w) == 0:
            continue
        k = next(i for i, c in enumerate(coeffs) if c)
        inv = pow(qx, -1, ell)
        rest = [
            tuple((y - form.pair(b, x) * inv * z) % ell for y, z in zip(b, x))
            for i, b in enumerate(basis)
            if i != k
        ]
        if not any(w):
            return _factor_sequential(mat, rest, form)
        return [w] + _factor_sequential(mat_mul(reflection_matrix(w, form), mat, ell), rest, form)
    return [first] + _factor_sequential(mat_mul(reflection_matrix(first, form), mat, ell), basis, form)


def cartan_dieudonne_sequential(m: OrthMatrix) -> list:
    """Reflection vectors for m, scanning the grid {0..4}^dim candidate by
    candidate and keeping the first that passes."""
    return _factor_sequential(m.mat, list(identity()), m.form)


def power_sums_recurrence(poly: QPolynomial, count: int) -> list:
    """s_1..s_count of the inverse roots of a quartic with P(0) = 1, by
    Newton's recurrence on e_i = (-1)^i [T^i] P."""
    e = [(-1) ** i * poly[i] for i in range(5)]
    s = []
    for m in range(1, count + 1):
        acc = Q(0)
        for i in range(1, min(m, 4) + 1):
            acc += (-1) ** (i - 1) * e[i] * (i if i == m else s[m - i - 1])
        s.append(acc)
    return s


def elementary_from_power_sums(t) -> list:
    """e_1..e_4 from power sums t_1..t_4 of four quantities."""
    t1, t2, t3, t4 = (Q(x) for x in t)
    e1 = t1
    e2 = (e1 * t1 - t2) / 2
    e3 = (e2 * t1 - e1 * t2 + t3) / 3
    e4 = (e3 * t1 - e2 * t2 + e1 * t3 - t4) / 4
    return [e1, e2, e3, e4]


def nth_power_poly_recurrence(poly: QPolynomial, n: int) -> QPolynomial:
    s = power_sums_recurrence(poly, 4 * n)
    e1, e2, e3, e4 = elementary_from_power_sums([s[n - 1], s[2 * n - 1], s[3 * n - 1], s[4 * n - 1]])
    return QPolynomial([1, -e1, e2, -e3, e4])


def reciprocal_charpoly_recurrence(m, ell: int) -> tuple:
    powers = [m]
    for _ in range(3):
        powers.append(mat_mul(powers[-1], m, ell))
    e = elementary_from_power_sums([mat_trace(x, ell) for x in powers])
    e1, e2, e3, e4 = (reduce_mod(x, ell) for x in e)
    return (1, -e1 % ell, e2, -e3 % ell, e4)


def _substitute_inverse(f: RationalFunction) -> RationalFunction:
    """f(1/s) as a rational function of s."""
    rev_n = QPolynomial(list(reversed(f.num.coeffs)))
    rev_d = QPolynomial(list(reversed(f.den.coeffs)))
    shift = f.den.degree - f.num.degree
    if shift >= 0:
        return RationalFunction(rev_n * QPolynomial([0] * shift + [1]), rev_d)
    return RationalFunction(rev_n, rev_d * QPolynomial([0] * -shift + [1]))


def model_at_infinity(model: WeierstrassModel) -> tuple:
    """(model in s = 1/t twisted by (x, y) -> (s^{-2m} x, s^{-3m} y), m):
    the least m making every coefficient regular at s = 0."""
    coeffs = {i: _substitute_inverse(getattr(model, f"a{i}")) for i in (1, 2, 3, 4, 6)}
    m = 0
    for i, f in coeffs.items():
        if not f.is_zero():
            m = max(m, (-valuation(f, 0) + i - 1) // i)  # ceil(-v / i)
    twisted = {i: f * RationalFunction(QPolynomial([0] * (i * m) + [1])) for i, f in coeffs.items()}
    return WeierstrassModel(*twisted.values()), m


def valuations_at_infinity(model: WeierstrassModel) -> tuple:
    """(v(Delta), v(c4)) at s = 0 of the twisted model in s = 1/t."""
    inv = invariants(model_at_infinity(model)[0])
    return valuation(inv.delta, 0), valuation(inv.c4, 0)


class FormMismatchError(ValueError):
    """A reduced quartic does not have the residue-class mandated shape."""


def trace_square_invariant(pmod: tuple[int, ...], p: int, ell: int) -> int:
    """The squared trace of either Kronecker factor, read off a reduced
    quartic 1 + c1 T + c2 T^2 + c3 T^3 + c4 T^4 over F_l.

    For p = 1 (mod 4) the quartic must be (1 + bT + T^2)^2 and the value is
    b^2; for p = 3 (mod 4) it must be 1 + (b^2 - 2) T^2 + T^4 and the value
    is c2 + 2.  Well defined despite the sign ambiguity of the trace.
    """
    if p % 2 == 0 or p % ell == 0:
        raise ValueError("witness prime must be odd and different from l")
    c = tuple(x % ell for x in pmod)
    if len(c) != 5 or c[0] != 1:
        raise FormMismatchError(f"not a quartic with constant term 1: {c}")
    if p % 4 == 1:
        b = c[1] * pow(2, -1, ell) % ell
        expect = (1, 2 * b % ell, (b * b + 2) % ell, 2 * b % ell, 1)
        if c != expect:
            raise FormMismatchError(f"reduction {c} is not a squared quadratic mod {ell}")
        return b * b % ell
    if c[1] != 0 or c[3] != 0 or c[4] != 1:
        raise FormMismatchError(f"reduction {c} is not biquadratic mod {ell}")
    return (c[2] + 2) % ell


def reduce_poly_mod(poly: QPolynomial, ell: int) -> tuple[int, ...]:
    """Coefficients of poly in F_ell, lowest degree first; one per
    coefficient of poly, so a quartic gives five."""
    return tuple(reduce_mod(c, ell) for c in poly.coeffs)


def fiber_trace_encoded(ctx, enc: int) -> int:
    """Trace at one encoded good parameter: sum over x of chi(x) chi(x+1)
    chi(x+t0^2), each shifted copy of F_q added coefficient-wise and
    re-encoded, times -chi(t0^3 - t0) read from the element's encoding."""
    t0 = ctx.decode(enc)
    c2 = t0 * t0
    chi = ctx.chi_table()
    x = ctx.coeff_arrays(np.arange(ctx.q))

    def chi_shifted(v):  # chi(x + v) for every x
        return chi[ctx.encode_arrays((x + np.array(v.coeffs, dtype=x.dtype)[:, None]) % ctx.p)]

    s = int((chi * chi_shifted(ctx.elem(1)).astype(np.int64) * chi_shifted(c2)).sum())
    return -int(chi[ctx.encode(c2 * t0 - t0)]) * s


def chi_cubic_by_products(ctx) -> np.ndarray:
    """chi(t^3 - t) for every t, indexed by encoding, from two whole-field
    products."""
    t = ctx.coeff_arrays(np.arange(ctx.q))
    cube = ctx.mul_arrays(ctx.mul_arrays(t, t), t)
    return ctx.chi_table()[ctx.encode_arrays((cube - t) % ctx.p)]


def reducible_monics(p: int, d: int) -> set:
    """Every monic polynomial of degree d over F_p that is a product of two
    monic polynomials of positive degree, from all such products."""

    def monics(e):
        return (tuple(c) + (1,) for c in itertools.product(range(p), repeat=e))

    return {poly_mul(f, g, p) for e in range(1, d // 2 + 1) for f in monics(e) for g in monics(d - e)}


def fq_modulus_full_search(p: int, k: int) -> tuple:
    """The lexicographically first monic irreducible of degree k over F_p,
    trying every candidate."""
    return next(m for m in _monic_polys(p, k) if is_irreducible(m, p))


def mat_mul_generator(a, b, ell: int) -> tuple:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % ell for col in bt) for row in a)


def mat_vec_generator(a, v, ell: int) -> tuple:
    return tuple(sum(x * y for x, y in zip(row, v)) % ell for row in a)


def pair_double_sum(form, v, w) -> int:
    """<v, w> as the double sum of v_i g_ij w_j."""
    n = len(form.gram)
    return sum(v[i] * form.gram[i][j] * w[j] for i in range(n) for j in range(n)) % form.ell


def enum_irreducibles(p: int, d: int) -> list[Poly]:
    """All monic irreducible polynomials of degree d over F_p, in
    lexicographic order (constant coefficient compared last)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not 1 <= d <= 4:
        raise ValueError("degree out of range 1..4")
    return [m for m in _monic_polys(p, d) if is_irreducible(m, p)]


def series_mul(a: Sequence, b: Sequence, order: int) -> list:
    out = [0] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai:
            for j, bj in enumerate(b[: order + 1 - i]):
                out[i + j] += ai * bj
    return out


def series_inverse(a: Sequence, order: int) -> list:
    """Multiplicative inverse of a power series with a[0] = 1."""
    if a[0] != 1:
        raise ValueError("series inverse requires unit constant term 1")
    a = list(a) + [0] * order
    inv = [1] + [0] * order
    for n in range(1, order + 1):
        inv[n] = -sum(a[j] * inv[n - j] for j in range(1, n + 1))
    return inv


def fiber_trace(p: int, k: int, t0) -> int:
    """Trace a = q + 1 - #E_{t0}(F_q) for the fiber at t0 in F_{p^k} (direct).

    t0 may be an FqElem of fq_ctx(p, k), an int (prime-subfield value) or a
    coefficient sequence.
    """
    ctx = fq_ctx(p, k)
    return _fiber_trace_direct(ctx, ctx.encode(ctx.elem(t0)), *_chi_grids(ctx)[:2])


def euler_product_truncated(p: int, max_degree: int) -> list[int]:
    """The L-series as a literal Euler product over closed points of degree
    <= max_degree, expanded to that order; exact integer coefficients.

    Closed points of the parameter line are monic irreducibles; the three
    linear polynomials at the singular parameters contribute no factor.
    Each remaining point is handled in its own residue field, which keeps
    this independent of the single-field aggregation done by trace_sum.
    """
    if not 1 <= max_degree <= 4:
        raise ValueError("max_degree must be 1..4")
    series = [1] + [0] * max_degree
    for d in range(1, max_degree + 1):
        for modulus in enum_irreducibles(p, d):
            if d == 1 and (-modulus[0]) % p in (0, 1, p - 1):
                continue  # singular parameter
            ctx = FieldCtx(p, d, modulus)
            t_bar = (-modulus[0]) % p if d == 1 else ctx.encode(ctx.elem((0, 1)))
            a_x = _fiber_trace_direct(ctx, t_bar, *_chi_grids(ctx)[:2])
            local = [1] + [0] * (max_degree + d)  # 1 - a_x T^d + p^d T^(2d)
            local[d], local[2 * d] = -a_x, p**d
            series = series_mul(series, series_inverse(local, max_degree), max_degree)
    return series


def from_quadratic_twist(c, a, b, d=0) -> WeierstrassModel:
    """Clear c(t) y^2 = x^3 + a x^2 + b x + d to long form via
    (x, y) -> (c x, c^2 y)."""
    c, a, b, d = map(_coerce, (c, a, b, d))
    return WeierstrassModel.from_coeffs(a2=a * c, a4=b * c**2, a6=d * c**3)


def surface_model_from_fibration() -> WeierstrassModel:
    """The same surface, cleared from the fibration form
    t(t-1)(t+1) y^2 = x (x+1) (x+t^2)."""
    c = QPolynomial([0, -1, 0, 1])  # t^3 - t
    a = QPolynomial([1, 0, 1])  # coefficient of x^2 in x(x+1)(x+t^2)
    b = QPolynomial([0, 0, 1])  # coefficient of x
    return from_quadratic_twist(c, a, b)
