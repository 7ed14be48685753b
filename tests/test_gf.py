"""Finite field contexts, the table bound, quadratic characters, irreducibility."""

import random
from functools import partial

import numpy as np
import pytest

from psl2cert import gf
from psl2cert.gf import FieldCtx, _monic_polys, fq_ctx, is_irreducible, poly_eval, quad_char
from psl2cert.lpoly import MODE_FE, MODE_FULL, fiber_traces, lpolynomial, trace_sum
from psl2cert.modarith import OutOfRangeError, primes_in_range
from slow_paths import enum_irreducibles, fq_modulus_full_search, reducible_monics


def brute_force_irreducible_quadratics(p):
    """Oracle: monic quadratics with no root, in lexicographic order."""
    out = []
    for c1 in range(p):
        for c0 in range(p):
            m = (c0, c1, 1)
            if all(poly_eval(m, x, p) != 0 for x in range(p)):
                out.append(m)
    return out


def test_ctx_f3_modulus_is_lex_smallest_irreducible_quadratic():
    oracle = brute_force_irreducible_quadratics(3)
    assert oracle[0] == (1, 0, 1)  # t^2 + 1
    assert fq_ctx(3, 2).modulus == oracle[0]


def test_ctx_prime_field_modulus_is_t():
    assert fq_ctx(3, 1).modulus == (0, 1)


def test_ctx_sizes():
    assert fq_ctx(5, 4).q == 625
    assert fq_ctx(7, 2).q == 49


def test_ctx_rejects_bad_input():
    with pytest.raises(ValueError):
        fq_ctx(9, 1)
    with pytest.raises(ValueError):
        fq_ctx(2, 1)
    with pytest.raises(ValueError):
        fq_ctx(5, 5)
    with pytest.raises(ValueError):
        FieldCtx(3, 2, (0, 0, 1))  # t^2 is reducible


def test_field_axioms_small():
    ctx = fq_ctx(3, 2)
    elems = list(ctx.elements())
    assert len(elems) == 9
    one = ctx.elem(1)
    for a in elems:
        if not a.is_zero():
            assert a * a.inverse() == one
        assert a ** ctx.q == a  # Frobenius at full power fixes everything


def test_frobenius_fixes_exactly_prime_subfield():
    for (p, k) in [(3, 2), (5, 2)]:
        ctx = fq_ctx(p, k)
        fixed = [a for a in ctx.elements() if a.frobenius() == a]
        assert len(fixed) == p
        assert all(all(c == 0 for c in a.coeffs[1:]) for a in fixed)


def test_quad_char_conventions():
    ctx3 = fq_ctx(3, 1)
    assert quad_char(ctx3, 0) == 0
    assert quad_char(ctx3, 1) == 1
    # squares in F_3 are {0, 1}, exhaustively
    squares = {(x * x) % 3 for x in range(3)}
    assert 2 not in squares
    assert quad_char(ctx3, 2) == -1


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (11, 1), (3, 2), (5, 2), (7, 2), (11, 2), (3, 4)])
def test_quad_char_multiplicative_exhaustive(p, k):
    ctx = fq_ctx(p, k)
    elems = list(ctx.elements())
    chi = {ctx.encode(a): quad_char(ctx, a) for a in elems}
    for a in elems:
        if a.is_zero():
            continue
        for b in elems:
            if b.is_zero():
                continue
            assert chi[ctx.encode(a)] * chi[ctx.encode(b)] == chi[ctx.encode(a * b)]


@pytest.mark.parametrize("p,k", [(3, 1), (7, 1), (3, 2), (5, 2)])
def test_quad_char_counts_square_roots(p, k):
    ctx = fq_ctx(p, k)
    elems = list(ctx.elements())
    for v in elems:
        solutions = sum(1 for y in elems if y * y == v)
        assert solutions == 1 + quad_char(ctx, v)


def test_chi_table_matches_power_path():
    # the squares-built table against Euler's criterion, every field with q <= 5^4
    for p in primes_in_range(3, 5**4):
        for k in range(1, 5):
            ctx = fq_ctx(p, k)
            if ctx.q > 5**4:
                break
            half = (ctx.q - 1) // 2
            euler = [0] + [1 if a**half == ctx.elem(1) else -1 for a in list(ctx.elements())[1:]]
            assert ctx.chi_table().tolist() == euler, (p, k)


@pytest.mark.parametrize("p,k", [(3, 1), (7, 2), (5, 3), (3, 4), (11, 4)])
def test_mul_arrays_matches_element_products(p, k):
    ctx = fq_ctx(p, k)
    rng = random.Random(p * 10 + k)
    left = [rng.randrange(ctx.q) for _ in range(200)]
    right = [rng.randrange(ctx.q) for _ in range(200)]
    got = ctx.encode_arrays(ctx.mul_arrays(ctx.coeff_arrays(left), ctx.coeff_arrays(right)))
    want = [ctx.encode(ctx.decode(a) * ctx.decode(b)) for a, b in zip(left, right)]
    assert got.tolist() == want
    assert np.array_equal(ctx.encode_arrays(ctx.coeff_arrays(left)), left)


def test_enum_irreducibles_linear():
    # all linear monic polynomials: t - c for c in F_3
    assert enum_irreducibles(3, 1) == [(0, 1), (1, 1), (2, 1)]


def test_enum_irreducibles_against_brute_force():
    assert enum_irreducibles(3, 2) == brute_force_irreducible_quadratics(3)
    assert len(enum_irreducibles(3, 2)) == 3
    assert len(enum_irreducibles(5, 2)) == 10
    assert len(enum_irreducibles(5, 2)) == (5 * 5 - 5) // 2


def mobius_count(p, d):
    """(1/d) sum_{e | d} mu(e) p^(d/e)."""
    mu = {1: 1, 2: -1, 3: -1, 4: 0}
    total = sum(mu[e] * p ** (d // e) for e in range(1, d + 1) if d % e == 0)
    return total // d


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_enum_irreducibles_count_formula(p, d):
    assert len(enum_irreducibles(p, d)) == mobius_count(p, d)


@pytest.mark.parametrize("p,d", [(3, 3), (3, 4), (5, 3)])
def test_enumerated_polynomials_have_no_roots(p, d):
    for m in enum_irreducibles(p, d):
        assert all(poly_eval(m, x, p) != 0 for x in range(p))


@pytest.mark.parametrize("p,degrees", [(3, (1, 2, 3, 4)), (5, (1, 2, 3, 4)), (7, (1, 2, 3, 4)), (11, (4,))])
def test_is_irreducible_matches_every_product_of_monic_factors(p, degrees):
    for d in degrees:
        reducible = reducible_monics(p, d)
        for m in _monic_polys(p, d):
            assert is_irreducible(m, p) == (m not in reducible), m


def test_extension_arithmetic_matches_modulus():
    # in F_9 = F_3[t]/(t^2+1) the generator squares to -1
    ctx = fq_ctx(3, 2)
    t = ctx.elem((0, 1))
    assert t * t == ctx.elem(-1)
    assert (t * t * t * t) == ctx.elem(1)


def test_field_above_table_bound_is_refused(monkeypatch):
    # q = p^k > 2^20: every entry point raises before a single irreducibility
    # test, so no modulus search runs (a root scan alone costs O(p))
    calls = []
    monkeypatch.setattr(gf, "is_irreducible", lambda m, p: calls.append(m) or is_irreducible(m, p))
    for p, k in [(1031, 2), (10007, 3), (1000003, 2), (37, 4)]:
        refusal = f"field of size {p}^{k} = {p**k} exceeds the {gf.CHI_TABLE_MAX_Q}-entry character table"
        binomial = (1,) + (0,) * (k - 1) + (1,)
        for call in (fq_ctx, partial(FieldCtx, modulus=binomial), trace_sum, fiber_traces):
            with pytest.raises(OutOfRangeError) as excinfo:
                call(p, k)
            assert str(excinfo.value) == refusal, call
        with pytest.raises(OutOfRangeError) as excinfo:
            lpolynomial(p, MODE_FE if k == 2 else MODE_FULL)  # Full mode: refused from p = 37 on
        assert k > 2 or str(excinfo.value) == refusal
    assert calls == []


def test_quartic_modulus_skips_only_reducible_binomials():
    # for p = 3 (mod 4) fq_ctx starts past the binomials x^4 + c, and the
    # modulus must be the full search's (every quartic field under the table
    # bound, p <= 31); for p = 1 (mod 4) some binomial is irreducible, so the
    # skip must stay off there
    for p in primes_in_range(3, 200):
        if p**4 <= gf.CHI_TABLE_MAX_Q:
            assert fq_ctx.__wrapped__(p, 4).modulus == fq_modulus_full_search(p, 4), p
        binomials = [(c, 0, 0, 0, 1) for c in range(p)]
        assert any(map(is_irreducible, binomials, [p] * p)) == (p % 4 == 1), p
