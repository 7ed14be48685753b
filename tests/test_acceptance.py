"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s`) and
asserts the criterion at its stated tolerance; the arithmetic is exact, so
tolerance means equality unless a runtime bound is part of the criterion.
"""

import random
import time
from fractions import Fraction as Q

from conftest import rand_orthogonal, rand_sl2
from psl2cert.certify import certify_range
from psl2cert.lpoly import (
    MODE_FULL,
    BiquadraticShape,
    SquareShape,
    lpolynomial,
    shape_classify,
    trace_sum,
)
from psl2cert.modarith import primes_in_range
from psl2cert.ortho import (
    OrthMatrix,
    SquareClass,
    identity,
    in_omega,
    mat_add,
    mat_det,
    mat_mul,
    mat_neg,
    spinor_norm,
    spinor_norm_by_reflections,
)
from psl2cert.qpoly import QPolynomial, nth_power_poly, reduce_mod, series_exp
from psl2cert.tensor import (
    GaussianMat,
    M2_IDENTITY,
    block_diagonal_pair,
    complex_structure,
    group_order_bfs,
    kronecker_decompose,
    sl2_generators,
    tensor_action,
    tensor_action_matrix,
    tensor_form,
    to_gaussian,
)
from psl2cert.weierstrass import (
    INF,
    RationalFunction,
    invariants,
    kodaira_table,
    pole_order_lcm,
    surface_model,
)
from slow_paths import euler_product_truncated, reduce_poly_mod, trace_square_invariant


def report(number, description, checks, detail=""):
    ok = all(checks)
    line = f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_01_explicit_lpolynomials_from_counts():
    t0 = time.perf_counter()
    p3 = lpolynomial(3)
    t3 = time.perf_counter() - t0
    t0 = time.perf_counter()
    p5 = lpolynomial(5)
    t5 = time.perf_counter() - t0
    checks = [
        p3.as_qpoly() == QPolynomial([1, 0, Q(-2, 9), 0, 1]),
        p5.as_qpoly() == QPolynomial([1, Q(-2, 5), 1]) ** 2,
        t3 < 1.0,
        t5 < 1.0,
    ]
    report(1, "P_3 and P_5 from point counts, under 1s each", checks, f"{t3:.3f}s / {t5:.3f}s")


def test_criterion_02_euler_product_oracle():
    checks = [
        euler_product_truncated(3, 2) == [1, 0, -2],
        euler_product_truncated(5, 2) == [1, -4, 54],
    ]
    for p in primes_in_range(3, 13):
        a1, a2 = trace_sum(p, 1), trace_sum(p, 2)
        from_traces = series_exp([Q(0), Q(a1), Q(a2, 2)], 2)
        checks.append(euler_product_truncated(p, 2) == from_traces)
    report(2, "Euler product matches appendix truncations and trace sums", checks)


def test_criterion_03_full_direct_cross_check():
    t0 = time.perf_counter()
    checks = []
    for p in (3, 5, 7):
        checks.append(lpolynomial(p, MODE_FULL) == lpolynomial(p))
    elapsed = time.perf_counter() - t0
    checks.append(elapsed < 60.0)
    report(3, "degree-3/4 counts confirm the reciprocal completion", checks, f"{elapsed:.1f}s")


def test_criterion_04_fourth_power_regression():
    p3 = lpolynomial(3).as_qpoly()
    p5 = lpolynomial(5).as_qpoly()
    sq = lambda b: QPolynomial([1, b, 1]) ** 2
    checks = [
        nth_power_poly(p3, 2) == sq(Q(-2, 9)),
        nth_power_poly(p3, 4) == sq(Q(158, 81)),
        nth_power_poly(p5, 4) == sq(Q(-866, 625)),
    ]
    report(4, "power transforms match the published squares exactly", checks)


def test_criterion_05_evaluation_table():
    p34 = nth_power_poly(lpolynomial(3).as_qpoly(), 4)
    p54 = nth_power_poly(lpolynomial(5).as_qpoly(), 4)
    expected = [
        (p34, 1, Q(2**12 * 5**2, 3**8)),
        (p34, -1, Q(2**4, 3**8)),
        (p34, 3**4, Q(2**12 * 3**2 * 5**2 * 7**2)),
        (p34, -(3**4), Q(2**4 * 1601**2)),
        (p54, 1, Q(2**14 * 3**2, 5**8)),
        (p54, -1, Q(2**4 * 23**4, 5**8)),
        (p54, 5**4, Q(2**14 * 3**2 * 5**2 * 7**2 * 29**2)),
        (p54, -(5**4), Q(2**4 * 97**2 * 1009**2)),
    ]
    checks = [poly(x) == want for poly, x, want in expected]
    report(5, "all eight fourth-power evaluations match their factored forms", checks)


def test_criterion_06_shape_law_to_100():
    t0 = time.perf_counter()
    checks = []
    for p in primes_in_range(3, 100):
        shape = shape_classify(lpolynomial(p))  # raises ShapeViolation on mismatch
        checks.append((shape.b * p).denominator == 1)
        checks.append(isinstance(shape, SquareShape if p % 4 == 1 else BiquadraticShape))
    elapsed = time.perf_counter() - t0
    checks.append(elapsed < 120.0)
    report(6, "every odd prime to 100 obeys the shape law", checks, f"{elapsed:.1f}s")


def test_criterion_07_certification_range():
    t0 = time.perf_counter()
    certs = certify_range(11, 10_000)
    elapsed = time.perf_counter() - t0
    exceptional_second = [c.ell for c in certs if 3 in c.exceptional.failed]
    borel_second = [c.ell for c in certs if 3 in c.borel.failed]
    checks = [
        certs.all_certified,
        all(c.verdict == "Certified" for c in certs),
        len(certs) == len(primes_in_range(11, 10_000)),
        exceptional_second == [19],
        borel_second == [1601],
        elapsed < 10.0,
    ]
    report(
        7,
        "range 11..10^4 certified; second witness needed only at 19 (exceptional) and 1601 (borel)",
        checks,
        f"{len(certs)} primes in {elapsed:.2f}s",
    )


def test_criterion_08_orthogonal_property_suite():
    checks = []
    for ell in (11, 13, 19):
        form = tensor_form(ell)
        rng = random.Random(1000 + ell)
        for _ in range(200):
            a = rand_orthogonal(form, rng, rng.randint(1, 4))
            b = rand_orthogonal(form, rng, rng.randint(1, 4))
            checks.append(spinor_norm(a @ b) is spinor_norm(a) * spinor_norm(b))
            if mat_det(mat_add(identity(), a.mat, ell), ell) != 0:
                checks.append(spinor_norm(a) is spinor_norm_by_reflections(a))
            m = tensor_action(rand_sl2(ell, rng), rand_sl2(ell, rng), ell)
            checks.append(in_omega(m))
        minus = OrthMatrix(mat_neg(identity(), ell), form)
        checks.append(spinor_norm(minus) is SquareClass.SQUARE)
    report(8, "spinor homomorphism, dual-path agreement, Omega membership", checks)


def test_criterion_09_tensor_suite():
    checks = []
    for ell in (11, 13, 19):
        rng = random.Random(2000 + ell)
        neg = mat_neg(M2_IDENTITY, ell)
        checks.append(tensor_action(M2_IDENTITY, M2_IDENTITY, ell).mat == identity())
        checks.append(tensor_action(neg, neg, ell).mat == identity())
        for _ in range(100):
            a, b = rand_sl2(ell, rng), rand_sl2(ell, rng)
            if (a, b) not in ((M2_IDENTITY, M2_IDENTITY), (neg, neg)):
                checks.append(tensor_action(a, b, ell).mat != identity())
            pair = kronecker_decompose(tensor_action(a, b, ell))
            checks.append(tensor_action_matrix(pair.a, pair.b, ell) == tensor_action(a, b, ell).mat)
        p3 = reduce_poly_mod(lpolynomial(3).as_qpoly(), ell)
        p5 = reduce_poly_mod(lpolynomial(5).as_qpoly(), ell)
        checks.append(trace_square_invariant(p3, 3, ell) == reduce_mod(Q(16, 9), ell))
        checks.append(trace_square_invariant(p5, 5, ell) == reduce_mod(Q(4, 25), ell))
    report(9, "pair-action kernel, Kronecker roundtrips, trace-square values", checks)


def test_criterion_10_group_identities_at_11():
    t0 = time.perf_counter()
    ell = 11
    s, t = sl2_generators(ell)
    h_gens = [block_diagonal_pair(s, ell), block_diagonal_pair(t, ell)]
    gamma = complex_structure(ell)
    h_order = group_order_bfs(h_gens, ell)
    g_order = group_order_bfs(h_gens + [gamma], ell)
    checks = [
        h_order == 1320,
        g_order == 2640,
        g_order // 4 == 660,
        660 == ell * (ell * ell - 1) // 2,
        to_gaussian(gamma, ell) == GaussianMat(ell, (((0, 1), (0, 0)), ((0, 0), (0, 1)))),
    ]
    rng = random.Random(10)
    members = []
    for _ in range(100):
        m = identity()
        for _ in range(rng.randint(2, 12)):
            m = mat_mul(m, rng.choice(h_gens + [gamma]), ell)
        members.append(m)
    for m1, m2 in zip(members, members[1:]):
        checks.append(to_gaussian(m1, ell) * to_gaussian(m2, ell) == to_gaussian(mat_mul(m1, m2, ell), ell))
    elapsed = time.perf_counter() - t0
    checks.append(elapsed < 30.0)
    report(10, "group orders 1320/2640/660 and the Gaussian model at l=11", checks, f"{elapsed:.1f}s")


def test_criterion_11_weierstrass_suite():
    model = surface_model()
    inv = invariants(model)
    t = QPolynomial([0, 1])
    one = QPolynomial([1])
    checks = [
        inv.delta == RationalFunction(16 * t**10 * (t - one) ** 8 * (t + one) ** 8),
        inv.j
        == RationalFunction(
            256 * QPolynomial([1, 0, -1, 0, 1]) ** 3,
            t**4 * (t - one) ** 2 * (t + one) ** 2,
        ),
        pole_order_lcm(inv.j) == 4,
        kodaira_table(model) == {0: "I4*", 1: "I2*", -1: "I2*", INF: "I4*"},
    ]
    report(11, "discriminant, j, pole orders, Kodaira types", checks)
