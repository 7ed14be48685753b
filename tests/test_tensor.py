"""The SL2 pair action, Kronecker factorization, the trace-square oracle,
and the block-diagonal group with its Gaussian model."""

import random
from fractions import Fraction as Q

import pytest

from conftest import rand_sl2
from psl2cert.lpoly import lpolynomial
from psl2cert.modarith import legendre, sqrt_mod
from psl2cert.ortho import (
    identity,
    in_omega,
    mat_mul,
    mat_neg,
    mat_reduce,
    mat_trace,
    reciprocal_charpoly,
)
from psl2cert.qpoly import reduce_mod, reduce_poly_mod
from psl2cert.tensor import (
    B0,
    CapExceededError,
    GaussianMat,
    M2_IDENTITY,
    NotDecomposableError,
    NotInGroupError,
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
from slow_paths import FormMismatchError, group_order_tuple_bfs, trace_square_invariant

LS = (11, 13, 19)


def test_tensor_form_properties():
    def h(v, w):  # the symplectic pairing on F_l^2
        return v[0] * w[1] - v[1] * w[0]

    e1, e2 = (1, 0), (0, 1)
    basis = ((e1, e1), (e2, e1), (e1, e2), (e2, e2))  # v (x) w as (v, w)
    for ell in LS:
        assert tensor_form(ell).gram == tuple(
            tuple(h(v1, v2) * h(w1, w2) % ell for v2, w2 in basis) for v1, w1 in basis
        )
    form = tensor_form(11)
    gram = form.gram
    assert gram == tuple(zip(*gram))
    assert gram[0][3] == 1 and gram[1][2] == 10


def test_action_identity_and_kernel_pair():
    ell = 11
    assert tensor_action(M2_IDENTITY, M2_IDENTITY, ell).mat == identity()
    neg = mat_neg(M2_IDENTITY, ell)
    assert tensor_action(neg, neg, ell).mat == identity()


def test_action_requires_determinant_one():
    with pytest.raises(ValueError):
        tensor_action(((2, 0), (0, 1)), M2_IDENTITY, 11)


@pytest.mark.parametrize("ell", LS)
def test_action_is_homomorphism(ell):
    rng = random.Random(ell * 3)
    for _ in range(100):
        a1, a2 = rand_sl2(ell, rng), rand_sl2(ell, rng)
        b1, b2 = rand_sl2(ell, rng), rand_sl2(ell, rng)
        lhs = tensor_action(mat_mul(a1, a2, ell), mat_mul(b1, b2, ell), ell)
        rhs = tensor_action(a1, b1, ell) @ tensor_action(a2, b2, ell)
        assert lhs.mat == rhs.mat


@pytest.mark.parametrize("ell", LS)
def test_action_lands_in_omega(ell):
    rng = random.Random(ell * 7)
    for _ in range(200):
        m = tensor_action(rand_sl2(ell, rng), rand_sl2(ell, rng), ell)
        assert in_omega(m)


@pytest.mark.parametrize("ell", LS)
def test_action_kernel_is_plus_minus_identity(ell):
    rng = random.Random(ell * 13)
    neg = mat_neg(M2_IDENTITY, ell)
    for _ in range(60):
        a, b = rand_sl2(ell, rng), rand_sl2(ell, rng)
        if (a, b) in ((M2_IDENTITY, M2_IDENTITY), (neg, neg)):
            continue
        assert tensor_action(a, b, ell).mat != identity()
    # the two kernel elements really do act trivially
    assert tensor_action(neg, neg, ell).mat == identity()


def test_decompose_identity_and_gamma():
    ell = 11
    pair = kronecker_decompose(tensor_action(M2_IDENTITY, M2_IDENTITY, ell))
    assert pair.a == M2_IDENTITY and pair.b == M2_IDENTITY
    pair = kronecker_decompose(complex_structure(ell), ell)
    assert pair.a == M2_IDENTITY
    assert pair.b == mat_reduce(B0, ell)


@pytest.mark.parametrize("ell", LS)
def test_decompose_roundtrip(ell):
    rng = random.Random(ell * 17)
    for _ in range(100):
        a, b = rand_sl2(ell, rng), rand_sl2(ell, rng)
        m = tensor_action(a, b, ell)
        pair = kronecker_decompose(m)
        assert tensor_action_matrix(pair.a, pair.b, ell) == m.mat
        # the canonical representative is one of (A, B), (-A, -B)
        assert pair.a in (a, mat_neg(a, ell))


def test_decompose_canonical_sign():
    ell = 11
    rng = random.Random(4)
    for _ in range(50):
        pair = kronecker_decompose(tensor_action(rand_sl2(ell, rng), rand_sl2(ell, rng), ell))
        first = next(x for row in pair.a for x in row if x)
        assert 1 <= first <= (ell - 1) // 2


def test_decompose_rejects_non_products():
    ell = 11
    # perturb one entry of a genuine product
    m = [list(row) for row in tensor_action(((1, 1), (0, 1)), ((2, 1), (1, 1)), ell).mat]
    m[0][0] = (m[0][0] + 1) % ell
    with pytest.raises(NotDecomposableError):
        kronecker_decompose(tuple(tuple(row) for row in m), ell)
    with pytest.raises(NotDecomposableError):
        kronecker_decompose(tuple(tuple(0 for _ in range(4)) for _ in range(4)), ell)


def test_trace_square_invariant_known_values():
    p3 = lpolynomial(3).as_qpoly()
    p5 = lpolynomial(5).as_qpoly()
    for ell in (11, 13, 19, 23, 101):
        u3 = trace_square_invariant(reduce_poly_mod(p3, ell), 3, ell)
        assert u3 == reduce_mod(Q(16, 9), ell)
        u5 = trace_square_invariant(reduce_poly_mod(p5, ell), 5, ell)
        assert u5 == reduce_mod(Q(4, 25), ell)


def test_trace_square_invariant_zero_branch():
    # (1 + T^2)^2 = 1 + 2T^2 + T^4 for a p = 1 (mod 4) witness gives u = 0
    assert trace_square_invariant((1, 0, 2, 0, 1), 13, 11) == 0


def test_trace_square_invariant_rejects_wrong_shape():
    with pytest.raises(FormMismatchError):
        trace_square_invariant((1, 1, 0, 0, 1), 3, 11)  # odd coefficient, p = 3 mod 4
    with pytest.raises(FormMismatchError):
        trace_square_invariant((1, 2, 1, 2, 1), 13, 11)  # not a squared quadratic
    with pytest.raises(ValueError):
        trace_square_invariant((1, 0, 2, 0, 1), 11, 11)  # witness equals l


@pytest.mark.parametrize("ell", LS)
def test_trace_square_consistency_with_action(ell):
    # for pairs (A, I) the reduced quartic is (1 - tr(A) T + T^2)^2 and the
    # extracted invariant must equal tr(A)^2
    rng = random.Random(ell * 23)
    for _ in range(40):
        a = rand_sl2(ell, rng)
        m = tensor_action(a, M2_IDENTITY, ell)
        quartic = reciprocal_charpoly(m.mat, ell)
        u = trace_square_invariant(quartic, 5, ell)  # any p = 1 (mod 4) branch
        assert u == mat_trace(a, ell) ** 2 % ell


def test_block_diagonal_and_complex_structure_identities():
    for ell in (5, 11, 13):
        gamma = complex_structure(ell)
        m1 = ell - 1
        assert gamma == ((0, 0, m1, 0), (0, 0, 0, m1), (1, 0, 0, 0), (0, 1, 0, 0))
        assert mat_mul(gamma, gamma, ell) == mat_neg(identity(), ell)
        assert block_diagonal_pair(M2_IDENTITY, ell) == identity()
        with pytest.raises(ValueError):
            block_diagonal_pair(((2, 0), (0, 1)), ell)
        rng = random.Random(ell)
        for _ in range(20):
            (a, b), (c, d) = rand_sl2(ell, rng)
            h = block_diagonal_pair(((a, b), (c, d)), ell)
            assert h == ((a, b, 0, 0), (c, d, 0, 0), (0, 0, a, b), (0, 0, c, d))
            assert mat_mul(h, gamma, ell) == mat_mul(gamma, h, ell)


def test_gaussian_model_gamma_is_i_times_identity():
    for ell in (5, 11, 13):
        gm = to_gaussian(complex_structure(ell), ell)
        assert gm == GaussianMat(ell, (((0, 1), (0, 0)), ((0, 0), (0, 1))))


def test_gaussian_model_block_diagonal_is_real():
    ell = 11
    rng = random.Random(8)
    for _ in range(20):
        a = rand_sl2(ell, rng)
        gm = to_gaussian(block_diagonal_pair(a, ell), ell)
        assert gm.entries == tuple(tuple((a[r][c], 0) for c in range(2)) for r in range(2))


def test_gaussian_model_roundtrip_and_multiplicativity():
    ell = 11
    rng = random.Random(9)
    gamma = complex_structure(ell)
    gens = [
        block_diagonal_pair(g, ell) for g in sl2_generators(ell)
    ] + [gamma]

    def rand_member():
        m = identity()
        for _ in range(rng.randint(2, 12)):
            m = mat_mul(m, rng.choice(gens), ell)
        return m

    for _ in range(100):
        m1, m2 = rand_member(), rand_member()
        g1, g2 = to_gaussian(m1, ell), to_gaussian(m2, ell)
        assert g1.to_real() == m1
        assert g1 * g2 == to_gaussian(mat_mul(m1, m2, ell), ell)


def test_gaussian_model_rejects_outsiders():
    ell = 11
    outsider = tensor_action(((1, 1), (0, 1)), ((1, 0), (1, 1)), ell).mat
    with pytest.raises(NotInGroupError):
        to_gaussian(outsider, ell)


def test_group_orders_sl2():
    assert group_order_bfs(sl2_generators(5), 5) == 120  # 5 * (25 - 1)
    assert group_order_bfs(sl2_generators(7), 7) == 336


def test_group_orders_block_diagonal_extension():
    for ell in (5, 11):
        s, t = sl2_generators(ell)
        h_gens = [block_diagonal_pair(s, ell), block_diagonal_pair(t, ell)]
        sl2_order = ell * (ell * ell - 1)
        assert group_order_bfs(h_gens, ell) == sl2_order
        g_order = group_order_bfs(h_gens + [complex_structure(ell)], ell)
        assert g_order == 2 * sl2_order
        assert g_order // 4 == sl2_order // 2  # |PSL2(F_l)|


def test_group_order_caps():
    with pytest.raises(CapExceededError):
        group_order_bfs(sl2_generators(11), 11, cap=50)
    with pytest.raises(ValueError):
        group_order_bfs(sl2_generators(5), 5, cap=10**8)


def closure_generators(ell):
    """Generators of SL2(F_l), of H = {diag(A, A)} and of G = <H, gamma>."""
    s, t = sl2_generators(ell)
    h_gens = [block_diagonal_pair(s, ell), block_diagonal_pair(t, ell)]
    return {"SL2": [s, t], "H": h_gens, "G": h_gens + [complex_structure(ell)]}


@pytest.mark.parametrize("ell", (5, 7, 11, 13, 17))
def test_group_orders_match_tuple_bfs(ell):
    sl2_order = ell * (ell * ell - 1)
    expected = {"SL2": sl2_order, "H": sl2_order, "G": 2 * sl2_order}
    for name, gens in closure_generators(ell).items():
        assert group_order_bfs(gens, ell) == group_order_tuple_bfs(gens, ell) == expected[name], name


def test_group_order_object_dtype_at_large_ell():
    # n (l - 1)^2 >= 2^63 for n = 2, 4, so the closure multiplies Python
    # integers; the quaternion units i = S and j (with a^2 + b^2 = -1)
    # generate Q8 in SL2
    ell = 2**61 - 1
    a = next(a for a in range(1, 100) if legendre(-1 - a * a, ell) == 1)
    b = sqrt_mod((-1 - a * a) % ell, ell)
    i, j = ((0, ell - 1), (1, 0)), ((a, b), (b, -a % ell))
    assert group_order_bfs([i, j], ell) == group_order_tuple_bfs([i, j], ell) == 8
    gens = [block_diagonal_pair(i, ell), block_diagonal_pair(j, ell), complex_structure(ell)]
    # gamma is central with gamma^2 = i^2 = -I: a central product Q8 o C4
    assert group_order_bfs(gens, ell) == group_order_tuple_bfs(gens, ell) == 16


@pytest.mark.parametrize("closure", (group_order_bfs, group_order_tuple_bfs))
def test_group_order_cap_boundary(closure):
    for ell in (5, 7):
        for gens in closure_generators(ell).values():
            order = group_order_tuple_bfs(gens, ell)
            assert closure(gens, ell, cap=order) == order
            with pytest.raises(CapExceededError):
                closure(gens, ell, cap=order - 1)
