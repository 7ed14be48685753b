"""Reflections, Cartan-Dieudonne factorization, spinor norms, Omega."""

import itertools
import random
from functools import reduce

import numpy as np
import pytest

from conftest import CountedNumpy, rand_anisotropic, rand_orthogonal, rand_sl2
from psl2cert import ortho, tensor
from psl2cert.modarith import OutOfRangeError, is_prime
from psl2cert.ortho import (
    GRID,
    GramForm,
    OrthMatrix,
    SquareClass,
    cartan_dieudonne,
    identity,
    in_omega,
    mat_add,
    mat_det,
    mat_mul,
    mat_neg,
    mat_reduce,
    mat_vec,
    reciprocal_charpoly,
    reflection,
    reflection_matrix,
    spinor_norm,
    spinor_norm_by_reflections,
    square_class,
)
from psl2cert.tensor import M2_IDENTITY, tensor_action, tensor_form
from slow_paths import (
    cartan_dieudonne_sequential,
    mat_mul_generator,
    mat_vec_generator,
    pair_double_sum,
    reciprocal_charpoly_recurrence,
)

LS = (11, 13, 19)


def recompose(vectors, form):
    m = identity()
    for v in vectors:
        m = mat_mul(m, reflection_matrix(v, form), form.ell)
    return m


def unfactored(m):
    """Whether m has not been factored yet, so that a test of the factoring
    reads a fresh result and not one cached under another setting."""
    return "reflections" not in vars(m)


def diagonal_form(ell, diagonal):
    return GramForm(ell, tuple(tuple(d if i == j else 0 for j in range(4)) for i, d in enumerate(diagonal)))


@pytest.mark.parametrize("ell", (11, 13, 1000003))
def test_reciprocal_charpoly_matches_newton_recurrence(ell):
    rng = random.Random(ell)
    for _ in range(60):
        m = mat_reduce([[rng.randrange(ell) for _ in range(4)] for _ in range(4)], ell)
        assert reciprocal_charpoly(m, ell) == reciprocal_charpoly_recurrence(m, ell)


def test_gram_form_validation():
    with pytest.raises(ValueError):
        GramForm(7, tensor_form(11).gram)  # below the certifiable range
    with pytest.raises(ValueError):
        GramForm(11, ((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0)))


def test_reflection_defining_properties():
    form = tensor_form(11)
    rng = random.Random(1)
    for _ in range(25):
        v = rand_anisotropic(form, rng)
        r = reflection(v, form)
        ell = form.ell
        assert tuple((-x) % ell for x in v) == tuple(
            sum(r.mat[i][j] * v[j] for j in range(4)) % ell for i in range(4)
        )
        assert mat_mul(r.mat, r.mat, ell) == identity()
        assert r.det() == -1


def test_reflection_fixes_orthogonal_complement():
    form = tensor_form(13)
    rng = random.Random(2)
    for _ in range(10):
        v = rand_anisotropic(form, rng)
        r = reflection(v, form)
        for _ in range(10):
            w = tuple(rng.randrange(13) for _ in range(4))
            if form.pair(v, w) == 0:
                assert tuple(
                    sum(r.mat[i][j] * w[j] for j in range(4)) % 13 for i in range(4)
                ) == w


def test_reflection_rejects_isotropic():
    form = tensor_form(11)
    with pytest.raises(ValueError):
        reflection((1, 0, 0, 0), form)  # basis vectors are isotropic here


def test_cartan_dieudonne_identity_and_single_reflection():
    form = tensor_form(11)
    assert cartan_dieudonne(OrthMatrix(identity(), form)) == []
    v = (1, 0, 0, 1)
    r = reflection(v, form)
    vecs = cartan_dieudonne(r)
    assert len(vecs) == 1
    assert recompose(vecs, form) == r.mat


def test_cartan_dieudonne_random_products():
    # the diagonal forms have anisotropic basis vectors, unlike tensor_form
    forms = [tensor_form(ell) for ell in LS] + [diagonal_form(13, (1, 1, 1, 2)), diagonal_form(13, (1, 1, 1, 1))]
    for index, form in enumerate(forms):
        rng = random.Random(form.ell + 100 * index)
        for _ in range(40):
            m = rand_orthogonal(form, rng, rng.randint(1, 5))
            vecs = cartan_dieudonne(m)
            assert vecs == cartan_dieudonne_sequential(m)
            assert len(vecs) <= 4
            assert len(vecs) % 2 == (0 if m.det() == 1 else 1)
            assert recompose(vecs, form) == m.mat


def test_cartan_dieudonne_minus_identity():
    form = tensor_form(13)
    m = OrthMatrix(mat_neg(identity(), 13), form)
    vecs = cartan_dieudonne(m)
    assert len(vecs) == 4
    assert recompose(vecs, form) == m.mat


def test_cartan_dieudonne_isotropic_image_case():
    # A transvection-like element acting as (N, I) or (I, N): every
    # difference vector is isotropic, so the factorization must take the
    # auxiliary-reflection route.
    n, one = ((1, 1), (0, 1)), ((1, 0), (0, 1))
    for ell in (11, 31):
        form = tensor_form(ell)
        for pair in ((n, one), (one, n)):
            m = tensor_action(*pair, ell)
            vecs = cartan_dieudonne(m)
            assert len(vecs) <= 4
            assert recompose(vecs, form) == m.mat


def rand_unipotent(ell, rng):
    """A conjugate N of a transvection acting as (N, I) or (I, N): every
    difference vector is isotropic, so the scan falls through."""
    a = rand_sl2(ell, rng)
    a_inv = ((a[1][1], -a[0][1] % ell), (-a[1][0] % ell, a[0][0]))
    n = mat_mul(mat_mul(a, ((1, rng.randrange(1, ell)), (0, 1)), ell), a_inv, ell)
    return tensor_action(*((n, M2_IDENTITY) if rng.random() < 0.5 else (M2_IDENTITY, n)), ell)


# the largest prime l <= MAX_ELL, where the int64 entries of _factor come
# closest to 2^63
EDGE_ELL = 832_253


def test_edge_ell_is_the_largest_prime_in_range():
    assert is_prime(EDGE_ELL) and EDGE_ELL <= ortho.MAX_ELL < 832_291
    assert not any(map(is_prime, range(EDGE_ELL + 1, 832_291)))
    assert 16 * ortho.MAX_ELL**3 < 2**63 <= 16 * (ortho.MAX_ELL + 1) ** 3


@pytest.mark.parametrize("ell", (11, 13, 17, 19, 23, 29, 31, EDGE_ELL))
def test_cartan_dieudonne_matches_sequential_scan(ell):
    form = tensor_form(ell)
    rng = random.Random(ell)
    small = ell < 100
    matrices = [rand_orthogonal(form, rng, rng.randint(0, 5)) for _ in range(30 if small else 6)]
    matrices += [rand_unipotent(ell, rng) for _ in range(4 if small else 2)]
    for m in matrices:
        assert unfactored(m)
        vecs = cartan_dieudonne(m)
        assert vecs == cartan_dieudonne_sequential(m)
        assert all(type(x) is int for v in vecs for x in v)
        assert recompose(vecs, form) == m.mat


def first_pass_index(m):
    """Grid index of the candidate the top-level step keeps, or None when
    the whole grid falls through."""
    form, ell = m.form, m.form.ell
    for index, x in enumerate(itertools.product(range(GRID), repeat=4)):
        if form.norm(x) == 0:
            continue
        w = tuple((y - z) % ell for y, z in zip(mat_vec(m.mat, x, ell), x))
        if not any(w) or form.norm(w):
            return index
    return None


@pytest.mark.parametrize("chunk", (1, 7, 625))
def test_cartan_dieudonne_matches_sequential_scan_across_chunks(monkeypatch, chunk):
    # 625 is the whole grid at k = 4; 1 and 7 put chunk boundaries between
    # the candidates of every step
    monkeypatch.setattr(ortho, "CHUNK", chunk)
    for ell in (11, 31, EDGE_ELL):
        rng = random.Random(ell + chunk)
        forms = (tensor_form(ell), diagonal_form(ell, (1, 1, 1, 2)))
        for form in forms:
            matrices = [rand_orthogonal(form, rng, rng.randint(0, 5)) for _ in range(8 if ell < 100 else 3)]
            for m in matrices:
                assert unfactored(m)
                assert cartan_dieudonne(m) == cartan_dieudonne_sequential(m)
        for _ in range(3 if ell < 100 else 1):
            m = rand_unipotent(ell, rng)
            assert unfactored(m)
            vecs = cartan_dieudonne(m)
            assert vecs == cartan_dieudonne_sequential(m)
            # a fall-through: the first vector is the first anisotropic grid
            # point (index 30 on the tensor form), past the first chunk
            # unless chunk = 625
            assert first_pass_index(m) is None
            assert vecs[0] == next(x for x in itertools.product(range(GRID), repeat=4) if m.form.norm(x))


class Unread:
    """A grid entry that fails the test when it is multiplied."""

    def __mul__(self, other):
        raise AssertionError("a grid row past the first chunk was scored")

    __rmul__ = __mul__


def test_scan_stops_at_the_first_passing_chunk(monkeypatch):
    # a count, not a timing: with the top-level pass at grid index 30, no
    # step scores a grid row past the first chunk
    form = tensor_form(11)
    rng = random.Random(30)
    m = next(m for m in (rand_orthogonal(form, rng, 4) for _ in range(200)) if first_pass_index(m) == 30)
    grid = ortho._grid

    def guarded(k):
        g = grid(k).astype(object)
        g[ortho.CHUNK :] = Unread()
        return g

    with pytest.raises(AssertionError):
        guarded(4) @ np.eye(4, dtype=np.int64)
    monkeypatch.setattr(ortho, "_grid", guarded)
    assert unfactored(m)
    vecs = cartan_dieudonne(m)
    assert vecs == cartan_dieudonne_sequential(m)
    assert recompose(vecs, form) == m.mat


@pytest.mark.parametrize("ell", (13, EDGE_ELL))
def test_reflection_rank_one_update_matches_matrix_product(ell):
    form = tensor_form(ell)
    g = np.array(form.gram, dtype=np.int64)
    rng = random.Random(ell)
    for _ in range(30):
        v = rand_anisotropic(form, rng)
        m = mat_reduce([[rng.randrange(ell) for _ in range(4)] for _ in range(4)], ell)
        updated = ortho._reflect(np.array(m, dtype=np.int64), np.array(v, dtype=np.int64), g, ell)
        assert tuple(map(tuple, updated.tolist())) == mat_mul(reflection_matrix(v, form), m, ell)


def test_spinor_norm_basics():
    form = tensor_form(11)
    assert spinor_norm(OrthMatrix(identity(), form)) is SquareClass.SQUARE
    rng = random.Random(3)
    for _ in range(20):
        v = rand_anisotropic(form, rng)
        expected = square_class(form.norm(v), 11)
        assert spinor_norm(reflection(v, form)) is expected


def test_spinor_norm_minus_identity_is_square():
    for ell in LS:
        form = tensor_form(ell)
        m = OrthMatrix(mat_neg(identity(), ell), form)
        assert spinor_norm(m) is SquareClass.SQUARE
        assert in_omega(m)


@pytest.mark.parametrize("ell", LS)
def test_spinor_norm_is_homomorphism(ell):
    form = tensor_form(ell)
    rng = random.Random(100 + ell)
    for _ in range(200):
        a = rand_orthogonal(form, rng, rng.randint(1, 4))
        b = rand_orthogonal(form, rng, rng.randint(1, 4))
        assert spinor_norm(a @ b) is spinor_norm(a) * spinor_norm(b)


@pytest.mark.parametrize("ell", LS)
def test_spinor_norm_dual_path_agreement(ell):
    form = tensor_form(ell)
    rng = random.Random(200 + ell)
    checked = 0
    while checked < 200:
        m = rand_orthogonal(form, rng, rng.randint(1, 4))
        if mat_det(mat_add(identity(), m.mat, ell), ell) == 0:
            continue  # fast path unavailable; nothing to compare
        assert spinor_norm(m) is spinor_norm_by_reflections(m)
        checked += 1


def test_spinor_norm_dual_path_on_unipotent():
    # det(I + M) != 0 for this transvection, so both paths apply
    ell = 13
    m = tensor_action(((1, 1), (0, 1)), ((1, 0), (0, 1)), ell)
    assert spinor_norm(m) is spinor_norm_by_reflections(m)


def test_in_omega_reflection_is_false():
    form = tensor_form(11)
    assert not in_omega(reflection((1, 0, 0, 1), form))


def test_omega_has_index_four():
    # all four (det, spin) classes occur among products of reflections
    ell = 11
    form = tensor_form(ell)
    rng = random.Random(11)
    seen = set()
    for _ in range(300):
        m = rand_orthogonal(form, rng, rng.randint(1, 5))
        seen.add((m.det(), spinor_norm(m)))
    assert seen == {
        (1, SquareClass.SQUARE),
        (1, SquareClass.NONSQUARE),
        (-1, SquareClass.SQUARE),
        (-1, SquareClass.NONSQUARE),
    }


def test_orth_matrix_validates_membership():
    form = tensor_form(11)
    bad = tuple(tuple(1 if (i, j) == (0, 1) else (1 if i == j else 0) for j in range(4)) for i in range(4))
    with pytest.raises(ValueError):
        OrthMatrix(bad, form)


def test_one_dimensional_steps_emit_without_a_scan(monkeypatch):
    # at k = 1 the scan would keep x = b, so _factor emits m b - b directly
    grid, factor, dims = ortho._grid, ortho._factor, []

    def no_line_scan(k):
        assert k != 1, "a k = 1 step scored its grid"
        return grid(k)

    def recorded(m, basis, g, ell):
        dims.append(len(basis))
        return factor(m, basis, g, ell)

    monkeypatch.setattr(ortho, "_grid", no_line_scan)
    monkeypatch.setattr(ortho, "_factor", recorded)
    for form in (tensor_form(11), tensor_form(31), diagonal_form(13, (1, 1, 1, 2)), tensor_form(EDGE_ELL)):
        rng = random.Random(form.ell + 4)
        for m in [rand_orthogonal(form, rng, rng.randint(0, 5)) for _ in range(30)] + [rand_unipotent(form.ell, rng)]:
            assert unfactored(m)
            vecs = cartan_dieudonne(m)
            assert vecs == cartan_dieudonne_sequential(m)
            assert recompose(vecs, m.form) == m.mat
    assert 1 in dims


@pytest.mark.parametrize("ell", (832_291, 2**31 - 1, 2**61 - 1, 2**64 + 13))
def test_ell_above_max_ell_is_refused_before_any_numpy_call(monkeypatch, ell):
    # 832,291 is the first prime above MAX_ELL
    assert is_prime(ell) and ell > ortho.MAX_ELL
    counted = CountedNumpy()
    monkeypatch.setattr(ortho, "np", counted)
    monkeypatch.setattr(tensor, "np", counted)
    with pytest.raises(OutOfRangeError):
        tensor_form(ell)
    with pytest.raises(OutOfRangeError):
        GramForm(ell, identity())
    assert counted.reads == 0


def count_top_level_factors(monkeypatch) -> list:
    """Patch ortho._factor to record one entry per factorization, not per
    recursion step."""
    factor, depth, top = ortho._factor, [0], []

    def counted(*args):
        if depth[0] == 0:
            top.append(args)
        depth[0] += 1
        try:
            return factor(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(ortho, "_factor", counted)
    return top


@pytest.mark.parametrize("first", (cartan_dieudonne, spinor_norm_by_reflections, spinor_norm))
def test_each_matrix_is_factored_once(monkeypatch, first):
    top = count_top_level_factors(monkeypatch)
    form = tensor_form(13)
    rng = random.Random(7)
    # det -1, so det(I + m) = 0 and spinor_norm takes the reflection path
    m = rand_orthogonal(form, rng, 3)
    assert mat_det(mat_add(identity(), m.mat, 13), 13) == 0
    first(m)
    vecs = cartan_dieudonne(m)
    assert spinor_norm(m) is spinor_norm_by_reflections(m)
    assert cartan_dieudonne(m) == vecs == cartan_dieudonne_sequential(m)
    assert len(top) == 1
    # an equal matrix is another object with its own cache
    cartan_dieudonne(OrthMatrix(m.mat, form))
    assert len(top) == 2


def test_factor_leaves_the_cached_form_arrays_alone():
    # the identity is the top-level basis of every factorization
    before = ortho._IDENTITY.copy()
    form = diagonal_form(13, (1, 1, 1, 2))
    rng = random.Random(8)
    for _ in range(20):
        cartan_dieudonne(rand_orthogonal(form, rng, rng.randint(1, 5)))
    assert (ortho._IDENTITY == before).all()


def test_mutating_the_returned_list_does_not_change_the_next_result():
    form = tensor_form(11)
    m = rand_orthogonal(form, random.Random(9), 4)
    vecs = cartan_dieudonne(m)
    expected = list(vecs)
    vecs.append((1, 0, 0, 1))
    vecs[0] = (0, 0, 0, 0)
    del vecs[1]
    assert cartan_dieudonne(m) == expected
    assert cartan_dieudonne(m) is not cartan_dieudonne(m)
    assert m.reflections == tuple(expected)


@pytest.mark.parametrize("ell", (11, 31, EDGE_ELL))
def test_spinor_by_reflections_is_the_product_over_the_sequential_factorization(ell):
    form = tensor_form(ell)
    rng = random.Random(ell + 2)
    for m in [rand_orthogonal(form, rng, rng.randint(0, 5)) for _ in range(12)] + [rand_unipotent(ell, rng)]:
        classes = (square_class(form.norm(v), ell) for v in cartan_dieudonne_sequential(m))
        assert spinor_norm_by_reflections(m) is reduce(SquareClass.__mul__, classes, SquareClass.SQUARE)


def random_form(ell, rng):
    while True:
        g = [[0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                g[i][j] = g[j][i] = rng.randrange(-ell, ell)
        if mat_det(mat_reduce(g, ell), ell):
            return GramForm(ell, g)


@pytest.mark.parametrize("ell", (11, 31, EDGE_ELL, 2**31 - 1, 2**61 - 1))
def test_map_mul_sums_match_the_generator_sums(ell):
    rng = random.Random(ell + 3)

    def rand_mat(rows, cols):  # entries unreduced, some negative
        return tuple(tuple(rng.randrange(-ell, 2 * ell) for _ in range(cols)) for _ in range(rows))

    for n in (2, 4):
        for _ in range(30):
            a, b = rand_mat(n, n), rand_mat(n, n)
            v = rand_mat(1, n)[0]
            assert mat_mul(a, b, ell) == mat_mul_generator(a, b, ell)
            assert mat_vec(a, v, ell) == mat_vec_generator(a, v, ell)
    if ell > ortho.MAX_ELL:
        return  # mat_mul and mat_vec have no cap, but forms do
    for _ in range(10):
        form = random_form(ell, rng)
        for _ in range(10):
            v, w = rand_mat(2, 4)
            assert form.pair(v, w) == pair_double_sum(form, v, w)
