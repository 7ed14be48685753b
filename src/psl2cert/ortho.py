"""4x4 orthogonal group machinery over F_l: bilinear forms, reflections,
Cartan-Dieudonne factorization, the spinor norm, and Omega membership.
It also holds the package's n x n matrix arithmetic over F_l, which the
SL2 (x) SL2 model in `tensor` uses for its 2x2 factors.

The factorization is constructive and uses at most 4 reflections.  Its
candidate vectors come from the coordinate grid {0..4}^4: every polynomial
it must avoid has degree at most 4 in each coordinate, and l >= 11, so by
the Combinatorial Nullstellensatz a nonzero one is nonzero on the grid.
Each recursion step scores every grid point in one numpy pass and keeps
the first that passes, in itertools.product order.

The spinor norm has two independent evaluation paths: det(I + A) when that
determinant is nonzero, and otherwise the product of the square classes
<v,v> over a reflection factorization.  Both are exposed so they can be
cross-checked against each other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .modarith import is_prime, legendre
from .qpoly import Q, reduce_mod, series_exp

Mat = tuple[tuple[int, ...], ...]
Vec = tuple[int, ...]

DIM = 4
GRID = 5  # candidate coordinates 0..4: one more than the degree of Q(x) Q(mx - x)


def identity(n: int = DIM) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_reduce(a, ell: int) -> Mat:
    return tuple(tuple(x % ell for x in row) for row in a)


def mat_mul(a: Mat, b: Mat, ell: int) -> Mat:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % ell for col in bt) for row in a
    )


def mat_vec(a: Mat, v: Vec, ell: int) -> Vec:
    return tuple(sum(x * y for x, y in zip(row, v)) % ell for row in a)


def mat_add(a: Mat, b: Mat, ell: int) -> Mat:
    return tuple(tuple((x + y) % ell for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_neg(a: Mat, ell: int) -> Mat:
    return tuple(tuple((-x) % ell for x in row) for row in a)


def mat_transpose(a: Mat) -> Mat:
    return tuple(zip(*a))


def mat_det(a: Mat, ell: int) -> int:
    n = len(a)
    if n == 1:
        return a[0][0] % ell
    total = 0
    for j in range(n):
        if a[0][j]:
            minor = tuple(row[:j] + row[j + 1 :] for row in a[1:])
            sign = 1 if j % 2 == 0 else -1
            total += sign * a[0][j] * mat_det(minor, ell)
    return total % ell


def mat_trace(a: Mat, ell: int) -> int:
    return sum(a[i][i] for i in range(len(a))) % ell


def reciprocal_charpoly(m: Mat, ell: int) -> tuple[int, ...]:
    """Coefficients of det(I - m T) for a 4x4 matrix over F_l, as
    exp(-sum tr(m^k) T^k / k) from the traces of m, m^2, m^3, m^4."""
    powers = [m]
    for _ in range(3):
        powers.append(mat_mul(powers[-1], m, ell))
    log_det = [0] + [Q(-mat_trace(x, ell), k) for k, x in enumerate(powers, 1)]
    # exact mod l: the denominators divide 24 and l >= 11
    return tuple(reduce_mod(c, ell) for c in series_exp(log_det, 4))


class SquareClass(Enum):
    """F_l^x modulo squares; a group of order two."""

    SQUARE = 1
    NONSQUARE = -1

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        return SquareClass(self.value * other.value)


def square_class(x: int, ell: int) -> SquareClass:
    s = legendre(x, ell)
    if s == 0:
        raise ValueError("square class of zero is undefined")
    return SquareClass(s)


@dataclass(frozen=True)
class GramForm:
    """A nondegenerate symmetric bilinear form on F_l^4."""

    ell: int
    gram: Mat

    def __post_init__(self):
        if not is_prime(self.ell) or self.ell < 11:
            raise ValueError(f"l must be a prime >= 11, got {self.ell}")
        g = mat_reduce(self.gram, self.ell)
        object.__setattr__(self, "gram", g)
        if g != mat_transpose(g):
            raise ValueError("form matrix is not symmetric")
        if mat_det(g, self.ell) == 0:
            raise ValueError("form matrix is degenerate")

    def pair(self, v: Vec, w: Vec) -> int:
        ell = self.ell
        return sum(v[i] * self.gram[i][j] * w[j] for i in range(DIM) for j in range(DIM)) % ell

    def norm(self, v: Vec) -> int:
        return self.pair(v, v)


@dataclass(frozen=True)
class OrthMatrix:
    """A matrix known to preserve its attached form (checked eagerly)."""

    mat: Mat
    form: GramForm

    def __post_init__(self):
        ell = self.form.ell
        m = mat_reduce(self.mat, ell)
        object.__setattr__(self, "mat", m)
        g = self.form.gram
        if mat_mul(mat_mul(mat_transpose(m), g, ell), m, ell) != g:
            raise ValueError("matrix does not preserve the form")

    def __matmul__(self, other: "OrthMatrix") -> "OrthMatrix":
        if other.form is not self.form and other.form != self.form:
            raise ValueError("mismatched forms")
        return OrthMatrix(mat_mul(self.mat, other.mat, self.form.ell), self.form)

    def det(self) -> int:
        d = mat_det(self.mat, self.form.ell)
        return d if d == 1 else d - self.form.ell  # orthogonal: +-1


def reflection_matrix(v: Vec, form: GramForm) -> Mat:
    """Matrix of the reflection across v: w -> w - 2 <v,w>/<v,v> v."""
    ell = form.ell
    nv = form.norm(v)
    if nv == 0:
        raise ValueError(f"cannot reflect across the isotropic vector {v}")
    gv = mat_vec(form.gram, v, ell)  # row functional w -> <v, w>
    scale = 2 * pow(nv, -1, ell) % ell
    return tuple(
        tuple(((1 if i == j else 0) - scale * v[i] * gv[j]) % ell for j in range(DIM))
        for i in range(DIM)
    )


def reflection(v: Vec, form: GramForm) -> OrthMatrix:
    return OrthMatrix(reflection_matrix(tuple(x % form.ell for x in v), form), form)


@lru_cache(maxsize=None)
def _grid(k: int) -> np.ndarray:
    """The coefficient grid {0..4}^k, one row per point in
    itertools.product order."""
    return np.array(list(itertools.product(range(GRID), repeat=k)), dtype=np.int64)


def _factor(mat: Mat, basis: list[Vec], form: GramForm) -> list[Vec]:
    """Reflection vectors for mat, which preserves the nondegenerate span V
    of basis and fixes V^perp pointwise."""
    if mat == identity():
        return []
    ell = form.ell
    # every entry below stays under 16 l^3 before its reduction
    dtype = np.int64 if 16 * ell**3 < 2**63 else object
    coeffs = _grid(len(basis))
    g = np.array(form.gram, dtype=dtype)
    b = np.array(basis, dtype=dtype)
    x = coeffs @ b % ell
    w = (x @ np.array(mat, dtype=dtype).T - x) % ell

    def norms(v):
        return ((v @ g) * v).sum(1) % ell

    qx = norms(x)
    anisotropic = qx != 0
    # keep x when mat fixes it (w has entries in [0, l), so w = 0 iff its
    # sum is 0) or when w = mat x - x is anisotropic
    passing = (anisotropic & ((norms(w) != 0) | (w.sum(1) == 0))).tolist()
    if True not in passing:
        # Every difference vector is isotropic, so im(mat - 1) is totally
        # isotropic and det mat = 1; after one reflection the det is -1 and
        # this branch cannot recur.
        first = tuple(x[anisotropic.tolist().index(True)].tolist())
        return [first] + _factor(mat_mul(reflection_matrix(first, form), mat, ell), basis, form)
    i = passing.index(True)
    # x^perp within V: project away x from the basis vectors but one
    scale = (b @ (g @ x[i]) % ell) * pow(int(qx[i]), -1, ell) % ell  # <b, x> / Q(x)
    projected = (b - scale[:, None] * x[i]) % ell
    k = next(j for j, c in enumerate(coeffs[i].tolist()) if c)
    rest = [tuple(v) for j, v in enumerate(projected.tolist()) if j != k]
    wi = tuple(w[i].tolist())
    if not any(wi):  # mat fixes x
        return _factor(mat, rest, form)
    # r_w maps mat x to x, so r_w mat fixes x
    return [wi] + _factor(mat_mul(reflection_matrix(wi, form), mat, ell), rest, form)


def cartan_dieudonne(m: OrthMatrix) -> list[Vec]:
    """Vectors v_1..v_r (r <= 4) with r_{v_1} ... r_{v_r} = m.

    The constructive proof (Artin, Geometric Algebra, ch. III): take an
    anisotropic x with m x = x, or with w = m x - x anisotropic and emit w;
    either way recurse on x^perp.  When no such x exists, im(m - 1) is a
    totally isotropic plane, and one reflection first gives det -1, which
    then needs at most 3.  Candidates x come from the grid {0..4}^dim: the
    polynomial Q(x) Q(m x - x) has degree at most 4 in each coordinate and
    l >= 11 > 4, so by the Combinatorial Nullstellensatz it vanishes on the
    grid only if it vanishes identically.  Each step scores the whole grid
    {0..4}^k (k = dim V) in one pass, on int64 when 16 l^3 < 2^63 and on
    Python integers otherwise, and keeps the first passing candidate in
    itertools.product order, so the vectors do not depend on the dtype.
    """
    return _factor(m.mat, list(identity()), m.form)


def spinor_norm(m: OrthMatrix) -> SquareClass:
    """Spinor norm of an orthogonal matrix as a square class.

    Fast path: the class of det(I + m) whenever that is nonzero.  Fallback:
    the product of the classes <v,v> over a reflection factorization.
    """
    ell = m.form.ell
    d = mat_det(mat_add(identity(), m.mat, ell), ell)
    if d != 0:
        return square_class(d, ell)
    return spinor_norm_by_reflections(m)


def spinor_norm_by_reflections(m: OrthMatrix) -> SquareClass:
    """Reflection-product path only, for cross-checking the fast path."""
    cls = SquareClass.SQUARE
    for v in cartan_dieudonne(m):
        cls = cls * square_class(m.form.norm(v), m.form.ell)
    return cls


def in_omega(m: OrthMatrix) -> bool:
    """Membership in the simultaneous kernel of det and spinor norm."""
    return m.det() == 1 and spinor_norm(m) is SquareClass.SQUARE
