"""4x4 orthogonal group machinery over F_l: bilinear forms, reflections,
Cartan-Dieudonne factorization, the spinor norm, and Omega membership.
It also holds the package's n x n matrix arithmetic over F_l, which the
SL2 (x) SL2 model in `tensor` uses for its 2x2 factors.

Forms exist only for primes 11 <= l <= MAX_ELL, where the factorization is
exact in int64; a larger l is refused with OutOfRangeError before any work.
The factorization (see `cartan_dieudonne`) is constructive, uses at most 4
reflections, and runs once per OrthMatrix, which caches its vectors.

The spinor norm has two independent evaluation paths: det(I + A) when that
determinant is nonzero, and otherwise the product of the square classes
<v,v> over the cached reflection factorization.  Both are exposed so they
can be cross-checked against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from math import prod
from operator import mul

import numpy as np

from .modarith import OutOfRangeError, is_prime, legendre
from .qpoly import Q, reduce_mod, series_exp

Mat = tuple[tuple[int, ...], ...]
Vec = tuple[int, ...]

DIM = 4
GRID = 5  # candidate coordinates 0..4: one more than the degree of Q(x) Q(mx - x)
# The largest l with 16 l^3 < 2^63.  The largest entries _factor builds are
# pairings of residue vectors read off the unreduced x G, whose entries are
# below 4 l^2, so they are below 16 l^3 and exact in int64.
MAX_ELL = 832_255
_IDENTITY = np.eye(DIM, dtype=np.int64)  # the basis of the top-level step
_ONES = np.ones(DIM, dtype=np.int64)  # x @ _ONES sums the rows of x


def identity(n: int = DIM) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_reduce(a, ell: int) -> Mat:
    return tuple(tuple(x % ell for x in row) for row in a)


def mat_mul(a: Mat, b: Mat, ell: int) -> Mat:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) % ell for col in bt) for row in a)


def mat_vec(a: Mat, v: Vec, ell: int) -> Vec:
    return tuple(sum(map(mul, row, v)) % ell for row in a)


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
        if self.ell > MAX_ELL:
            raise OutOfRangeError(f"l = {self.ell} is above the {MAX_ELL} bound of exact int64 arithmetic")
        if not is_prime(self.ell) or self.ell < 11:
            raise ValueError(f"l must be a prime >= 11, got {self.ell}")
        g = mat_reduce(self.gram, self.ell)
        object.__setattr__(self, "gram", g)
        if g != mat_transpose(g):
            raise ValueError("form matrix is not symmetric")
        if mat_det(g, self.ell) == 0:
            raise ValueError("form matrix is degenerate")

    def pair(self, v: Vec, w: Vec) -> int:
        return sum(map(mul, v, mat_vec(self.gram, w, self.ell))) % self.ell

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

    @cached_property
    def reflections(self) -> tuple[Vec, ...]:
        """The vectors of cartan_dieudonne(self), factored once."""
        m, g = (np.array(a, dtype=np.int64) for a in (self.mat, self.form.gram))
        return tuple(_factor(m, _IDENTITY, g, self.form.ell))


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
    itertools.product order (the last coordinate varies fastest)."""
    return np.indices((GRID,) * k, dtype=np.int64).reshape(k, -1).T.copy()


# Grid points scored per numpy pass.  On 147 random and unipotent tensor-form
# matrices at l = 11..31 the first passing index was 30-32 at k = 4 (7 fell
# through), at most 26 at k = 3 and at most 6 at k = 2, so one chunk almost
# always holds the first pass.  At k = 1 it is always 1, so _factor skips it.
CHUNK = 64


def _reflect(m: np.ndarray, v: np.ndarray, g: np.ndarray, ell: int) -> np.ndarray:
    """r_v m, as the rank-one update m - (2 / Q(v)) v (v^T G m)."""
    gv = v @ g % ell
    scale = 2 * pow(int(gv @ v % ell), -1, ell) % ell
    return (m - v[:, None] * (gv @ m % ell * scale % ell)) % ell


def _factor(m: np.ndarray, basis: np.ndarray, g: np.ndarray, ell: int) -> list[Vec]:
    """Reflection vectors for m, which preserves the nondegenerate span V
    of the rows of basis and fixes V^perp pointwise.  Every array holds
    int64 residues mod l."""
    diff = (m - _IDENTITY) % ell
    if not diff.any():
        return []
    if len(basis) == 1:  # m b = -b (m = 1 returned above): the scan would keep x = b
        return [tuple((diff @ basis[0] % ell).tolist())]  # w = m b - b = -2b
    coeffs = _grid(len(basis))
    first = None  # the first anisotropic x, for the fall-through
    for start in range(0, len(coeffs), CHUNK):
        c = coeffs[start : start + CHUNK]
        x = c @ basis % ell
        xg = x @ g
        w = x @ diff.T % ell
        qx = (xg * x) @ _ONES % ell
        anisotropic = qx != 0
        fixed = w @ _ONES == 0  # w has entries in [0, l), so w = 0 iff its sum is 0
        # keep x when m fixes it or when w = m x - x is anisotropic; m is
        # orthogonal, so Q(w) = Q(m x) - 2 <m x, x> + Q(x) = -2 <w, x>
        passing = anisotropic & (((xg * w) @ _ONES % ell != 0) | fixed)
        i = passing.argmax()
        if passing[i]:
            break
        if first is None and anisotropic.any():
            first = x[anisotropic.argmax()]
    else:
        # Every difference vector is isotropic, so im(m - 1) is totally
        # isotropic and det m = 1; after one reflection the det is -1 and
        # this branch cannot recur.
        return [tuple(first.tolist())] + _factor(_reflect(m, first, g, ell), basis, g, ell)
    xi = x[i]
    # x^perp within V: project away x from the basis vectors but one
    scale = (basis @ xg[i] % ell) * pow(int(qx[i]), -1, ell) % ell  # <b, x> / Q(x); G = G^T
    projected = (basis - scale[:, None] * xi) % ell
    k = c[i].nonzero()[0][0]
    rest = np.concatenate((projected[:k], projected[k + 1 :]))
    if fixed[i]:  # m fixes x
        return _factor(m, rest, g, ell)
    # r_w maps m x to x, so r_w m fixes x
    return [tuple(w[i].tolist())] + _factor(_reflect(m, w[i], g, ell), rest, g, ell)


def cartan_dieudonne(m: OrthMatrix) -> list[Vec]:
    """Vectors v_1..v_r (r <= 4) with r_{v_1} ... r_{v_r} = m.

    The constructive proof (Artin, Geometric Algebra, ch. III): take an
    anisotropic x with m x = x, or with w = m x - x anisotropic and emit w;
    either way recurse on x^perp.  When no such x exists, im(m - 1) is a
    totally isotropic plane, and one reflection first gives det -1, which
    then needs at most 3.  Candidates x come from the grid {0..4}^k, k = dim V:
    the polynomial Q(x) Q(m x - x) has degree at most 4 in each coordinate
    and l >= 11 > 4, so by the Combinatorial Nullstellensatz it vanishes on
    the grid only if it vanishes identically.  Each step scores the grid
    CHUNK points per int64 numpy pass, in itertools.product order, and keeps
    the first passing point, so the vectors do not depend on CHUNK; at k = 1
    that is x = b, emitted without a scan.  Each reflection is a rank-one
    update.  The vectors are computed once per matrix and kept as
    m.reflections; each call returns a fresh list of them.
    """
    return list(m.reflections)


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
    """Reflection-product path only, for cross-checking the fast path: the
    product of the Legendre symbols of <v,v> over m.reflections."""
    return SquareClass(prod(legendre(m.form.norm(v), m.form.ell) for v in m.reflections))


def in_omega(m: OrthMatrix) -> bool:
    """Membership in the simultaneous kernel of det and spinor norm."""
    return m.det() == 1 and spinor_norm(m) is SquareClass.SQUARE
