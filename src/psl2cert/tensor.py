"""The SL2 (x) SL2 model of the 4-dimensional orthogonal group Omega.

F_l^2 (x) F_l^2 carries the symmetric nondegenerate pairing
b(v1 (x) w1, v2 (x) w2) = h(v1, v2) h(w1, w2) built from the symplectic
pairing h on F_l^2, written in the basis
{e1 (x) e1, e2 (x) e1, e1 (x) e2, e2 (x) e2}.  Pairs of SL2 matrices act by
the Kronecker product; this module provides that action, its inverse
(rank-one block factorization, with the +-(A, B) ambiguity resolved by a
canonical sign), the block-diagonal group generated together with the
complex-structure matrix, its Gaussian-integer 2x2 model, and breadth-first
group orders for validating all of it at small l.

u_p mod l, the squared trace of a Kronecker factor, is defined in `certify`;
reading it off P_p mod l in this model is a test oracle in `tests/`.

This module holds only the model: the F_l matrix arithmetic it uses, for
the 2x2 factors and the 4x4 products alike, lives in `ortho`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .modarith import is_prime, legendre, sqrt_mod
from .ortho import GramForm, Mat, OrthMatrix, identity, mat_det, mat_mul, mat_neg, mat_reduce

Mat2 = tuple[tuple[int, int], tuple[int, int]]

M2_IDENTITY: Mat2 = ((1, 0), (0, 1))
H: Mat2 = ((0, 1), (-1, 0))  # the symplectic pairing h on F_l^2

# B0 below squares to -I; it is the second factor of the complex structure.
B0: Mat2 = ((0, -1), (1, 0))


class NotDecomposableError(ValueError):
    """The matrix is not a Kronecker product of an SL2 pair."""


class NotInGroupError(ValueError):
    """The matrix is outside the block-diagonal group extended by the
    complex structure."""


class CapExceededError(RuntimeError):
    """Breadth-first closure grew past the requested cap."""


def sl2_generators(ell: int) -> list[Mat2]:
    """Standard generating pair of SL2(F_l)."""
    return [((0, ell - 1), (1, 0)), ((1, 1), (0, 1))]


@lru_cache(maxsize=None)
def tensor_form(ell: int) -> GramForm:
    """The product pairing h (x) h in the tensor basis."""
    return GramForm(ell, _kron(H, H, ell))


def _kron(a: Mat2, b: Mat2, ell: int) -> Mat:
    """Action of (A, B) on the tensor basis: entry (k + 2l, i + 2j) is
    A[k][i] * B[l][j]."""
    return tuple(
        tuple(a[r % 2][c % 2] * b[r // 2][c // 2] % ell for c in range(4)) for r in range(4)
    )


def tensor_action_matrix(a: Mat2, b: Mat2, ell: int) -> Mat:
    """The action of the SL2 pair (A, B) as a raw matrix (usable below the
    l >= 11 form bound)."""
    if mat_det(a, ell) != 1 or mat_det(b, ell) != 1:
        raise ValueError("both factors must have determinant 1")
    return _kron(a, b, ell)


def tensor_action(a: Mat2, b: Mat2, ell: int) -> OrthMatrix:
    """The orthogonal matrix by which the SL2 pair (A, B) acts."""
    return OrthMatrix(tensor_action_matrix(a, b, ell), tensor_form(ell))


class PairSL2(NamedTuple):
    """An SL2 pair with the +-(A, B) ambiguity resolved: the first nonzero
    entry of A, scanned row-major, lies in [1, (l-1)/2]."""

    a: Mat2
    b: Mat2


def _canonical_pair(a: Mat2, b: Mat2, ell: int) -> PairSL2:
    for x in (y for row in a for y in row):
        if x:
            if not 1 <= x <= (ell - 1) // 2:
                a, b = mat_neg(a, ell), mat_neg(b, ell)
            return PairSL2(a, b)
    raise AssertionError("zero matrix cannot arise from an SL2 pair")


def kronecker_decompose(m, ell: int | None = None) -> PairSL2:
    """Invert the tensor action: recover (A, B) with kron(A, B) = m.

    Accepts an OrthMatrix or a raw 4x4 matrix plus l.  Raises
    NotDecomposableError when m is not such a product (nonsquare block
    determinant, bad block ratios, or recomposition mismatch).
    """
    if isinstance(m, OrthMatrix):
        ell = m.form.ell
        mat = m.mat
    else:
        if ell is None:
            raise ValueError("raw matrix input needs l")
        mat = mat_reduce(m, ell)

    def block(l: int, j: int) -> Mat2:
        return (
            (mat[2 * l][2 * j], mat[2 * l][2 * j + 1]),
            (mat[2 * l + 1][2 * j], mat[2 * l + 1][2 * j + 1]),
        )

    blocks = (block(l, j) for l in range(2) for j in range(2))
    pivot = next((blk for blk in blocks if mat_det(blk, ell)), None)
    if pivot is None:
        raise NotDecomposableError("every 2x2 block is singular")
    d = mat_det(pivot, ell)
    if legendre(d, ell) != 1:
        raise NotDecomposableError("pivot block determinant is a nonsquare")
    scale = pow(sqrt_mod(d, ell), -1, ell)
    a = tuple(tuple(x * scale % ell for x in row) for row in pivot)
    # with A fixed, every block is a scalar multiple of it; read the scalars
    i0, j0 = next((i, j) for i in range(2) for j in range(2) if a[i][j])
    a_inv_entry = pow(a[i0][j0], -1, ell)
    b = tuple(
        tuple(block(l, j)[i0][j0] * a_inv_entry % ell for j in range(2)) for l in range(2)
    )
    if mat_det(a, ell) != 1 or mat_det(b, ell) != 1 or _kron(a, b, ell) != mat:
        raise NotDecomposableError("matrix is not a Kronecker product of an SL2 pair")
    return _canonical_pair(a, b, ell)


# ---------------------------------------------------------------------------
# the block-diagonal group, its extension, and the Gaussian model


def block_diagonal_pair(a: Mat2, ell: int) -> Mat:
    """diag(A, A) for A in SL2(F_l): the action of the pair (A, I)."""
    return tensor_action_matrix(a, M2_IDENTITY, ell)


def complex_structure(ell: int) -> Mat:
    """The matrix ((0, -I), (I, 0)); squares to -I and commutes with every
    block-diagonal pair."""
    return _kron(M2_IDENTITY, B0, ell)


class GaussianMat:
    """2x2 matrix over Z[i]/l, entries stored as (re, im) pairs."""

    __slots__ = ("ell", "entries")

    def __init__(self, ell: int, entries):
        self.ell = ell
        self.entries = tuple(
            tuple((re % ell, im % ell) for re, im in row) for row in entries
        )

    def __mul__(self, other: "GaussianMat") -> "GaussianMat":
        ell = self.ell
        out = []
        for r in range(2):
            row = []
            for c in range(2):
                re = im = 0
                for k in range(2):
                    ar, ai = self.entries[r][k]
                    br, bi = other.entries[k][c]
                    re += ar * br - ai * bi
                    im += ar * bi + ai * br
                row.append((re % ell, im % ell))
            out.append(tuple(row))
        return GaussianMat(ell, out)

    def __eq__(self, other):
        return (
            isinstance(other, GaussianMat)
            and self.ell == other.ell
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.ell, self.entries))

    def to_real(self) -> Mat:
        """The 4x4 matrix acting on (x1, x2, x3, x4) where column vectors
        split as (x1 + x3 i, x2 + x4 i)."""
        ell = self.ell
        re = [[self.entries[r][c][0] for c in range(2)] for r in range(2)]
        im = [[self.entries[r][c][1] for c in range(2)] for r in range(2)]
        rows = []
        for r in range(2):
            rows.append(tuple(re[r]) + tuple((-x) % ell for x in im[r]))
        for r in range(2):
            rows.append(tuple(im[r]) + tuple(re[r]))
        return tuple(rows)

    def __repr__(self):
        def fmt(e):
            re, im = e
            if im == 0:
                return str(re)
            return f"{re}+{im}i"

        return f"GaussianMat[{fmt(self.entries[0][0])}, {fmt(self.entries[0][1])}; {fmt(self.entries[1][0])}, {fmt(self.entries[1][1])}] mod {self.ell}"


def _equal_diagonal_blocks(mat: Mat, ell: int) -> bool:
    """Whether the reduced matrix mat is diag(A, A) with A in SL2(F_l)."""
    a = ((mat[0][0], mat[0][1]), (mat[1][0], mat[1][1]))
    return mat_det(a, ell) == 1 and _kron(a, M2_IDENTITY, ell) == mat


def to_gaussian(mat: Mat, ell: int) -> GaussianMat:
    """Write a member of the extended block-diagonal group as a 2x2 matrix
    over Z[i]/l, letting i act as the complex structure.

    Membership is checked by peeling: either the matrix is diag(A, A), or
    multiplying by the inverse complex structure makes it so.
    """
    mat = mat_reduce(mat, ell)
    gamma_inv = mat_neg(complex_structure(ell), ell)  # gamma^3 = -gamma
    if not _equal_diagonal_blocks(mat, ell):
        peeled = mat_mul(mat, gamma_inv, ell)
        if not _equal_diagonal_blocks(peeled, ell):
            raise NotInGroupError("matrix is not in the extended block-diagonal group")
    return GaussianMat(
        ell,
        [[(mat[r][c], mat[r + 2][c]) for c in range(2)] for r in range(2)],
    )


def group_order_bfs(generators, ell: int, cap: int = 10_000_000) -> int:
    """Exact order of the matrix group generated over F_l, by breadth-first
    closure one level at a time.

    Each level is one batched product of the frontier, an (N, n, n) array,
    with every generator.  An element is keyed by its entries read as the
    base-l digits of one integer, row-major.  Products are int64 when
    n (l - 1)^2 < 2^63 and Python integers (object dtype) otherwise; keys
    are always Python integers.  Raises CapExceededError when the order
    exceeds cap.
    """
    if cap > 10_000_000:
        raise ValueError("cap above 10^7 refused")
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    gens = [mat_reduce(g, ell) for g in generators]
    n = len(gens[0])
    dtype = np.int64 if n * (ell - 1) ** 2 < 2**63 else object
    radix = np.array([ell**k for k in reversed(range(n * n))], dtype=object)

    def keys(mats) -> list[int]:
        return (mats.reshape(len(mats), -1).astype(object) @ radix).tolist()

    gens_arr = np.array(gens, dtype=dtype)
    level = np.array([identity(n)], dtype=dtype)
    seen = set(keys(level))
    while len(level):
        # every product of the level with a generator, then only the new ones
        level = (level[:, None] @ gens_arr[None]).reshape(-1, n, n)
        level %= ell
        fresh = []
        for i, key in enumerate(keys(level)):
            if key not in seen:
                seen.add(key)
                fresh.append(i)
        if len(seen) > cap:
            raise CapExceededError(f"group closure exceeded cap {cap}")
        level = level[fresh]
    return len(seen)
