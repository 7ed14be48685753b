"""The tuple-at-a-time group closure and the sequential Cartan-Dieudonne
grid scan, kept as independent oracles for the batched versions in
`tensor` and `ortho`: one 4x4 product per candidate, in plain Python."""

import itertools

from psl2cert.ortho import GRID, OrthMatrix, identity, mat_mul, mat_reduce, mat_vec, reflection_matrix
from psl2cert.tensor import CapExceededError


def group_order_tuple_bfs(generators, ell: int, cap: int = 10_000_000) -> int:
    """Order of the group generated over F_l, one product at a time, with
    each element keyed by its entries read as base-l digits."""

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
                    if len(seen) > cap:
                        raise CapExceededError(f"group closure exceeded cap {cap}")
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
