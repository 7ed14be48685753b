"""Shared deterministic generators for the property tests."""

import random

from psl2cert.ortho import GramForm, OrthMatrix, mat_mul, reflection_matrix
from psl2cert.tensor import M2_IDENTITY, sl2_generators


def rand_sl2(ell: int, rng: random.Random):
    """Random SL2(F_l) element as a word in the standard generators."""
    s, t = sl2_generators(ell)
    m = M2_IDENTITY
    for _ in range(rng.randint(4, 20)):
        m = mat_mul(m, rng.choice((s, t)), ell)
    return m


def rand_anisotropic(form: GramForm, rng: random.Random):
    while True:
        v = tuple(rng.randrange(form.ell) for _ in range(4))
        if form.norm(v) != 0:
            return v


def rand_orthogonal(form: GramForm, rng: random.Random, reflections: int) -> OrthMatrix:
    """Product of the given number of random reflections."""
    from psl2cert.ortho import identity

    m = identity()
    for _ in range(reflections):
        m = mat_mul(m, reflection_matrix(rand_anisotropic(form, rng), form), form.ell)
    return OrthMatrix(m, form)
