"""Shared deterministic generators for the property tests, a child
interpreter for the cases that would hang on a regression, and a numpy
stand-in that counts its uses."""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

import psl2cert
from psl2cert.ortho import GramForm, OrthMatrix, mat_mul, reflection_matrix
from psl2cert.tensor import M2_IDENTITY, sl2_generators

SRC = str(Path(psl2cert.__file__).resolve().parents[1])


def run_python(*args: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """`python *args` in a child with the package importable; a hang fails
    with TimeoutExpired instead of stalling the suite."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=timeout, env=env)


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


class CountedNumpy:
    """numpy, counting every name a module reads from it."""

    def __init__(self):
        self.reads = 0

    def __getattr__(self, name):
        self.reads += 1
        return getattr(np, name)
