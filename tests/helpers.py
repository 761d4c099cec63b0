"""Shared random generators for the exact-arithmetic test suites."""

import random
from fractions import Fraction

import numpy as np

from juryconv import ConvMatrix


def rand_fraction(rng: random.Random, lo: int = -9, hi: int = 9, max_den: int = 4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_rational_matrix(rng: random.Random, m: int, n: int,
                         lo: int = -9, hi: int = 9, max_den: int = 4) -> ConvMatrix:
    return ConvMatrix.rational(
        [[rand_fraction(rng, lo, hi, max_den) for _ in range(n)] for _ in range(m)]
    )


def rand_invertible_matrix(rng: random.Random, m: int, n: int) -> ConvMatrix:
    while True:
        a = rand_rational_matrix(rng, m, n)
        if a[0, 0] != 0:
            return a


def rand_permutation(rng: random.Random, n: int):
    vals = list(range(1, n + 1))
    rng.shuffle(vals)
    return vals


def numpy_full_conv(a: ConvMatrix, b: ConvMatrix) -> np.ndarray:
    """Full 2-D convolution in numpy: shifted copies of b, scaled by each a[l, k]."""
    an, bn = a.to_numpy(), b.to_numpy()
    out = np.zeros((a.rows + b.rows - 1, a.cols + b.cols - 1), dtype=np.result_type(an, bn))
    for l in range(a.rows):
        for k in range(a.cols):
            out[l:l + b.rows, k:k + b.cols] += an[l, k] * bn
    return out
