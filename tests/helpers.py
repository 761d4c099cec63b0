"""Shared random generators for the exact-arithmetic test suites."""

import random
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from juryconv import ConvMatrix, elementary_sum


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


# Unit roundoff of IEEE binary64.
UNIT_ROUNDOFF = Fraction(1, 2 ** 53)


def gamma(n: int) -> Fraction:
    """Higham's gamma_n = n u / (1 - n u), exactly."""
    return n * UNIT_ROUNDOFF / (1 - n * UNIT_ROUNDOFF)


def assert_entrywise_bound(product, a: ConvMatrix, b: ConvMatrix, got: ConvMatrix):
    """|got - a<>b| <= gamma_(k+2) (|a| <> |b|) at every entry, checked exactly.

    ``product`` is ``conv`` or ``padded_conv``.  The exact product of the
    floats' exact values (each part converted with ``Fraction``) comes
    from ``product`` on the rational backend, real and imaginary parts
    apart, and so does k, the number of products in each entry (the same
    window of all-ones operands).  The moduli are rounded floats, each at
    most an ulp below the true modulus, hence the (1 + 2u)^2 on the bound.
    With ``got`` the identity and ``b`` a computed inverse of ``a``, it
    bounds the residual |a<>b - I| instead.
    """
    def part(m, f):
        return ConvMatrix.rational([[f(v) for v in row] for row in m.data])

    ar, ai = part(a, lambda v: Fraction(v.real)), part(a, lambda v: Fraction(v.imag))
    br, bi = part(b, lambda v: Fraction(v.real)), part(b, lambda v: Fraction(v.imag))
    re = product(ar, br) - product(ai, bi)
    im = product(ar, bi) + product(ai, br)
    mag = product(part(a, lambda v: Fraction(abs(v))), part(b, lambda v: Fraction(abs(v))))
    count = product(part(a, lambda v: Fraction(1)), part(b, lambda v: Fraction(1)))
    slack = (1 + 2 * UNIT_ROUNDOFF) ** 2
    for i, j in got.indices():
        err2 = (Fraction(got[i, j].real) - re[i, j]) ** 2 + (Fraction(got[i, j].imag) - im[i, j]) ** 2
        bound = gamma(int(count[i, j]) + 2) * mag[i, j] * slack
        assert err2 <= bound ** 2, (i, j, float(err2) ** 0.5, float(bound))


def first_primes(count: int) -> list:
    """The first ``count`` primes, by trial division against the smaller ones."""
    found = []
    k = 2
    while len(found) < count:
        if all(k % p for p in found if p * p <= k):
            found.append(k)
        k += 1
    return found


def coprime_matrix(rng: random.Random, m: int, n: int, bound: int = 9) -> ConvMatrix:
    """Entries p/q with a distinct prime q per entry: the lcm of the denominators is their product."""
    dens = first_primes(m * n)
    rng.shuffle(dens)
    nums = [rng.choice([k for k in range(-bound, bound + 1) if k]) for _ in range(m * n)]
    return ConvMatrix.rational(
        [[Fraction(nums[i * n + j], dens[i * n + j]) for j in range(n)] for i in range(m)]
    )


# Entries far outside machine range: numerators up to 10^40, denominators up to 10^12.
huge_fraction = st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 12))


def rational_matrices(shape, entry=st.fractions(min_value=-5, max_value=5, max_denominator=4)):
    return st.lists(st.lists(entry, min_size=shape[1], max_size=shape[1]),
                    min_size=shape[0], max_size=shape[0]).map(ConvMatrix.rational)


def coprime_matrices(shape):
    """Hypothesis form of :func:`coprime_matrix`, with numerators up to 10^40."""
    m, n = shape
    return st.tuples(
        st.permutations(first_primes(max(m * n, 30))),
        st.lists(st.integers(-10 ** 40, 10 ** 40), min_size=m * n, max_size=m * n),
    ).map(lambda t: ConvMatrix.rational(
        [[Fraction(t[1][i * n + j], t[0][i * n + j]) for j in range(n)] for i in range(m)]))


def with_zero_rows(matrices):
    """Matrices from ``matrices`` with a drawn subset of their rows set to zero (possibly all)."""
    return matrices.flatmap(lambda a: st.lists(st.booleans(), min_size=a.rows, max_size=a.rows).map(
        lambda mask: ConvMatrix.rational([[0] * a.cols if z else list(row)
                                          for row, z in zip(a.data, mask)])))


def vanishing_degree(a: ConvMatrix) -> int:
    """Smallest kappa whose elementary sums vanish (exactly) on all far anti-diagonals.

    The partition-sum oracle for ``minimal_polynomial(a).minimal_degree``:
    E_kappa(A, i, j) over every (i, j) with i + j >= kappa, each an
    independent sum over multiset partitions of (i, j).
    """
    d = a.rows + a.cols - 1
    for kappa in range(1, d):
        if all(elementary_sum(a, kappa, (i, j)) == 0
               for i in range(a.rows) for j in range(a.cols) if i + j >= kappa):
            return kappa
    return d
