"""Shared random generators for the exact-arithmetic test suites."""

import functools
import math
import random
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from juryconv import ConvMatrix, conv, elementary_sum, scale
from juryconv.conv_core import nilpotent_part, ring_taylor


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


def _dyadic(values: np.ndarray) -> tuple:
    """Real floats as integers over one power of two: (object array n, s), values = n / 2^s."""
    ratios = [v.as_integer_ratio() for v in values.ravel().tolist()]
    s = max(d.bit_length() - 1 for _, d in ratios)
    ints = np.array([n << (s - d.bit_length() + 1) for n, d in ratios], dtype=object)
    return ints.reshape(values.shape), s


def _parts(z: np.ndarray) -> tuple:
    """Real parts, imaginary parts and rounded moduli of complex z, as ints over one 2^s."""
    return _dyadic(np.stack([z.real, z.imag, np.abs(z)]))


def _int_window(a: np.ndarray, b: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Top-left rows x cols window of the full 2-D convolution of two int arrays, exactly."""
    out = np.zeros((rows, cols), dtype=object)
    for (l, k), v in np.ndenumerate(a):
        r, c = min(b.shape[0], rows - l), min(b.shape[1], cols - k)
        if v and r > 0 and c > 0:
            out[l:l + r, k:k + c] += v * b[:r, :c]
    return out


@functools.lru_cache(maxsize=None)
def _product_counts(product, ashape, bshape) -> np.ndarray:
    """The number of products in each entry: ``product`` of all-ones operands, as ints."""
    ones = (ConvMatrix.rational([[1] * n for _ in range(m)]) for m, n in (ashape, bshape))
    return np.array([[int(v) for v in row] for row in product(*ones).data], dtype=object)


def _assert_bound(product, a: ConvMatrix, b: ConvMatrix, got: ConvMatrix, shift: complex = 0j):
    """|got - (a<>b + shift I)| <= gamma_(k+2) (|a| <> |b|) at every entry, in integers.

    Every float is an integer over a power of two, so the exact product
    of the floats' exact values is an integer product over 2^(sa+sb),
    real and imaginary parts apart (three products, Karatsuba's way).
    k, the number of products in each entry, is ``product`` (``conv`` or
    ``padded_conv``) of all-ones operands, which also fixes the window.
    The moduli are rounded floats, each at most an ulp below the true
    modulus, hence a factor (1 + 2u)^2 on the bound.  A ``shift`` counts
    as one more product at the origin, of modulus |shift|.
    """
    count = _product_counts(product, a.shape, b.shape).copy()
    rows, cols = count.shape
    ((ar, ai, am), sa), ((br, bi, bm), sb) = _parts(a.to_numpy()), _parts(b.to_numpy())
    rr, ii = _int_window(ar, br, rows, cols), _int_window(ai, bi, rows, cols)
    want = {"re": rr - ii, "im": _int_window(ar + ai, br + bi, rows, cols) - rr - ii,
            "mag": _int_window(am, bm, rows, cols)}
    (gr, gi, _), sg = _parts(got.to_numpy())
    (cr, ci, cm), sc = _parts(np.array([[shift]]))
    t = max(sa + sb, sg, sc)
    want = {key: v * (1 << (t - sa - sb)) for key, v in want.items()}
    for key, v in zip(want, (cr, ci, cm)):
        want[key][0, 0] += int(v[0, 0]) << (t - sc)
    count[0, 0] += shift != 0
    er, ei = gr * (1 << (t - sg)) - want["re"], gi * (1 << (t - sg)) - want["im"]
    # gamma_n (1 + 2u)^2 = n (2^53 + 2)^2 / ((2^53 - n) 2^106), n = k + 2.
    n = count + 2
    lhs = (er * er + ei * ei) * ((2 ** 53 - n) * 2 ** 106) ** 2
    rhs = (n * (2 ** 53 + 2) ** 2 * want["mag"]) ** 2
    bad = [(i, j, float(Fraction(lhs[i, j], rhs[i, j] or 1)) ** 0.5) for i, j in np.argwhere(lhs > rhs)]
    assert not bad, bad[:5]  # (i, j, error / bound)


def assert_entrywise_bound(product, a: ConvMatrix, b: ConvMatrix, got: ConvMatrix):
    """|got - a<>b| <= gamma_(k+2) (|a| <> |b|) at every entry, checked exactly.

    ``product`` is ``conv`` or ``padded_conv``; k is the number of
    products in each entry (:func:`_assert_bound`).  With ``got`` the
    identity and ``b`` a computed inverse of ``a``, it bounds the
    residual |a<>b - I| instead.
    """
    _assert_bound(product, a, b, got)


def assert_chain_bound(chain, coeffs, x: ConvMatrix):
    """Every Horner step of ``chain`` (``ring_taylor``) within the product bound, checked exactly.

    ``chain(coeffs[l:], x)`` is R_l, the chain's own intermediate: the
    same steps as in the full chain, which starts from c_(n-1) I.  Step l
    is R_l = fl(fl(R_(l+1) <> X) + c_l I), with R_(l+1) the computed one,
    so |R_l - (R_(l+1) <> X + c_l I)| <= gamma_(k+2) (|R_(l+1)| <> |X|)
    off the origin.  At the origin c_l counts as one more product: the
    add rounds once more, and (1 + gamma_(k+2))(1 + u) <= 1 + gamma_(k+3).
    """
    cs = [complex(c) for c in coeffs]
    later = chain(cs[-1:], x)
    assert later == ConvMatrix.from_numpy(np.pad([[cs[-1]]], ((0, x.rows - 1), (0, x.cols - 1))))
    for l in range(len(cs) - 2, -1, -1):
        step = chain(cs[l:], x)
        _assert_bound(conv, later, x, step, cs[l])
        later = step


def inverse_reference(a: ConvMatrix) -> ConvMatrix:
    """A^(-1) by back-substitution on ``Fraction``s, one entry at a time in anti-diagonal order.

    The defining recursion b[i, j] = -a00^(-1) sum a[l, k] b[i-l, j-k]
    over (l, k) != (0, 0), summed term by term from ``a.data``:
    independent of the library's integer routes.
    """
    ad = a.data
    inv00 = 1 / ad[0][0]
    b = [[Fraction(0)] * a.cols for _ in range(a.rows)]
    b[0][0] = inv00
    for s in range(1, a.rows + a.cols - 1):
        for i in range(max(0, s - a.cols + 1), min(a.rows - 1, s) + 1):
            j = s - i
            b[i][j] = -inv00 * sum(ad[l][k] * b[i - l][j - k]
                                   for l in range(i + 1) for k in range(j + 1) if l or k)
    return ConvMatrix.rational(b)


def power_reference(a: ConvMatrix, alpha: float) -> np.ndarray:
    """A^alpha of a real A with a00 > 0: the Taylor sum in exact arithmetic, as floats.

    a00^alpha sum_l C(alpha, l) X^(<>l) at X = G / a00, with the
    generalized binomials C(alpha, l) of alpha's exact value and X from
    A's exact dyadic entries, summed by the rational ``ring_taylor``:
    independent of the float routes.  Only the float a00^alpha and the
    final scaling round.
    """
    arr = a.to_numpy()
    assert not arr.imag.any()
    exact = ConvMatrix.rational([[Fraction(v) for v in row] for row in arr.real.tolist()])
    a00, al = exact[0, 0], Fraction(alpha)
    coeffs = [Fraction(1)]
    for l in range(a.rows + a.cols - 2):
        coeffs.append(coeffs[-1] * (al - l) / (l + 1))
    return ring_taylor(coeffs, nilpotent_part(scale(1 / a00, exact))).to_numpy() * float(a00) ** alpha


def normwise_error(got: ConvMatrix, want: np.ndarray) -> float:
    """max |got - want| / max |want|."""
    return float(np.abs(got.to_numpy() - want).max() / np.abs(want).max())


def assert_power_bound(a: ConvMatrix, alpha: float, b: ConvMatrix):
    """The power solver's residual bound on real A (M >= N) and computed B = A^alpha, exactly.

    With D(X)[i, j] = i X[i, j] and k = (i+1)(j+1), every entry (i, j)
    with i >= 1 satisfies

        |D(B) <> A - alpha B <> D(A)| <= gamma_(k+7) (i |A| <> |B| + |alpha+1| |D(A)| <> |B|),

    and row 0 the same with j and the column derivation.  D(B) <> A is
    i (A <> B) - D(A) <> B, so each side is a window of products of
    integers over 2^(sa+sb) (:func:`_dyadic`), and alpha+1 = p / q.
    """
    assert a.rows >= a.cols and a.shape == b.shape
    assert not a.to_numpy().imag.any() and not b.to_numpy().imag.any()
    (ar, _), (br, _) = _dyadic(a.to_numpy().real), _dyadic(b.to_numpy().real)
    rows, cols = a.shape
    i, j = np.arange(rows, dtype=object)[:, None], np.arange(cols, dtype=object)[None, :]

    def windows(x, y):
        """x <> y, and D(x) <> y with D the row derivation, in row 0 the column one."""
        return _int_window(x, y, rows, cols), np.where(
            i > 0, _int_window(x * i, y, rows, cols), _int_window(x * j, y, rows, cols))

    (prod, deriv), (aprod, aderiv) = windows(ar, br), windows(abs(ar), abs(br))
    up = Fraction(alpha) + 1
    p, q = up.numerator, up.denominator
    d = np.where(i > 0, i, j)
    resid = abs(q * d * prod - p * deriv)
    bound = q * d * aprod + abs(p) * aderiv
    bad = [(r, c, float(Fraction(resid[r, c], bound[r, c] or 1) / gamma((r + 1) * (c + 1) + 7)))
           for r in range(rows) for c in range(cols)
           if (r or c) and resid[r, c] > gamma((r + 1) * (c + 1) + 7) * bound[r, c]]
    assert not bad, bad[:5]  # (i, j, residual / bound)


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


def forward_difference_reference(f, x, h, ell: int):
    """One order at a time: sum_j C(ell,j) (-1)^(ell-j) f(x + j h), j ascending, f evaluated afresh."""
    acc = 0
    for j in range(ell + 1):
        sign = -1 if (ell - j) % 2 else 1
        acc = acc + sign * math.comb(ell, j) * f.value(x + j * h)
    return acc
