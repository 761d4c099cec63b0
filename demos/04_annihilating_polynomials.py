"""Annihilating polynomials and minimal degrees under convolution.

Every M x N matrix is killed by (z - a00)^(M+N-1), the degree is tight
across each shape, and the minimal exponent of a specific matrix is
the first power at which A - a00 I vanishes.  The elementary partition
sums vanish from the same order on; the tests hold the two to each other.
"""

from juryconv import (
    ConvMatrix,
    ch_check,
    conv_identity,
    conv_power_naive,
    minimal_polynomial,
    scale,
    tightness_witness,
)
from juryconv.cayley_hamilton import format_minimal_polynomial

A = ConvMatrix.rational([[1, 2], [3, 4]])
print("A =")
print(A)

print("\n(z - 1)^3 annihilates A:", ch_check(A))
shifted = A + scale(-1, conv_identity(2, 2))
for k in range(1, 4):
    print(f"  (A - I)^<>{k} zero: {conv_power_naive(shifted, k).is_zero()}")

print("\n-- tightness: the all-ones-minus-identity witness ----------")
for shape in [(2, 2), (3, 3), (2, 5)]:
    w = tightness_witness(*shape)
    degree = shape[0] + shape[1] - 1
    alive = all(not conv_power_naive(w, ell).is_zero() for ell in range(1, degree))
    print(f"  shape {shape}: powers 1..{degree - 1} all nonzero: {alive}; "
          f"power {degree} zero: {conv_power_naive(w, degree).is_zero()}")

print("\n-- minimal polynomials: the 2x2 case table -----------------")
cases = [
    ("b=c=d=0", [[5, 0], [0, 0]]),
    ("b=c=0, d!=0", [[5, 0], [0, 3]]),
    ("exactly one of b,c zero", [[5, 2], [0, 3]]),
    ("b,c both nonzero", [[5, 2], [3, 1]]),
]
for label, rows in cases:
    rep = minimal_polynomial(ConvMatrix.rational(rows))
    witness = f", witness {rep.witness}" if rep.witness else ""
    print(f"  {label:26s} -> {format_minimal_polynomial(rep)}{witness}")
