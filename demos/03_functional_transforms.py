"""The functional calculus: polynomial action, transforms and power series.

A scalar function f acts on a matrix through its derivatives at the
leading entry contracted against the elementary partition sums.  The
action is multiplicative for convolution; replacing derivatives by
divided differences gives a transform defined for arbitrary functions
that recovers the smooth one as the step shrinks.  A power series acts
through the same finite Taylor sum, since the part of the matrix off the
leading entry is nilpotent.
"""

import math
from fractions import Fraction

from juryconv import (
    ConvMatrix,
    FunctionSpec,
    Poly,
    conv,
    divided_difference,
    poly_transform,
    series_transform,
    smooth_transform,
    stepped_transform,
)

A = ConvMatrix.rational([[1, 2], [3, 4]])

print("-- polynomial action ---------------------------------------")
p = Poly.of([1, 0, 1])          # 1 + z^2
q = Poly.of([0, 2, 0, 1])       # 2z + z^3
print("both evaluation modes agree:",
      poly_transform(p, A, "sum_of_powers") == poly_transform(p, A, "partition_formula"))
print("(pq) acts as the product of actions:",
      poly_transform(p * q, A) == conv(poly_transform(p, A), poly_transform(q, A)))

print("\n-- smooth transform ----------------------------------------")
hollow = ConvMatrix.floats([[0, 1], [1, 0]])
print("exp on [[0,1],[1,0]]:")
print(smooth_transform(FunctionSpec.exp(), hollow))

print("\n-- divided differences -------------------------------------")
square = FunctionSpec.polynomial([0, 0, 1])
x, h = Fraction(1), Fraction(2)
print(f"f = x^2:  D_h^1 f(1) = {divided_difference(square, x, h, 1)}  (2x + h)")
print(f"          D_h^2 f(1) = {divided_difference(square, x, h, 2)}  (constant 2)")

print("\n-- stepped transform and its small-step limit ---------------")
ones = ConvMatrix.rational([[1, 1], [1, 1]])
print("x^2 stepped at h=2 (exact):")
print(stepped_transform(square, ones, Fraction(2)))

small = ConvMatrix.floats([[0.002, 0.001, 0.001],
                           [0.001, 0.002, 0.001],
                           [0.001, 0.001, 0.002]])
smooth = smooth_transform(FunctionSpec.exp(), small)
print("\nmax-entry distance stepped vs smooth (exp), halving h:")
for k in range(0, 11, 2):
    stepped = stepped_transform(FunctionSpec.exp(), small, 0.5 ** k)
    dist = max(abs(complex(stepped.data[i][j]) - complex(smooth.data[i][j]))
               for (i, j) in smooth.indices())
    print(f"  h = 2^-{k:<2d}: {dist:.3e}")

print("\n-- series evaluation ---------------------------------------")
# The stream folds into the M+N-1 scalars d_l = sum_k c_k C(k, l) a00^(k-l);
# one Horner run then sums d_l G^l in the nilpotent part G.
exp_stream = [1 / math.factorial(k) for k in range(100)]
for m in (hollow, ConvMatrix.floats([[0.5, 1], [1, 0.5]])):
    result = series_transform(exp_stream, m)
    print(f"exp series at a00 = {m[0, 0].real}: {result.terms_used} scalar terms "
          f"folded into {m.rows + m.cols - 1} coefficients, last relative "
          f"increment {result.tail_bound:.1e}")
    print(result.matrix)
