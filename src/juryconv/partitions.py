"""Multiset partitions of grid indices and the elementary partition sums.

A "partition" here is a multiset of index pairs drawn from the grid
K = [0:M-1] x [0:N-1] (or from K* = K minus the origin) whose
componentwise sum hits a prescribed target.  These multisets index
the entrywise expansion of convolution powers.  The elementary sums are
the entries of G^(<>l) / l! for G = A - a00 I; the functional
transforms (:func:`juryconv.conv_core.ring_taylor`) and the minimal
polynomial work on the powers of G directly, so the partition route is
the tests' independent oracle for both.

Enumeration is recursive over grid elements in lexicographic order with
a remaining-budget state, so results are deterministic and duplicate
free.  Partition lists are memoized per (shape, size, target, flag)
because callers request identical sets for every matrix of a fixed
shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Tuple

from . import numerics
from .conv_core import ConvMatrix

# Soft cap on the number of multisets a single enumeration may produce.
PARTITION_CAP = 10**6


class EnumerationLimitError(RuntimeError):
    """A partition enumeration exceeded the soft size cap."""


@dataclass(frozen=True)
class IndexGrid:
    """The index grid K = [0:M-1] x [0:N-1] with its punctured variant K*."""

    rows: int
    cols: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"grid shape must be >= 1x1, got {self.rows}x{self.cols}")

    def indices(self, exclude_origin: bool = False) -> Tuple[tuple, ...]:
        return tuple(
            (p, q)
            for p in range(self.rows)
            for q in range(self.cols)
            if not (exclude_origin and p == 0 and q == 0)
        )

    def contains(self, idx: tuple) -> bool:
        i, j = idx
        return 0 <= i < self.rows and 0 <= j < self.cols

    @classmethod
    def of(cls, a: ConvMatrix) -> "IndexGrid":
        return cls(a.rows, a.cols)


@dataclass(frozen=True)
class MultisetPartition:
    """A multiset of grid indices with multiplicities, summing to a target.

    ``items`` is a lexicographically sorted tuple of ((p, q), count)
    pairs.  ``weight`` is the exact coefficient 1 / prod(count!) that the
    partition contributes to the elementary sums.
    """

    items: tuple
    size: int = field(init=False)
    total: tuple = field(init=False)
    weight: Fraction = field(init=False)

    def __post_init__(self):
        size = sum(c for _, c in self.items)
        ti = sum(p * c for (p, _), c in self.items)
        tj = sum(q * c for (_, q), c in self.items)
        weight = numerics.multiset_weight({pair: c for pair, c in self.items})
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "total", (ti, tj))
        object.__setattr__(self, "weight", weight)

    def counts(self) -> dict:
        return {pair: c for pair, c in self.items}

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.items)

    def __str__(self) -> str:
        return " ".join(f"({p},{q})^{c}" for (p, q), c in self.items)


_cache: dict = {}


def _enumerate_raw(elements: tuple, ell: int, target: tuple) -> tuple:
    """All multisets of exactly ``ell`` elements summing to ``target``.

    Elements are consumed in lexicographic order with counts chosen from
    high to low, which makes the emitted partition list itself
    lexicographic.  Branches are pruned on the remaining budget.
    """
    out = []
    n_elems = len(elements)

    def recurse(idx: int, ell_rem: int, i_rem: int, j_rem: int, acc: list):
        if ell_rem == 0:
            if i_rem == 0 and j_rem == 0:
                out.append(tuple(acc))
                if len(out) > PARTITION_CAP:
                    raise EnumerationLimitError(
                        f"more than {PARTITION_CAP} partitions for target {target}"
                    )
            return
        if idx == n_elems or i_rem < 0 or j_rem < 0:
            return
        p, q = elements[idx]
        # Every element from idx onward adds at least (p+q) >= this
        # element's weight to the running sum once we are past the origin.
        if (p, q) != (0, 0) and i_rem + j_rem < ell_rem:
            return
        max_c = ell_rem
        if p:
            max_c = min(max_c, i_rem // p)
        if q:
            max_c = min(max_c, j_rem // q)
        for c in range(max_c, -1, -1):
            if c:
                acc.append(((p, q), c))
            recurse(idx + 1, ell_rem - c, i_rem - c * p, j_rem - c * q, acc)
            if c:
                acc.pop()

    recurse(0, ell, target[0], target[1], [])
    return tuple(out)


def enumerate_partitions(grid: IndexGrid, ell: int, target: tuple,
                         exclude_origin: bool = True) -> tuple:
    """All multisets of exactly ``ell`` grid indices summing to ``target``.

    With ``exclude_origin`` the multisets draw from K*, otherwise from
    the full grid K.  Returns a (possibly empty) tuple of
    :class:`MultisetPartition`, deterministically ordered: ascending
    lexicographic on the expanded words (each multiset spelled out with
    repetitions, elements sorted).
    """
    if ell < 1:
        raise ValueError(f"partition size must be >= 1, got {ell}")
    if not grid.contains(target):
        raise ValueError(f"target {target} outside grid {grid.rows}x{grid.cols}")
    key = (grid.rows, grid.cols, ell, target, exclude_origin)
    hit = _cache.get(key)
    if hit is not None:
        return hit
    raw = _enumerate_raw(grid.indices(exclude_origin), ell, target)
    result = tuple(MultisetPartition(items) for items in raw)
    _cache[key] = result
    return result


def elementary_sum(a: ConvMatrix, ell: int, target: tuple):
    """Elementary partition sum E_ell(A, i, j).

    The sum over all multisets S of ell punctured-grid indices with
    vector sum (i, j) of (1 / prod c_S!) * prod_{(p,q) in S} a[p, q]
    (products with multiplicity).  This is the coefficient of the
    ell-th derivative term in the functional transforms.  Empty index
    set (in particular whenever ell > i + j) gives 0.
    """
    i, j = target
    if (i, j) == (0, 0):
        raise ValueError("elementary sums are defined on the punctured grid")
    grid = IndexGrid.of(a)
    if not grid.contains(target):
        raise ValueError(f"target {target} outside grid {grid.rows}x{grid.cols}")
    parts = enumerate_partitions(grid, ell, target, exclude_origin=True)
    acc = numerics.zero(a.scalar)
    for part in parts:
        term = numerics.coerce(part.weight, a.scalar)
        for (p, q), c in part.items:
            term = term * a.data[p][q] ** c
        acc += term
    return acc


def conv_power_partition(a: ConvMatrix, kappa: int) -> ConvMatrix:
    """kappa-th convolution power via the multinomial partition formula.

    Entry (i, j) is the sum over multisets S of kappa full-grid indices
    with vector sum (i, j) of kappa!/prod(c_S!) * prod a[p, q].  Must
    agree exactly with :func:`juryconv.conv_core.conv_power_naive` on
    the rational backend.
    """
    if kappa < 1:
        raise ValueError(f"partition power formula needs kappa >= 1, got {kappa}")
    grid = IndexGrid.of(a)
    kfact = numerics.factorial(kappa)
    out = []
    for i in range(a.rows):
        row = []
        for j in range(a.cols):
            parts = enumerate_partitions(grid, kappa, (i, j), exclude_origin=False)
            acc = numerics.zero(a.scalar)
            for part in parts:
                # the multinomial kappa!/prod c!
                term = numerics.coerce(kfact * part.weight, a.scalar)
                for (p, q), c in part.items:
                    term = term * a.data[p][q] ** c
                acc += term
            row.append(acc)
        out.append(tuple(row))
    return ConvMatrix(a.rows, a.cols, tuple(out), a.scalar)
