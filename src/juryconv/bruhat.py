"""Bruhat-order comparison through convolution rank matrices.

Convolving a permutation matrix with the all-ones matrix produces its
rank matrix: entry (i, j) counts the permutation's ones inside the
leading (i+1) x (j+1) block.  Two permutations compare in the Bruhat
order exactly when their rank matrices compare entrywise -- with the
direction reversed (the smaller permutation has the entrywise larger
rank matrix).  An independent oracle (transitive closure of the
length-one transposition covers) cross-checks the criterion, and the
row/column-reversal and transpose symmetries give four equivalent
formulations that must all agree.

Rank matrices live on the exact integer backend; comparisons here are
combinatorial, never floating.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from typing import Iterable, Tuple

from .conv_core import ConvMatrix

# Cover-digraph closures are cached per n; factorial growth caps this.
ORACLE_MAX_N = 7


@dataclass(frozen=True)
class Permutation:
    """A permutation in one-line notation: values (w(1), ..., w(n)), 1-based."""

    values: Tuple[int, ...]

    def __post_init__(self):
        n = len(self.values)
        if n < 1 or sorted(self.values) != list(range(1, n + 1)):
            raise ValueError(f"{self.values!r} is not a permutation of 1..{n}")

    @staticmethod
    def of(values: Iterable[int]) -> "Permutation":
        return Permutation(tuple(int(v) for v in values))

    @staticmethod
    def from_string(text: str) -> "Permutation":
        parts = text.replace(",", " ").split()
        if not parts:
            raise ValueError("empty permutation string")
        return Permutation.of(parts)

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def reversal(n: int) -> "Permutation":
        """The longest element n, n-1, ..., 1."""
        return Permutation(tuple(range(n, 0, -1)))

    @property
    def n(self) -> int:
        return len(self.values)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.values):
            inv[v - 1] = i + 1
        return Permutation(tuple(inv))

    def reversed_rows(self) -> "Permutation":
        """Permutation of the row-reversed matrix (left multiply by the reversal)."""
        return Permutation(tuple(reversed(self.values)))

    def reversed_cols(self) -> "Permutation":
        """Permutation of the column-reversed matrix (right multiply by the reversal)."""
        return Permutation(tuple(self.n + 1 - v for v in self.values))

    def length(self) -> int:
        """Number of inversions (Coxeter length)."""
        count = 0
        vals = self.values
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                if vals[i] > vals[j]:
                    count += 1
        return count

    def __str__(self) -> str:
        return " ".join(str(v) for v in self.values)


@dataclass(frozen=True)
class RankMatrix:
    """n x n leading-block one-counts of a permutation matrix.

    Rows and columns are nondecreasing, the last row is 1..n, and no
    entry exceeds min(i, j) + 1.
    """

    entries: tuple

    def __post_init__(self):
        n = len(self.entries)
        for i, row in enumerate(self.entries):
            if len(row) != n:
                raise ValueError("rank matrix must be square")
            for j, v in enumerate(row):
                if not 0 <= v <= min(i, j) + 1:
                    raise ValueError(f"rank entry {v} at {(i, j)} out of range")
                if j and row[j - 1] > v:
                    raise ValueError("rank rows must be nondecreasing")
                if i and self.entries[i - 1][j] > v:
                    raise ValueError("rank columns must be nondecreasing")
        if tuple(self.entries[n - 1]) != tuple(range(1, n + 1)):
            raise ValueError("last rank row must be 1..n")

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def leq_entrywise(self, other: "RankMatrix") -> bool:
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")
        return all(
            self.entries[i][j] <= other.entries[i][j]
            for i in range(self.n) for j in range(self.n)
        )

    def to_lists(self) -> list:
        return [list(row) for row in self.entries]


def perm_to_matrix(perm: Permutation) -> ConvMatrix:
    """0/1 matrix with a one at (i, w(i+1) - 1), zero-based."""
    n = perm.n
    rows = [[0] * n for _ in range(n)]
    for i, v in enumerate(perm.values):
        rows[i][v - 1] = 1
    return ConvMatrix.rational(rows)


def matrix_to_perm(mat: ConvMatrix) -> Permutation:
    if mat.rows != mat.cols:
        raise ValueError("permutation matrices are square")
    values = []
    for i in range(mat.rows):
        ones = [j for j in range(mat.cols) if mat.data[i][j] == 1]
        if len(ones) != 1 or any(mat.data[i][j] != 0 for j in range(mat.cols) if j != ones[0]):
            raise ValueError(f"row {i} is not a permutation row")
        values.append(ones[0] + 1)
    return Permutation.of(values)


def ones_matrix(n: int) -> ConvMatrix:
    return ConvMatrix.rational([[1] * n for _ in range(n)])


def rank_matrix(perm: Permutation) -> RankMatrix:
    """R = P <> J, the convolution of the permutation matrix with the all-ones matrix.

    (P <> J)[i, j] sums P over the leading (i+1) x (j+1) block, so R is
    the 2-D prefix sum of P, computed here in O(n^2): row i adds one to
    the previous row from column w(i+1) - 1 on.  The tests hold it to
    the convolution itself.
    """
    n = perm.n
    counts = [0] * n
    rows = []
    for v in perm.values:
        counts[v - 1:] = [c + 1 for c in counts[v - 1:]]
        rows.append(tuple(counts))
    return RankMatrix(tuple(rows))


def bruhat_leq_conv(sigma: Permutation, tau: Permutation) -> bool:
    """sigma <= tau in Bruhat order, decided by rank-matrix comparison.

    The direction reverses: the smaller permutation has the entrywise
    larger rank matrix.
    """
    if sigma.n != tau.n:
        raise ValueError(f"size mismatch: {sigma.n} vs {tau.n}")
    return rank_matrix(tau).leq_entrywise(rank_matrix(sigma))


# ----------------------------------------------------------------------
# independent oracle: closure of the cover digraph
# ----------------------------------------------------------------------

_closure_cache: dict = {}


def _covers(values: tuple) -> list:
    """Transposition swaps raising the length by exactly one."""
    n = len(values)
    base_len = Permutation(values).length()
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            if values[i] < values[j]:
                swapped = list(values)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                cand = tuple(swapped)
                if Permutation(cand).length() == base_len + 1:
                    out.append(cand)
    return out


def _closure(n: int):
    """Reachability bitmasks over the cover digraph of S_n."""
    if n > ORACLE_MAX_N:
        raise ValueError(
            f"cover-digraph oracle is capped at n = {ORACLE_MAX_N}, got {n}"
        )
    cached = _closure_cache.get(n)
    if cached is not None:
        return cached
    perms = list(itertools.permutations(range(1, n + 1)))
    index = {p: k for k, p in enumerate(perms)}
    by_length_desc = sorted(perms, key=lambda p: -Permutation(p).length())
    reach = [0] * len(perms)
    for p in by_length_desc:
        mask = 1 << index[p]
        for q in _covers(p):
            mask |= reach[index[q]]
        reach[index[p]] = mask
    _closure_cache[n] = (index, reach)
    return index, reach


def bruhat_leq_oracle(sigma: Permutation, tau: Permutation) -> bool:
    """sigma <= tau via reachability in the transposition cover digraph."""
    if sigma.n != tau.n:
        raise ValueError(f"size mismatch: {sigma.n} vs {tau.n}")
    index, reach = _closure(sigma.n)
    return bool(reach[index[sigma.values]] >> index[tau.values] & 1)


# ----------------------------------------------------------------------
# the four-way equivalence and the counting identities
# ----------------------------------------------------------------------

def rank_identities_hold(perm: Permutation) -> bool:
    """Row/column counting identities of the rank matrix.

    With R the rank matrix of P, R' of the row-reversed and R'' of the
    column-reversed matrix:
        R[n-1, j] = j + 1                                (full column count)
        R[i, j] + R'[n-2-i, j] = j + 1   for i <= n-2   (split at row i)
        R[i, j] + R''[i, n-2-j] = i + 1  for j <= n-2   (split at column j)
    The split complements count disjoint row (column) ranges, so each
    pair recovers the full count.
    """
    n = perm.n
    r = rank_matrix(perm)
    r_rows = rank_matrix(perm.reversed_rows())
    r_cols = rank_matrix(perm.reversed_cols())
    for j in range(n):
        if r[n - 1, j] != j + 1:
            return False
    for i in range(n - 1):
        for j in range(n):
            if r[i, j] + r_rows[n - 2 - i, j] != j + 1:
                return False
    for i in range(n):
        for j in range(n - 1):
            if r[i, j] + r_cols[i, n - 2 - j] != i + 1:
                return False
    return True


@dataclass
class EquivalenceReport:
    sigma: str
    tau: str
    rows: list
    identities_ok: bool
    all_consistent: bool

    def to_dict(self) -> dict:
        return asdict(self)


def verify_equivalences(sigma: Permutation, tau: Permutation) -> EquivalenceReport:
    """Check the four equivalent order formulations against each other.

    Each row compares the cover-digraph oracle with the rank-matrix
    criterion on a transformed pair: the pair itself, both reversed
    (rows and columns, with the comparison order flipped), and the
    inverses.  All four must return the same truth value, and the
    counting identities must hold for both permutation matrices.
    """
    if sigma.n != tau.n:
        raise ValueError(f"size mismatch: {sigma.n} vs {tau.n}")
    pairs = [
        ("direct", sigma, tau),
        ("row-reversed", tau.reversed_rows(), sigma.reversed_rows()),
        ("column-reversed", tau.reversed_cols(), sigma.reversed_cols()),
        ("inverses", sigma.inverse(), tau.inverse()),
    ]
    rows = []
    for name, s, t in pairs:
        oracle = bruhat_leq_oracle(s, t)
        criterion = bruhat_leq_conv(s, t)
        rows.append({
            "row": name,
            "oracle": oracle,
            "rank_criterion": criterion,
            "agree": oracle == criterion,
        })
    identities_ok = rank_identities_hold(sigma) and rank_identities_hold(tau)
    values = {row["oracle"] for row in rows} | {row["rank_criterion"] for row in rows}
    all_consistent = len(values) == 1 and all(row["agree"] for row in rows) and identities_ok
    return EquivalenceReport(
        sigma=str(sigma),
        tau=str(tau),
        rows=rows,
        identities_ok=identities_ok,
        all_consistent=all_consistent,
    )


def compare(sigma: Permutation, tau: Permutation) -> dict:
    """Two-sided comparison summary used by the command-line surface."""
    leq = bruhat_leq_conv(sigma, tau)
    geq = bruhat_leq_conv(tau, sigma)
    return {
        "sigma": str(sigma),
        "tau": str(tau),
        "leq": leq,
        "geq": geq,
        "incomparable": not (leq or geq),
        "rank_matrices": {
            "sigma": rank_matrix(sigma).to_lists(),
            "tau": rank_matrix(tau).to_lists(),
        },
    }
