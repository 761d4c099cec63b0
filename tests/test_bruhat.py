"""Bruhat order via rank matrices, against the cover-digraph oracle."""

import itertools
import random

import pytest

from juryconv import (
    Permutation,
    conv,
    RankMatrix,
    bruhat_leq_conv,
    bruhat_leq_oracle,
    perm_to_matrix,
    rank_matrix,
    verify_equivalences,
)
from juryconv.bruhat import compare, matrix_to_perm, ones_matrix, rank_identities_hold

from helpers import rand_permutation


def all_perms(n):
    return [Permutation.of(p) for p in itertools.permutations(range(1, n + 1))]


class TestPermutation:
    def test_validation(self):
        with pytest.raises(ValueError):
            Permutation.of([1, 1, 2])
        with pytest.raises(ValueError):
            Permutation.of([0, 1])

    def test_inverse_and_length(self):
        p = Permutation.of([2, 3, 1])
        assert p.inverse().values == (3, 1, 2)
        assert p.length() == 2
        assert Permutation.reversal(4).length() == 6

    def test_from_string(self):
        assert Permutation.from_string("3 1 2").values == (3, 1, 2)
        assert Permutation.from_string("3,1,2").values == (3, 1, 2)


class TestPermutationMatrices:
    def test_identity_is_diagonal(self):
        m = perm_to_matrix(Permutation.identity(3))
        assert m.to_lists() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_reversal_is_antidiagonal(self):
        m = perm_to_matrix(Permutation.reversal(3))
        assert m.to_lists() == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]

    def test_one_line_placement(self):
        m = perm_to_matrix(Permutation.of([2, 1, 3]))
        assert m[0, 1] == 1 and m[1, 0] == 1 and m[2, 2] == 1

    def test_roundtrip(self):
        rng = random.Random(5)
        for n in range(1, 7):
            p = Permutation.of(rand_permutation(rng, n))
            assert matrix_to_perm(perm_to_matrix(p)) == p

    def test_row_and_column_reversal(self):
        p = Permutation.of([2, 3, 1])
        assert p.reversed_rows().values == (1, 3, 2)
        assert p.reversed_cols().values == (2, 1, 3)


class TestRankMatrix:
    def test_identity_counts(self):
        assert rank_matrix(Permutation.identity(3)).to_lists() == [
            [1, 1, 1], [1, 2, 2], [1, 2, 3]]

    def test_reversal_counts(self):
        assert rank_matrix(Permutation.reversal(3)).to_lists() == [
            [0, 0, 1], [0, 1, 2], [1, 2, 3]]

    def test_last_row_is_column_count(self):
        rng = random.Random(7)
        for n in range(1, 7):
            r = rank_matrix(Permutation.of(rand_permutation(rng, n)))
            assert list(r.entries[n - 1]) == list(range(1, n + 1))

    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            RankMatrix(((2,),))

    def test_is_convolution_with_ones(self):
        # The paper's identity R = P <> J, against the ring product itself.
        rng = random.Random(13)
        perms = [p for n in range(1, 6) for p in all_perms(n)]
        perms += [Permutation.of(rand_permutation(rng, n)) for n in range(6, 13) for _ in range(5)]
        for p in perms:
            product = conv(perm_to_matrix(p), ones_matrix(p.n))
            assert rank_matrix(p).to_lists() == product.to_lists()


class TestOrderCriterion:
    def test_identity_below_reversal(self):
        ident, rev = Permutation.identity(3), Permutation.reversal(3)
        assert bruhat_leq_conv(ident, rev)
        assert not bruhat_leq_conv(rev, ident)

    def test_reflexive(self):
        for p in all_perms(3):
            assert bruhat_leq_conv(p, p)

    def test_known_incomparable_pair(self):
        a, b = Permutation.of([1, 3, 2]), Permutation.of([2, 1, 3])
        assert not bruhat_leq_conv(a, b) and not bruhat_leq_conv(b, a)
        assert not bruhat_leq_oracle(a, b) and not bruhat_leq_oracle(b, a)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            bruhat_leq_conv(Permutation.identity(2), Permutation.identity(3))


class TestOracle:
    def test_extremal_elements(self):
        for p in all_perms(4):
            assert bruhat_leq_oracle(Permutation.identity(4), p)
            assert bruhat_leq_oracle(p, Permutation.reversal(4))

    def test_cap(self):
        with pytest.raises(ValueError):
            bruhat_leq_oracle(Permutation.identity(8), Permutation.identity(8))

    def test_agreement_exhaustive_small(self):
        for n in (2, 3, 4):
            perms = all_perms(n)
            for s in perms:
                for t in perms:
                    assert bruhat_leq_conv(s, t) == bruhat_leq_oracle(s, t), (s, t)

    def test_agreement_random_larger(self):
        rng = random.Random(11)
        for n in (5, 6):
            for _ in range(200):
                s = Permutation.of(rand_permutation(rng, n))
                t = Permutation.of(rand_permutation(rng, n))
                assert bruhat_leq_conv(s, t) == bruhat_leq_oracle(s, t)


class TestPartialOrderAxioms:
    def test_antisymmetry_s4(self):
        perms = all_perms(4)
        for s in perms:
            for t in perms:
                if bruhat_leq_conv(s, t) and bruhat_leq_conv(t, s):
                    assert s == t

    def test_transitivity_s4(self):
        perms = all_perms(4)
        leq = {(s.values, t.values) for s in perms for t in perms
               if bruhat_leq_conv(s, t)}
        for (a, b) in leq:
            for c in perms:
                if (b, c.values) in leq:
                    assert (a, c.values) in leq


class TestIdentitiesAndEquivalences:
    def test_counting_identities_random(self):
        rng = random.Random(13)
        for n in range(1, 7):
            for _ in range(30):
                assert rank_identities_hold(Permutation.of(rand_permutation(rng, n)))

    def test_duality_rows_agree_exhaustive_s3(self):
        perms = all_perms(3)
        for s in perms:
            for t in perms:
                rep = verify_equivalences(s, t)
                assert rep.all_consistent, rep.to_dict()

    def test_inverse_row(self):
        rng = random.Random(17)
        for _ in range(50):
            s = Permutation.of(rand_permutation(rng, 5))
            t = Permutation.of(rand_permutation(rng, 5))
            assert bruhat_leq_conv(s, t) == bruhat_leq_conv(s.inverse(), t.inverse())

    def test_reversal_duality(self):
        rng = random.Random(19)
        for _ in range(50):
            s = Permutation.of(rand_permutation(rng, 5))
            t = Permutation.of(rand_permutation(rng, 5))
            direct = bruhat_leq_conv(s, t)
            assert direct == bruhat_leq_conv(t.reversed_rows(), s.reversed_rows())
            assert direct == bruhat_leq_conv(t.reversed_cols(), s.reversed_cols())


class TestCompare:
    def test_summary_payload(self):
        out = compare(Permutation.of([3, 1, 2]), Permutation.of([3, 2, 1]))
        assert out["leq"] is True
        assert out["geq"] is False
        assert out["incomparable"] is False
        assert out["rank_matrices"]["sigma"][2] == [1, 2, 3]
