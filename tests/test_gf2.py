import itertools
import random

import pytest
from oracles import reference_invert

from rotsynth.gf2 import (
    BitVec,
    DimensionError,
    GF2Matrix,
    SingularMatrixError,
    col_add,
    independent,
    invert,
    is_invertible,
    is_permutation,
    permutation_matrix,
    random_invertible,
    random_matrix,
    rank,
)

U0 = GF2Matrix.from_rows([[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 1, 0], [1, 1, 1, 1]])
U1 = GF2Matrix.from_rows([[0, 0, 0, 1], [0, 0, 1, 1], [1, 0, 0, 0], [1, 1, 1, 1]])


def rank_by_span(m: GF2Matrix) -> int:
    """Independent oracle: grow a row span one vector at a time."""
    span = {0}
    r = 0
    for row in m.rows:
        if row not in span:
            span |= {row ^ s for s in span}
            r += 1
    return r


class TestBitVec:
    def test_string_roundtrip(self):
        v = BitVec.from_string("1011")
        assert v.to_string() == "1011"
        assert v.support() == (0, 2, 3)
        assert v.weight() == 3

    def test_dot(self):
        assert BitVec.from_string("110").dot(BitVec.from_string("011")) == 1
        assert BitVec.from_string("110").dot(BitVec.from_string("110")) == 0

    def test_xor_length_mismatch(self):
        with pytest.raises(DimensionError):
            BitVec.from_string("10") ^ BitVec.from_string("101")

    def test_bad_characters(self):
        with pytest.raises(ValueError):
            BitVec.from_string("10x1")


class TestRank:
    def test_identity(self):
        assert rank(GF2Matrix.identity(4)) == 4

    def test_reference_blocks(self):
        assert rank(U0) == 4
        assert rank(U1) == 4

    def test_zero_matrix(self):
        assert rank(GF2Matrix.zeros(3, 3)) == 0

    def test_against_span_oracle(self):
        rng = random.Random(0)
        for _ in range(200):
            m = random_matrix(rng.randrange(1, 7), rng.randrange(1, 7), rng)
            assert rank(m) == rank_by_span(m)

    def test_non_square_against_span_oracle(self):
        # tall, wide and empty shapes, including more rows than columns
        rng = random.Random(5)
        shapes = [(0, 3), (3, 0), (1, 9), (9, 1), (12, 4), (4, 12), (20, 6), (6, 20)]
        for n_rows, n_cols in shapes:
            for _ in range(20):
                m = random_matrix(n_rows, n_cols, rng)
                assert rank(m) == rank_by_span(m)
                assert rank(m) <= min(n_rows, n_cols)


class TestIndependent:
    def test_against_span_oracle(self):
        rng = random.Random(6)
        for _ in range(300):
            n = rng.randrange(1, 7)
            vectors = [rng.getrandbits(n) for _ in range(rng.randrange(0, 10))]
            span, want = {0}, []
            for i, v in enumerate(vectors):
                if v not in span:
                    span |= {v ^ s for s in span}
                    want.append(i)
            assert independent(vectors) == want

    def test_examples(self):
        assert independent([]) == []
        assert independent([0, 0b11, 0b11, 0b01, 0b10, 0b100]) == [1, 3, 5]
        # wide ints: bit 70 and bit 0, then their sum
        assert independent([1 << 70, 1, (1 << 70) | 1]) == [0, 1]


class TestInvertibility:
    def test_reference_block(self):
        assert is_invertible(U1)

    def test_duplicated_column(self):
        m = GF2Matrix.from_cols([[1, 0, 1], [1, 0, 1], [0, 1, 1]])
        assert not is_invertible(m)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            is_invertible(GF2Matrix.zeros(2, 3))

    def test_matches_elimination_oracle(self):
        rng = random.Random(1)
        for _ in range(200):
            n = rng.randrange(1, 7)
            m = random_matrix(n, n, rng)
            assert is_invertible(m) == (rank_by_span(m) == n)


class TestInvert:
    def test_identity(self):
        assert invert(GF2Matrix.identity(5)) == GF2Matrix.identity(5)

    def test_permutation_inverse_is_transpose(self):
        p = permutation_matrix([2, 0, 1, 3])
        assert invert(p) == p.transpose()

    def test_multiply_back(self):
        inv = invert(U0)
        assert U0 @ inv == GF2Matrix.identity(4)
        assert inv @ U0 == GF2Matrix.identity(4)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            invert(GF2Matrix.zeros(2, 2))

    def test_double_inverse(self):
        for seed in range(20):
            m = random_invertible(5, seed)
            assert invert(invert(m)) == m

    def test_non_square_rejected(self):
        for shape in ((2, 3), (3, 2), (1, 0)):
            with pytest.raises(DimensionError):
                invert(GF2Matrix.zeros(*shape))

    @staticmethod
    def assert_matches_reference(m):
        try:
            want = reference_invert(m)
        except SingularMatrixError:
            with pytest.raises(SingularMatrixError, match="singular over GF\\(2\\)"):
                invert(m)
            return False
        assert invert(m) == want
        assert m @ want == GF2Matrix.identity(m.n_rows)
        return True

    @pytest.mark.parametrize("n", [2, 3])
    def test_every_small_matrix(self, n):
        # 6 of the 16 2x2 and 168 of the 512 3x3 matrices are invertible
        invertible = 0
        for rows in itertools.product(range(1 << n), repeat=n):
            invertible += self.assert_matches_reference(GF2Matrix(n, n, rows))
        assert invertible == {2: 6, 3: 168}[n]

    @pytest.mark.parametrize("n", list(range(1, 13)) + [64, 66])
    def test_random_against_reference(self, n):
        # random draws (singular about 71% of the time for n >= 4), random
        # invertible ones, and invertible ones with a row duplicated
        rng = random.Random(n)
        draws = 40 if n <= 12 else 6
        singular = 0
        for seed in range(draws):
            singular += not self.assert_matches_reference(random_matrix(n, n, rng))
            m = random_invertible(n, seed)
            assert self.assert_matches_reference(m)
            if n > 1:
                i, j = rng.sample(range(n), 2)
                rows = list(m.rows)
                rows[j] = rows[i]
                assert not self.assert_matches_reference(GF2Matrix(n, n, tuple(rows)))
        assert singular > 0


class TestColAdd:
    def test_identity_example(self):
        m = col_add(GF2Matrix.identity(2), 0, 1)
        assert m == GF2Matrix.from_cols([[1, 0], [1, 1]])

    def test_involution(self):
        m = random_invertible(5, 3)
        assert col_add(col_add(m, 1, 4), 1, 4) == m

    def test_same_index_rejected(self):
        with pytest.raises(IndexError):
            col_add(GF2Matrix.identity(3), 2, 2)

    def test_preserves_invertibility_and_rank(self):
        rng = random.Random(2)
        for seed in range(50):
            m = random_invertible(6, seed)
            i, j = rng.sample(range(6), 2)
            m2 = col_add(m, i, j)
            assert is_invertible(m2)
            assert rank(m2) == rank(m)


class TestIsPermutation:
    def test_identity(self):
        assert is_permutation(GF2Matrix.identity(5))

    def test_weight_two_column(self):
        m = GF2Matrix.from_cols([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
        assert not is_permutation(m)

    def test_permutation_implies_invertible(self):
        rng = random.Random(4)
        for _ in range(30):
            images = list(range(5))
            rng.shuffle(images)
            p = permutation_matrix(images)
            assert is_permutation(p)
            assert is_invertible(p)


class TestRandomInvertible:
    def test_one_by_one(self):
        assert random_invertible(1, 99) == GF2Matrix.from_rows([[1]])

    def test_deterministic(self):
        assert random_invertible(4, 7) == random_invertible(4, 7)

    def test_always_invertible(self):
        for seed in range(100):
            assert is_invertible(random_invertible(6, seed))

    def test_rejects_zero(self):
        with pytest.raises(DimensionError):
            random_invertible(0, 1)
