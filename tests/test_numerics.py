import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import cosine_rows_mean
from synattn import ShapeError, softmax_rows
from synattn.numerics import row_cosines

small_matrices = arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.floats(-100.0, 100.0),
)


class TestSoftmaxRows:
    def test_uniform_row(self):
        got = softmax_rows([[0.0, 0.0, 0.0]])
        np.testing.assert_allclose(got, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_large_entries_do_not_overflow(self):
        got = softmax_rows([[1000.0, 0.0]])
        assert np.all(np.isfinite(got))
        assert got[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert got[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_log_two_row(self):
        got = softmax_rows([[math.log(2.0), 0.0]])
        np.testing.assert_allclose(got, [[2 / 3, 1 / 3]], atol=1e-15)

    def test_propagates_nan(self):
        got = softmax_rows([[0.0, np.nan], [0.0, 0.0]])
        assert np.all(np.isnan(got[0]))
        np.testing.assert_array_equal(got[1], [0.5, 0.5])

    @given(small_matrices)
    def test_rows_sum_to_one(self, m):
        sums = softmax_rows(m).sum(axis=1)
        assert np.abs(sums - 1.0).max() <= 1e-12

    @given(small_matrices)
    def test_rows_nonnegative(self, m):
        assert np.all(softmax_rows(m) >= 0.0)

    def test_out_may_be_the_input(self):
        # in place on the input gives the bytes of a fresh result
        m = np.random.default_rng(3).normal(size=(2, 3, 5, 7)) * 30.0
        want = softmax_rows(m.copy())
        got = softmax_rows(m, out=m)
        assert got is m
        np.testing.assert_array_equal(got, want)

    def test_input_left_unchanged(self):
        m = np.random.default_rng(4).normal(size=(3, 5, 7))
        before = m.copy()
        got = softmax_rows(m)
        assert not np.shares_memory(got, m)
        np.testing.assert_array_equal(m, before)


class TestCosineSimilarity:
    """The mean of :func:`row_cosines` over a block's rows, as the pipeline forms s_txt and s_img."""

    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(21)
        m = rng.normal(size=(5, 9))
        assert row_cosines(m, m).mean() == pytest.approx(1.0, abs=1e-12)

    def test_antiparallel(self):
        rng = np.random.default_rng(22)
        m = rng.normal(size=(4, 6))
        assert row_cosines(m, -m).mean() == pytest.approx(-1.0, abs=1e-12)

    def test_random_pair_vs_oracle(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(4, 8))
        b = rng.normal(size=(4, 8))
        assert row_cosines(a, b).mean() == pytest.approx(cosine_rows_mean(a, b), abs=1e-12)

    def test_zero_row_contributes_zero(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([[1.0, 0.0], [3.0, 4.0]])
        # first row cosine 1, zero row contributes 0 instead of NaN
        assert row_cosines(a, b).mean() == pytest.approx(0.5, abs=1e-12)
        assert row_cosines(a, b).mean() == pytest.approx(cosine_rows_mean(a, b), abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            row_cosines(np.ones((2, 3)), np.ones((3, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_gives_nan(self, bad):
        a = np.array([[1.0, bad], [1.0, 0.0]])
        # paired with a zero row too: only a pair of finite rows counts as zero
        for b in (np.ones((2, 2)), np.zeros((2, 2))):
            for got in (row_cosines(a, b), row_cosines(b, a)):
                assert math.isnan(got[0]) and math.isnan(got.mean())

    @pytest.mark.parametrize(
        "a, b",
        [
            (0.125, 1.6254e-162),  # |a|^2 * |b|^2 underflows to 0; |b|^2 is subnormal
            (0.5, 1.6254e-162),  # the product is subnormal
            (1e100, 1e100),  # the product overflows
        ],
    )
    def test_parallel_rows_far_from_unit_norm(self, a, b):
        got = row_cosines(np.full((1, 4), a), np.full((1, 4), b)).mean()
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_result_within_unit_interval(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            a = rng.normal(size=(3, 5))
            b = rng.normal(size=(3, 5))
            assert -1.0 <= row_cosines(a, b).mean() <= 1.0

    @given(
        # no subnormal entries: 5e-324 * 0.5 rounds to 0, so scaling such a
        # row would not rescale it
        arrays(np.float64, (3, 4), elements=st.floats(-50.0, 50.0, allow_subnormal=False)),
        arrays(np.float64, (3, 4), elements=st.floats(-50.0, 50.0, allow_subnormal=False)),
        arrays(np.float64, (3,), elements=st.floats(0.1, 10.0)),
    )
    def test_invariant_to_positive_row_rescaling(self, a, b, scales):
        base = row_cosines(a, b).mean()
        scaled = row_cosines(a * scales[:, None], b).mean()
        assert scaled == pytest.approx(base, abs=1e-12)


def assert_same_bytes(got, want):
    np.testing.assert_array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))


class TestRowCosines:
    def test_each_row_is_computed_alone(self):
        # rows of a normal scale, a zero row, and rows the rescale path takes
        # (a subnormal squared norm and an overflowing one), in (L, B, n, d)
        # stacks: a small one and the toy engine's 8 blocks of a 2-case pair.
        # A stack of blocks gives each block's bytes alone, as the engine's
        # one call per step needs.
        rng = np.random.default_rng(25)
        for shape in [(2, 3, 4, 6), (8, 2, 20, 64)]:
            a = rng.normal(size=shape)
            b = rng.normal(size=shape)
            a[0, 1, 2] = 0.0
            a[1, 0, 1] *= 1e-170
            b[1, shape[1] - 1, 3] *= 1e170
            got = row_cosines(a, b)
            assert got.shape == shape[:-1]
            for i in range(shape[0]):
                assert_same_bytes(got[i], row_cosines(a[i], b[i]))
                for j in range(shape[1]):
                    assert_same_bytes(got[i, j], row_cosines(a[i, j], b[i, j]))
                    for r in range(shape[2]):
                        row = row_cosines(a[i, j, r:r + 1], b[i, j, r:r + 1])
                        assert_same_bytes(got[i, j, r:r + 1], row)

    def test_shape_mismatch_and_empty_rows(self):
        with pytest.raises(ShapeError):
            row_cosines(np.ones((2, 2, 3)), np.ones((3, 2, 3)))
        with pytest.raises(ShapeError):
            row_cosines(np.ones((2, 0, 3)), np.ones((2, 0, 3)))
