import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import cosine_rows_mean
from synattn import (
    BlockSimilarity,
    DegenerateSimilarityError,
    ShapeError,
    Thresholds,
    adaptive_weight,
    block_similarity,
    editing_measurement,
)
from synattn.numerics import row_cosines

TH = Thresholds(m_min=0.9, m_max=1.0)


class TestSimilarities:
    """The block similarities s_txt and s_img: means over a block's rows of ``row_cosines``."""

    def test_identical_matrices(self):
        m = np.random.default_rng(70).normal(size=(4, 8))
        assert row_cosines(m, m).mean() == 1.0

    def test_negated_matrices(self):
        m = np.random.default_rng(71).normal(size=(4, 8))
        assert row_cosines(m, -m).mean() == -1.0

    def test_orthogonal_rows(self):
        a = np.array([[1.0, 0.0], [0.0, 2.0]])
        b = np.array([[0.0, 3.0], [4.0, 0.0]])
        assert row_cosines(a, b).mean() == 0.0

    def test_random_pair_vs_oracle(self):
        rng = np.random.default_rng(72)
        a = rng.normal(size=(5, 7))
        b = rng.normal(size=(5, 7))
        want = cosine_rows_mean(a, b)
        assert row_cosines(a, b).mean() == pytest.approx(want, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            row_cosines(np.ones((2, 3)), np.ones((2, 4)))


class TestEditingMeasurement:
    @staticmethod
    def records(ratios):
        return [block_similarity(i, 1.0, r) for i, r in enumerate(ratios)]

    def test_equal_similarities_give_one(self):
        recs = [block_similarity(i, 0.73, 0.73) for i in range(5)]
        assert all(r.ratio == 1.0 for r in recs)
        assert editing_measurement(recs) == 1.0

    def test_mean_of_two(self):
        assert editing_measurement(self.records([0.8, 1.2])) == pytest.approx(1.0, abs=1e-12)

    def test_mean_of_three(self):
        got = editing_measurement(self.records([0.9, 0.95, 1.05]))
        assert got == pytest.approx((0.9 + 0.95 + 1.05) / 3.0, abs=1e-12)

    def test_repeated_block_equals_its_ratio(self):
        rec = block_similarity(0, 0.8, 0.92)
        assert editing_measurement([rec] * 7) == pytest.approx(rec.ratio, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            editing_measurement([])

    def test_degenerate_text_similarity_rejected(self):
        with pytest.raises(DegenerateSimilarityError):
            block_similarity(3, 1e-7, 0.5)
        bad = BlockSimilarity(block_index=0, s_txt=1e-8, s_img=0.5, ratio=5e7)
        with pytest.raises(DegenerateSimilarityError):
            editing_measurement([bad])


class TestAdaptiveWeight:
    def test_table(self):
        assert adaptive_weight(1.05, TH) == 0.0
        assert adaptive_weight(0.85, TH) == 1.0
        assert adaptive_weight(1.0, TH) == 0.0
        assert adaptive_weight(0.9, TH) == 1.0
        # 0.95 parses below the real midpoint of [0.9, 1.0], so the linear
        # branch lands within conversion noise of 0.5 rather than on it
        assert adaptive_weight(0.95, TH) == pytest.approx(0.5, abs=1e-15)

    @given(st.floats(0.0, 2.0), st.floats(0.0, 2.0))
    def test_non_increasing(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert adaptive_weight(lo, TH) >= adaptive_weight(hi, TH)

    @given(st.floats(0.5, 1.5), st.floats(1e-9, 1e-6))
    def test_continuity(self, m, eps):
        span = TH.m_max - TH.m_min
        delta = abs(adaptive_weight(m + eps, TH) - adaptive_weight(m, TH))
        assert delta <= eps / span + 1e-12

    @given(st.floats(-10.0, 10.0))
    def test_output_in_unit_interval(self, m):
        assert 0.0 <= adaptive_weight(m, TH) <= 1.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            adaptive_weight(float("nan"), TH)

    def test_threshold_order_enforced(self):
        with pytest.raises(ValueError):
            Thresholds(m_min=1.0, m_max=0.9)
        with pytest.raises(ValueError):
            Thresholds(m_min=1.0, m_max=1.0)

    def test_thresholds_must_be_finite(self):
        for m_min, m_max in ((0.9, float("inf")), (float("-inf"), 1.0), (float("nan"), 1.0)):
            with pytest.raises(ValueError):
                Thresholds(m_min=m_min, m_max=m_max)
