import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import cosine_rows_mean
from synattn import (
    NumericalAbortError,
    ShapeError,
    Thresholds,
    adaptive_weight,
    close_step,
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
    """The step rule: ``close_step`` makes each block's ratio and their mean."""

    @staticmethod
    def step(s_txt, s_img, timestep=4):
        return close_step(timestep, s_txt, s_img, 0.5, [(True, True)] * len(s_txt))

    def test_equal_similarities_give_one(self):
        step = self.step([0.73] * 5, [0.73] * 5)
        assert [b.ratio for b in step.blocks] == [1.0] * 5
        assert [b.block_index for b in step.blocks] == list(range(5))
        assert (step.timestep, step.m_mean, step.weight_applied) == (4, 1.0, 0.5)

    def test_mean_of_two(self):
        assert self.step([1.0, 1.0], [0.8, 1.2]).m_mean == pytest.approx(1.0, abs=1e-12)

    def test_mean_of_three(self):
        got = self.step([1.0] * 3, [0.9, 0.95, 1.05]).m_mean
        assert got == pytest.approx((0.9 + 0.95 + 1.05) / 3.0, abs=1e-12)

    def test_repeated_block_equals_its_ratio(self):
        step = self.step([0.8] * 7, [0.92] * 7)
        assert step.m_mean == pytest.approx(step.blocks[0].ratio, abs=1e-12)

    def test_degenerate_text_similarity_rejected(self):
        with pytest.raises(NumericalAbortError) as exc:
            self.step([1.0, 1e-7, 0.0], [0.5] * 3)
        assert (exc.value.timestep, exc.value.block_index) == (4, 1)
        assert str(exc.value) == (
            "degenerate text similarity at timestep 4, block 1: |s_txt| = 1.000e-07 is below 1e-06"
        )

    @pytest.mark.parametrize("problem", [None, "degenerate text similarity"])
    def test_abort_survives_pickle(self, problem):
        # a batch's results cross process boundaries with their aborts in them
        extra = () if problem is None else (problem,)
        error = NumericalAbortError(7, 2, "x", *extra)
        got = pickle.loads(pickle.dumps(error))
        assert type(got) is NumericalAbortError
        assert str(got) == str(error)
        assert (got.timestep, got.block_index, got.detail, got.problem) == (
            7, 2, "x", problem or "non-finite values")

    def test_lists_of_unequal_length_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            close_step(4, [1.0, 1.0], [0.5], 1.0, [(True, True)] * 2)

    @pytest.mark.parametrize("s_txt, s_img, finite, block, message", [
        ([1.0, 1.0], [0.5, math.inf], [(True, True)] * 2, 1,
         "non-finite values at timestep 4, block 1: s_txt = 1.0, s_img = inf"),
        ([1.0, math.nan], [0.5] * 2, [(True, True), (True, False)], 1,
         "non-finite values at timestep 4, block 1: target branch stream"),
        ([1e-7, 1.0], [0.5] * 2, [(True, True), (False, True)], 0,
         "degenerate text similarity at timestep 4, block 0"),
    ], ids=["non-finite-similarity", "non-finite-state", "first-block-wins"])
    def test_first_failing_block_aborts(self, s_txt, s_img, finite, block, message):
        # a non-finite state wins over its block's similarities, and an earlier block over it
        with pytest.raises(NumericalAbortError) as exc:
            close_step(4, s_txt, s_img, 1.0, finite)
        assert (exc.value.timestep, exc.value.block_index) == (4, block)
        assert str(exc.value).startswith(message)


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
