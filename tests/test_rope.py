import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import rotated_inner_product, rotation_matrix
from synattn import RopeConfig, ShapeError, rotary_table
from synattn.rope import apply_rotary

FULL = RopeConfig()  # 24 heads x 128, splits (16, 56, 56)
TOY = RopeConfig(head_dim=16, axis_dims=(4, 6, 6), num_heads=2)
# one head of each geometry, for rotating a single head vector
FULL_HEAD = RopeConfig(num_heads=1)
TOY_HEAD = RopeConfig(head_dim=16, axis_dims=(4, 6, 6), num_heads=1)

vectors16 = arrays(np.float64, (16,), elements=st.floats(-10.0, 10.0))
positions = arrays(np.float64, (3,), elements=st.floats(-32.0, 32.0))
weights = st.floats(0.0, 1.0)


def rotate(v, pos, w, config):
    """One head vector rotated to position id ``pos`` through a one-row table."""
    return apply_rotary(np.asarray(v)[None], rotary_table([pos], w, config))[0]


def inner(q, k, pos_q, pos_k, w, config):
    """Inner product of ``q`` and ``k``, each rotated to its position."""
    return float(rotate(q, pos_q, w, config) @ rotate(k, pos_k, w, config))


def oracle(pos, w, config):
    return rotation_matrix(pos, w, config.axis_dims, config.theta_base)


class TestConfig:
    def test_defaults_are_full_scale(self):
        assert FULL.head_dim == 128
        assert FULL.axis_dims == (16, 56, 56)
        assert FULL.num_heads == 24
        assert FULL.d_model == 3072

    def test_axis_sum_must_match(self):
        with pytest.raises(ValueError):
            RopeConfig(head_dim=16, axis_dims=(4, 6, 4))

    def test_axis_dims_must_be_even(self):
        with pytest.raises(ValueError):
            RopeConfig(head_dim=16, axis_dims=(3, 6, 7))

    def test_theta_base_above_one(self):
        with pytest.raises(ValueError):
            RopeConfig(head_dim=16, axis_dims=(4, 6, 6), theta_base=1.0)

    def test_theta_base_must_be_finite(self):
        with pytest.raises(ValueError):
            RopeConfig(head_dim=16, axis_dims=(4, 6, 6), theta_base=float("inf"))


class TestFrequencies:
    # the 56-wide row segment of the full geometry
    ROW = FULL.pair_freqs[FULL.pair_axes == 1]

    def test_first_frequency_is_one(self):
        assert self.ROW[0] == 1.0

    def test_direct_evaluation_at_k27(self):
        # 10000 ** (-54 / 56), roughly 1.3895e-4
        expected = 10000.0 ** (-54.0 / 56.0)
        got = self.ROW[27]
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(1.3895e-4, rel=1e-4)

    def test_minimal_axis(self):
        minimal = RopeConfig(head_dim=6, axis_dims=(2, 2, 2), num_heads=1)
        np.testing.assert_array_equal(minimal.pair_freqs, [1.0, 1.0, 1.0])

    def test_strictly_decreasing(self):
        assert np.all(np.diff(self.ROW) < 0)


class TestApplyRope:
    """RoPE applied to one head vector, through a one-row table."""

    def test_zero_weight_is_identity(self):
        rng = np.random.default_rng(31)
        v = rng.normal(size=128)
        pos = rng.uniform(-9, 9, size=3)
        np.testing.assert_array_equal(rotate(v, pos, 0.0, FULL_HEAD), v)

    def test_zero_position_is_identity(self):
        rng = np.random.default_rng(32)
        v = rng.normal(size=128)
        np.testing.assert_array_equal(rotate(v, (0.0, 0.0, 0.0), 1.0, FULL_HEAD), v)

    def test_against_oracle_matrix(self):
        rng = np.random.default_rng(33)
        v = rng.normal(size=128)
        pos = np.array([0.0, 3.0, 5.0])
        got = rotate(v, pos, 1.0, FULL_HEAD)
        want = oracle(pos, 1.0, FULL) @ v
        assert np.abs(got - want).max() <= 1e-9

    def test_against_longhand_rotation(self):
        rng = np.random.default_rng(34)
        v = rng.normal(size=16)
        pos = rng.uniform(-5, 5, size=3)
        want = oracle(pos, 0.37, TOY) @ v
        assert np.abs(rotate(v, pos, 0.37, TOY_HEAD) - want).max() <= 1e-12

    @given(vectors16, positions, weights)
    def test_norm_preserved(self, v, pos, w):
        rotated = rotate(v, pos, w, TOY_HEAD)
        assert abs(np.linalg.norm(rotated) - np.linalg.norm(v)) <= 1e-12

    @given(vectors16, positions, positions, weights)
    def test_composition_adds_positions(self, v, p1, p2, w):
        twice = rotate(rotate(v, p1, w, TOY_HEAD), p2, w, TOY_HEAD)
        once = rotate(v, np.asarray(p1) + np.asarray(p2), w, TOY_HEAD)
        assert np.abs(twice - once).max() <= 1e-9


class TestOracleMatrix:
    """The explicit rotation matrix of ``oracles.py`` is a rotation, scaled by ``w``."""

    def test_zero_position_gives_identity(self):
        np.testing.assert_array_equal(oracle((0.0, 0.0, 0.0), 1.0, FULL), np.eye(128))

    @given(positions, weights)
    @settings(max_examples=25)
    def test_orthogonality(self, pos, w):
        r = oracle(pos, w, TOY)
        assert np.abs(r.T @ r - np.eye(TOY.head_dim)).max() <= 1e-12

    def test_half_weight_equals_prescaled_position(self):
        rng = np.random.default_rng(35)
        pos = rng.uniform(-9, 9, size=3)
        a = oracle(pos, 0.5, FULL)
        b = oracle(0.5 * pos, 1.0, FULL)
        np.testing.assert_array_equal(a, b)

    def test_independent_of_fast_path_pair_layout(self):
        # The oracle forms its angles from axis_dims and theta_base alone, so
        # a corrupted pair layout moves the fast path but not the oracle.
        broken = RopeConfig(head_dim=16, axis_dims=(4, 6, 6), num_heads=1)
        object.__setattr__(broken, "pair_axes", broken.pair_axes[::-1].copy())
        object.__setattr__(broken, "pair_freqs", broken.pair_freqs[::-1].copy())
        rng = np.random.default_rng(41)
        v = rng.normal(size=16)
        pos = np.array([1.5, -3.0, 7.0])
        want = rotate(v, pos, 0.8, TOY_HEAD)
        assert np.abs(oracle(pos, 0.8, broken) @ v - want).max() <= 1e-12
        assert np.abs(rotate(v, pos, 0.8, broken) - want).max() > 1e-3


class TestScaledInnerProduct:
    """Inner products of two head vectors rotated at the same strength ``w``."""

    def test_equal_positions_give_plain_dot(self):
        rng = np.random.default_rng(36)
        q, k = rng.normal(size=(2, 128))
        pos = np.array([0.0, 4.0, 2.0])
        got = inner(q, k, pos, pos, 0.8, FULL_HEAD)
        assert got == pytest.approx(float(q @ k), abs=1e-12)

    def test_zero_weight_gives_plain_dot_exactly(self):
        rng = np.random.default_rng(37)
        q, k = rng.normal(size=(2, 128))
        got = inner(q, k, (0, 1, 2), (0, 5, 3), 0.0, FULL_HEAD)
        assert got == float(np.dot(q, k))

    def test_matches_displacement_matrix_form(self):
        rng = np.random.default_rng(38)
        q, k = rng.normal(size=(2, 128))
        pos_q = np.array([0.0, 2.0, 7.0])
        pos_k = np.array([0.0, 5.0, 1.0])
        got = inner(q, k, pos_q, pos_k, 0.3, FULL_HEAD)
        want = rotated_inner_product(q, k, pos_q, pos_k, 0.3, FULL.axis_dims, FULL.theta_base)
        assert got == pytest.approx(want, abs=1e-9)

    @given(vectors16, vectors16, positions, positions, positions)
    def test_translation_invariance(self, q, k, pos_q, pos_k, offset):
        a = inner(q, k, pos_q, pos_k, 1.0, TOY_HEAD)
        b = inner(q, k, np.asarray(pos_q) + offset, np.asarray(pos_k) + offset, 1.0, TOY_HEAD)
        assert abs(a - b) <= 1e-9

    @given(vectors16, vectors16, positions, positions, weights)
    def test_scaling_linearity(self, q, k, pos_q, pos_k, w):
        a = inner(q, k, pos_q, pos_k, w, TOY_HEAD)
        b = inner(q, k, w * np.asarray(pos_q), w * np.asarray(pos_k), 1.0, TOY_HEAD)
        assert abs(a - b) <= 1e-9


class TestRotateTokens:
    def test_each_head_matches_single_vector_path(self):
        rng = np.random.default_rng(39)
        tokens = rng.normal(size=(5, TOY.d_model))
        pos = rng.uniform(-6, 6, size=(5, 3))
        got = apply_rotary(tokens, rotary_table(pos, 0.6, TOY))
        for r in range(5):
            for h in range(TOY.num_heads):
                seg = slice(h * TOY.head_dim, (h + 1) * TOY.head_dim)
                want = oracle(pos[r], 0.6, TOY) @ tokens[r, seg]
                assert np.abs(got[r, seg] - want).max() <= 1e-12

    def test_rejects_wrong_widths(self):
        # positions need one column per axis; custom positions enter here
        with pytest.raises(ShapeError):
            rotary_table(np.zeros((2, 2)), 1.0, TOY)
        with pytest.raises(ShapeError):
            rotary_table(np.zeros(3), 1.0, TOY)


# Every entry point that takes a position id; the oracle in oracles.py
# does not validate its inputs.
ONE_POSITION = {"rotary_table": lambda pos: rotary_table([pos], 0.5, TOY)}


@pytest.mark.parametrize("rotate", ONE_POSITION.values(), ids=ONE_POSITION.keys())
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_position_rejected(rotate, bad):
    with pytest.raises(ValueError, match="non-finite"):
        rotate((0.0, bad, 1.0))


@pytest.mark.parametrize("rotate", ONE_POSITION.values(), ids=ONE_POSITION.keys())
def test_position_needs_one_entry_per_axis(rotate):
    with pytest.raises(ShapeError):
        rotate((0.0, 1.0))


def test_rotary_table_weight_vector_matches_scalar_calls():
    # case b of a (B,) weight has the bytes of a table built at w[b] alone,
    # and so does the rotation of case b's rows
    rng = np.random.default_rng(41)
    pos = rng.uniform(-9, 9, size=(6, 3))
    weights = np.array([1.0, 0.0, 0.25, 0.7])
    stacked = rotary_table(pos, weights, TOY)
    tokens = rng.normal(size=(len(weights), 6, TOY.d_model))
    rotated = apply_rotary(tokens, stacked)
    for b, w in enumerate(weights):
        one = rotary_table(pos, float(w), TOY)
        np.testing.assert_array_equal(stacked.cos[b], one.cos)
        np.testing.assert_array_equal(stacked.sin[b], one.sin)
        np.testing.assert_array_equal(rotated[b], apply_rotary(tokens[b], one))


def test_rotary_table_rejects_a_weight_matrix():
    with pytest.raises(ShapeError):
        rotary_table(np.zeros((2, 3)), np.ones((2, 2)), TOY)


def test_rotary_table_scales_positions_first():
    # tables for (pos, w) and (w * pos, 1) agree down to the float
    rng = np.random.default_rng(40)
    pos = rng.uniform(-9, 9, size=(5, 3))
    a = rotary_table(pos, 0.25, FULL)
    b = rotary_table(0.25 * pos, 1.0, FULL)
    np.testing.assert_array_equal(a.cos, b.cos)
    np.testing.assert_array_equal(a.sin, b.sin)
