import math
import re
import tracemalloc

import numpy as np
import pytest

from oracles import naive_joint_attention
from synattn import (
    BackboneConfig,
    ShapeError,
    attention_map,
    attention_weights,
    grid_position_ids,
    image_kv,
    rotary_table,
    softmax_rows,
    split_heads,
)
from synattn.attention import _ROLES, _WK, _WQ, _WV, joint_attention



def config(n_txt=1, grid=(2, 2)):
    """2 heads of 8 (d_model 16), ``n_txt`` text rows on ``grid``."""
    return BackboneConfig(
        num_heads=2, head_dim=8, axis_dims=(2, 2, 4), n_txt_tokens=n_txt, grid=grid
    )


CFG = config()


def random_tokens(rng, n_txt, grid, d_model):
    """A branch's ``[text; image]`` matrix: ``n_txt`` text rows, then one row per grid cell."""
    return rng.normal(size=(n_txt + grid[0] * grid[1], d_model))


def grid_table(grid, w):
    return rotary_table(grid_position_ids(*grid), w, CFG)


def random_block(rng, d_model):
    """A block's (6, d, d) weights: random attention projections, zero MLP."""
    block = np.zeros((len(_ROLES), d_model, d_model))
    block[:4] = rng.normal(size=(4, d_model, d_model)) * 0.3
    return block


def identity_block(d_model):
    return np.broadcast_to(np.eye(d_model), (len(_ROLES), d_model, d_model))


def oracle(tgt, n_txt, src_image, block, w, use_rope=True):
    """Loop-written shared attention of ``tgt`` over a 2x2 ``src_image``, stacked like joint_attention's output."""
    positions = grid_position_ids(2, 2)
    want_txt, want_img = naive_joint_attention(
        tgt[:n_txt], tgt[n_txt:], src_image, positions, positions,
        block[_WQ], block[_WK], block[_WV],
        CFG.num_heads, CFG.head_dim, CFG.axis_dims, CFG.theta_base,
        w=w, use_rope=use_rope,
    )
    return np.vstack([want_txt, want_img])


def test_grid_position_ids_layout():
    ids = grid_position_ids(2, 3)
    np.testing.assert_array_equal(ids[4], [0.0, 1.0, 1.0])  # row 4 -> cell (1, 1)
    assert ids.shape == (6, 3)


@pytest.mark.parametrize("height, width", [(0, 3), (3, 0), (-1, 2)])
def test_grid_position_ids_refuses_an_empty_grid(height, width):
    with pytest.raises(ValueError) as exc:
        grid_position_ids(height, width)
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"grid must be at least 1x1, got {height}x{width}"


def test_attention_weights_peak_stays_near_the_logits():
    # the logits are the one full-size buffer: scaled and normalized in place
    rng = np.random.default_rng(59)
    q = rng.normal(size=(2, 4, 128, 16))
    k = rng.normal(size=(2, 4, 128, 16))
    logits_bytes = 2 * 4 * 128 * 128 * 8
    tracemalloc.start()
    try:
        weights = attention_weights(q, k, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert weights.shape == (2, 4, 128, 128)
    assert peak <= 1.5 * logits_bytes


class TestSelfAttention:
    def test_two_token_closed_form(self):
        # One text and one image token on a 1x1 grid with identity
        # projections and a single head: the output is the softmax-weighted
        # mix of the two token vectors, written out by hand.
        cfg = BackboneConfig(
            num_heads=1, head_dim=6, axis_dims=(2, 2, 2), n_txt_tokens=1, grid=(1, 1)
        )
        rng = np.random.default_rng(50)
        t = rng.normal(size=6)
        i = rng.normal(size=6)
        table = rotary_table(grid_position_ids(1, 1), 1.0, cfg)
        out = joint_attention(np.vstack([t, i]), identity_block(6), cfg, table)

        scale = 1.0 / math.sqrt(6.0)
        for query, got in ((t, out[0]), (i, out[1])):
            lt = sum(query[d] * t[d] for d in range(6)) * scale
            li = sum(query[d] * i[d] for d in range(6)) * scale
            mx = max(lt, li)
            et, ei = math.exp(lt - mx), math.exp(li - mx)
            want = (et * t + ei * i) / (et + ei)
            assert np.abs(got - want).max() <= 1e-12

    def test_zero_weight_equals_zero_positions(self):
        rng = np.random.default_rng(51)
        tokens = random_tokens(rng, 3, (2, 2), CFG.d_model)
        block = random_block(rng, CFG.d_model)
        a = joint_attention(tokens, block, config(3), grid_table((2, 2), 0.0))
        b = joint_attention(tokens, block, config(3), rotary_table(np.zeros((4, 3)), 1.0, CFG))
        np.testing.assert_array_equal(a, b)

    def test_permutation_equivariance(self):
        # moving image tokens together with their positions permutes the
        # image outputs and leaves the text outputs alone
        rng = np.random.default_rng(52)
        n_txt = 2
        tokens = random_tokens(rng, n_txt, (2, 3), CFG.d_model)
        block = random_block(rng, CFG.d_model)
        perm = rng.permutation(6)
        permuted = np.vstack([tokens[:n_txt], tokens[n_txt:][perm]])
        moved_table = rotary_table(grid_position_ids(2, 3)[perm], 0.7, CFG)
        base = joint_attention(tokens, block, config(n_txt, (2, 3)), grid_table((2, 3), 0.7))
        moved = joint_attention(permuted, block, config(n_txt, (2, 3)), moved_table)
        assert np.abs(moved[n_txt:] - base[n_txt:][perm]).max() <= 1e-12
        assert np.abs(moved[:n_txt] - base[:n_txt]).max() <= 1e-12


class TestSharedAttention:
    def test_own_image_kv_matches_default_bitwise(self):
        rng = np.random.default_rng(53)
        tokens = random_tokens(rng, 3, (2, 2), CFG.d_model)
        block = random_block(rng, CFG.d_model)
        table = grid_table((2, 2), 0.4)
        a = joint_attention(tokens, block, config(3), table)
        b = joint_attention(tokens, block, config(3), table, image_kv(tokens[3:], block, table))
        np.testing.assert_array_equal(a, b)

    def test_zero_weight_equals_rotation_free_reference(self):
        rng = np.random.default_rng(54)
        tgt = random_tokens(rng, 2, (2, 2), CFG.d_model)
        src_image = random_tokens(rng, 0, (2, 2), CFG.d_model)
        block = random_block(rng, CFG.d_model)
        table = grid_table((2, 2), 0.0)
        got = joint_attention(tgt, block, config(2), table, image_kv(src_image, block, table))
        want = oracle(tgt, 2, src_image, block, 0.0, use_rope=False)
        assert np.abs(got - want).max() <= 1e-12

    def test_matches_naive_concatenation_oracle(self):
        rng = np.random.default_rng(55)
        tgt = random_tokens(rng, 1, (2, 2), CFG.d_model)
        src_image = random_tokens(rng, 0, (2, 2), CFG.d_model)
        block = random_block(rng, CFG.d_model)
        for w in (0.0, 0.3, 1.0):
            table = grid_table((2, 2), w)
            got = joint_attention(tgt, block, config(1), table, image_kv(src_image, block, table))
            assert np.abs(got - oracle(tgt, 1, src_image, block, w)).max() <= 1e-12

    def test_grid_mismatch_rejected(self):
        rng = np.random.default_rng(56)
        tgt = random_tokens(rng, 2, (2, 2), CFG.d_model)
        src_image = random_tokens(rng, 0, (2, 3), CFG.d_model)
        block = random_block(rng, CFG.d_model)
        with pytest.raises(ShapeError, match=r"^source image shape \(6, 16\) != \(4, 16\)$"):
            attention_map(tgt, src_image, block, config(2, (2, 2)), 1.0, (0, 0))

    def test_output_linear_in_values(self):
        rng = np.random.default_rng(57)
        tokens = random_tokens(rng, 3, (2, 2), CFG.d_model)
        block = random_block(rng, CFG.d_model)
        doubled = block.copy()
        doubled[_WV] *= 2.0
        table = grid_table((2, 2), 0.8)
        a = joint_attention(tokens, block, config(3), table)
        b = joint_attention(tokens, doubled, config(3), table)
        assert np.abs(b - 2.0 * a).max() <= 1e-12


class TestHeads:
    @pytest.mark.parametrize("heads, n, head_dim", [(4, 20, 16), (24, 260, 128)])
    def test_stacked_weights_equal_per_head_calls(self, heads, n, head_dim):
        # toy shape and a FLUX head shape; heads are the strided views the
        # forward pass hands the kernel, checked against one 2-D product
        # and softmax per head
        rng = np.random.default_rng(62)
        q = split_heads(rng.normal(size=(n, heads * head_dim)), heads)
        k = split_heads(rng.normal(size=(n, heads * head_dim)), heads)
        scale = 1.0 / math.sqrt(head_dim)
        stacked = attention_weights(q, k, scale)
        for h in range(heads):
            want = softmax_rows((q[h] @ np.ascontiguousarray(k[h].T)) * scale)
            np.testing.assert_array_equal(stacked[h], want)

    def test_split_requires_divisibility(self):
        with pytest.raises(ShapeError):
            split_heads(np.ones((2, 10)), 3)


class TestAttentionMap:
    def _position_dominant_tokens(self):
        # Every image token is the same vector, so content logits are flat
        # and the rotary term alone orders the keys.
        image = np.ones((6, CFG.d_model))
        text = np.full((1, CFG.d_model), 0.5)
        return np.vstack([text, image]), image

    def test_map_sums_to_one(self):
        rng = np.random.default_rng(59)
        tgt = random_tokens(rng, 2, (2, 3), CFG.d_model)
        src_image = random_tokens(rng, 0, (2, 3), CFG.d_model)
        block = random_block(rng, CFG.d_model)
        m = attention_map(tgt, src_image, block, config(2, (2, 3)), 0.6, (1, 2))
        assert m.shape == (2, 3)
        assert abs(m.sum() - 1.0) <= 1e-12

    def test_position_dominance_puts_argmax_on_query_cell(self):
        tokens, image = self._position_dominant_tokens()
        block = identity_block(CFG.d_model)
        for cell in [(0, 0), (0, 2), (1, 1)]:
            m = attention_map(tokens, image, block, config(1, (2, 3)), 1.0, cell)
            # brute force: the map cell with the largest weight, checked
            # against every grid cell
            best = np.unravel_index(np.argmax(m), m.shape)
            assert best == cell
            assert all(
                m[cell] >= m[r, c]
                for r in range(2)
                for c in range(3)
                if (r, c) != cell
            )

    def test_zero_weight_map_moves_with_content_permutation(self):
        rng = np.random.default_rng(60)
        tgt = random_tokens(rng, 2, (2, 3), CFG.d_model)
        src_image = random_tokens(rng, 0, (2, 3), CFG.d_model)
        block = random_block(rng, CFG.d_model)
        cfg = config(2, (2, 3))
        base = attention_map(tgt, src_image, block, cfg, 0.0, (0, 1)).reshape(-1)
        perm = rng.permutation(6)
        moved = attention_map(tgt, src_image[perm], block, cfg, 0.0, (0, 1)).reshape(-1)
        assert np.abs(moved - base[perm]).max() <= 1e-12

    def test_out_of_range_cell(self):
        rng = np.random.default_rng(61)
        tgt = random_tokens(rng, 2, (2, 3), CFG.d_model)
        block = random_block(rng, CFG.d_model)
        with pytest.raises(ValueError):
            attention_map(tgt, tgt[2:], block, config(2, (2, 3)), 1.0, (2, 0))

    def test_token_count_must_fill_grid(self):
        # 2 text rows and a 2x3 grid: the target has 8 rows, the source image 6
        rng = np.random.default_rng(63)
        block = random_block(rng, CFG.d_model)
        tgt = random_tokens(rng, 2, (2, 3), CFG.d_model)
        for tokens, src_image, refused in [
            (tgt[:5], tgt[2:], r"^tokens shape \(5, 16\) != \(8, 16\)$"),
            (tgt[1:], tgt[2:], r"^tokens shape \(7, 16\) != \(8, 16\)$"),
            (tgt, tgt[3:], r"^source image shape \(5, 16\) != \(6, 16\)$"),
            (tgt, tgt[:7], r"^source image shape \(7, 16\) != \(6, 16\)$"),
        ]:
            with pytest.raises(ShapeError, match=refused):
                attention_map(tokens, src_image, block, config(2, (2, 3)), 1.0, (0, 0))

    def test_width_mismatch(self):
        # 32-wide target tokens, or a 32-wide source image beside 16-wide
        # tokens, against 2 heads of 8: the heads would split wrongly
        rng = np.random.default_rng(64)
        wide = rng.normal(size=(8, 2 * CFG.d_model))
        narrow = random_tokens(rng, 2, (2, 3), CFG.d_model)
        for tokens, src_image, refused in [
            (wide, wide[2:], r"^tokens shape \(8, 32\) != \(8, 16\)$"),
            (narrow, wide[2:], r"^source image shape \(6, 32\) != \(6, 16\)$"),
        ]:
            block = random_block(rng, tokens.shape[1])
            with pytest.raises(ShapeError, match=refused):
                attention_map(tokens, src_image, block, config(2, (2, 3)), 1.0, (0, 0))

    @pytest.mark.parametrize("shape", [(4, 16, 16), (6, 32, 32), (16, 16)])
    def test_block_shape_validated(self, shape):
        # a block is (6, d, d) with d = num_heads * head_dim, checked once, here
        rng = np.random.default_rng(66)
        tgt = random_tokens(rng, 2, (2, 3), CFG.d_model)
        refused = f"^block shape {re.escape(str(shape))} != \\(6, 16, 16\\)$"
        with pytest.raises(ShapeError, match=refused):
            attention_map(tgt, tgt[2:], np.ones(shape), config(2, (2, 3)), 0.6, (1, 2))

    def test_non_finite_weights_refused(self):
        # weights are not scanned: the map refuses its NaN mass
        rng = np.random.default_rng(65)
        tgt = random_tokens(rng, 2, (2, 3), CFG.d_model)
        block = random_block(rng, CFG.d_model)
        block[_WK, 3, 5] = np.nan
        with pytest.raises(ValueError, match="not positive and finite"):
            attention_map(tgt, tgt[2:], block, config(2, (2, 3)), 0.6, (1, 2))
