import math

import numpy as np
import pytest

from oracles import naive_shared_attention
from synattn import (
    BlockProjection,
    RopeConfig,
    ShapeError,
    TokenStream,
    attention_map,
    attention_weights,
    grid_position_ids,
    merge_heads,
    self_attention,
    shared_attention,
    split_heads,
)

CFG = RopeConfig(head_dim=8, axis_dims=(2, 2, 4), num_heads=2)  # d_model 16


def random_stream(rng, n_txt, grid, d_model):
    h, w = grid
    return TokenStream(
        text=rng.normal(size=(n_txt, d_model)),
        image=rng.normal(size=(h * w, d_model)),
        grid=grid,
    )


def random_projection(rng, d_model):
    return BlockProjection(*(rng.normal(size=(d_model, d_model)) * 0.3 for _ in range(4)))


class TestTokenStream:
    def test_grid_position_ids_layout(self):
        ids = grid_position_ids(2, 3)
        np.testing.assert_array_equal(ids[4], [0.0, 1.0, 1.0])  # row 4 -> cell (1, 1)
        assert ids.shape == (6, 3)

    def test_token_count_must_fill_grid(self):
        with pytest.raises(ShapeError):
            TokenStream(np.ones((1, 4)), np.ones((5, 4)), (2, 3))

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            TokenStream(np.ones((1, 4)), np.ones((6, 8)), (2, 3))

    def test_explicit_positions_validated(self):
        with pytest.raises(ShapeError):
            TokenStream(np.ones((1, 4)), np.ones((6, 4)), (2, 3), positions=np.zeros((5, 3)))


class TestSelfAttention:
    def test_two_token_closed_form(self):
        # One text and one image token on a 1x1 grid with identity
        # projections and a single head: the output is the softmax-weighted
        # mix of the two token vectors, written out by hand.
        cfg = RopeConfig(head_dim=6, axis_dims=(2, 2, 2), num_heads=1)
        rng = np.random.default_rng(50)
        t = rng.normal(size=6)
        i = rng.normal(size=6)
        stream = TokenStream(t[None, :], i[None, :], (1, 1))
        eye = np.eye(6)
        out = self_attention(stream, BlockProjection(eye, eye, eye, eye), cfg, 1.0)

        scale = 1.0 / math.sqrt(6.0)
        for query, got in ((t, out.txt[0]), (i, out.img[0])):
            lt = sum(query[d] * t[d] for d in range(6)) * scale
            li = sum(query[d] * i[d] for d in range(6)) * scale
            mx = max(lt, li)
            et, ei = math.exp(lt - mx), math.exp(li - mx)
            want = (et * t + ei * i) / (et + ei)
            assert np.abs(got - want).max() <= 1e-12

    def test_zero_weight_equals_zero_positions(self):
        rng = np.random.default_rng(51)
        stream = random_stream(rng, 3, (2, 2), CFG.d_model)
        zeroed = TokenStream(
            stream.text, stream.image, stream.grid, positions=np.zeros((4, 3))
        )
        proj = random_projection(rng, CFG.d_model)
        a = self_attention(stream, proj, CFG, 0.0)
        b = self_attention(zeroed, proj, CFG, 1.0)
        np.testing.assert_array_equal(a.txt, b.txt)
        np.testing.assert_array_equal(a.img, b.img)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(52)
        stream = random_stream(rng, 2, (2, 3), CFG.d_model)
        proj = random_projection(rng, CFG.d_model)
        perm = rng.permutation(6)
        permuted = TokenStream(
            stream.text,
            stream.image[perm],
            stream.grid,
            positions=stream.positions[perm],
        )
        base = self_attention(stream, proj, CFG, 0.7)
        moved = self_attention(permuted, proj, CFG, 0.7)
        assert np.abs(moved.img - base.img[perm]).max() <= 1e-12
        assert np.abs(moved.txt - base.txt).max() <= 1e-12


class TestSharedAttention:
    def test_identical_streams_match_self_attention_bitwise(self):
        rng = np.random.default_rng(53)
        stream = random_stream(rng, 3, (2, 2), CFG.d_model)
        proj = random_projection(rng, CFG.d_model)
        a = self_attention(stream, proj, CFG, 0.4)
        b = shared_attention(stream, stream, proj, CFG, 0.4)
        np.testing.assert_array_equal(a.txt, b.txt)
        np.testing.assert_array_equal(a.img, b.img)

    def test_zero_weight_equals_rotation_free_reference(self):
        rng = np.random.default_rng(54)
        tgt = random_stream(rng, 2, (2, 2), CFG.d_model)
        src = random_stream(rng, 2, (2, 2), CFG.d_model)
        proj = random_projection(rng, CFG.d_model)
        got = shared_attention(tgt, src, proj, CFG, 0.0)
        want_txt, want_img = naive_shared_attention(
            tgt.text, tgt.image, src.image, tgt.positions, src.positions,
            proj.wq, proj.wk, proj.wv,
            CFG.num_heads, CFG.head_dim, CFG.axis_dims, CFG.theta_base,
            w=0.0, use_rope=False,
        )
        assert np.abs(got.txt - want_txt).max() <= 1e-12
        assert np.abs(got.img - want_img).max() <= 1e-12

    def test_matches_naive_concatenation_oracle(self):
        rng = np.random.default_rng(55)
        tgt = random_stream(rng, 1, (2, 2), CFG.d_model)
        src = random_stream(rng, 1, (2, 2), CFG.d_model)
        proj = random_projection(rng, CFG.d_model)
        for w in (0.0, 0.3, 1.0):
            got = shared_attention(tgt, src, proj, CFG, w)
            want_txt, want_img = naive_shared_attention(
                tgt.text, tgt.image, src.image, tgt.positions, src.positions,
                proj.wq, proj.wk, proj.wv,
                CFG.num_heads, CFG.head_dim, CFG.axis_dims, CFG.theta_base,
                w=w, use_rope=True,
            )
            assert np.abs(got.txt - want_txt).max() <= 1e-12
            assert np.abs(got.img - want_img).max() <= 1e-12

    def test_grid_mismatch_rejected(self):
        rng = np.random.default_rng(56)
        tgt = random_stream(rng, 2, (2, 2), CFG.d_model)
        src = random_stream(rng, 2, (1, 4), CFG.d_model)
        proj = random_projection(rng, CFG.d_model)
        with pytest.raises(ShapeError):
            shared_attention(tgt, src, proj, CFG, 1.0)

    def test_output_linear_in_values(self):
        rng = np.random.default_rng(57)
        stream = random_stream(rng, 3, (2, 2), CFG.d_model)
        proj = random_projection(rng, CFG.d_model)
        doubled = BlockProjection(proj.wq, proj.wk, 2.0 * proj.wv, proj.wo)
        a = self_attention(stream, proj, CFG, 0.8)
        b = self_attention(stream, doubled, CFG, 0.8)
        assert np.abs(b.txt - 2.0 * a.txt).max() <= 1e-12
        assert np.abs(b.img - 2.0 * a.img).max() <= 1e-12


class TestHeads:
    @pytest.mark.parametrize("heads, n, head_dim", [(4, 20, 16), (24, 260, 128)])
    def test_stacked_weights_equal_per_head_calls(self, heads, n, head_dim):
        # toy shape and a FLUX head shape; heads are the strided views the
        # forward pass hands the kernel
        rng = np.random.default_rng(62)
        q = split_heads(rng.normal(size=(n, heads * head_dim)), heads)
        k = split_heads(rng.normal(size=(n, heads * head_dim)), heads)
        scale = 1.0 / math.sqrt(head_dim)
        stacked = attention_weights(q, k, scale)
        for h in range(heads):
            np.testing.assert_array_equal(stacked[h], attention_weights(q[h], k[h], scale))

    def test_split_merge_round_trip(self):
        rng = np.random.default_rng(58)
        tokens = rng.normal(size=(5, 16))
        np.testing.assert_array_equal(merge_heads(split_heads(tokens, 4)), tokens)

    def test_split_requires_divisibility(self):
        with pytest.raises(ShapeError):
            split_heads(np.ones((2, 10)), 3)


class TestAttentionMap:
    def _position_dominant_stream(self):
        # Every image token is the same vector, so content logits are flat
        # and the rotary term alone orders the keys.
        base = np.ones(CFG.d_model)
        image = np.tile(base, (6, 1))
        text = np.full((1, CFG.d_model), 0.5)
        return TokenStream(text, image, (2, 3))

    def test_map_sums_to_one(self):
        rng = np.random.default_rng(59)
        tgt = random_stream(rng, 2, (2, 3), CFG.d_model)
        src = random_stream(rng, 2, (2, 3), CFG.d_model)
        proj = random_projection(rng, CFG.d_model)
        m = attention_map(tgt, src, proj, CFG, 0.6, (1, 2))
        assert m.shape == (2, 3)
        assert abs(m.sum() - 1.0) <= 1e-12

    def test_position_dominance_puts_argmax_on_query_cell(self):
        stream = self._position_dominant_stream()
        eye = np.eye(CFG.d_model)
        proj = BlockProjection(eye, eye, eye, eye)
        for cell in [(0, 0), (0, 2), (1, 1)]:
            m = attention_map(stream, stream, proj, CFG, 1.0, cell)
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
        tgt = random_stream(rng, 2, (2, 3), CFG.d_model)
        src = random_stream(rng, 2, (2, 3), CFG.d_model)
        proj = random_projection(rng, CFG.d_model)
        base = attention_map(tgt, src, proj, CFG, 0.0, (0, 1)).reshape(-1)
        perm = rng.permutation(6)
        permuted_src = TokenStream(src.text, src.image[perm], src.grid)
        moved = attention_map(tgt, permuted_src, proj, CFG, 0.0, (0, 1)).reshape(-1)
        assert np.abs(moved - base[perm]).max() <= 1e-12

    def test_out_of_range_cell(self):
        rng = np.random.default_rng(61)
        tgt = random_stream(rng, 2, (2, 3), CFG.d_model)
        with pytest.raises(ValueError):
            attention_map(tgt, tgt, random_projection(rng, CFG.d_model), CFG, 1.0, (2, 0))
