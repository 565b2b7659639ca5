import math

import numpy as np
import pytest

from synattn import (
    AttentionOutput,
    BackboneConfig,
    BackboneParams,
    BlockParams,
    BlockProjection,
    FLUX_SHARED_BLOCKS,
    ShapeError,
    SplitMix64,
    TokenStream,
    block_forward,
    denoise_step,
    derive_seed,
    encode_prompt,
    fnv1a64,
    grid_position_ids,
    image_kv,
    init_backbone,
    initial_noise,
    rotary_table,
    self_attention,
    shared_attention,
)
from synattn.backbone import WEIGHT_SCALE

CFG = BackboneConfig()


def stream_block(stream, block_index, params, w, shared_src=None):
    """block_forward on TokenStreams, image keys/values recomputed from ``shared_src``."""
    kv = None
    if shared_src is not None:
        src_table = rotary_table(shared_src.positions, w, params.rope)
        kv = image_kv(shared_src.image, params.blocks[block_index].attn, src_table)
    tokens, attn, _ = block_forward(
        np.vstack([stream.text, stream.image]), block_index, params,
        rotary_table(stream.positions, w, params.rope), kv,
    )
    n = stream.n_txt
    return (
        TokenStream(tokens[:n], tokens[n:], stream.grid, stream.positions),
        AttentionOutput(attn[:n], attn[n:]),
    )


class TestGenerators:
    def test_splitmix_vector_matches_scalar(self):
        a = SplitMix64(1234)
        b = SplitMix64(1234)
        vec = b.uniform(0.0, 1.0, 16)
        scalars = np.array([a.next_uint() / 2.0**64 for _ in range(16)])
        np.testing.assert_array_equal(vec, scalars)

    def test_splitmix_stream_continues_after_vector_draw(self):
        a = SplitMix64(99)
        first = a.uniform(0.0, 1.0, 4)
        b = SplitMix64(99)
        both = b.uniform(0.0, 1.0, 8)
        np.testing.assert_array_equal(both[:4], first)
        np.testing.assert_array_equal(both[4:], a.uniform(0.0, 1.0, 4))

    def test_fnv1a64_published_vectors(self):
        assert fnv1a64("") == 0xCBF29CE484222325
        assert fnv1a64("a") == 0xAF63DC4C8601EC8C

    def test_derive_seed_is_order_sensitive(self):
        assert derive_seed(1, 2) != derive_seed(2, 1)
        assert derive_seed(1, 2) == derive_seed(1, 2)


class TestInitBackbone:
    def test_same_config_gives_identical_bytes(self):
        p1 = init_backbone(CFG)
        p2 = init_backbone(CFG)
        for b1, b2 in zip(p1.blocks, p2.blocks):
            assert b1.attn.wq.tobytes() == b2.attn.wq.tobytes()
            assert b1.mlp_in.tobytes() == b2.mlp_in.tobytes()
            assert b1.mlp_out.tobytes() == b2.mlp_out.tobytes()

    def test_different_seeds_differ(self):
        p1 = init_backbone(CFG)
        p2 = init_backbone(BackboneConfig(seed=1))
        assert not np.array_equal(p1.blocks[0].attn.wq, p2.blocks[0].attn.wq)

    def test_entry_bounds(self):
        params = init_backbone(CFG)
        for blk in params.blocks:
            for m in (blk.attn.wq, blk.attn.wk, blk.attn.wv, blk.attn.wo, blk.mlp_in, blk.mlp_out):
                assert np.abs(m).max() <= WEIGHT_SCALE

    def test_blocks_and_roles_get_distinct_streams(self):
        params = init_backbone(CFG)
        assert not np.array_equal(params.blocks[0].attn.wq, params.blocks[1].attn.wq)
        assert not np.array_equal(params.blocks[0].attn.wq, params.blocks[0].attn.wk)


class TestEncodePrompt:
    def test_deterministic(self):
        np.testing.assert_array_equal(
            encode_prompt("a cat on a mat", CFG), encode_prompt("a cat on a mat", CFG)
        )

    def test_one_word_change_differs(self):
        a = encode_prompt("a standing dog", CFG)
        b = encode_prompt("a sitting dog", CFG)
        assert not np.array_equal(a, b)

    def test_row_norms_in_range(self):
        m = encode_prompt("two words", CFG)
        norms = np.linalg.norm(m, axis=1)
        assert np.all(norms > 0.0)
        assert np.all(norms <= math.sqrt(CFG.d_model))

    def test_padding_rows_depend_on_whole_prompt(self):
        a = encode_prompt("same lead", CFG)
        b = encode_prompt("same lead ", BackboneConfig())  # split() identical
        np.testing.assert_array_equal(a[:2], b[:2])
        m = encode_prompt("one", CFG)
        assert not np.array_equal(m[1], m[2])  # padding rows differ per index

    def test_extra_tokens_ignored(self):
        a = encode_prompt("w1 w2 w3 w4", CFG)
        b = encode_prompt("w1 w2 w3 w4 w5 w6", CFG)
        np.testing.assert_array_equal(a, b)

    def test_blank_prompt_rejected(self):
        with pytest.raises(ValueError):
            encode_prompt("", CFG)
        with pytest.raises(ValueError):
            encode_prompt("   ", CFG)


class TestConfigValidation:
    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            BackboneConfig(d_model=60)

    def test_shared_blocks_range(self):
        with pytest.raises(ValueError):
            BackboneConfig(shared_blocks=frozenset({9}))

    def test_axis_dims_checked(self):
        with pytest.raises(ValueError):
            BackboneConfig(axis_dims=(4, 6, 4))

    def test_flux_preset_shape(self):
        cfg = BackboneConfig(
            d_model=3072,
            num_heads=24,
            head_dim=128,
            axis_dims=(16, 56, 56),
            n_blocks=57,
            shared_blocks=FLUX_SHARED_BLOCKS,
            n_steps=50,
        )
        assert max(cfg.shared_blocks) == 56

    def test_flux_blocks_need_57(self):
        with pytest.raises(ValueError):
            BackboneConfig(shared_blocks=FLUX_SHARED_BLOCKS)


class TestBlockForward:
    def test_zero_weights_pass_stream_through(self):
        d = CFG.d_model
        zero = np.zeros((d, d))
        params = BackboneParams(
            config=CFG,
            blocks=tuple(
                BlockParams(BlockProjection(zero, zero, zero, zero), zero, zero)
                for _ in range(CFG.n_blocks)
            ),
        )
        rng = np.random.default_rng(80)
        stream = TokenStream(
            rng.normal(size=(CFG.n_txt_tokens, d)), rng.normal(size=(CFG.n_img, d)), CFG.grid
        )
        out, attn = stream_block(stream, 0, params, 1.0)
        np.testing.assert_array_equal(out.text, stream.text)
        np.testing.assert_array_equal(out.image, stream.image)
        np.testing.assert_array_equal(attn.txt, np.zeros_like(stream.text))

    def test_without_shared_src_runs_self_attention(self):
        params = init_backbone(CFG)
        rng = np.random.default_rng(81)
        stream = TokenStream(
            rng.normal(size=(CFG.n_txt_tokens, CFG.d_model)),
            rng.normal(size=(CFG.n_img, CFG.d_model)),
            CFG.grid,
        )
        _, attn = stream_block(stream, 1, params, 0.6)
        want = self_attention(stream, params.blocks[1].attn, CFG.rope, 0.6)
        np.testing.assert_array_equal(attn.txt, want.txt)
        np.testing.assert_array_equal(attn.img, want.img)

    def test_shared_src_changes_target_output(self):
        params = init_backbone(CFG)
        rng = np.random.default_rng(82)
        stream = TokenStream(
            rng.normal(size=(CFG.n_txt_tokens, CFG.d_model)),
            rng.normal(size=(CFG.n_img, CFG.d_model)),
            CFG.grid,
        )
        other = TokenStream(
            stream.text, rng.normal(size=(CFG.n_img, CFG.d_model)), CFG.grid
        )
        plain, _ = stream_block(stream, 0, params, 1.0)
        shared, _ = stream_block(stream, 0, params, 1.0, shared_src=other)
        assert not np.array_equal(plain.image, shared.image)

    def test_reused_source_kv_matches_recomputed(self):
        # the denoising loop hands the target the keys/values the source
        # block computed from its own token matrix; recomputing them from a
        # separate source stream gives the same bytes
        params = init_backbone(CFG)
        rng = np.random.default_rng(86)
        n = CFG.n_txt_tokens
        src = rng.normal(size=(n + CFG.n_img, CFG.d_model))
        tgt = rng.normal(size=(n + CFG.n_img, CFG.d_model))
        table = rotary_table(grid_position_ids(*CFG.grid), 0.7, params.rope)
        _, _, src_kv = block_forward(src, 2, params, table)
        reused, reused_attn, _ = block_forward(tgt, 2, params, table, src_kv)

        src_stream = TokenStream(src[:n].copy(), src[n:].copy(), CFG.grid)
        tgt_stream = TokenStream(tgt[:n].copy(), tgt[n:].copy(), CFG.grid)
        recomputed, attn = stream_block(tgt_stream, 2, params, 0.7, shared_src=src_stream)
        np.testing.assert_array_equal(reused[:n], recomputed.text)
        np.testing.assert_array_equal(reused[n:], recomputed.image)
        np.testing.assert_array_equal(reused_attn[:n], attn.txt)
        np.testing.assert_array_equal(reused_attn[n:], attn.img)
        want = shared_attention(tgt_stream, src_stream, params.blocks[2].attn, params.rope, 0.7)
        np.testing.assert_array_equal(reused_attn[n:], want.img)

    def test_block_index_validated(self):
        params = init_backbone(CFG)
        stream = TokenStream(
            np.zeros((CFG.n_txt_tokens, CFG.d_model)),
            np.zeros((CFG.n_img, CFG.d_model)),
            CFG.grid,
        )
        with pytest.raises(ValueError):
            stream_block(stream, CFG.n_blocks, params, 1.0)

    def test_scalar_grid_closed_form(self):
        # 1x1 grid, one text token, one head: replay the whole block with
        # scalar loops (attention, output projection, residual, tanh MLP).
        cfg = BackboneConfig(
            d_model=6, num_heads=1, head_dim=6, axis_dims=(2, 2, 2),
            n_blocks=1, shared_blocks=frozenset(), n_txt_tokens=1, grid=(1, 1),
        )
        params = init_backbone(cfg)
        rng = np.random.default_rng(83)
        t = rng.normal(size=6)
        i = rng.normal(size=6)
        stream = TokenStream(t[None, :], i[None, :], (1, 1))
        out, attn = stream_block(stream, 0, params, 1.0)

        blk = params.blocks[0]
        wq, wk, wv, wo = blk.attn.wq, blk.attn.wk, blk.attn.wv, blk.attn.wo

        def project(vec, mat):
            return [sum(vec[r] * mat[r][c] for r in range(6)) for c in range(6)]

        qs = [project(t, wq), project(i, wq)]
        ks = [project(t, wk), project(i, wk)]
        vs = [project(t, wv), project(i, wv)]
        # grid position is (0, 0, 0), so rotation is the identity
        expected_rows = []
        for q in qs:
            logits = [
                sum(q[d] * k[d] for d in range(6)) / math.sqrt(6.0) for k in ks
            ]
            mx = max(logits)
            exps = [math.exp(x - mx) for x in logits]
            z = sum(exps)
            expected_rows.append(
                [sum((exps[j] / z) * vs[j][d] for j in range(2)) for d in range(6)]
            )
        assert np.abs(attn.txt[0] - expected_rows[0]).max() <= 1e-12
        assert np.abs(attn.img[0] - expected_rows[1]).max() <= 1e-12

        tokens = [list(t), list(i)]
        for r in range(2):
            proj_row = project(expected_rows[r], wo)
            tokens[r] = [tokens[r][d] + proj_row[d] for d in range(6)]
        for r in range(2):
            hidden = [math.tanh(x) for x in project(tokens[r], blk.mlp_in)]
            mlp_row = project(hidden, blk.mlp_out)
            tokens[r] = [tokens[r][d] + mlp_row[d] for d in range(6)]
        assert np.abs(out.text[0] - tokens[0]).max() <= 1e-12
        assert np.abs(out.image[0] - tokens[1]).max() <= 1e-12


class TestDenoiseStep:
    def test_fixed_point(self):
        x = np.arange(12.0).reshape(3, 4)
        np.testing.assert_array_equal(denoise_step(x, x, 5, 10), x)

    def test_single_step_reaches_output(self):
        rng = np.random.default_rng(84)
        x = rng.normal(size=(3, 4))
        f = rng.normal(size=(3, 4))
        assert np.abs(denoise_step(x, f, 1, 1) - f).max() <= 1e-12

    def test_two_steps_vs_geometric_form(self):
        rng = np.random.default_rng(85)
        x0 = rng.normal(size=(2, 3))
        f = rng.normal(size=(2, 3))
        n = 10
        x = denoise_step(denoise_step(x0, f, n, n), f, n - 1, n)
        shrink = (1.0 - 1.0 / n) ** 2
        want = shrink * x0 + (1.0 - shrink) * f
        assert np.abs(x - want).max() <= 1e-12

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError):
            denoise_step(np.ones((1, 1)), np.ones((1, 1)), 1, 0)

    def test_timestep_bounds(self):
        with pytest.raises(ValueError):
            denoise_step(np.ones((1, 1)), np.ones((1, 1)), 11, 10)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            denoise_step(np.ones((2, 2)), np.ones((2, 3)), 1, 10)


class TestInitialNoise:
    def test_deterministic_shape_and_range(self):
        x1 = initial_noise(CFG)
        x2 = initial_noise(CFG)
        np.testing.assert_array_equal(x1, x2)
        assert x1.shape == (CFG.n_img, CFG.d_model)
        assert np.abs(x1).max() <= 1.0

    def test_seed_changes_noise(self):
        assert not np.array_equal(initial_noise(CFG), initial_noise(BackboneConfig(seed=7)))
