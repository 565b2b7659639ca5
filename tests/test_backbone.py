import math
import os
import subprocess
import sys
import tracemalloc
from concurrent import futures
from dataclasses import fields

import numpy as np
import pytest

import synattn.backbone as backbone
from oracles import FLUX_SHARED_BLOCKS, naive_joint_attention, splitmix64, splitmix64_uniform
from synattn import (
    BackboneConfig,
    block_forward,
    derive_seed,
    encode_prompt,
    fnv1a64,
    grid_position_ids,
    init_backbone,
    init_block,
    initial_noise,
    rotary_table,
)
from synattn.attention import MLP_IN, MLP_OUT, ROLES, WK, WO, WQ, WV
from synattn.backbone import (
    MASK64,
    MAX_BLOCKS,
    MAX_GRID_SIDE,
    MAX_HEAD_DIM,
    MAX_HEADS,
    MAX_STEPS,
    MAX_TXT_TOKENS,
    WEIGHT_SCALE,
    _CHUNK,
    _draw_streams,
    usable_cores,
)

CFG = BackboneConfig()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def grid_table(w, config=CFG):
    return rotary_table(grid_position_ids(*config.grid), w, config)


def random_tokens(rng):
    """A branch's ``[text; image]`` matrix at ``CFG``'s shape."""
    return rng.normal(size=(CFG.n_txt_tokens + CFG.n_img, CFG.d_model))


def oracle_attention(tokens, src_image, block, w):
    """Loop-written attention of ``tokens`` over ``src_image``'s keys/values at ``CFG``'s shape."""
    n = CFG.n_txt_tokens
    positions = grid_position_ids(*CFG.grid)
    txt, img = naive_joint_attention(
        tokens[:n], tokens[n:], src_image, positions, positions,
        block[WQ], block[WK], block[WV],
        CFG.num_heads, CFG.head_dim, CFG.axis_dims, CFG.theta_base, w=w,
    )
    return np.vstack([txt, img])


class TestGenerators:
    # counts on both sides of the vector draw's chunk boundaries; the seed
    # near MASK64 wraps the uint64 state within the first chunk
    @pytest.mark.parametrize("seed", [1234, MASK64 - 2])
    @pytest.mark.parametrize("count", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
    def test_splitmix_vector_matches_scalar(self, seed, count):
        vec = _draw_streams([seed], count, 0.0, 1.0)
        assert vec.shape == (1, count)
        assert vec[0].tobytes() == splitmix64_uniform(seed, count, 0.0, 1.0).tobytes()

    def test_splitmix_vector_draw_allocates_only_its_result(self):
        count = 1 << 20
        tracemalloc.start()
        try:
            _draw_streams([3], count, -1.0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= count * 8 + (1 << 20)

    @pytest.fixture
    def split(self, monkeypatch):
        """Draw in 4-entry tiles on ``cores`` usable cores, one tile per thread at least.

        Returns the ``max_workers`` of every thread pool the draws start.
        """
        pools = []

        class Pool(futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        def use(cores):
            monkeypatch.setattr(backbone, "_CHUNK", 4)
            monkeypatch.setattr(backbone, "_TILES_PER_WORKER", 1)
            monkeypatch.setattr(backbone, "usable_cores", lambda: cores)
            monkeypatch.setattr(futures, "ThreadPoolExecutor", Pool)
            return pools

        return use

    # tile edges at 4 entries: 0, 1, tile - 1, tile, tile + 1, several tiles
    # and a remainder; the seed near MASK64 wraps the state in the first tile
    @pytest.mark.parametrize("cores", [1, 2, 3])
    @pytest.mark.parametrize("count", [0, 1, 3, 4, 5, 14])
    def test_split_draw_matches_scalar(self, split, cores, count):
        pools = split(cores)
        for seed in (1234, MASK64 - 2):
            vec = _draw_streams([seed], count, -0.5, 0.5)[0]
            assert vec.tobytes() == splitmix64_uniform(seed, count, -0.5, 0.5).tobytes()
        tiles = -(-count // 4)
        assert pools == ([min(cores, tiles)] * 2 if min(cores, tiles) > 1 else [])

    @pytest.mark.parametrize("cores", [1, 2, 3])
    @pytest.mark.parametrize("count", [0, 1, 3, 4, 5, 14])
    def test_split_multi_stream_draw_matches_each_stream(self, split, cores, count):
        seeds = [derive_seed(7, s) for s in range(5)] + [MASK64 - 2]
        split(cores)
        got = _draw_streams(seeds, count, -1.0, 1.0)
        assert got.shape == (len(seeds), count)
        for s, row in zip(seeds, got):
            assert row.tobytes() == splitmix64_uniform(s, count, -1.0, 1.0).tobytes()

    def test_float_conversion_rounds_like_the_scalar_division(self):
        # seeds whose first output is a chosen z: exact values, round-half-even
        # ties at 2**53 and 2**64 scales, and the top of the range
        def unmix(z):
            def unshift(y, s):
                x = y
                for k in range(s, 64, s):
                    x ^= y >> k
                return x
            z = unshift(z, 31)
            z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & MASK64
            z = unshift(z, 27)
            z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & MASK64
            return unshift(z, 30)

        targets = [
            0, 1, 4095, 4096, (1 << 52) - 1, 1 << 52, (1 << 53) + 1, (1 << 53) + 3,
            (1 << 63) + 1024, (1 << 63) + 3072, (1 << 63) + 1025, MASK64 - 1023,
            MASK64 - 1024, MASK64,
        ]
        seeds = [(unmix(z) - 0x9E3779B97F4A7C15) & MASK64 for z in targets]
        assert [splitmix64(s, 1)[0] for s in seeds] == targets
        got = _draw_streams(seeds, 1, -1.0, 3.0)[:, 0]
        want = np.array([z / 2.0**64 for z in targets]) * 4.0 - 1.0
        assert got.tobytes() == want.tobytes()

    def test_toy_edit_starts_no_thread(self):
        # toy-size draws run inline, and importing the package starts no pool
        code = (
            "import threading, synattn\n"
            "synattn.run_edit(synattn.PipelineConfig('a cat', 'a dog'))\n"
            "assert threading.active_count() == 1, threading.enumerate()\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr

    def test_fnv1a64_published_vectors(self):
        assert fnv1a64("") == 0xCBF29CE484222325
        assert fnv1a64("a") == 0xAF63DC4C8601EC8C

    def test_derive_seed_is_order_sensitive(self):
        assert derive_seed(1, 2) != derive_seed(2, 1)
        assert derive_seed(1, 2) == derive_seed(1, 2)

    def test_usable_cores_without_affinity(self, monkeypatch):
        # platforms without an affinity call, such as macOS, count every CPU
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert usable_cores() == os.cpu_count()
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cores() == 1


class TestInitBackbone:
    def test_same_config_gives_identical_bytes(self):
        assert init_backbone(CFG).tobytes() == init_backbone(CFG).tobytes()

    def test_different_seeds_differ(self):
        p1 = init_backbone(CFG)
        p2 = init_backbone(BackboneConfig(seed=1))
        assert not np.array_equal(p1[0, WQ], p2[0, WQ])

    def test_entry_bounds(self):
        assert np.abs(init_backbone(CFG)).max() <= WEIGHT_SCALE

    def test_blocks_and_roles_get_distinct_streams(self):
        weights = init_backbone(CFG)
        assert not np.array_equal(weights[0, WQ], weights[1, WQ])
        assert not np.array_equal(weights[0, WQ], weights[0, WK])

    def test_layout_is_block_role_stream(self):
        # one C-contiguous float64 (n_blocks, 6, d, d) array whose [b, r] is
        # the stream derive_seed(seed, b, r)
        d = CFG.d_model
        weights = init_backbone(CFG)
        assert weights.shape == (CFG.n_blocks, len(ROLES), d, d)
        assert weights.dtype == np.float64 and weights.flags.c_contiguous
        for b in range(CFG.n_blocks):
            for r in range(len(ROLES)):
                stream = derive_seed(CFG.seed, b, r)
                want = splitmix64_uniform(stream, d * d, -WEIGHT_SCALE, WEIGHT_SCALE)
                assert weights[b, r].tobytes() == want.tobytes()

    def test_block_drawn_alone_reads_its_own_streams(self):
        # block b drawn alone is init_backbone's block b, whatever else is drawn
        weights = init_backbone(CFG)
        for b in range(CFG.n_blocks):
            block = init_block(CFG, b)
            assert block.shape == weights.shape[1:] and block.flags.c_contiguous
            assert block.tobytes() == weights[b].tobytes()

    @pytest.mark.parametrize("b", [-1, CFG.n_blocks])
    def test_block_index_out_of_range(self, b):
        with pytest.raises(ValueError):
            init_block(CFG, b)


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

    # position ids are (marker, row, column), so every run needs three axes
    @pytest.mark.parametrize("axis_dims", [(16,), (8, 8), (4, 4, 4, 4)])
    def test_axis_dims_needs_three_entries(self, axis_dims):
        with pytest.raises(ValueError, match=r"^axis_dims must have 3 entries"):
            BackboneConfig(axis_dims=axis_dims)

    # a seed outside [0, 2**64) would alias one inside it
    @pytest.mark.parametrize("seed", [-1, MASK64 + 1, -(2**70)])
    def test_seed_outside_64_bits_refused(self, seed):
        with pytest.raises(ValueError, match=r"^seed must be in \[0, 2\*\*64\)"):
            BackboneConfig(seed=seed)
        assert BackboneConfig(seed=MASK64).seed == MASK64

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

    # each size field at its bound, then one past it (and, for head_dim, far
    # past it with a matching axis split); the error names the field
    @pytest.mark.parametrize("field, at_limit, past_limit", [
        ("num_heads", dict(num_heads=MAX_HEADS, d_model=MAX_HEADS * 16),
         dict(num_heads=MAX_HEADS + 1, d_model=(MAX_HEADS + 1) * 16)),
        ("head_dim", dict(num_heads=1, head_dim=MAX_HEAD_DIM, d_model=MAX_HEAD_DIM,
                          axis_dims=(256, 256, 512)),
         dict(num_heads=1, head_dim=2**50, d_model=2**50, axis_dims=(2**48, 2**48, 2**49))),
        ("n_blocks", dict(n_blocks=MAX_BLOCKS), dict(n_blocks=MAX_BLOCKS + 1)),
        ("n_txt_tokens", dict(n_txt_tokens=MAX_TXT_TOKENS),
         dict(n_txt_tokens=MAX_TXT_TOKENS + 1)),
        ("grid height", dict(grid=(MAX_GRID_SIDE, 1)), dict(grid=(MAX_GRID_SIDE + 1, 1))),
        ("grid width", dict(grid=(1, MAX_GRID_SIDE)), dict(grid=(1, MAX_GRID_SIDE + 1))),
        ("n_steps", dict(n_steps=MAX_STEPS), dict(n_steps=MAX_STEPS + 1)),
    ])
    def test_size_fields_bounded(self, field, at_limit, past_limit):
        BackboneConfig(**at_limit)
        with pytest.raises(ValueError, match=f"^{field} must be in"):
            BackboneConfig(**past_limit)

    # a non-integral size is refused naming its field, not truncated
    @pytest.mark.parametrize("field, kwargs", [
        ("grid", dict(grid=(4, 4.5))),
        ("axis_dims", dict(axis_dims=(4.0, 6.9, 6))),
        ("shared_blocks", dict(shared_blocks={0, 2.7})),
        ("n_blocks", dict(n_blocks=8.5)),
        ("n_steps", dict(n_steps=10.0)),
        ("seed", dict(seed=0.5)),
        ("num_heads", dict(num_heads=4.0)),
        ("head_dim", dict(head_dim=16.0)),
        ("d_model", dict(d_model=64.0)),
        ("n_txt_tokens", dict(n_txt_tokens="4")),
    ])
    def test_non_integral_size_refused(self, field, kwargs):
        with pytest.raises(ValueError, match=f"^{field} must be integral, got "):
            BackboneConfig(**kwargs)

    @pytest.mark.parametrize("grid", [(4,), (4, 4, 9)])
    def test_grid_needs_exactly_two_sides(self, grid):
        with pytest.raises(ValueError, match=r"^grid must be \(height, width\)"):
            BackboneConfig(grid=grid)

    def test_numpy_integer_sizes_become_ints(self):
        cfg = BackboneConfig(
            grid=(np.int64(4), np.int32(4)), axis_dims=np.array([4, 6, 6]),
            n_blocks=np.int64(8), shared_blocks=frozenset(np.array([0, 2, 5])),
            seed=np.uint64(0), n_steps=np.int16(10),
        )
        assert cfg == CFG and hash(cfg) == hash(CFG)
        sizes = (cfg.n_blocks, cfg.seed, cfg.n_steps, *cfg.grid, *cfg.axis_dims, *cfg.shared_blocks)
        assert {type(v) for v in sizes} == {int}

    def test_flux_blocks_need_57(self):
        with pytest.raises(ValueError):
            BackboneConfig(shared_blocks=FLUX_SHARED_BLOCKS)

    def test_rope_built_once_outside_the_fields(self):
        # the rotary arrays are read-only and no fields: the repr, == and
        # hash see the fields alone, even beside a changed array
        a, b = BackboneConfig(), BackboneConfig()
        derived = ("pair_freqs", "pair_axes", "channel_pairs")
        assert not set(derived) & {f.name for f in fields(a)}
        for name in derived:
            assert not getattr(a, name).flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                getattr(a, name)[0] = 0
            assert name not in repr(a)
        object.__setattr__(b, "pair_freqs", b.pair_freqs[::-1].copy())
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)

    def test_width_derived_from_heads(self):
        derived = BackboneConfig(num_heads=24, head_dim=128, axis_dims=(16, 56, 56))
        given = BackboneConfig(d_model=3072, num_heads=24, head_dim=128, axis_dims=(16, 56, 56))
        assert derived.d_model == 3072
        assert derived == given and hash(derived) == hash(given)
        with pytest.raises(ValueError, match="^num_heads must be integral, got 2.5"):
            BackboneConfig(num_heads=2.5)


class TestBlockForward:
    def test_zero_weights_pass_stream_through(self):
        d = CFG.d_model
        tokens = random_tokens(np.random.default_rng(80))
        out, attn = block_forward(tokens, np.zeros((6, d, d)), CFG, grid_table(1.0))
        np.testing.assert_array_equal(out, tokens)
        np.testing.assert_array_equal(attn, np.zeros_like(tokens))

    def test_without_source_kv_matches_oracle(self):
        block = init_block(CFG, 1)
        tokens = random_tokens(np.random.default_rng(81))
        _, attn = block_forward(tokens, block, CFG, grid_table(0.6))
        want = oracle_attention(tokens, tokens[CFG.n_txt_tokens :], block, 0.6)
        assert np.abs(attn - want).max() <= 1e-12

    def test_shared_src_changes_target_output(self):
        block = init_block(CFG, 0)
        rng = np.random.default_rng(82)
        tokens = random_tokens(rng)
        other = rng.normal(size=(CFG.n_img, CFG.d_model))
        table = grid_table(1.0)
        plain, _ = block_forward(tokens, block, CFG, table)
        shared, _ = block_forward(tokens, block, CFG, table, other)
        n = CFG.n_txt_tokens
        assert not np.array_equal(plain[n:], shared[n:])

    def test_reused_source_kv_matches_recomputed(self):
        # the denoising loop hands the block a view of the source's image
        # rows; a copy of them gives the same bytes
        block = init_block(CFG, 2)
        rng = np.random.default_rng(86)
        n = CFG.n_txt_tokens
        src = random_tokens(rng)
        tgt = random_tokens(rng)
        table = grid_table(0.7)
        reused, reused_attn = block_forward(tgt, block, CFG, table, src[n:])

        recomputed, attn = block_forward(tgt.copy(), block, CFG, table, src[n:].copy())
        np.testing.assert_array_equal(reused, recomputed)
        np.testing.assert_array_equal(reused_attn, attn)
        assert np.abs(reused_attn - oracle_attention(tgt, src[n:], block, 0.7)).max() <= 1e-12

    @pytest.mark.parametrize("block", [0, 1])  # block 0 is shared, block 1 is not
    def test_stack_matches_each_case_alone(self, block):
        # a (B, n, d) stack with one w per case gives each case the bytes it
        # gets alone, through attention, projections, MLP and the source's rows
        blk = init_block(CFG, block)
        rng = np.random.default_rng(87)
        weights = np.array([1.0, 0.0, 0.35])
        src = np.stack([random_tokens(rng) for _ in weights])
        tgt = np.stack([random_tokens(rng) for _ in weights])
        table = grid_table(weights)
        n = CFG.n_txt_tokens
        src_out, src_attn = block_forward(src, blk, CFG, table)
        tgt_out, tgt_attn = block_forward(tgt, blk, CFG, table, src[:, n:])
        for b, w in enumerate(weights):
            one = grid_table(w)
            want_src, want_src_attn = block_forward(src[b], blk, CFG, one)
            want_tgt, want_tgt_attn = block_forward(tgt[b], blk, CFG, one, src[b, n:])
            for got, want in [(src_out, want_src), (src_attn, want_src_attn),
                              (tgt_out, want_tgt), (tgt_attn, want_tgt_attn)]:
                np.testing.assert_array_equal(got[b], want)

    @pytest.mark.parametrize("n_cases", [1, 3])
    @pytest.mark.parametrize("block", [0, 1])  # block 0 is shared, block 1 is not
    def test_pair_matches_each_branch_alone(self, block, n_cases):
        # the engine's (2, B, n, d) source/target pair, handed the source's
        # image rows at a shared block, gives each branch the bytes of its
        # own call: the source alone, the target with the source's rows
        assert (0 in CFG.shared_blocks, 1 in CFG.shared_blocks) == (True, False)
        blk = init_block(CFG, block)
        rng = np.random.default_rng(88)
        table = grid_table(np.array([1.0, 0.0, 0.35])[:n_cases])
        pair = np.stack([np.stack([random_tokens(rng) for _ in range(n_cases)]) for _ in "st"])
        n = CFG.n_txt_tokens
        shared = block in CFG.shared_blocks
        out, attn = block_forward(pair, blk, CFG, table, pair[0, :, n:] if shared else None)
        src, src_attn = block_forward(pair[0].copy(), blk, CFG, table)
        src_image = pair[0, :, n:].copy() if shared else None
        tgt, tgt_attn = block_forward(pair[1].copy(), blk, CFG, table, src_image)
        for got, want in [(out[0], src), (attn[0], src_attn), (out[1], tgt), (attn[1], tgt_attn)]:
            np.testing.assert_array_equal(got, want)

    def test_scalar_grid_closed_form(self):
        # 1x1 grid, one text token, one head: replay the whole block with
        # scalar loops (attention, output projection, residual, tanh MLP).
        cfg = BackboneConfig(
            d_model=6, num_heads=1, head_dim=6, axis_dims=(2, 2, 2),
            n_blocks=1, shared_blocks=frozenset(), n_txt_tokens=1, grid=(1, 1),
        )
        block = init_block(cfg, 0)
        rng = np.random.default_rng(83)
        t = rng.normal(size=6)
        i = rng.normal(size=6)
        out, attn = block_forward(np.vstack([t, i]), block, cfg, grid_table(1.0, cfg))

        wq, wk, wv, wo = block[WQ], block[WK], block[WV], block[WO]

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
        assert np.abs(attn[0] - expected_rows[0]).max() <= 1e-12
        assert np.abs(attn[1] - expected_rows[1]).max() <= 1e-12

        tokens = [list(t), list(i)]
        for r in range(2):
            proj_row = project(expected_rows[r], wo)
            tokens[r] = [tokens[r][d] + proj_row[d] for d in range(6)]
        for r in range(2):
            hidden = [math.tanh(x) for x in project(tokens[r], block[MLP_IN])]
            mlp_row = project(hidden, block[MLP_OUT])
            tokens[r] = [tokens[r][d] + mlp_row[d] for d in range(6)]
        assert np.abs(out[0] - tokens[0]).max() <= 1e-12
        assert np.abs(out[1] - tokens[1]).max() <= 1e-12


class TestInitialNoise:
    def test_deterministic_shape_and_range(self):
        x1 = initial_noise(CFG)
        x2 = initial_noise(CFG)
        np.testing.assert_array_equal(x1, x2)
        assert x1.shape == (CFG.n_img, CFG.d_model)
        assert np.abs(x1).max() <= 1.0

    def test_seed_changes_noise(self):
        assert not np.array_equal(initial_noise(CFG), initial_noise(BackboneConfig(seed=7)))
