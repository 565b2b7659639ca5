import itertools
import math
import os
from pathlib import Path

import numpy as np
import pytest

from synattn import (
    BackboneConfig,
    NumericalAbortError,
    PipelineConfig,
    Thresholds,
    adaptive_weight,
    encode_prompt,
    init_backbone,
    initial_noise,
    run_batch,
    run_edit,
)
import synattn.attention as attention_mod
from synattn.attention import WV
from synattn.cli import main, parse_config_text, render_config, write_trace
import synattn.pipeline as pipeline_mod


def small_config(**kwargs):
    defaults = dict(src_prompt="a standing dog", tgt_prompt="a sitting dog")
    defaults.update(kwargs)
    return PipelineConfig(**defaults)


def run_group(configs):
    """Each config's result, in order, from configs that share one backbone: one group."""
    (results,) = pipeline_mod.run_groups(dict(enumerate(configs)), lambda i, r: r)
    return results


def after_block_forward(monkeypatch, step):
    """Rebind the engine's ``block_forward`` to the real one, then ``step(args, tokens, attn)``.

    ``args`` are the call's positional arguments (``args[2]`` the backbone
    config) and ``tokens, attn`` its result, which ``step`` may poison in
    place or record before the engine sees it.
    """
    real = pipeline_mod.block_forward

    def wrapped(*args, **kwargs):
        tokens, attn = real(*args, **kwargs)
        step(args, tokens, attn)
        return tokens, attn

    monkeypatch.setattr(pipeline_mod, "block_forward", wrapped)


def rotation_free_target_final(config: PipelineConfig) -> np.ndarray:
    """Reference pipeline with no rotary code anywhere, for w_override = 0.

    Reuses only the deterministic plumbing (weights, prompt hashing, noise)
    and rebuilds the block loop with plain numpy attention.
    """
    bb = config.backbone
    weights = init_backbone(bb)
    txt_src = encode_prompt(config.src_prompt, bb)
    txt_tgt = encode_prompt(config.tgt_prompt, bb)
    x_src = initial_noise(bb)
    x_tgt = x_src.copy()
    scale = 1.0 / math.sqrt(bb.head_dim)

    def attention(q_tokens, kv_text, kv_image, blk):
        wq, wk, wv, _, _, _ = blk
        q = np.vstack(q_tokens) @ wq
        k = np.vstack([kv_text @ wk, kv_image @ wk])
        v = np.vstack([kv_text @ wv, kv_image @ wv])
        out = np.zeros_like(q)
        for h in range(bb.num_heads):
            sl = slice(h * bb.head_dim, (h + 1) * bb.head_dim)
            logits = q[:, sl] @ k[:, sl].T * scale
            logits -= logits.max(axis=1, keepdims=True)
            weights = np.exp(logits)
            weights /= weights.sum(axis=1, keepdims=True)
            out[:, sl] = weights @ v[:, sl]
        return out

    def block(text, image, blk, kv_text, kv_image):
        attn = attention((text, image), kv_text, kv_image, blk)
        _, _, _, wo, mlp_in, mlp_out = blk
        tokens = np.vstack([text, image])
        tokens = tokens + attn @ wo
        tokens = tokens + np.tanh(tokens @ mlp_in) @ mlp_out
        return tokens[: text.shape[0]], tokens[text.shape[0] :]

    for t in range(bb.n_steps, 0, -1):
        s_text, s_image = txt_src, x_src
        g_text, g_image = txt_tgt, x_tgt
        for l, blk in enumerate(weights):
            s_in_text, s_in_image = s_text, s_image
            s_text, s_image = block(s_text, s_image, blk, s_in_text, s_in_image)
            if l in bb.shared_blocks:
                g_text, g_image = block(g_text, g_image, blk, g_text, s_in_image)
            else:
                g_text, g_image = block(g_text, g_image, blk, g_text, g_image)
        x_src = x_src + (s_image - x_src) / bb.n_steps
        x_tgt = x_tgt + (g_image - x_tgt) / bb.n_steps
    return x_tgt


class TestRunEdit:
    def test_identical_prompts_fixed_point(self):
        src, tgt, trace = run_edit(
            PipelineConfig(src_prompt="same words", tgt_prompt="same words")
        )
        assert np.array_equal(src, tgt)
        assert all(step.m_mean == 1.0 for step in trace.steps)
        weights = [step.weight_applied for step in trace.steps]
        assert weights == [1.0] + [0.0] * 9

    def test_trace_shape_and_ordering(self):
        cfg = small_config()
        _, _, trace = run_edit(cfg)
        assert len(trace.steps) == cfg.backbone.n_steps
        assert [s.timestep for s in trace.steps] == list(range(10, 0, -1))
        assert all(len(s.blocks) == cfg.backbone.n_blocks for s in trace.steps)
        assert trace.config == cfg

    def test_first_weight_is_one_then_adaptive(self):
        cfg = small_config()
        _, _, trace = run_edit(cfg)
        assert trace.steps[0].weight_applied == 1.0
        for prev, step in zip(trace.steps, trace.steps[1:]):
            assert step.weight_applied == adaptive_weight(prev.m_mean, cfg.thresholds)

    def test_override_fixes_all_weights(self):
        for w in (0.0, 0.35, 1.0):
            _, _, trace = run_edit(small_config(w_override=w))
            assert all(step.weight_applied == w for step in trace.steps)

    def test_override_zero_matches_rotation_free_reference(self):
        cfg = small_config(w_override=0.0)
        _, tgt, _ = run_edit(cfg)
        want = rotation_free_target_final(cfg)
        assert np.abs(tgt - want).max() <= 1e-12

    def test_deterministic_across_runs(self):
        cfg = small_config()
        src1, tgt1, trace1 = run_edit(cfg)
        src2, tgt2, trace2 = run_edit(cfg)
        assert np.array_equal(src1, src2)
        assert np.array_equal(tgt1, tgt2)
        assert trace1 == trace2

    def test_trace_self_consistency(self):
        _, _, trace = run_edit(small_config())
        for step in trace.steps:
            mean = sum(b.ratio for b in step.blocks) / len(step.blocks)
            assert abs(step.m_mean - mean) <= 1e-12
            for b in step.blocks:
                assert b.ratio == pytest.approx(b.s_img / b.s_txt, abs=1e-15)

    def test_adaptive_weights_stay_in_band(self):
        _, _, trace = run_edit(small_config())
        for step in trace.steps:
            assert 0.0 <= step.weight_applied <= 1.0

    def test_source_ignores_target_prompt_at_fixed_override(self):
        base = small_config(w_override=0.5)
        other = small_config(tgt_prompt="a purple elephant", w_override=0.5)
        src1, _, _ = run_edit(base)
        src2, _, _ = run_edit(other)
        assert np.array_equal(src1, src2)

    def test_source_ignores_sharing_set_at_fixed_override(self):
        base = small_config(w_override=0.5)
        unshared = small_config(
            w_override=0.5,
            backbone=BackboneConfig(shared_blocks=frozenset()),
        )
        src1, _, _ = run_edit(base)
        src2, _, _ = run_edit(unshared)
        assert np.array_equal(src1, src2)

    def test_no_sharing_identical_prompts_still_fixed_point(self):
        cfg = PipelineConfig(
            src_prompt="same words",
            tgt_prompt="same words",
            backbone=BackboneConfig(shared_blocks=frozenset()),
        )
        src, tgt, trace = run_edit(cfg)
        assert np.array_equal(src, tgt)
        assert all(step.m_mean == 1.0 for step in trace.steps)

    def test_blank_prompt_fails(self):
        # refused when the config is built, before any run
        for key in ("src_prompt", "tgt_prompt"):
            with pytest.raises(ValueError, match=f"^{key} must contain at least one token"):
                PipelineConfig(**{"src_prompt": "a dog", "tgt_prompt": "a dog", key: " \t "})

    # a wrong-typed config value is a ValueError naming its field, never a bare TypeError
    @pytest.mark.parametrize("make, field", [
        (lambda: BackboneConfig(theta_base="1e4"), "theta_base"),
        (lambda: BackboneConfig(theta_base=None), "theta_base"),
        (lambda: BackboneConfig(axis_dims=None), "axis_dims"),
        (lambda: BackboneConfig(grid=4), "grid"),
        (lambda: BackboneConfig(shared_blocks=None), "shared_blocks"),
        (lambda: BackboneConfig(shared_blocks=3), "shared_blocks"),
        (lambda: Thresholds(m_min="0.5"), "m_min"),
        (lambda: Thresholds(m_min=None), "m_min"),
        (lambda: small_config(w_override="0.5"), "w_override"),
        (lambda: small_config(src_prompt=None), "src_prompt"),
        (lambda: small_config(backbone=None), "backbone"),
        (lambda: small_config(backbone={"seed": 1}), "backbone"),
        (lambda: small_config(thresholds=(0.9, 1.0)), "thresholds"),
    ], ids=["theta-str", "theta-none", "axis-dims-none", "grid-int", "shared-none",
            "shared-int", "m-min-str", "m-min-none", "w-override-str", "src-prompt-none",
            "backbone-none", "backbone-dict", "thresholds-tuple"])
    def test_wrong_typed_field_refused_naming_it(self, make, field):
        with pytest.raises(ValueError, match=f"^{field} must ") as exc:
            make()
        assert type(exc.value) is ValueError

    def test_non_finite_aborts_with_location(self, monkeypatch):
        calls = itertools.count()

        def poison(args, out, attn):
            config = args[2]
            if next(calls) % config.n_blocks == 3:
                out[..., config.n_txt_tokens, 0] = np.inf

        after_block_forward(monkeypatch, poison)
        with pytest.raises(NumericalAbortError) as exc:
            run_edit(small_config())
        assert exc.value.timestep == 10
        assert exc.value.block_index == 3
        assert "timestep 10" in str(exc.value) and "block 3" in str(exc.value)

    # the whole step held at once, or a budget of one block per flush
    @pytest.mark.parametrize("non_finite, degenerate, budget", [
        pytest.param(3, 5, pipeline_mod._STACK_BYTES, id="3-5"),
        pytest.param(5, 3, pipeline_mod._STACK_BYTES, id="5-3"),
        pytest.param(3, 5, 1, id="3-5-one-block-per-flush"),
        pytest.param(5, 3, 1, id="5-3-one-block-per-flush"),
    ])
    def test_first_failure_in_block_order_wins(
        self, non_finite, degenerate, budget, monkeypatch, tmp_path, capsys
    ):
        # one step with inf at one block and zero text outputs (s_txt = 0, even
        # after the inf) at another: the step's one measurement pass reports
        # the earlier block, whether or not they were flushed together, as a
        # numerical abort naming the step and block, and `synattn run` exits 2
        monkeypatch.setattr(pipeline_mod, "_STACK_BYTES", budget)
        flushed = []
        real_cosines = pipeline_mod.row_cosines
        monkeypatch.setattr(
            pipeline_mod, "row_cosines", lambda a, b: flushed.append(len(a)) or real_cosines(a, b)
        )
        calls = itertools.count()

        def poison(args, out, attn):
            config = args[2]
            n_txt = config.n_txt_tokens
            block_index = next(calls)
            if block_index < config.n_blocks:  # the first step only
                if block_index == non_finite:
                    out[..., n_txt, 0] = np.inf
                if block_index == degenerate:
                    attn[..., :n_txt, :] = 0.0

        after_block_forward(monkeypatch, poison)
        config = small_config()
        with pytest.raises(NumericalAbortError) as exc:
            run_edit(config)
        # no block after the non-finite one runs: every case's step ends there
        ran = non_finite + 1
        assert flushed == ([ran] if budget > 1 else [1] * ran)
        assert (exc.value.timestep, exc.value.block_index) == (config.backbone.n_steps, 3)
        if non_finite < degenerate:
            assert str(exc.value) == "non-finite values at timestep 10, block 3: source branch stream"
        else:
            assert str(exc.value).startswith(
                "degenerate text similarity at timestep 10, block 3: |s_txt| = 0.000e+00"
            )
        calls = itertools.count()  # poison the same step of a fresh run
        cfg = tmp_path / "edit.cfg"
        cfg.write_text(render_config(config))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"case 0 ({cfg}): {exc.value}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "poison, branch", [("initial_noise", "source"), ("encode_prompt", "target")]
    )
    def test_non_finite_input_aborts_at_first_block(self, poison, branch, monkeypatch):
        # NaN in the initial state (both branches) or in the target text only
        config = small_config()
        real = getattr(pipeline_mod, poison)

        def poisoned(*args):
            out = real(*args)
            if poison == "initial_noise" or args[0] == config.tgt_prompt:
                out[0, 0] = np.nan
            return out

        monkeypatch.setattr(pipeline_mod, poison, poisoned)
        with pytest.raises(NumericalAbortError) as exc:
            run_edit(config)
        assert exc.value.timestep == config.backbone.n_steps
        assert exc.value.block_index == 0
        assert f"{branch} branch stream" in str(exc.value)

    def test_non_finite_weight_aborts_at_its_block(self, monkeypatch):
        # drawn weights are not scanned: a NaN weight aborts where block 2 uses it
        real = pipeline_mod.init_backbone

        def poisoned(bb):
            weights = real(bb)
            weights[2, WV, 0, 0] = np.nan
            return weights

        monkeypatch.setattr(pipeline_mod, "init_backbone", poisoned)
        config = small_config()
        with pytest.raises(NumericalAbortError) as exc:
            run_edit(config)
        assert (exc.value.timestep, exc.value.block_index) == (config.backbone.n_steps, 2)

    def test_step_stops_at_the_failed_block(self, monkeypatch):
        # inf after block 1 of the first step: the step ends there, two block
        # calls in all, and the abort is the one the whole step would give
        calls = itertools.count()

        def poison(args, out, attn):
            if next(calls) == 1:
                out[..., args[2].n_txt_tokens, 0] = np.inf

        after_block_forward(monkeypatch, poison)
        with pytest.raises(NumericalAbortError) as exc:
            run_edit(small_config())
        assert next(calls) == 2
        assert (exc.value.timestep, exc.value.block_index) == (10, 1)
        assert str(exc.value) == "non-finite values at timestep 10, block 1: source branch stream"


class TestRunBatch:
    def test_batch_of_one_equals_run_edit(self):
        cfg = small_config()
        assert run_batch([cfg]) == [run_edit(cfg)[2]]

    def test_identical_configs_give_identical_traces(self):
        cfg = small_config()
        traces = run_batch([cfg] * 3)
        assert traces[0] == traces[1] == traces[2]

    def test_shuffle_permutes_results(self):
        configs = [small_config(backbone=BackboneConfig(seed=i)) for i in range(4)]
        order = [2, 0, 3, 1]
        base = run_batch(configs)
        shuffled = run_batch([configs[i] for i in order])
        assert shuffled == [base[i] for i in order]

    def test_failures_reported_per_index(self, monkeypatch):
        # a numerical abort is its case's alone; any other failure is every
        # case's of its backbone group, and the other group is untouched
        other = BackboneConfig(seed=7)
        configs = [
            small_config(),
            small_config(backbone=other),
            small_config(tgt_prompt="a poisoned dog", w_override=0.5),
            small_config(backbone=other, w_override=0.0),
            small_config(w_override=0.0),
        ]
        real_encode, real_init = pipeline_mod.encode_prompt, pipeline_mod.init_backbone
        no_memory = MemoryError("Unable to allocate the weights")

        def poisoned(prompt, bb):
            out = real_encode(prompt, bb)
            if prompt == "a poisoned dog":
                out[0, 0] = np.nan
            return out

        def init(bb):
            if bb == other:
                raise no_memory
            return real_init(bb)

        monkeypatch.setattr(pipeline_mod, "encode_prompt", poisoned)
        monkeypatch.setattr(pipeline_mod, "init_backbone", init)
        results = run_batch(configs)
        with pytest.raises(NumericalAbortError) as alone:
            run_edit(configs[2])
        assert type(results[2]) is NumericalAbortError
        assert str(results[2]) == str(alone.value)
        assert results[1] is no_memory and results[3] is no_memory
        for i in (0, 4):
            assert results[i] == run_edit(configs[i])[2]

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            run_batch([])


def assert_same_result(got, want):
    """Final states bitwise equal and traces equal (every float compared exactly)."""
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    assert got[2] == want[2]


def _pid_and_result(i, result):
    """A sink that pickles: the process it ran in, the case's index and its result."""
    return os.getpid(), i, result


def mixed_configs():
    """Two backbones interleaved, every schedule kind, differing thresholds."""
    other = BackboneConfig(seed=7, grid=(3, 5), n_steps=6)
    return [
        small_config(),
        small_config(backbone=other, w_override=0.0),
        small_config(w_override=1.0),
        small_config(backbone=other, thresholds=Thresholds(0.8, 1.1)),
        small_config(tgt_prompt="a jumping dog", w_override=0.25),
        small_config(backbone=other, w_override=0.25),
        small_config(thresholds=Thresholds(0.95, 1.02)),
        small_config(backbone=other, tgt_prompt="a jumping dog", w_override=1.0),
    ]


class TestStackedEngine:
    def test_groups_follow_the_backbone_in_order_of_first_appearance(self):
        # sparse input indices, the first group's backbone not the default one
        second, first = mixed_configs()[:2]
        configs = {3: first, 7: second, 9: first, 12: second}
        groups = list(pipeline_mod.run_groups(configs, lambda i, result: i))
        assert groups == [[3, 9], [7, 12]]

    def test_mixed_batch_matches_run_edit_case_by_case(self):
        configs = mixed_configs()
        traces = run_batch(configs)
        for cfg, trace in zip(configs, traces):
            assert trace == run_edit(cfg)[2]
        for group in pipeline_mod.run_groups(dict(enumerate(configs)), lambda i, r: (i, r)):
            for i, result in group:
                assert_same_result(result, run_edit(configs[i]))

    def test_sink_called_once_per_case_with_its_index(self):
        configs = dict(zip([11, 2, 40, 5, 8, 19, 30, 1], mixed_configs()))
        calls = []

        def sink(i, result):
            calls.append(i)
            assert_same_result(result, run_edit(configs[i]))
            return -i

        groups = list(pipeline_mod.run_groups(configs, sink))
        assert sorted(calls) == sorted(configs)
        assert groups == [[-i for i in (11, 40, 8, 30)], [-i for i in (2, 5, 19, 1)]]

    def test_groups_run_lazily(self, monkeypatch):
        # no group after the first runs before the first group's list is taken
        ran = []
        real = pipeline_mod._run_group
        monkeypatch.setattr(pipeline_mod, "_run_group", lambda cs: ran.append(len(cs)) or real(cs))
        groups = pipeline_mod.run_groups(dict(enumerate(mixed_configs())), lambda i, r: i)
        assert ran == []
        assert next(groups) == [0, 2, 4, 6]
        assert ran == [4]
        assert next(groups) == [1, 3, 5, 7]
        assert ran == [4, 4]
        assert next(groups, None) is None

    def test_forked_workers_return_sink_values_and_aborts(self, monkeypatch):
        # the sink runs in the worker; its values, a numerical abort among
        # them, come back pickled and equal the inline run's
        import threading

        if threading.active_count() > 1:
            pytest.skip("another thread runs, so run_groups would not fork")
        configs = {i: small_config(backbone=BackboneConfig(seed=i % 2, n_steps=3),
                                   tgt_prompt=prompt)
                   for i, prompt in enumerate(["a sitting dog", "a poisoned dog"] * 2)}
        real = pipeline_mod.encode_prompt

        def poisoned(prompt, bb):
            out = real(prompt, bb)
            if prompt == "a poisoned dog":
                out[0, 0] = np.nan
            return out

        monkeypatch.setattr(pipeline_mod, "encode_prompt", poisoned)
        monkeypatch.setattr(pipeline_mod, "usable_cores", lambda: 2)
        inline = list(pipeline_mod.run_groups(configs, _pid_and_result))
        forked = list(pipeline_mod.run_groups(configs, _pid_and_result, jobs=2))
        parent = os.getpid()
        assert [[pid == parent for pid, _, _ in group] for group in inline] == [[True] * 2] * 2
        assert [[pid != parent for pid, _, _ in group] for group in forked] == [[True] * 2] * 2
        for got_group, want_group in zip(forked, inline):
            for (_, i, got), (_, j, want) in zip(got_group, want_group):
                assert i == j
                if isinstance(want, Exception):
                    assert type(got) is NumericalAbortError
                    assert str(got) == str(want)
                    assert (got.timestep, got.block_index) == (want.timestep, want.block_index)
                else:
                    assert_same_result(got, want)

    def test_each_backbone_drawn_once_per_group(self, monkeypatch):
        drawn = []
        real = pipeline_mod.init_backbone
        monkeypatch.setattr(pipeline_mod, "init_backbone", lambda bb: drawn.append(bb) or real(bb))
        run_batch(mixed_configs())
        assert drawn == [BackboneConfig(), BackboneConfig(seed=7, grid=(3, 5), n_steps=6)]

    def test_poisoned_case_aborts_alone(self, monkeypatch):
        # NaN in one case's target text: that case aborts where it aborts
        # alone, the other two of its group keep their bytes
        configs = [
            small_config(),
            small_config(tgt_prompt="a poisoned dog", w_override=0.5),
            small_config(w_override=0.0),
        ]
        real = pipeline_mod.encode_prompt

        def poisoned(prompt, bb):
            out = real(prompt, bb)
            if prompt == "a poisoned dog":
                out[0, 0] = np.nan
            return out

        monkeypatch.setattr(pipeline_mod, "encode_prompt", poisoned)
        results = run_group(configs)
        with pytest.raises(NumericalAbortError) as alone:
            run_edit(configs[1])
        got = results[1]
        assert type(got) is NumericalAbortError
        assert (got.timestep, got.block_index) == (alone.value.timestep, alone.value.block_index)
        assert str(got) == str(alone.value)
        assert "target branch stream" in str(got)
        assert_same_result(results[0], run_edit(configs[0]))
        assert_same_result(results[2], run_edit(configs[2]))

    def test_row_masked_after_contributing_records_leaves_the_others(self, monkeypatch):
        # inf in one case's target row at block 3 of step T-1, after that
        # case has run a whole step in the stack: it aborts as it does
        # alone, and its row, kept and computed on, leaves the others' bytes
        configs = [
            small_config(),
            small_config(tgt_prompt="a jumping dog"),
            small_config(w_override=0.25),
        ]
        wants = [run_edit(configs[0]), run_edit(configs[2])]

        def poison_row(row):
            calls = itertools.count()

            def poison(args, out, attn):
                config = args[2]
                # one call per block runs the (source, target) pair
                step, call = divmod(next(calls), config.n_blocks)
                if (step, call) == (1, 3):
                    out[1, row, config.n_txt_tokens, 0] = np.inf

            return poison

        after_block_forward(monkeypatch, poison_row(1))
        results = run_group(configs)
        monkeypatch.undo()
        after_block_forward(monkeypatch, poison_row(0))
        with pytest.raises(NumericalAbortError) as alone:
            run_edit(configs[1])
        n_steps = configs[1].backbone.n_steps
        assert (alone.value.timestep, alone.value.block_index) == (n_steps - 1, 3)
        assert "target branch stream" in str(alone.value)
        assert type(results[1]) is NumericalAbortError
        assert str(results[1]) == str(alone.value)
        assert_same_result(results[0], wants[0])
        assert_same_result(results[2], wants[1])

    @pytest.mark.parametrize("first_step", [1, 0], ids=["same-step", "after-an-abort"])
    def test_stack_step_stops_once_every_live_case_has_failed(self, first_step, monkeypatch):
        # case 0 gets inf after block 2 of step `first_step`, case 1 after
        # block 4 of step 1: step 1 runs blocks 0..4 and no more (case 0's
        # rows, non-finite from then on, no longer count once it has
        # aborted), and each case aborts at its own block, as it does alone
        configs = [small_config(), small_config(tgt_prompt="a jumping dog")]
        bb = configs[0].backbone
        poisons = {(first_step, 2): 0, (1, 4): 1}
        calls = itertools.count()

        def poison(args, out, attn):
            row = poisons.get(divmod(next(calls), bb.n_blocks))
            if row is not None:
                out[:, row, bb.n_txt_tokens, 0] = np.inf

        after_block_forward(monkeypatch, poison)
        results = run_group(configs)
        assert next(calls) == bb.n_blocks + 5
        stream = "source branch stream"
        assert [str(r) for r in results] == [
            f"non-finite values at timestep {bb.n_steps - first_step}, block 2: {stream}",
            f"non-finite values at timestep {bb.n_steps - 1}, block 4: {stream}",
        ]

    @pytest.mark.parametrize("over_half", [True, False])
    def test_one_block_held_once_a_block_exceeds_half_the_budget(self, over_half, monkeypatch):
        # each block's attention output is written into its slot of the held
        # buffer, and is returned as that slot: nothing is copied into it
        config = small_config()
        want = run_edit(config)
        bb = config.backbone
        block_bytes = 2 * (bb.n_txt_tokens + bb.n_img) * bb.d_model * 8  # both branches
        monkeypatch.setattr(pipeline_mod, "_STACK_BYTES", 2 * block_bytes - (8 if over_half else 0))
        slots = []
        after_block_forward(monkeypatch, lambda args, out, attn: slots.append((args[5], attn)))
        assert_same_result(run_edit(config), want)
        assert all(attn is slot for slot, attn in slots)
        assert {slot.base.shape[:2] for slot, _ in slots} == {(2, 1 if over_half else 2)}

    def test_head_chunks_leave_every_byte(self, monkeypatch):
        # the golden configs (three of them one stacked group) and a 16x16
        # grid, whose 4 heads' logits (4.3 MB) already exceed the budget: each
        # head alone gives the bytes of every head in one chunk
        golden = Path(__file__).resolve().parent / "golden"
        configs = [parse_config_text(p.read_text()) for p in sorted(golden.glob("*/config.cfg"))]
        configs.append(small_config(backbone=BackboneConfig(
            seed=5, grid=(16, 16), n_blocks=2, shared_blocks={0}, n_steps=2)))
        assert len(configs) == 7
        real = attention_mod.attention_weights

        def run(budget):
            heads = set()
            monkeypatch.setattr(attention_mod, "_LOGITS_BYTES", budget)
            monkeypatch.setattr(attention_mod, "attention_weights",
                                lambda q, k, s: heads.add(q.shape[-3]) or real(q, k, s))
            groups = pipeline_mod.run_groups(dict(enumerate(configs)), lambda i, r: r)
            return heads, [r for group in groups for r in group]

        heads, whole = run(1 << 40)
        assert heads == {c.backbone.num_heads for c in configs}
        heads, alone = run(1)
        assert heads == {1}
        for got, want in zip(alone, whole):
            for a, b in zip(got[:2], want[:2]):
                np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))
            assert write_trace(got[2]) == write_trace(want[2])
            assert got[2] == want[2]

    def test_one_block_call_per_block_on_the_pair(self, monkeypatch):
        # source and target run as one (2, B, n, d) pair: one call per block and step
        config = small_config()
        bb = config.backbone
        shapes = []
        after_block_forward(monkeypatch, lambda args, out, attn: shapes.append(args[0].shape))
        run_edit(config)
        pair = (2, 1, bb.n_txt_tokens + bb.n_img, bb.d_model)
        assert shapes == [pair] * (bb.n_steps * bb.n_blocks)

    def test_one_measurement_pass_per_step(self, monkeypatch):
        config = small_config()
        bb = config.backbone
        shapes = []
        real = pipeline_mod.row_cosines
        monkeypatch.setattr(
            pipeline_mod, "row_cosines", lambda a, b: shapes.append(a.shape) or real(a, b)
        )
        run_edit(config)
        assert shapes == [(bb.n_blocks, 1, bb.n_txt_tokens + bb.n_img, bb.d_model)] * bb.n_steps

    @pytest.mark.parametrize("blocks_held, parts", [(1, [1] * 8), (3, [3, 3, 2])])
    def test_small_budget_closes_the_measurement_in_parts(self, blocks_held, parts, monkeypatch):
        # no benchmark shape reaches the flush: a budget holding blocks_held
        # blocks of one stack closes each step in parts, with the same bytes
        configs = [small_config(w_override=w) for w in (None, 0.0, 1.0)]
        whole = run_group(configs)
        traces = run_batch(configs)
        bb = configs[0].backbone
        assert bb.n_blocks == sum(parts)
        case_bytes = 2 * (bb.n_txt_tokens + bb.n_img) * bb.d_model * 8
        monkeypatch.setattr(pipeline_mod, "_STACK_BYTES", blocks_held * len(configs) * case_bytes)
        held = []
        real = pipeline_mod.row_cosines
        monkeypatch.setattr(
            pipeline_mod, "row_cosines", lambda a, b: held.append(len(a)) or real(a, b)
        )
        for got, want in zip(run_group(configs), whole):
            assert_same_result(got, want)
        assert held == parts * bb.n_steps
        assert run_batch(configs) == traces

    def test_failed_sub_batch_fails_only_its_own_cases(self, monkeypatch, tmp_path, capsys):
        # one case per sub-batch, the second out of memory: the cases before
        # and after it keep their results, and `synattn run` writes them
        config = small_config()
        want = run_edit(config)
        bb = config.backbone
        monkeypatch.setattr(
            pipeline_mod, "_STACK_BYTES", 2 * (bb.n_txt_tokens + bb.n_img) * bb.d_model * 8
        )
        real = pipeline_mod._run_stack
        calls = itertools.count()

        def second_fails(*args):
            if next(calls) == 1:
                raise MemoryError("Unable to allocate the stack")
            return real(*args)

        monkeypatch.setattr(pipeline_mod, "_run_stack", second_fails)
        traces = run_batch([config] * 3)
        assert type(traces[1]) is MemoryError
        assert traces[0] == traces[2] == want[2]
        calls = itertools.count()
        cfg = tmp_path / "edit.cfg"
        cfg.write_text(render_config(config))
        out = tmp_path / "out"
        assert main(["run", *["--config", str(cfg)] * 3, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"case 1 ({cfg}): Unable to allocate the stack\n"
        assert sorted(p.name for p in out.iterdir()) == ["case_000", "case_002"]
        for name in ("case_000", "case_002"):
            assert (out / name / "trace.txt").read_text() == write_trace(want[2])

    def test_tiny_budget_splits_the_group_without_changing_bytes(self, monkeypatch):
        configs = [small_config(w_override=w) for w in (None, 0.0, 1.0, 0.25, None)]
        whole = run_group(configs)
        sizes = []
        real = pipeline_mod._run_stack

        def recording(stack_configs, *args):
            sizes.append(len(stack_configs))
            return real(stack_configs, *args)

        monkeypatch.setattr(pipeline_mod, "_run_stack", recording)
        bb = configs[0].backbone
        case_bytes = 2 * (bb.n_txt_tokens + bb.n_img) * bb.d_model * 8
        for budget, want in [(1, [1] * 5), (2 * case_bytes, [2, 2, 1])]:
            sizes.clear()
            monkeypatch.setattr(pipeline_mod, "_STACK_BYTES", budget)
            split = run_group(configs)
            assert sizes == want
            for got, ref in zip(split, whole):
                assert_same_result(got, ref)
