"""Paired source/target denoising with adaptive attention sharing.

Both branches start from the same deterministic noise and walk the same
timestep loop. At every step the current positional weight ``w`` is applied
to all rotary embeddings of both branches; in shared blocks the target
branch additionally reads the source branch's image keys/values. The block
loop ends in one Euler update per branch. One pass over the live cases then
closes the step's editing measurement, each case's blocks in order: its
first failure aborts the case, else its per-block similarities set ``w``
for the next step (first step: w = 1, or the fixed override for ablations).

The source branch never reads target state: with a fixed override weight
its trajectory is independent of the target prompt and of which blocks
share. Under the adaptive schedule the measurement couples the branches
through ``w`` alone.

Cases whose :class:`BackboneConfig` is the same, every field and the seed
included, run as one stacked computation: the weights, the initial noise
and each distinct prompt's encoding are drawn once for the group, and both
branches of every case are one ``(2, B, n, d)`` pair, axis 0 the source
and the target, with one ``w`` per case. Each layer makes one numpy call
for the whole pair, one block call per block; a shared block hands the
whole pair the source's image keys/values, so the source attends to its
own and the target to the source's. Every branch of every case still gets
its own BLAS calls, so its bytes are the ones it gets alone. A case that
aborts numerically stores its exception and its rows stay in the pair,
masked: computed but never read again, while the others carry on. Any other
failure in a group (a draw that cannot be allocated, say) is every case's
of that group. A prompt with no tokens is refused when the
:class:`PipelineConfig` is built. :func:`run_edit` is the same engine on
one case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .attention import grid_position_ids, image_kv
from .backbone import (
    BackboneConfig,
    block_forward,
    encode_prompt,
    init_backbone,
    initial_noise,
)
from .measurement import (
    DegenerateSimilarityError,
    StepRecord,
    Thresholds,
    adaptive_weight,
    block_similarity,
    editing_measurement,
)
from .numerics import row_cosines
from .rope import rotary_table

__all__ = [
    "PipelineConfig",
    "EditingTrace",
    "NumericalAbortError",
    "run_edit",
    "run_batch",
]

# Bytes of branch state (both branches' [text; image] stacks) one stacked
# computation may hold; a larger group runs as several sub-batches, and one
# case always fits. A toy case takes 20 KB and a FLUX-width one 13 MB. The
# attention outputs held for a step's measurement have the same bound, and
# one block's always fit: 160 KB for a toy step, 26 MB at FLUX width with 2
# blocks (a real 57-block FLUX step closes its measurement in parts).
_STACK_BYTES = 1 << 25


class NumericalAbortError(RuntimeError):
    """A non-finite value appeared; names the step and block it came from."""

    def __init__(self, timestep: int, block_index: int, detail: str) -> None:
        super().__init__(
            f"non-finite values at timestep {timestep}, block {block_index}: {detail}"
        )
        self.timestep = timestep
        self.block_index = block_index


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one edit run depends on."""

    src_prompt: str
    tgt_prompt: str
    backbone: BackboneConfig = BackboneConfig()
    thresholds: Thresholds = Thresholds()
    w_override: float | None = None

    def __post_init__(self) -> None:
        for key in ("src_prompt", "tgt_prompt"):
            if not getattr(self, key).split():
                raise ValueError(f"{key} must contain at least one token")
        if self.w_override is not None and not 0.0 <= self.w_override <= 1.0:
            raise ValueError(f"w_override {self.w_override} outside [0, 1]")


@dataclass(frozen=True)
class EditingTrace:
    """Step records ordered from t = T down to 1, plus the config they came from."""

    steps: tuple[StepRecord, ...]
    config: PipelineConfig


EditResult = tuple[np.ndarray, np.ndarray, EditingTrace]


def _run_stack(
    configs: Sequence[PipelineConfig], weights: np.ndarray, noise: np.ndarray,
    text: dict[str, np.ndarray],
) -> list[EditResult | Exception]:
    """The paired loop for configs sharing ``weights``, one row of each branch's stack per case.

    Each block records which branches are still finite and copies its
    attention output into one held buffer, branch first, ``(2, L, B, n, d)``,
    of at most ``max(one block, _STACK_BYTES)``. A flush, when it is full or
    the step's blocks are done, writes every held block's ``s_txt`` and
    ``s_img`` from one :func:`row_cosines` call; the toy and the 2-block
    FLUX-width shapes flush once per step. After the Euler update, one pass
    over the live cases walks each case's blocks in order, the first failure
    winning (a non-finite block, else a degenerate ``s_txt``).
    """
    bb = configs[0].backbone
    n_txt = bb.n_txt_tokens
    n_blocks = bb.n_blocks
    results: list[EditResult | Exception | None] = [None] * len(configs)
    records: list[list[StepRecord]] = [[] for _ in configs]
    live = list(range(len(configs)))  # the cases that have not aborted
    # axis 0 of every pair is (source, target), axis 1 the case
    txt = np.array([[text[c.src_prompt] for c in configs], [text[c.tgt_prompt] for c in configs]])
    # read-only views of the one noise draw; each step's update makes a new array
    x = np.broadcast_to(noise, (2, len(configs), *noise.shape))
    w = np.array([1.0 if c.w_override is None else float(c.w_override) for c in configs])
    positions = grid_position_ids(*bb.grid)
    block_shape = (len(configs), n_txt + bb.n_img, bb.d_model)
    n_held = min(n_blocks, max(1, _STACK_BYTES // (2 * 8 * np.prod(block_shape))))
    # branch first, so held[0] and held[1] are contiguous and row_cosines copies nothing
    held = np.empty((2, n_held, *block_shape))
    finite = np.empty((n_blocks, 2, len(configs)), dtype=bool)  # block, branch, case
    s_txt, s_img = np.empty((2, n_blocks, len(configs)))  # block, case

    # A non-finite value is reported once per case, as its abort, not as numpy warnings.
    # An aborted case's rows stay in the pair, computed but never read again.
    with np.errstate(all="ignore"):
        for t in range(bb.n_steps, 0, -1):
            table = rotary_table(positions, w, bb.rope)
            pair = np.concatenate([txt, x], axis=2)
            for l in range(n_blocks):
                # a shared block hands both branches the source's image keys/values:
                # the source attends to its own, the target to the source's
                shared = None
                if l in bb.shared_blocks:
                    shared = image_kv(pair[0, :, n_txt:], weights[l], table)
                pair, attn = block_forward(pair, weights[l], bb, table, shared)
                j = l % n_held
                held[:, j] = attn
                np.isfinite(pair).all(axis=(2, 3), out=finite[l])
                attn = None
                if j + 1 < n_held and l + 1 < n_blocks:
                    continue
                # the buffer is full or the step's blocks are done: flush blocks l - j .. l
                cos = row_cosines(held[0, :j + 1], held[1, :j + 1])
                # sum / count is np.mean's own arithmetic, without its overhead
                np.divide(cos[..., :n_txt].sum(axis=2), n_txt, out=s_txt[l - j:l + 1])
                np.divide(cos[..., n_txt:].sum(axis=2), bb.n_img, out=s_img[l - j:l + 1])

            # the Euler update toward the step's output
            x = x + (pair[:, :, n_txt:] - x) / bb.n_steps
            # close the step: each live case's blocks in order, its first failure winning
            ok, txt_sim, img_sim = finite.tolist(), s_txt.tolist(), s_img.tolist()
            still_live = []
            for i in live:
                blocks = []
                for l in range(n_blocks):
                    src_ok, tgt_ok = ok[l][0][i], ok[l][1][i]
                    if not (src_ok and tgt_ok):
                        branch = "target" if src_ok else "source"
                        results[i] = NumericalAbortError(t, l, f"{branch} branch stream")
                        break
                    try:
                        blocks.append(block_similarity(l, txt_sim[l][i], img_sim[l][i]))
                    except DegenerateSimilarityError as exc:
                        results[i] = exc
                        break
                if results[i] is not None:
                    continue
                m_t = editing_measurement(blocks)
                records[i].append(StepRecord(t, tuple(blocks), m_t, float(w[i])))
                # m_t is finite: every ratio has a finite s_img and a non-degenerate s_txt
                if t > 1 and configs[i].w_override is None:
                    w[i] = adaptive_weight(m_t, configs[i].thresholds)
                still_live.append(i)
            live = still_live
            if not live:
                return results

    for i in live:
        results[i] = (x[0, i], x[1, i], EditingTrace(steps=tuple(records[i]), config=configs[i]))
    return results


def _run_group(configs: Sequence[PipelineConfig]) -> list[EditResult | Exception]:
    """Run configs that share one backbone, drawing its weights, noise and prompts once.

    Each result is the case's final states and trace, or its exception: a
    numerical abort is the case's own, and any other failure (a weight,
    prompt or noise draw that cannot be allocated, say) is every case's.
    The cases run in sub-batches of at most ``_STACK_BYTES`` of state.
    """
    try:
        bb = configs[0].backbone
        weights = init_backbone(bb)
        prompts = dict.fromkeys(p for c in configs for p in (c.src_prompt, c.tgt_prompt))
        text = {p: encode_prompt(p, bb) for p in prompts}
        noise = initial_noise(bb)
        case_bytes = 2 * (bb.n_txt_tokens + bb.n_img) * bb.d_model * 8
        per_stack = max(1, _STACK_BYTES // case_bytes)
        return [result for start in range(0, len(configs), per_stack)
                for result in _run_stack(configs[start:start + per_stack], weights, noise, text)]
    except Exception as exc:  # noqa: BLE001 - every case of the group raised it
        return [exc] * len(configs)


def _backbone_groups(configs: Sequence[PipelineConfig]) -> list[list[int]]:
    """Input indices of the configs sharing each backbone, in order of first appearance."""
    groups: dict[BackboneConfig, list[int]] = {}
    for i, cfg in enumerate(configs):
        groups.setdefault(cfg.backbone, []).append(i)
    return list(groups.values())


def run_edit(config: PipelineConfig) -> EditResult:
    """Run the full paired denoising loop.

    Returns the final source and target image-token matrices and the trace
    of per-step similarities, measurements, and applied weights. This is the
    stacked engine on one case; the case's exception is raised.
    """
    (result,) = _run_group([config])
    if isinstance(result, Exception):
        raise result
    return result


def run_batch(configs: Sequence[PipelineConfig]) -> list[EditingTrace | Exception]:
    """Each config's trace, in input order, from one stacked computation per backbone.

    A failing case stores its exception at that index and the batch
    continues: a numerical abort at the case's own index, the exception it
    raises alone, and any other failure at every index of its backbone group.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("run_batch needs at least one config")
    results: list[EditingTrace | Exception] = [None] * len(configs)
    for indices in _backbone_groups(configs):
        for i, result in zip(indices, _run_group([configs[i] for i in indices])):
            results[i] = result if isinstance(result, Exception) else result[2]
    return results
