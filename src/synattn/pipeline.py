"""Paired source/target denoising with adaptive attention sharing.

Both branches start from the same deterministic noise and walk the same
timestep loop. At every step the current positional weight ``w`` is applied
to all rotary embeddings of both branches; in shared blocks the target
branch additionally reads the source branch's image keys/values. After the
block loop the per-block branch similarities are aggregated into the step's
editing measurement, which sets ``w`` for the next step (first step: w = 1,
or the fixed override for ablations). One Euler update per branch closes
the step.

The source branch never reads target state: with a fixed override weight
its trajectory is independent of the target prompt and of which blocks
share. Under the adaptive schedule the measurement couples the branches
through ``w`` alone.

Cases whose :class:`BackboneConfig` is the same, every field and the seed
included, run as one stacked computation: the weights, the initial noise
and each distinct prompt's encoding are drawn once for the group, each
branch is a ``(B, n, d)`` stack with one ``w`` per case, and each layer
makes one numpy call for the whole stack. Every case still gets its own
BLAS calls, so its bytes are the ones it gets alone. A case that aborts
stores its exception and leaves the stack; the others carry on.
:func:`run_edit` is the same engine on one case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .attention import grid_position_ids
from .backbone import (
    BackboneConfig,
    BackboneParams,
    block_forward,
    denoise_step,
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
# case always fits. A toy case takes 20 KB and a FLUX-width one 13 MB.
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
        if self.w_override is not None and not 0.0 <= self.w_override <= 1.0:
            raise ValueError(f"w_override {self.w_override} outside [0, 1]")


@dataclass(frozen=True)
class EditingTrace:
    """Step records ordered from t = T down to 1, plus the config they came from."""

    steps: tuple[StepRecord, ...]
    config: PipelineConfig


EditResult = tuple[np.ndarray, np.ndarray, EditingTrace]


def _run_stack(
    configs: Sequence[PipelineConfig], params: BackboneParams, noise: np.ndarray,
    text: dict[str, np.ndarray],
) -> list[EditResult | Exception]:
    """The paired loop for configs sharing ``params``, one row of each stack per case."""
    bb = params.config
    n_txt = bb.n_txt_tokens
    results: list[EditResult | Exception | None] = [None] * len(configs)
    records: list[list[StepRecord]] = [[] for _ in configs]
    rows = np.arange(len(configs))  # the config index of each stacked row
    txt_src = np.stack([text[c.src_prompt] for c in configs])
    txt_tgt = np.stack([text[c.tgt_prompt] for c in configs])
    # read-only views of the one noise draw; each step's update makes new arrays
    x_src = x_tgt = np.broadcast_to(noise, (len(configs), *noise.shape))
    w = np.array([1.0 if c.w_override is None else float(c.w_override) for c in configs])
    positions = grid_position_ids(*bb.grid)

    # A non-finite value is reported once per case, as its abort, not as numpy warnings.
    with np.errstate(all="ignore"):
        for t in range(bb.n_steps, 0, -1):
            table = rotary_table(positions, w, bb.rope)
            src = np.concatenate([txt_src, x_src], axis=1)
            tgt = np.concatenate([txt_tgt, x_tgt], axis=1)
            blocks: list[list] = [[] for _ in rows]
            for l in range(bb.n_blocks):
                src, src_attn, src_kv = block_forward(src, l, params, table)
                shared = src_kv if l in bb.shared_blocks else None
                tgt, tgt_attn, _ = block_forward(tgt, l, params, table, shared)
                src_ok = np.isfinite(src).all(axis=(1, 2))
                keep = src_ok & np.isfinite(tgt).all(axis=(1, 2))
                cos = row_cosines(src_attn, tgt_attn)
                s_txt = cos[:, :n_txt].mean(axis=1)
                s_img = cos[:, n_txt:].mean(axis=1)
                for j, i in enumerate(rows):
                    if not keep[j]:
                        branch = "target" if src_ok[j] else "source"
                        results[i] = NumericalAbortError(t, l, f"{branch} branch stream")
                        continue
                    try:
                        blocks[j].append(block_similarity(l, float(s_txt[j]), float(s_img[j])))
                    except DegenerateSimilarityError as exc:
                        results[i] = exc
                        keep[j] = False
                if not keep.all():  # the failed cases leave the stack
                    if not keep.any():
                        return results
                    rows, src, tgt, txt_src, txt_tgt, x_src, x_tgt, w = (
                        a[keep] for a in (rows, src, tgt, txt_src, txt_tgt, x_src, x_tgt, w)
                    )
                    blocks = [b for b, k in zip(blocks, keep) if k]
                    table = rotary_table(positions, w, bb.rope)

            x_src = denoise_step(x_src, src[:, n_txt:], t, bb.n_steps)
            x_tgt = denoise_step(x_tgt, tgt[:, n_txt:], t, bb.n_steps)
            for j, i in enumerate(rows):
                m_t = editing_measurement(blocks[j])
                records[i].append(
                    StepRecord(timestep=t, blocks=tuple(blocks[j]), m_mean=m_t,
                               weight_applied=float(w[j]))
                )
                # m_t is finite: every ratio has a finite s_img and |s_txt| >= 1e-6
                if t > 1 and configs[i].w_override is None:
                    w[j] = adaptive_weight(m_t, configs[i].thresholds)

    for j, i in enumerate(rows):
        results[i] = (x_src[j], x_tgt[j], EditingTrace(steps=tuple(records[i]), config=configs[i]))
    return results


def _run_group(configs: Sequence[PipelineConfig]) -> list[EditResult | Exception]:
    """Run configs that share one backbone, drawing its weights, noise and prompts once.

    Each result is the case's final states and trace, or the exception it
    raised. The cases run in sub-batches of at most ``_STACK_BYTES`` of state.
    """
    bb = configs[0].backbone
    try:
        params = init_backbone(bb)
    except Exception as exc:  # noqa: BLE001 - every case of the group raised it
        return [exc] * len(configs)
    results: list[EditResult | Exception | None] = [None] * len(configs)
    text: dict[str, np.ndarray | Exception] = {}
    ready = []
    for i, cfg in enumerate(configs):
        for prompt in (cfg.src_prompt, cfg.tgt_prompt):
            if prompt not in text:
                try:
                    text[prompt] = encode_prompt(prompt, bb)
                except Exception as exc:  # noqa: BLE001 - this case's own failure
                    text[prompt] = exc
            if isinstance(text[prompt], Exception):
                results[i] = text[prompt]
                break
        else:
            ready.append(i)
    if not ready:
        return results
    try:
        noise = initial_noise(bb)
    except Exception as exc:  # noqa: BLE001 - every remaining case raised it
        return [exc if r is None else r for r in results]
    case_bytes = 2 * (bb.n_txt_tokens + bb.n_img) * bb.d_model * 8
    per_stack = max(1, _STACK_BYTES // case_bytes)
    for start in range(0, len(ready), per_stack):
        chunk = ready[start:start + per_stack]
        for i, result in zip(chunk, _run_stack([configs[i] for i in chunk], params, noise, text)):
            results[i] = result
    return results


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

    A failing case stores its exception at that index, the exception it
    raises alone, and the batch continues.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("run_batch needs at least one config")
    results: list[EditingTrace | Exception] = [None] * len(configs)
    for indices in _backbone_groups(configs):
        for i, result in zip(indices, _run_group([configs[i] for i in indices])):
            results[i] = result if isinstance(result, Exception) else result[2]
    return results
