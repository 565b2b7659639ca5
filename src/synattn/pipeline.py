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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .attention import grid_position_ids
from .backbone import (
    BackboneConfig,
    block_forward,
    denoise_step,
    encode_prompt,
    init_backbone,
    initial_noise,
)
from .measurement import (
    StepRecord,
    Thresholds,
    adaptive_weight,
    block_similarity,
    editing_measurement,
)
from .numerics import cosine_similarity
from .rope import rotary_table

__all__ = [
    "PipelineConfig",
    "EditingTrace",
    "NumericalAbortError",
    "run_edit",
    "run_batch",
]


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


def _finite_or_abort(tokens: np.ndarray, t: int, block: int, branch: str) -> None:
    if not np.all(np.isfinite(tokens)):
        raise NumericalAbortError(t, block, f"{branch} branch stream")


def run_edit(config: PipelineConfig) -> tuple[np.ndarray, np.ndarray, EditingTrace]:
    """Run the full paired denoising loop.

    Returns the final source and target image-token matrices and the trace
    of per-step similarities, measurements, and applied weights.
    """
    bb = config.backbone
    params = init_backbone(bb)
    txt_src = encode_prompt(config.src_prompt, bb)
    txt_tgt = encode_prompt(config.tgt_prompt, bb)
    x_src = initial_noise(bb)
    x_tgt = x_src.copy()

    n_txt = bb.n_txt_tokens
    positions = grid_position_ids(*bb.grid)
    records: list[StepRecord] = []
    w = 1.0 if config.w_override is None else float(config.w_override)
    m_prev: float | None = None

    # A non-finite value is reported once, by _finite_or_abort, not as numpy warnings.
    with np.errstate(all="ignore"):
        for t in range(bb.n_steps, 0, -1):
            if m_prev is not None and config.w_override is None:
                w = adaptive_weight(m_prev, config.thresholds)

            table = rotary_table(positions, w, bb.rope)
            src = np.vstack([txt_src, x_src])
            tgt = np.vstack([txt_tgt, x_tgt])
            block_records = []
            for l in range(bb.n_blocks):
                src, src_attn, src_kv = block_forward(src, l, params, table)
                shared = src_kv if l in bb.shared_blocks else None
                tgt, tgt_attn, _ = block_forward(tgt, l, params, table, shared)
                _finite_or_abort(src, t, l, "source")
                _finite_or_abort(tgt, t, l, "target")
                s_txt = cosine_similarity(src_attn[:n_txt], tgt_attn[:n_txt])
                s_img = cosine_similarity(src_attn[n_txt:], tgt_attn[n_txt:])
                block_records.append(block_similarity(l, s_txt, s_img))

            m_t = editing_measurement(block_records)
            records.append(
                StepRecord(
                    timestep=t,
                    blocks=tuple(block_records),
                    m_mean=m_t,
                    weight_applied=w,
                )
            )
            x_src = denoise_step(x_src, src[n_txt:], t, bb.n_steps)
            x_tgt = denoise_step(x_tgt, tgt[n_txt:], t, bb.n_steps)
            m_prev = m_t

    return x_src, x_tgt, EditingTrace(steps=tuple(records), config=config)


def run_batch(configs: Sequence[PipelineConfig]) -> list[EditingTrace | Exception]:
    """Independent :func:`run_edit` per config, run in turn, traces in input order.

    A failing case stores its exception at that index and the batch
    continues.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("run_batch needs at least one config")
    results: list[EditingTrace | Exception] = []
    for cfg in configs:
        try:
            results.append(run_edit(cfg)[2])
        except Exception as exc:  # noqa: BLE001 - reported per index by contract
            results.append(exc)
    return results
