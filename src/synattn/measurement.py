"""Per-step editing measurement and the adaptive positional weight.

At every denoising step the source and target branches produce per-block
attention outputs. For block ``l`` we record the cosine similarity of the
text-token outputs (how far apart the prompts pull the branches) and of the
image-token outputs (how aligned the generated content still is). Their
ratio per block, averaged over all blocks, is the step's editing
measurement: values near 1 mean the visual change tracks the prompt change,
larger values mean under-editing, smaller values over-editing.

The measurement from the previous step drives a piecewise-linear gate on
the rotary-embedding strength: above ``m_max`` positions are dropped
entirely (w=0), below ``m_min`` they are fully enforced (w=1), in between
the weight interpolates linearly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateSimilarityError",
    "Thresholds",
    "BlockSimilarity",
    "StepRecord",
    "block_similarity",
    "editing_measurement",
    "adaptive_weight",
]

# Text similarities this small mean the branches no longer share any scale;
# a ratio would be meaningless, so we fail loudly instead of clamping.
DEGENERATE_S_TXT = 1e-6


class DegenerateSimilarityError(ValueError):
    """Text similarity too close to zero for the ratio to mean anything."""


@dataclass(frozen=True)
class Thresholds:
    """Band of acceptable editing measurements, ``m_min < m_max``."""

    m_min: float = 0.9
    m_max: float = 1.0

    def __post_init__(self) -> None:
        for name in ("m_min", "m_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.m_min < self.m_max:
            raise ValueError(f"m_min {self.m_min} must be below m_max {self.m_max}")


@dataclass(frozen=True)
class BlockSimilarity:
    """One block's branch similarities and their ratio."""

    block_index: int
    s_txt: float
    s_img: float
    ratio: float


@dataclass(frozen=True)
class StepRecord:
    """One timestep of the trace: per-block similarities, their mean, the weight used."""

    timestep: int
    blocks: tuple[BlockSimilarity, ...]
    m_mean: float
    weight_applied: float


def block_similarity(block_index: int, s_txt: float, s_img: float) -> BlockSimilarity:
    """Build a block record; the one place a degenerate text similarity is refused."""
    if abs(s_txt) < DEGENERATE_S_TXT:
        raise DegenerateSimilarityError(
            f"block {block_index}: |s_txt| = {abs(s_txt):.3e} is below {DEGENERATE_S_TXT:.0e}"
        )
    return BlockSimilarity(
        block_index=int(block_index),
        s_txt=float(s_txt),
        s_img=float(s_img),
        ratio=float(s_img) / float(s_txt),
    )


def editing_measurement(records) -> float:
    """Mean of the ratios of one step's block records, each from :func:`block_similarity`."""
    records = list(records)
    if not records:
        raise ValueError("editing measurement needs at least one block record")
    return sum(rec.ratio for rec in records) / len(records)


def adaptive_weight(m_prev: float, th: Thresholds) -> float:
    """Positional weight for the next step, from the previous measurement.

    0 above ``m_max`` (drop positions, push the edit), 1 below ``m_min``
    (full positional guidance), linear in between. Non-increasing in
    ``m_prev`` and always in [0, 1]; both band edges land on the linear
    branch, whose value coincides with the saturated one there.
    """
    if not np.isfinite(m_prev):
        raise ValueError(f"measurement must be finite, got {m_prev}")
    if m_prev > th.m_max:
        return 0.0
    if m_prev < th.m_min:
        return 1.0
    return (th.m_max - m_prev) / (th.m_max - th.m_min)
