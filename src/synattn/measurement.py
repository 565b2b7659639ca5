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

:func:`close_step` makes a step's record, for the engine and the trace
parser alike; a step it cannot measure is a :class:`NumericalAbortError`
naming its timestep and first failing block.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

__all__ = [
    "NumericalAbortError",
    "Thresholds",
    "BlockSimilarity",
    "StepRecord",
    "close_step",
    "adaptive_weight",
]

# Text similarities this small mean the branches no longer share any scale;
# a ratio would be meaningless, so we fail loudly instead of clamping.
DEGENERATE_S_TXT = 1e-6


class NumericalAbortError(RuntimeError):
    """A step could not be measured; names the step and block it came from."""

    def __init__(self, timestep: int, block_index: int, detail: str,
                 problem: str = "non-finite values") -> None:
        super().__init__(f"{problem} at timestep {timestep}, block {block_index}: {detail}")
        self.timestep, self.block_index, self.detail, self.problem = (
            timestep, block_index, detail, problem)

    def __reduce__(self):  # rebuilt from its four arguments, so it pickles
        return type(self), (self.timestep, self.block_index, self.detail, self.problem)


@dataclass(frozen=True)
class Thresholds:
    """Band of acceptable editing measurements, ``m_min < m_max``."""

    m_min: float = 0.9
    m_max: float = 1.0

    def __post_init__(self) -> None:
        for name in ("m_min", "m_max"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
            object.__setattr__(self, name, float(value))
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


def close_step(timestep: int, s_txt, s_img, weight: float, finite) -> StepRecord:
    """One step's record: its blocks' ratios ``s_img / s_txt``, in order, and their mean.

    ``finite[l]`` says whether block ``l``'s (source, target) states are
    finite. The first failing block raises :class:`NumericalAbortError`
    naming ``timestep`` and the block: a non-finite state, else a non-finite
    similarity, else ``|s_txt|`` below ``DEGENERATE_S_TXT``.
    """
    blocks = []
    for l, (txt, img, (src_ok, tgt_ok)) in enumerate(zip(s_txt, s_img, finite, strict=True)):
        if not (src_ok and tgt_ok):
            branch = "target" if src_ok else "source"
            raise NumericalAbortError(timestep, l, f"{branch} branch stream")
        if not (math.isfinite(txt) and math.isfinite(img)):
            raise NumericalAbortError(timestep, l, f"s_txt = {txt!r}, s_img = {img!r}")
        if abs(txt) < DEGENERATE_S_TXT:
            raise NumericalAbortError(
                timestep, l, f"|s_txt| = {abs(txt):.3e} is below {DEGENERATE_S_TXT:.0e}",
                "degenerate text similarity",
            )
        blocks.append(BlockSimilarity(l, txt, img, img / txt))
    return StepRecord(timestep, tuple(blocks), sum(b.ratio for b in blocks) / len(blocks), weight)


def adaptive_weight(m_prev: float, th: Thresholds) -> float:
    """Positional weight for the next step, from the previous measurement.

    0 above ``m_max`` (drop positions, push the edit), 1 below ``m_min``
    (full positional guidance), linear in between. Non-increasing in
    ``m_prev`` and always in [0, 1]; both band edges land on the linear
    branch, whose value coincides with the saturated one there.
    """
    if not math.isfinite(m_prev):
        raise ValueError(f"measurement must be finite, got {m_prev}")
    if m_prev > th.m_max:
        return 0.0
    if m_prev < th.m_min:
        return 1.0
    return (th.m_max - m_prev) / (th.m_max - th.m_min)
