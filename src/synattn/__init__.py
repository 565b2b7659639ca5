"""Desk-scale attention synergy lab.

Weight-modulated rotary position embeddings, source-to-target attention
sharing, a per-step editing measurement, and the adaptive schedule that
ties them together, all running on a deterministic toy transformer so
every number is reproducible and checkable against brute-force oracles.
"""

from ._version import __version__
from .attention import (
    attention_map,
    attention_weights,
    grid_position_ids,
    split_heads,
)
from .backbone import (
    FLUX_SHARED_BLOCKS,
    BackboneConfig,
    block_forward,
    derive_seed,
    encode_prompt,
    fnv1a64,
    init_backbone,
    init_block,
    initial_noise,
)
from .measurement import (
    BlockSimilarity,
    NumericalAbortError,
    StepRecord,
    Thresholds,
    adaptive_weight,
    close_step,
)
from .numerics import ShapeError, softmax_rows
from .pipeline import EditingTrace, PipelineConfig, run_batch, run_edit
from .rope import rotary_table

__all__ = [
    "__version__",
    "ShapeError",
    "softmax_rows",
    "rotary_table",
    "grid_position_ids",
    "split_heads",
    "attention_weights",
    "attention_map",
    "Thresholds",
    "BlockSimilarity",
    "StepRecord",
    "NumericalAbortError",
    "close_step",
    "adaptive_weight",
    "BackboneConfig",
    "derive_seed",
    "fnv1a64",
    "FLUX_SHARED_BLOCKS",
    "init_block",
    "init_backbone",
    "encode_prompt",
    "initial_noise",
    "block_forward",
    "PipelineConfig",
    "EditingTrace",
    "run_edit",
    "run_batch",
]
