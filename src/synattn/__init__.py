"""Desk-scale attention synergy lab.

Weight-modulated rotary position embeddings, source-to-target attention
sharing, a per-step editing measurement, and the adaptive schedule that
ties them together, all running on a deterministic toy transformer so
every number is reproducible and checkable against brute-force oracles.
"""

from ._version import __version__
from .attention import (
    BlockProjection,
    attention_map,
    attention_weights,
    grid_position_ids,
    image_kv,
    merge_heads,
    split_heads,
)
from .backbone import (
    FLUX_SHARED_BLOCKS,
    BackboneConfig,
    BackboneParams,
    BlockParams,
    SplitMix64,
    block_forward,
    denoise_step,
    derive_seed,
    encode_prompt,
    fnv1a64,
    init_backbone,
    init_block,
    initial_noise,
)
from .measurement import (
    BlockSimilarity,
    DegenerateSimilarityError,
    StepRecord,
    Thresholds,
    adaptive_weight,
    block_similarity,
    editing_measurement,
)
from .numerics import ShapeError, softmax_rows
from .pipeline import (
    EditingTrace,
    NumericalAbortError,
    PipelineConfig,
    run_batch,
    run_edit,
    run_groups,
)
from .rope import (
    RopeConfig,
    apply_rope,
    frequencies,
    oracle_rotation_matrix,
    rotary_table,
    scaled_inner_product,
)

__all__ = [
    "__version__",
    "ShapeError",
    "softmax_rows",
    "RopeConfig",
    "frequencies",
    "apply_rope",
    "rotary_table",
    "oracle_rotation_matrix",
    "scaled_inner_product",
    "BlockProjection",
    "grid_position_ids",
    "split_heads",
    "merge_heads",
    "attention_weights",
    "image_kv",
    "attention_map",
    "Thresholds",
    "BlockSimilarity",
    "StepRecord",
    "DegenerateSimilarityError",
    "block_similarity",
    "editing_measurement",
    "adaptive_weight",
    "BackboneConfig",
    "BackboneParams",
    "BlockParams",
    "SplitMix64",
    "derive_seed",
    "fnv1a64",
    "FLUX_SHARED_BLOCKS",
    "init_block",
    "init_backbone",
    "encode_prompt",
    "initial_noise",
    "block_forward",
    "denoise_step",
    "PipelineConfig",
    "EditingTrace",
    "NumericalAbortError",
    "run_edit",
    "run_groups",
    "run_batch",
]
