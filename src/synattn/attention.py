"""Joint text+image multi-head attention for one transformer block.

A branch's state is one ``[text; image]`` matrix: its first ``n_txt`` rows
are text tokens, the rest image tokens laid out row-major on a grid
(:func:`grid_position_ids`). The forward-pass functions also take a stack
of such matrices, ``(..., n, d)``, one per case, and treat each case as if
it ran alone: products are ``@`` against the shared ``(d, d)`` projections, which
numpy carries out as one BLAS call per case, so a case's bytes do not depend
on what it is stacked with. Attention always runs over the whole matrix.
Image-token queries and keys are rotated by a :class:`~synattn.rope.RotaryTable`
built at strength ``w``; text tokens are never rotated.

:func:`joint_attention` is the one attention entry point. Handed another
branch's :func:`image_kv`, it is the editing primitive: target queries
attend to target text keys/values but to the *source* image keys/values,
so target tokens retrieve visual content from the source branch. With
``w = 0`` the rotation is the identity and retrieval is purely semantic;
with ``w = 1`` positional proximity shapes it fully. Without it, the branch
attends to its own image keys/values. The denoising loop calls it through
:func:`synattn.backbone.block_forward`, which hands the source branch's
image keys/values to the target instead of projecting them a second time.
:func:`attention_map` reads one target query's weights from the same
arithmetic.

Outputs are returned before the output projection is applied; the block
wrapper in :mod:`synattn.backbone` owns the projection and residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import ShapeError, softmax_rows
from .rope import RopeConfig, RotaryTable, apply_rotary, rotary_table

__all__ = [
    "BlockProjection",
    "grid_position_ids",
    "split_heads",
    "merge_heads",
    "attention_weights",
    "image_kv",
    "joint_attention",
    "attention_map",
]


def grid_position_ids(height: int, width: int) -> np.ndarray:
    """Canonical position ids for a row-major grid: token r -> (0, r // width, r % width)."""
    if height < 1 or width < 1:
        raise ValueError(f"grid must be at least 1x1, got {height}x{width}")
    rows, cols = np.divmod(np.arange(height * width, dtype=np.float64), float(width))
    return np.column_stack([np.zeros(height * width), rows, cols])


@dataclass(frozen=True)
class BlockProjection:
    """Square projection matrices of one attention block.

    Entries are not checked for finiteness: drawn weights cannot be
    non-finite, and a hand-built non-finite one surfaces where the values
    are used, as the engine's per-block abort or :func:`attention_map`'s
    refusal.
    """

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray

    def __post_init__(self) -> None:
        for name in ("wq", "wk", "wv", "wo"):
            m = np.asarray(getattr(self, name), dtype=np.float64)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ShapeError(f"{name} must be square, got shape {m.shape}")
            object.__setattr__(self, name, m)


def split_heads(tokens: np.ndarray, num_heads: int) -> np.ndarray:
    """(..., n, d_model) -> (..., num_heads, n, head_dim), contiguous chunks per head."""
    *lead, n, d = tokens.shape
    if d % num_heads:
        raise ShapeError(f"d_model {d} not divisible by {num_heads} heads")
    return tokens.reshape(*lead, n, num_heads, d // num_heads).swapaxes(-3, -2)


def merge_heads(heads: np.ndarray) -> np.ndarray:
    """Inverse of :func:`split_heads`."""
    *lead, nh, n, hd = heads.shape
    return heads.swapaxes(-3, -2).reshape(*lead, n, nh * hd)


def image_kv(
    image: np.ndarray, proj: BlockProjection, table: RotaryTable
) -> tuple[np.ndarray, np.ndarray]:
    """Rotated image keys and image values of one branch: what a shared block hands the target."""
    return apply_rotary(image @ proj.wk, table), image @ proj.wv


def _queries(tokens: np.ndarray, n_txt: int, wq: np.ndarray, table: RotaryTable) -> np.ndarray:
    """Queries of a ``[text; image]`` matrix, the image rows rotated by ``table``."""
    q = tokens @ wq
    q[..., n_txt:, :] = apply_rotary(q[..., n_txt:, :], table)
    return q


def attention_weights(q: np.ndarray, k: np.ndarray, scale: float) -> np.ndarray:
    """Post-softmax weights of stacked heads: ``(..., h, n, hd)`` queries, ``(..., h, m, hd)`` keys.

    Row ``i`` of head ``j`` is query ``i``'s distribution over the keys. The
    only place attention logits are formed and normalized; the forward pass
    and :func:`attention_map` both call it, so a dumped map is the forward
    pass's own arithmetic.
    """
    # K^T as a contiguous copy: a strided transpose changes the output bytes.
    logits = np.matmul(q, np.ascontiguousarray(k.swapaxes(-1, -2))) * scale
    return softmax_rows(logits)


def _multi_head(q: np.ndarray, k: np.ndarray, v: np.ndarray, rope: RopeConfig) -> np.ndarray:
    scale = 1.0 / math.sqrt(rope.head_dim)
    weights = attention_weights(
        split_heads(q, rope.num_heads), split_heads(k, rope.num_heads), scale
    )
    return merge_heads(np.matmul(weights, split_heads(v, rope.num_heads)))


def joint_attention(
    tokens: np.ndarray,
    n_txt: int,
    proj: BlockProjection,
    rope: RopeConfig,
    table: RotaryTable,
    kv_img: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Attention of one branch's ``[text; image]`` matrix, its first ``n_txt`` rows text.

    ``tokens`` is ``(n, d)`` or a stack ``(..., n, d)``. ``table`` rotates the
    image queries (and the image keys this call projects itself). ``kv_img``
    is another branch's :func:`image_kv`, taken in place of the branch's own.
    Returns the output before the output projection, shaped like ``tokens``,
    and the image keys/values it attended to.
    """
    q = _queries(tokens, n_txt, proj.wq, table)
    if kv_img is None:
        kv_img = image_kv(tokens[..., n_txt:, :], proj, table)
    text = tokens[..., :n_txt, :]
    k = np.concatenate([text @ proj.wk, kv_img[0]], axis=-2)
    v = np.concatenate([text @ proj.wv, kv_img[1]], axis=-2)
    return _multi_head(q, k, v, rope), kv_img


def attention_map(
    tokens: np.ndarray,
    src_image: np.ndarray,
    grid: tuple[int, int],
    proj: BlockProjection,
    rope: RopeConfig,
    w: float,
    query_cell: tuple[int, int],
) -> np.ndarray:
    """Where one target image query looks inside the source image.

    ``tokens`` is the target's ``[text; image]`` matrix and ``src_image`` the
    source's image rows, both on the row-major ``grid``. Takes the
    post-softmax attention weights of the query token at ``query_cell``,
    averaged over heads, restricted to source image keys and renormalized
    to sum to 1. Returned as a (height, width) grid.
    """
    h, wid = int(grid[0]), int(grid[1])
    r, c = int(query_cell[0]), int(query_cell[1])
    if not (0 <= r < h and 0 <= c < wid):
        raise ValueError(f"query cell ({r}, {c}) outside {h}x{wid} grid")
    n_txt = tokens.shape[0] - h * wid
    if n_txt < 0 or src_image.shape[0] != h * wid:
        raise ShapeError(
            f"{tokens.shape[0]} target rows and {src_image.shape[0]} source image rows "
            f"do not fill a {h}x{wid} grid"
        )
    if tokens.shape[1] != rope.d_model:
        raise ShapeError(f"token width {tokens.shape[1]} != num_heads*head_dim {rope.d_model}")
    table = rotary_table(grid_position_ids(h, wid), w, rope)
    q = _queries(tokens, n_txt, proj.wq, table)
    k_img = apply_rotary(src_image @ proj.wk, table)
    k = np.vstack([tokens[:n_txt] @ proj.wk, k_img])
    row = n_txt + r * wid + c
    # one query row, not a row sliced from the full matrix: a gemv and a
    # gemm row need not agree in the last bit
    weights = attention_weights(
        split_heads(q[row : row + 1], rope.num_heads),
        split_heads(k, rope.num_heads),
        1.0 / math.sqrt(rope.head_dim),
    )
    acc = weights[:, 0, n_txt:].sum(axis=0) / rope.num_heads
    total = acc.sum()
    if not 0.0 < total < np.inf:  # a NaN fails both comparisons
        raise ValueError(f"attention map mass on image keys is {total}, not positive and finite")
    return (acc / total).reshape(h, wid)
