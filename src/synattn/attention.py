"""Joint text+image multi-head attention for one transformer block.

A branch's state is one ``[text; image]`` matrix: its first ``n_txt_tokens``
rows are text tokens, the rest image tokens laid out row-major on the grid
(:func:`grid_position_ids`) of the :class:`~synattn.backbone.BackboneConfig`
every entry point takes. The forward-pass functions also take a stack of
such matrices, ``(..., n, d)``, one per case and branch, and treat each
as if it ran alone: products are ``@`` against the shared ``(d, d)``
projections, which numpy carries out as one BLAS call per matrix, so a
case's bytes do not depend on what it is stacked with. Attention always
runs over the whole matrix. A block's weights are one ``(6, d, d)`` array,
its matrices in ``_ROLES`` order.
Image-token queries and keys are rotated by a :class:`~synattn.rope.RotaryTable`
built at strength ``w``; text tokens are never rotated.

:func:`joint_attention` is the one attention entry point. Handed another
branch's :func:`image_kv`, it is the editing primitive: target queries
attend to target text keys/values but to the *source* image keys/values,
so target tokens retrieve visual content from the source branch. With
``w = 0`` the rotation is the identity and retrieval is purely semantic;
with ``w = 1`` positional proximity shapes it fully. Without it, the branch
attends to its own image keys/values. The denoising loop calls it through
:func:`synattn.backbone.block_forward` on one ``(2, B, n, d)`` stack of
both branches; at a shared block it hands the whole stack the source
branch's :func:`image_kv`, which the source attends to as its own and the
target in place of its own. :func:`attention_map` reads one target query's
weights from the same arithmetic.

Every product is written into the buffer it ends in, with the BLAS shape
it has alone: the queries and image keys are rotated in place, the keys go
into one per-head ``K^T`` buffer, the text values into the joined value
matrix, and each head's output into its columns of the merged result.

Outputs are returned before the output projection is applied; the block
wrapper in :mod:`synattn.backbone` owns the projection and residuals.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .numerics import ShapeError, softmax_rows
from .rope import RotaryTable, apply_rotary, rotary_table

if TYPE_CHECKING:
    from .backbone import BackboneConfig

__all__ = [
    "grid_position_ids",
    "split_heads",
    "attention_weights",
    "image_kv",
    "joint_attention",
    "attention_map",
]

# A block's weights are one (6, d, d) array, matrix r playing role _ROLES[r];
# block b's matrix r is drawn from the stream derive_seed(seed, b, r).
_ROLES = ("wq", "wk", "wv", "wo", "mlp_in", "mlp_out")
_WQ, _WK, _WV, _WO, _MLP_IN, _MLP_OUT = range(len(_ROLES))


def grid_position_ids(height: int, width: int) -> np.ndarray:
    """Canonical position ids for a row-major grid: token r -> (0, r // width, r % width)."""
    if height < 1 or width < 1:
        raise ValueError(f"grid must be at least 1x1, got {height}x{width}")
    rows, cols = np.divmod(np.arange(height * width, dtype=np.float64), float(width))
    return np.column_stack([np.zeros(height * width), rows, cols])


def split_heads(tokens: np.ndarray, num_heads: int) -> np.ndarray:
    """(..., n, d_model) -> (..., num_heads, n, head_dim), contiguous chunks per head."""
    *lead, n, d = tokens.shape
    if d % num_heads:
        raise ShapeError(f"d_model {d} not divisible by {num_heads} heads")
    return tokens.reshape(*lead, n, num_heads, d // num_heads).swapaxes(-3, -2)


def image_kv(
    image: np.ndarray, block: np.ndarray, table: RotaryTable
) -> tuple[np.ndarray, np.ndarray]:
    """Rotated image keys and values of one branch: what a shared block hands both branches."""
    k = image @ block[_WK]
    return apply_rotary(k, table, out=k), image @ block[_WV]


def _queries(tokens: np.ndarray, n_txt: int, wq: np.ndarray, table: RotaryTable) -> np.ndarray:
    """Queries of a ``[text; image]`` matrix, the image rows rotated by ``table``."""
    q = tokens @ wq
    image = q[..., n_txt:, :]
    apply_rotary(image, table, out=image)
    return q


def attention_weights(q: np.ndarray, k: np.ndarray, scale: float) -> np.ndarray:
    """Post-softmax weights of stacked heads: ``(..., h, n, hd)`` queries, ``(..., h, m, hd)`` keys.

    Row ``i`` of head ``j`` is query ``i``'s distribution over the keys. The
    only place attention logits are formed and normalized; the forward pass
    and :func:`attention_map` both call it, so a dumped map is the forward
    pass's own arithmetic.
    """
    # K^T as a contiguous copy: a strided transpose changes the output bytes.
    logits = np.matmul(q, np.ascontiguousarray(k.swapaxes(-1, -2)))
    logits *= scale
    return softmax_rows(logits, out=logits)


def _join_rows(text: np.ndarray, w: np.ndarray, image: np.ndarray) -> np.ndarray:
    """``[text @ w; image]`` rows in one new buffer, ``image`` broadcast over the leading axes.

    The text product is written straight into the buffer, one BLAS call per
    matrix of the same shape as ``text @ w`` makes, so its bytes are that
    product's.
    """
    n_txt = text.shape[-2]
    out = np.empty((*text.shape[:-2], n_txt + image.shape[-2], w.shape[1]))
    np.matmul(text, w, out=out[..., :n_txt, :])
    out[..., n_txt:, :] = image
    return out


def _keys(text: np.ndarray, wk: np.ndarray, k_img: np.ndarray, heads: int) -> np.ndarray:
    """Split-head keys of ``[text @ wk; k_img]``, ``(..., heads, m, hd)``, ``k_img`` broadcast.

    They are the transposed view of one contiguous ``(..., heads, hd, m)``
    buffer, so :func:`attention_weights` forms ``K^T`` without a copy, and
    no joined ``[text; image]`` key matrix is ever held.
    """
    n_txt = text.shape[-2]
    kt = np.empty((*text.shape[:-2], heads, wk.shape[1] // heads, n_txt + k_img.shape[-2]))
    columns = kt.reshape(*kt.shape[:-3], wk.shape[1], kt.shape[-1])  # channel c = head * hd + j
    columns[..., :n_txt] = (text @ wk).swapaxes(-1, -2)
    columns[..., n_txt:] = k_img.swapaxes(-1, -2)
    return kt.swapaxes(-1, -2)


def joint_attention(
    tokens: np.ndarray,
    block: np.ndarray,
    config: BackboneConfig,
    table: RotaryTable,
    kv_img: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Attention of one branch's ``[text; image]`` matrix, its first ``n_txt_tokens`` rows text.

    ``tokens`` is ``(n, d)`` or a stack ``(..., n, d)``, and ``block`` one
    block's ``(6, d, d)`` weights, unchecked. ``table`` rotates the
    image queries (and the image keys this call projects itself). ``kv_img``
    is an :func:`image_kv`, taken in place of the stack's own; it broadcasts
    over the leading axes, so a ``(B, m, d)`` pair of the source's keys and
    values serves every branch of a ``(2, B, n, d)`` source/target pair.
    Returns the output before the output projection, shaped like ``tokens``.
    """
    n_txt = config.n_txt_tokens
    if kv_img is None:
        kv_img = image_kv(tokens[..., n_txt:, :], block, table)
    text = tokens[..., :n_txt, :]
    heads = config.num_heads
    # Q and K are freed once the weights are formed, and V is built only
    # then: neither product holds all of Q, K, V and the weights at once.
    weights = attention_weights(
        split_heads(_queries(tokens, n_txt, block[_WQ], table), heads),
        _keys(text, block[_WK], kv_img[0], heads),
        1.0 / math.sqrt(config.head_dim),
    )
    v = _join_rows(text, block[_WV], kv_img[1])
    # each head's product is written into its columns of the merged output
    out = np.empty(tokens.shape)
    np.matmul(weights, split_heads(v, heads), out=split_heads(out, heads))
    return out


def attention_map(
    tokens: np.ndarray,
    src_image: np.ndarray,
    block: np.ndarray,
    config: BackboneConfig,
    w: float,
    query_cell: tuple[int, int],
) -> np.ndarray:
    """Where one target image query looks inside the source image.

    ``tokens`` is the target's ``[text; image]`` matrix, ``(n_txt + n_img,
    d)``, and ``src_image`` the source's ``(n_img, d)`` image rows, both on
    the config's row-major grid, and ``block`` one block's ``(6, d, d)``
    weights, ``d = config.d_model``; each is checked against that shape.
    Takes the post-softmax attention weights of the query token at
    ``query_cell``, averaged over heads, restricted to source image keys and
    renormalized to sum to 1. Returned as a (height, width) grid.
    """
    h, wid = config.grid
    r, c = int(query_cell[0]), int(query_cell[1])
    if not (0 <= r < h and 0 <= c < wid):
        raise ValueError(f"query cell ({r}, {c}) outside {h}x{wid} grid")
    n_txt, d = config.n_txt_tokens, config.d_model
    for name, operand, shape in (
        ("tokens", tokens, (n_txt + h * wid, d)),
        ("source image", src_image, (h * wid, d)),
        ("block", block, (len(_ROLES), d, d)),
    ):
        if operand.shape != shape:
            raise ShapeError(f"{name} shape {operand.shape} != {shape}")
    table = rotary_table(grid_position_ids(h, wid), w, config)
    q = _queries(tokens, n_txt, block[_WQ], table)
    k_img = src_image @ block[_WK]
    apply_rotary(k_img, table, out=k_img)
    row = n_txt + r * wid + c
    # one query row, not a row sliced from the full matrix: a gemv and a
    # gemm row need not agree in the last bit
    weights = attention_weights(
        split_heads(q[row : row + 1], config.num_heads),
        _keys(tokens[:n_txt], block[_WK], k_img, config.num_heads),
        1.0 / math.sqrt(config.head_dim),
    )
    acc = weights[:, 0, n_txt:].sum(axis=0) / config.num_heads
    total = acc.sum()
    if not 0.0 < total < np.inf:  # a NaN fails both comparisons
        raise ValueError(f"attention map mass on image keys is {total}, not positive and finite")
    return (acc / total).reshape(h, wid)
