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
its matrices in ``ROLES`` order, indexed by ``WQ``, ``WK``, ... ``MLP_OUT``.
Image-token queries and keys are rotated by a :class:`~synattn.rope.RotaryTable`
built at strength ``w``; text tokens are never rotated.

:func:`joint_attention` is the one attention entry point. Handed another
branch's image rows, it is the editing primitive: target queries attend to
target text keys/values but to the *source* image keys/values, which it
projects from those rows itself, so target tokens retrieve visual content
from the source branch. With ``w = 0`` the rotation is the identity and
retrieval is purely semantic; with ``w = 1`` positional proximity shapes it
fully. Without them, the branch attends to its own image keys/values. The
denoising loop calls it through :func:`synattn.backbone.block_forward` on
one ``(2, B, n, d)`` stack of both branches; at a shared block it hands the
whole stack the source branch's image rows, which the source attends to as
its own and the target in place of its own. :func:`attention_map` reads one
target query's weights from the same arithmetic.

Every product is written into the buffer it ends in, with the BLAS shape
it has alone: the queries and image keys are rotated in place, the keys go
into one per-head ``K^T`` buffer, the text and image values into their rows
of the joined value matrix, and each head's output into its columns of the
merged result, which may be a buffer the caller gives (the engine's held
slot for the step's measurement). The image keys, own or the source's, live
only until they are copied into ``K^T``, and the source's values until they
are copied into their rows. The logits are formed a chunk of heads at a
time, as many as ``_LOGITS_BYTES`` holds and at least one. numpy makes one
BLAS call per head of the same shape in any chunk, and the softmax works
row by row, so the bytes do not depend on the chunking; the toy's heads all
fit in one chunk.

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
    "ROLES",
    "WQ",
    "WK",
    "WV",
    "WO",
    "MLP_IN",
    "MLP_OUT",
    "grid_position_ids",
    "split_heads",
    "attention_weights",
    "joint_attention",
    "attention_map",
]

# A block's weights are one (6, d, d) array, matrix r playing role ROLES[r];
# block b's matrix r is drawn from the stream derive_seed(seed, b, r).
ROLES = ("wq", "wk", "wv", "wo", "mlp_in", "mlp_out")
WQ, WK, WV, WO, MLP_IN, MLP_OUT = range(len(ROLES))

# Bytes of attention logits (every stacked matrix of a chunk of heads) that
# joint_attention forms at once; a chunk always holds at least one head. A
# cli-batch stack, 3 toy cases, takes one chunk for its 4 heads (77 KB), and
# a FLUX-width pair one chunk per head (1.1 MB). It lives here, not beside
# pipeline._STACK_BYTES, because joint_attention reads it and pipeline
# imports this module.
_LOGITS_BYTES = 1 << 20


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


def _image_keys(image: np.ndarray, wk: np.ndarray, table: RotaryTable) -> np.ndarray:
    """``image @ wk``, rotated in place by ``table``."""
    k = image @ wk
    return apply_rotary(k, table, out=k)


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
    kt = k.swapaxes(-1, -2)
    # K^T with C-contiguous matrices, copied unless they already are (a chunk
    # of heads' view is, though its stack is not): a strided transpose changes
    # the output bytes
    if kt.strides[-2:] != (kt.itemsize * kt.shape[-1], kt.itemsize):
        kt = np.ascontiguousarray(kt)
    logits = np.matmul(q, kt)
    logits *= scale
    return softmax_rows(logits, out=logits)


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
    src_image: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Attention of one branch's ``[text; image]`` matrix, its first ``n_txt_tokens`` rows text.

    ``tokens`` is ``(n, d)`` or a stack ``(..., n, d)``, and ``block`` one
    block's ``(6, d, d)`` weights, unchecked. ``table`` rotates the image
    queries and keys. ``src_image``, the source's image rows ``(..., m, d)``,
    unchecked, gives the image keys and values in place of the stack's own;
    it broadcasts over the leading axes, so a ``(B, m, d)`` source serves
    every branch of a ``(2, B, n, d)`` source/target pair. Returns the output
    before the output projection, shaped like ``tokens``: ``out`` when given,
    a float64 array of that shape whose rows are contiguous (a strided slot
    of a larger buffer will do), else a new array.

    The keys and values go straight into their buffers, the image keys only
    until they are copied into ``K^T``, a source's values only until they
    are copied into V. Then the heads run in chunks of at most
    ``_LOGITS_BYTES`` of logits, each chunk's weights multiplied into
    its heads' columns of the output: at most Q, ``K^T``, V and one chunk's
    logits are held at once.
    """
    n_txt = config.n_txt_tokens
    text, image = tokens[..., :n_txt, :], tokens[..., n_txt:, :]
    heads = config.num_heads
    # K^T, then Q, then V, so neither rotation's scratch is ever live beside V.
    # A shared block's source rows add two products, each dropped once copied:
    # their rotated keys, into K^T, and their values, into V's image rows
    source = image if src_image is None else src_image
    k = _keys(text, block[WK], _image_keys(source, block[WK], table), heads)
    q = split_heads(_queries(tokens, n_txt, block[WQ], table), heads)
    v = np.empty(tokens.shape)
    np.matmul(text, block[WV], out=v[..., :n_txt, :])
    if src_image is None:
        np.matmul(image, block[WV], out=v[..., n_txt:, :])
    else:
        v[..., n_txt:, :] = src_image @ block[WV]
    v = split_heads(v, heads)
    if out is None:
        out = np.empty(tokens.shape)
    merged = split_heads(out, heads)  # each head's product goes into its columns of out
    scale = 1.0 / math.sqrt(config.head_dim)
    logits_bytes = q.nbytes // config.head_dim * k.shape[-2]  # every head's
    if logits_bytes <= _LOGITS_BYTES:  # one chunk: the whole stack, one call each
        np.matmul(attention_weights(q, k, scale), v, out=merged)
    else:
        per_chunk = max(1, _LOGITS_BYTES * heads // logits_bytes)
        for h in range(0, heads, per_chunk):
            c = np.s_[..., h:h + per_chunk, :, :]
            np.matmul(attention_weights(q[c], k[c], scale), v[c], out=merged[c])
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
        ("block", block, (len(ROLES), d, d)),
    ):
        if operand.shape != shape:
            raise ShapeError(f"{name} shape {operand.shape} != {shape}")
    table = rotary_table(grid_position_ids(h, wid), w, config)
    q = _queries(tokens, n_txt, block[WQ], table)
    k_img = _image_keys(src_image, block[WK], table)
    row = n_txt + r * wid + c
    # one query row, not a row sliced from the full matrix: a gemv and a
    # gemm row need not agree in the last bit
    weights = attention_weights(
        split_heads(q[row : row + 1], config.num_heads),
        _keys(tokens[:n_txt], block[WK], k_img, config.num_heads),
        1.0 / math.sqrt(config.head_dim),
    )
    acc = weights[:, 0, n_txt:].sum(axis=0) / config.num_heads
    total = acc.sum()
    if not 0.0 < total < np.inf:  # a NaN fails both comparisons
        raise ValueError(f"attention map mass on image keys is {total}, not positive and finite")
    return (acc / total).reshape(h, wid)
