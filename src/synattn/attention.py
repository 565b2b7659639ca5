"""Joint text+image multi-head attention for one transformer block.

A branch's state is a :class:`TokenStream`: text tokens, image tokens laid
out on a grid, and the per-image-token position ids. Attention always runs
over the concatenated [text; image] sequence. Image-token queries and keys
receive the rotary embedding at strength ``w``; text tokens carry all-zero
position ids and are never rotated.

:func:`shared_attention` is the editing primitive: target queries attend to
target text keys/values but to the *source* image keys/values, so target
tokens retrieve visual content from the source branch. With ``w = 0`` the
rotation is the identity and retrieval is purely semantic; with ``w = 1``
positional proximity shapes it fully. :func:`self_attention` is the same
computation with the stream as its own source.

Both wrap :func:`joint_attention`, which attends over one branch's
``[text; image]`` matrix with a prebuilt rotary table and, optionally,
another branch's :func:`image_kv`. The denoising loop calls it through
:func:`synattn.backbone.block_forward` and hands the source branch's image
keys/values to the target instead of projecting them a second time.

Outputs are returned before the output projection is applied; the block
wrapper in :mod:`synattn.backbone` owns the projection and residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import ShapeError, matmul, softmax_rows
from .rope import RopeConfig, RotaryTable, apply_rotary, rotary_table

__all__ = [
    "TokenStream",
    "BlockProjection",
    "AttentionOutput",
    "grid_position_ids",
    "split_heads",
    "merge_heads",
    "attention_weights",
    "image_kv",
    "joint_attention",
    "self_attention",
    "shared_attention",
    "attention_map",
]


def grid_position_ids(height: int, width: int) -> np.ndarray:
    """Canonical position ids for a row-major grid: token r -> (0, r // width, r % width)."""
    if height < 1 or width < 1:
        raise ValueError(f"grid must be at least 1x1, got {height}x{width}")
    rows, cols = np.divmod(np.arange(height * width, dtype=np.float64), float(width))
    return np.column_stack([np.zeros(height * width), rows, cols])


@dataclass
class TokenStream:
    """One branch's token state: text tokens, grid image tokens, position ids.

    ``positions`` defaults to the canonical row-major grid layout; tests may
    pass a permuted table to move tokens together with their positions.
    """

    text: np.ndarray
    image: np.ndarray
    grid: tuple[int, int]
    positions: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.text = np.asarray(self.text, dtype=np.float64)
        self.image = np.asarray(self.image, dtype=np.float64)
        self.grid = (int(self.grid[0]), int(self.grid[1]))
        h, w = self.grid
        if self.text.ndim != 2 or self.image.ndim != 2:
            raise ShapeError("text and image token sets must be 2-D matrices")
        if self.image.shape[0] != h * w:
            raise ShapeError(
                f"{self.image.shape[0]} image tokens do not fill a {h}x{w} grid"
            )
        if self.text.shape[1] != self.image.shape[1]:
            raise ShapeError(
                f"text width {self.text.shape[1]} != image width {self.image.shape[1]}"
            )
        if self.positions is None:
            self.positions = grid_position_ids(h, w)
        else:
            self.positions = np.asarray(self.positions, dtype=np.float64)
            if self.positions.shape != (h * w, 3):
                raise ShapeError(
                    f"positions shape {self.positions.shape} != ({h * w}, 3)"
                )

    @property
    def n_txt(self) -> int:
        return self.text.shape[0]

    @property
    def n_img(self) -> int:
        return self.image.shape[0]

    @property
    def d_model(self) -> int:
        return self.text.shape[1]


@dataclass(frozen=True)
class BlockProjection:
    """Square projection matrices of one attention block."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray

    def __post_init__(self) -> None:
        for name in ("wq", "wk", "wv", "wo"):
            m = np.asarray(getattr(self, name), dtype=np.float64)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ShapeError(f"{name} must be square, got shape {m.shape}")
            if not np.all(np.isfinite(m)):
                raise ValueError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, m)


@dataclass(frozen=True)
class AttentionOutput:
    """Per-token attention output, split by modality, before the output projection."""

    txt: np.ndarray
    img: np.ndarray


def split_heads(tokens: np.ndarray, num_heads: int) -> np.ndarray:
    """(n, d_model) -> (num_heads, n, head_dim), contiguous chunks per head."""
    n, d = tokens.shape
    if d % num_heads:
        raise ShapeError(f"d_model {d} not divisible by {num_heads} heads")
    return tokens.reshape(n, num_heads, d // num_heads).transpose(1, 0, 2)


def merge_heads(heads: np.ndarray) -> np.ndarray:
    """Inverse of :func:`split_heads`."""
    nh, n, hd = heads.shape
    return heads.transpose(1, 0, 2).reshape(n, nh * hd)


def _check_stream(stream: TokenStream, rope: RopeConfig, name: str) -> None:
    if stream.d_model != rope.d_model:
        raise ShapeError(
            f"{name} stream width {stream.d_model} != num_heads*head_dim {rope.d_model}"
        )


def image_kv(
    image: np.ndarray, proj: BlockProjection, table: RotaryTable
) -> tuple[np.ndarray, np.ndarray]:
    """Rotated image keys and image values of one branch: what a shared block hands the target."""
    return apply_rotary(matmul(image, proj.wk), table), matmul(image, proj.wv)


def _projected_qkv(
    tokens: np.ndarray,
    n_txt: int,
    proj: BlockProjection,
    table: RotaryTable,
    kv_img: tuple[np.ndarray, np.ndarray] | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Queries over ``tokens``; keys/values of its text rows and of ``kv_img``.

    Image queries are rotated by ``table``. Without ``kv_img`` the image
    keys/values come from the image rows of ``tokens`` under the same table.
    """
    q = matmul(tokens, proj.wq)
    q[n_txt:] = apply_rotary(q[n_txt:], table)
    if kv_img is None:
        kv_img = image_kv(tokens[n_txt:], proj, table)
    text = tokens[:n_txt]
    k = np.vstack([matmul(text, proj.wk), kv_img[0]])
    v = np.vstack([matmul(text, proj.wv), kv_img[1]])
    return q, k, v, kv_img


def attention_weights(q_head: np.ndarray, k_head: np.ndarray, scale: float) -> np.ndarray:
    """Post-softmax weights: row i is query i's distribution over the keys.

    Takes one head, ``(n, hd)`` against ``(m, hd)``, or stacked heads,
    ``(h, n, hd)`` against ``(h, m, hd)``. The only place attention logits
    are formed and normalized; the forward pass and :func:`attention_map`
    both call it, so a dumped map is the forward pass's own arithmetic.
    """
    if q_head.ndim == 2:
        return softmax_rows(matmul(q_head, k_head.T) * scale)
    # K^T as a contiguous copy: a strided transpose changes the output bytes.
    logits = np.matmul(q_head, np.ascontiguousarray(k_head.transpose(0, 2, 1))) * scale
    return softmax_rows(logits.reshape(-1, logits.shape[-1])).reshape(logits.shape)


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

    ``table`` rotates the image queries (and the image keys this call
    projects itself). ``kv_img`` is another branch's :func:`image_kv`, taken
    in place of the branch's own. Returns the ``(n, d)`` output before the
    output projection and the image keys/values it attended to.
    """
    q, k, v, kv_img = _projected_qkv(tokens, n_txt, proj, table, kv_img)
    return _multi_head(q, k, v, rope), kv_img


def _stream_inputs(
    tgt: TokenStream, src: TokenStream, proj: BlockProjection, rope: RopeConfig, w: float
) -> tuple[np.ndarray, RotaryTable, tuple[np.ndarray, np.ndarray]]:
    """Target token matrix and rotary table, and the source's image keys/values."""
    if tgt.grid != src.grid:
        raise ShapeError(f"grid mismatch: target {tgt.grid} vs source {src.grid}")
    _check_stream(tgt, rope, "target")
    _check_stream(src, rope, "source")
    kv_img = image_kv(src.image, proj, rotary_table(src.positions, w, rope))
    tokens = np.vstack([tgt.text, tgt.image])
    return tokens, rotary_table(tgt.positions, w, rope), kv_img


def shared_attention(
    tgt: TokenStream,
    src: TokenStream,
    proj: BlockProjection,
    rope: RopeConfig,
    w: float,
) -> AttentionOutput:
    """Attention of the target stream with image keys/values taken from the source.

    Queries: [target text; rotate(target image, w)]. Keys: [target text;
    rotate(source image, w)]. Values: [target text; source image]. At
    ``w = 0`` this is exactly the rotation-free sharing variant.
    """
    tokens, table, kv_img = _stream_inputs(tgt, src, proj, rope, w)
    out, _ = joint_attention(tokens, tgt.n_txt, proj, rope, table, kv_img)
    return AttentionOutput(txt=out[: tgt.n_txt], img=out[tgt.n_txt :])


def self_attention(
    stream: TokenStream,
    proj: BlockProjection,
    rope: RopeConfig,
    w: float,
) -> AttentionOutput:
    """Ordinary joint attention: the stream serves as its own key/value source."""
    return shared_attention(stream, stream, proj, rope, w)


def attention_map(
    tgt: TokenStream,
    src: TokenStream,
    proj: BlockProjection,
    rope: RopeConfig,
    w: float,
    query_cell: tuple[int, int],
) -> np.ndarray:
    """Where one target image query looks inside the source image.

    Takes the post-softmax attention weights of the query token at
    ``query_cell``, averaged over heads, restricted to source image keys and
    renormalized to sum to 1. Returned as a (height, width) grid.
    """
    h, wid = tgt.grid
    r, c = int(query_cell[0]), int(query_cell[1])
    if not (0 <= r < h and 0 <= c < wid):
        raise ValueError(f"query cell ({r}, {c}) outside {h}x{wid} grid")
    tokens, table, kv_img = _stream_inputs(tgt, src, proj, rope, w)
    n_txt = tgt.n_txt
    q, k, _, _ = _projected_qkv(tokens, n_txt, proj, table, kv_img)
    query_row = n_txt + r * wid + c
    scale = 1.0 / math.sqrt(rope.head_dim)
    qh = split_heads(q, rope.num_heads)
    kh = split_heads(k, rope.num_heads)
    acc = np.zeros(h * wid, dtype=np.float64)
    for head in range(rope.num_heads):
        # one query row, not a row sliced from the full matrix: a gemv and a
        # gemm row need not agree in the last bit
        weights = attention_weights(qh[head][query_row : query_row + 1], kh[head], scale)[0]
        acc += weights[n_txt:]
    acc /= rope.num_heads
    total = acc.sum()
    if total <= 0.0:
        raise ValueError("attention map has no mass on image keys")
    return (acc / total).reshape(h, wid)
