"""The float64 kernels shared by every other module: a softmax and a cosine.

Both are pure functions over stacks of rows, the last axis being a row:
:func:`softmax_rows` normalizes each row, and :func:`row_cosines` pairs up
the rows of two ``(..., n, d)`` stacks. The block similarities are means of
:func:`row_cosines`, in which rows with zero norm count 0 instead of NaN.

Nothing here checks finiteness; inf and NaN propagate as numpy propagates
them. Finiteness is checked once, where values enter: config values
(``Thresholds``, ``RopeConfig``), weights (``BlockProjection``), positions
(``rope.rotary_table``), the measurement (``adaptive_weight``), and in the
loop by ``pipeline``, once per block per branch of every stacked case.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ShapeError", "softmax_rows", "row_cosines"]


# Smallest positive normal float64.
_TINY = np.finfo(np.float64).tiny


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


def softmax_rows(m) -> np.ndarray:
    """Softmax over the last axis of a float64 stack, stabilized by subtracting each row's max."""
    m = np.ascontiguousarray(m, dtype=np.float64)
    shifted = m - m.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _row_cosines(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row cosines, and whether both squared norms and their product are normal numbers."""
    sq_a = np.einsum("ij,ij->i", a, a)
    sq_b = np.einsum("ij,ij->i", b, b)
    prod = sq_a * sq_b
    normal = (np.minimum(prod, np.minimum(sq_a, sq_b)) >= _TINY) & (prod < np.inf)
    return np.einsum("ij,ij->i", a, b) / np.sqrt(prod), normal


def row_cosines(a, b) -> np.ndarray:
    """Cosine of each row pair of two ``(..., n, d)`` stacks, clipped into [-1, 1], as ``(..., n)``.

    The denominator is sqrt(|a_r|^2 * |b_r|^2), which makes a row's cosine
    with itself exactly 1.0. A row pair whose squared norms or their product
    leave the normal range (rows too small or too large to square) is
    recomputed after scaling each row to unit max-abs. A pair of finite rows,
    one of them all zero, gives 0; a row with a NaN or inf gives NaN. Every
    row is computed alone, so a row's cosine does not depend on the rows
    stacked with it.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim < 2 or a.shape[-2] == 0:
        raise ShapeError("cosine similarity needs at least one row")
    rows_a = a.reshape(-1, a.shape[-1])
    rows_b = b.reshape(-1, b.shape[-1])
    with np.errstate(all="ignore"):
        sims, normal = _row_cosines(rows_a, rows_b)
        if not normal.all():
            rows_a, rows_b = rows_a[~normal], rows_b[~normal]
            max_a = np.max(np.abs(rows_a), axis=1)
            max_b = np.max(np.abs(rows_b), axis=1)
            rescaled, _ = _row_cosines(rows_a / max_a[:, None], rows_b / max_b[:, None])
            # np.maximum keeps a NaN, so a NaN or inf row never counts as zero
            zero = (np.minimum(max_a, max_b) == 0.0) & (np.maximum(max_a, max_b) < np.inf)
            sims[~normal] = np.where(zero, 0.0, rescaled)
    return np.clip(sims, -1.0, 1.0).reshape(a.shape[:-1])
