"""Dense float64 matrix primitives shared by every other module.

Everything here is a pure function over 2-D float64 arrays, except
:func:`row_cosines`, which takes stacks of them. The only
aggregation convention worth knowing: :func:`cosine_similarity` is the
unweighted mean of per-row cosines, and rows with zero norm contribute 0
instead of NaN.

Nothing here checks finiteness; inf and NaN propagate as numpy propagates
them. Finiteness is checked once, where values enter: config values
(``Thresholds``, ``RopeConfig``), weights (``BlockProjection``), positions
(``rope.rotary_table``), the measurement (``adaptive_weight``), and in the
loop by ``pipeline``, once per block per branch of every stacked case.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ShapeError",
    "as_matrix",
    "matmul",
    "softmax_rows",
    "cosine_similarity",
    "row_cosines",
]


# Smallest positive normal float64.
_TINY = np.finfo(np.float64).tiny


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce ``values`` to a 2-D float64 array (row-major)."""
    # The contiguous copy picks the BLAS call path; np.asarray changes output bytes.
    m = np.ascontiguousarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {m.shape}")
    return m


def matmul(a, b) -> np.ndarray:
    """Matrix product with an explicit inner-dimension check."""
    a = as_matrix(a, "left operand")
    b = as_matrix(b, "right operand")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"cannot multiply {a.shape[0]}x{a.shape[1]} by "
            f"{b.shape[0]}x{b.shape[1]}: inner dimensions differ"
        )
    return a @ b


def softmax_rows(m) -> np.ndarray:
    """Row-wise softmax, stabilized by subtracting each row's max."""
    m = as_matrix(m)
    shifted = m - m.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _row_cosines(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row cosines, and whether both squared norms and their product are normal numbers."""
    sq_a = np.einsum("ij,ij->i", a, a)
    sq_b = np.einsum("ij,ij->i", b, b)
    prod = sq_a * sq_b
    normal = (np.minimum(prod, np.minimum(sq_a, sq_b)) >= _TINY) & (prod < np.inf)
    return np.einsum("ij,ij->i", a, b) / np.sqrt(prod), normal


def row_cosines(a, b) -> np.ndarray:
    """Cosine of each row pair of two ``(..., n, d)`` stacks, clipped into [-1, 1], as ``(..., n)``.

    The batched kernel behind :func:`cosine_similarity`, with the same
    rescaling and zero-row rules. Every row is computed alone, so a row's
    cosine does not depend on the rows stacked with it.
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
            max_a = np.max(np.abs(rows_a), axis=1, keepdims=True)
            max_b = np.max(np.abs(rows_b), axis=1, keepdims=True)
            rescaled, _ = _row_cosines(rows_a / max_a, rows_b / max_b)
            live = (max_a[:, 0] != 0.0) & (max_b[:, 0] != 0.0)
            sims[~normal] = np.where(live, rescaled, 0.0)
    return np.clip(sims, -1.0, 1.0).reshape(a.shape[:-1])


def cosine_similarity(a, b) -> float:
    """Mean over rows of the per-row cosine between ``a`` and ``b``.

    The denominator is computed as sqrt(|a_r|^2 * |b_r|^2), which makes the
    similarity of a matrix with itself exactly 1.0. A row whose squared norms
    or their product leave the normal range (rows too small or too large to
    square) is recomputed after scaling it to unit max-abs. Zero-norm rows
    contribute similarity 0; a row with a NaN or inf makes the result NaN.
    The result is clipped into [-1, 1]. The mean of :func:`row_cosines`.
    """
    a = as_matrix(a, "first argument")
    b = as_matrix(b, "second argument")
    return float(np.mean(row_cosines(a, b)))
