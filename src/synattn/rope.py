"""Rotary position embedding with a continuous strength weight.

A position id is a real 3-vector (marker axis, row, column). Each attention
head of dimension ``head_dim`` is partitioned into contiguous segments, one
per axis, and each segment is further split into channel pairs
``(v[2k], v[2k+1])``. Pair ``k`` of the segment for axis ``a`` is rotated by
the angle

    w * pos[a] * theta_k,      theta_k = theta_base ** (-2k / axis_dim)

so the weight ``w`` scales every rotation angle linearly: ``w = 1`` is the
full embedding, ``w = 0`` is the identity, and intermediate values shrink
the effective relative displacement between tokens. Inner products of
rotated vectors depend on positions only through their difference.

:func:`rotary_table` is the one place rotation angles are formed: it builds
the cos/sin of every row's channel pairs once per ``(positions, w)``, laid
out channel by channel over the full token width, so a denoising step
builds one table, and :func:`apply_rotary` applies it to every head of a
token matrix in every block with two products and one sum, in place if
asked. The geometry is a :class:`~synattn.backbone.BackboneConfig`'s,
which derives each pair's frequency and axis once. One head vector is the
case of a one-row table of a config with ``num_heads=1``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .numerics import ShapeError

if TYPE_CHECKING:
    from .backbone import BackboneConfig

__all__ = [
    "RotaryTable",
    "rotary_table",
    "apply_rotary",
]


class RotaryTable(NamedTuple):
    """The rotation of every row, channel-interleaved: each ``(..., n, d_model)``.

    Channels ``2k`` and ``2k + 1`` of a row hold pair ``k``'s angle: ``cos``
    holds its cosine in both, ``sin`` holds ``-sin`` in the first and
    ``+sin`` in the second, so that a rotation is ``x * cos + swap(x) * sin``
    with ``swap`` exchanging each pair's channels. The one head's
    ``head_dim // 2`` angles repeat once per head. The leading axes are those
    of the weight: none for a scalar ``w``, ``(B,)`` for one weight per
    stacked case.
    """

    cos: np.ndarray
    sin: np.ndarray


def rotary_table(positions, w, config: BackboneConfig) -> RotaryTable:
    """The rotation of ``n`` rows at strength ``w``, built once for all heads and blocks.

    ``w`` is a scalar or a ``(B,)`` vector, one weight per stacked case;
    both it and the positions must be finite. Row ``r``'s pair angles are
    ``(w * positions)[..., r, axis] * theta_k``. The ids are scaled by ``w``
    first, so scaling the ids and scaling the angles are the same operation
    down to the float, and case ``b`` of a vector ``w`` gets the bytes of a
    scalar ``w[b]``.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ShapeError(f"positions shape {positions.shape} does not match (n, 3)")
    if not np.all(np.isfinite(positions)):
        raise ValueError("positions contain non-finite values")
    w = np.asarray(w, dtype=np.float64)
    if w.ndim > 1:
        raise ShapeError(f"w must be a scalar or a vector, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"w contains non-finite values: {w}")
    angles = (w[..., None, None] * positions)[..., config.pair_axes] * config.pair_freqs
    sin = np.sin(angles).take(config.channel_pairs, axis=-1)
    sin *= config.channel_signs  # exact: a sign flip
    return RotaryTable(np.cos(angles).take(config.channel_pairs, axis=-1), sin)


def apply_rotary(
    tokens: np.ndarray, table: RotaryTable, out: np.ndarray | None = None
) -> np.ndarray:
    """Rotate every channel pair of each row of ``(..., n, d_model)`` tokens.

    Computes ``tokens * cos + swap(tokens) * sin`` (RoFormer's efficient
    form), into ``out`` when given (``tokens`` itself included) or else one
    new array. Pair ``(x, y)`` becomes ``(x cos + y (-sin), y cos + x sin)``,
    the bytes of ``(x cos - y sin, x sin + y cos)``: IEEE ``a - b`` is
    ``a + (-b)`` and the sum commutes, signed zeros included. The table's
    leading axes broadcast against the tokens' own.
    """
    swapped = np.empty_like(tokens)
    swapped[..., 0::2] = tokens[..., 1::2]
    swapped[..., 1::2] = tokens[..., 0::2]
    swapped *= table.sin
    out = np.multiply(tokens, table.cos, out=out)
    out += swapped
    return out
