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
asked. One head vector is the case of a one-row table of a ``RopeConfig``
with ``num_heads=1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numerics import ShapeError

__all__ = [
    "RopeConfig",
    "RotaryTable",
    "rotary_table",
    "apply_rotary",
]


@dataclass(frozen=True)
class RopeConfig:
    """Geometry of the rotary embedding.

    Defaults follow the full-scale FLUX layout: 24 heads of dimension 128,
    split into axis segments of 16 (sequence marker), 56 (row), 56 (column).
    """

    head_dim: int = 128
    axis_dims: tuple[int, ...] = (16, 56, 56)
    theta_base: float = 10000.0
    num_heads: int = 24

    def __post_init__(self) -> None:
        object.__setattr__(self, "axis_dims", tuple(int(d) for d in self.axis_dims))
        if sum(self.axis_dims) != self.head_dim:
            raise ValueError(
                f"axis_dims {self.axis_dims} must sum to head_dim {self.head_dim}"
            )
        if any(d <= 0 or d % 2 for d in self.axis_dims):
            raise ValueError(f"every axis dim must be positive and even, got {self.axis_dims}")
        if not (math.isfinite(self.theta_base) and self.theta_base > 1.0):
            raise ValueError(f"theta_base must be finite and exceed 1, got {self.theta_base}")
        if self.num_heads < 1:
            raise ValueError(f"num_heads must be positive, got {self.num_heads}")
        # Derived once, not dataclass fields: the frequency of every channel
        # pair (axis segments concatenated) and the position axis it reads.
        freqs = np.concatenate([
            self.theta_base ** (-2.0 * np.arange(d // 2, dtype=np.float64) / d)
            for d in self.axis_dims
        ])
        axes = np.repeat(np.arange(self.n_axes), [d // 2 for d in self.axis_dims])
        # Channel c of a token vector belongs to its head's pair (c % head_dim) // 2;
        # the pair's first channel takes -sin in the interleaved table, its second +sin.
        channels = np.arange(self.d_model)
        channel_pairs = channels % self.head_dim // 2
        channel_signs = np.where(channels % 2, 1.0, -1.0)
        for name, value in (("pair_freqs", freqs), ("pair_axes", axes),
                            ("channel_pairs", channel_pairs), ("channel_signs", channel_signs)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n_axes(self) -> int:
        return len(self.axis_dims)

    @property
    def d_model(self) -> int:
        return self.num_heads * self.head_dim


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


def rotary_table(positions, w, config: RopeConfig) -> RotaryTable:
    """The rotation of ``n`` rows at strength ``w``, built once for all heads and blocks.

    ``w`` is a scalar or a ``(B,)`` vector, one weight per stacked case;
    both it and the positions must be finite. Row ``r``'s pair angles are
    ``(w * positions)[..., r, axis] * theta_k``. The ids are scaled by ``w``
    first, so scaling the ids and scaling the angles are the same operation
    down to the float, and case ``b`` of a vector ``w`` gets the bytes of a
    scalar ``w[b]``.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != config.n_axes:
        raise ShapeError(
            f"positions shape {positions.shape} does not match (n, {config.n_axes})"
        )
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
