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
the cos/sin of every row's channel pairs once per ``(positions, w)``, so a
denoising step builds one table, and :func:`apply_rotary` applies it to
every head of a token matrix in every block. One head vector is the case
of a one-row table of a ``RopeConfig`` with ``num_heads=1``.
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
        freqs.flags.writeable = False
        axes.flags.writeable = False
        object.__setattr__(self, "pair_freqs", freqs)
        object.__setattr__(self, "pair_axes", axes)

    @property
    def n_axes(self) -> int:
        return len(self.axis_dims)

    @property
    def d_model(self) -> int:
        return self.num_heads * self.head_dim


class RotaryTable(NamedTuple):
    """cos/sin of every channel-pair angle of every row, each ``(..., n, d_model // 2)``.

    Pair ``p`` of a row is channel pair ``p`` of the row's token vector: the
    one head's ``head_dim // 2`` angles repeat once per head. The leading axes
    are those of the weight: none for a scalar ``w``, ``(B,)`` for one weight
    per stacked case.
    """

    cos: np.ndarray
    sin: np.ndarray


def rotary_table(positions, w, config: RopeConfig) -> RotaryTable:
    """The rotation of ``n`` rows at strength ``w``, built once for all heads and blocks.

    ``w`` is a scalar or a ``(B,)`` vector, one weight per stacked case. Row
    ``r``'s pair angles are ``(w * positions)[..., r, axis] * theta_k``. The
    ids are scaled by ``w`` first, so scaling the ids and scaling the angles
    are the same operation down to the float, and case ``b`` of a vector ``w``
    gets the bytes of a scalar ``w[b]``.
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
    angles = (w[..., None, None] * positions)[..., config.pair_axes] * config.pair_freqs
    heads = config.num_heads
    return RotaryTable(np.tile(np.cos(angles), heads), np.tile(np.sin(angles), heads))


def apply_rotary(tokens: np.ndarray, table: RotaryTable) -> np.ndarray:
    """Rotate every channel pair of each row of ``(..., n, 2 * pairs)`` tokens.

    ``pairs`` is the table's last axis; the table's leading axes broadcast
    against the tokens' own.
    """
    x = tokens[..., 0::2]
    y = tokens[..., 1::2]
    out = np.empty_like(tokens)
    out[..., 0::2] = x * table.cos - y * table.sin
    out[..., 1::2] = x * table.sin + y * table.cos
    return out
