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
every head of a token matrix in every block (:func:`apply_rope` is the
one-vector case). The brute-force :func:`oracle_rotation_matrix` shares
nothing with that path but the :class:`RopeConfig`: it forms each angle
from ``axis_dims`` and ``theta_base`` in scalar math, entry by entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numerics import ShapeError

__all__ = [
    "RopeConfig",
    "frequencies",
    "apply_rope",
    "RotaryTable",
    "rotary_table",
    "apply_rotary",
    "oracle_rotation_matrix",
    "scaled_inner_product",
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
        freqs = np.concatenate([frequencies(d, self.theta_base) for d in self.axis_dims])
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


def frequencies(axis_dim: int, theta_base: float) -> np.ndarray:
    """Per-pair angular frequencies ``theta_base ** (-2k / axis_dim)``.

    Returns ``axis_dim / 2`` values, strictly decreasing from ``theta_0 = 1``.
    """
    if axis_dim <= 0 or axis_dim % 2:
        raise ValueError(f"axis_dim must be positive and even, got {axis_dim}")
    k = np.arange(axis_dim // 2, dtype=np.float64)
    return theta_base ** (-2.0 * k / axis_dim)


def apply_rope(v, pos, w: float, config: RopeConfig) -> np.ndarray:
    """Rotate one head-dim vector in place of its position, at strength ``w``.

    Norm-preserving; ``w = 0`` or an all-zero position returns ``v`` unchanged.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (config.head_dim,):
        raise ShapeError(f"vector length {v.shape} does not match head_dim {config.head_dim}")
    table = rotary_table(np.reshape(pos, (1, -1)), w, config)
    half = config.head_dim // 2
    return apply_rotary(v[None], RotaryTable(table.cos[:, :half], table.sin[:, :half]))[0]


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


def oracle_rotation_matrix(pos, w: float, config: RopeConfig) -> np.ndarray:
    """Explicit block-diagonal rotation matrix for one head.

    Built entry by entry from 2x2 rotation blocks, each angle formed in
    scalar math from ``axis_dims`` and ``theta_base`` alone; deliberately
    naive so it can cross-check the pairwise path. The matrix is orthogonal
    and ``oracle_rotation_matrix(pos, w) == oracle_rotation_matrix(w * pos, 1)``.
    """
    p = np.asarray(pos, dtype=np.float64).reshape(-1)
    if p.shape != (config.n_axes,):
        raise ShapeError(f"position must have {config.n_axes} axes, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("position contains non-finite values")
    n = config.head_dim
    rot = np.zeros((n, n), dtype=np.float64)
    i = 0
    for axis, dim in enumerate(config.axis_dims):
        for k in range(dim // 2):
            phi = (w * p[axis]) * config.theta_base ** (-2.0 * k / dim)
            c = math.cos(phi)
            s = math.sin(phi)
            rot[i, i] = c
            rot[i, i + 1] = -s
            rot[i + 1, i] = s
            rot[i + 1, i + 1] = c
            i += 2
    return rot


def scaled_inner_product(q, k, pos_q, pos_k, w: float, config: RopeConfig) -> float:
    """Inner product of the two rotated vectors.

    Equals ``q @ oracle_rotation_matrix(pos_k - pos_q, w) @ k``: the value
    depends on the positions only through their displacement, scaled by ``w``.
    """
    rq = apply_rope(q, pos_q, w, config)
    rk = apply_rope(k, pos_k, w, config)
    return float(np.dot(rq, rk))
