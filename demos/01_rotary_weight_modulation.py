"""Rotary embeddings with a continuous strength weight, from the ground up.

Walks through the frequency ladder, shows that rotations preserve norms and
depend only on relative displacement, and then sweeps the weight w to show
how it interpolates between full positional sensitivity and none.
"""

import numpy as np

from synattn import BackboneConfig, rotary_table
from synattn.rope import apply_rotary

rng = np.random.default_rng(0)

# The full-scale geometry: 128 channels per head, split into three axis
# segments (sequence marker, row, column), one frequency per channel pair.
# One head is enough to follow a single vector.
cfg = BackboneConfig(num_heads=1, head_dim=128, axis_dims=(16, 56, 56))
print("head_dim:", cfg.head_dim, " axis splits:", cfg.axis_dims)


def rotate(v, pos, w):
    """Rotate one head vector to position id ``pos`` at strength ``w``."""
    return apply_rotary(v[None], rotary_table([pos], w, cfg))[0]


def inner(q, k, pos_q, pos_k, w):
    """The attention logit (before scaling) of a rotated query and key."""
    return float(rotate(q, pos_q, w) @ rotate(k, pos_k, w))


freqs = cfg.pair_freqs[cfg.pair_axes == 1]  # the 56-wide row axis
print("\nfrequency ladder for a 56-wide axis (first and last pairs):")
print("  theta_0  =", freqs[0])
print("  theta_27 =", freqs[27])

# Rotations never change the length of a vector, whatever the position or
# weight. (The tests check this path against an explicit block-diagonal
# rotation matrix, the brute-force definition, in tests/oracles.py.)
v = rng.normal(size=cfg.head_dim)
for w in (0.0, 0.33, 1.0):
    rotated = rotate(v, (0.0, 5.0, 9.0), w)
    print(f"\nw = {w:4.2f}: |v| = {np.linalg.norm(v):.12f} -> |rot(v)| = {np.linalg.norm(rotated):.12f}")

# Inner products of rotated queries and keys depend on positions only
# through their difference, so shifting both tokens changes nothing.
q, k = rng.normal(size=(2, cfg.head_dim))
a = inner(q, k, (0, 2, 7), (0, 5, 1), 1.0)
b = inner(q, k, (0, 12, 27), (0, 15, 21), 1.0)
print("\ntranslation invariance:", a, "vs", b)

# The weight w scales every rotation angle. w = 0 removes positions
# entirely; in between, the effective displacement shrinks smoothly.
print("\nattention logit q.k between tokens 4 cells apart, as w varies:")
for w in (1.0, 0.75, 0.5, 0.25, 0.0):
    val = inner(q, k, (0, 0, 0), (0, 4, 0), w)
    print(f"  w = {w:4.2f}: {val:+.6f}")
print("plain dot product (no positions):", float(q @ k))
