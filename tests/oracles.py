"""Independent brute-force references used as test oracles.

Everything here recomputes results with explicit loops and scalar math, so
it shares no numerical path with the library beyond plain array projection
products. It imports only the standard library and numpy, never synattn,
and writes out its own constants. Keep it slow and obvious.
"""

import math
from fractions import Fraction

import numpy as np


def cosine_rows_mean(a: np.ndarray, b: np.ndarray) -> float:
    sims = []
    for ra, rb in zip(a, b):
        na = math.sqrt(sum(x * x for x in ra))
        nb = math.sqrt(sum(x * x for x in rb))
        if na == 0.0 or nb == 0.0:
            sims.append(0.0)
        else:
            sims.append(sum(x * y for x, y in zip(ra, rb)) / (na * nb))
    return sum(sims) / len(sims)


def rotation_matrix(pos, w, axis_dims, theta_base):
    """Explicit block-diagonal rotation matrix of one head, built entry by entry.

    Each axis segment of ``axis_dims`` is split into channel pairs; pair
    ``k`` of axis ``a``'s segment is a 2x2 rotation by
    ``w * pos[a] * theta_base ** (-2k / axis_dims[a])``, each angle formed in
    scalar math (RoFormer, Su et al., arXiv:2104.09864, with ``w`` scaling
    every angle).
    """
    n = sum(axis_dims)
    rot = np.zeros((n, n))
    i = 0
    for axis, dim in enumerate(axis_dims):
        for k in range(dim // 2):
            phi = (w * pos[axis]) * theta_base ** (-2.0 * k / dim)
            c, s = math.cos(phi), math.sin(phi)
            rot[i, i], rot[i, i + 1] = c, -s
            rot[i + 1, i], rot[i + 1, i + 1] = s, c
            i += 2
    return rot


def rotated_inner_product(q, k, pos_q, pos_k, w, axis_dims, theta_base):
    """``q . k`` after rotating each to its position: ``q @ R(pos_k - pos_q) @ k``.

    The relative-position identity: the product sees the positions only
    through their displacement, scaled by ``w``.
    """
    displacement = [b - a for a, b in zip(pos_q, pos_k)]
    return float(q @ rotation_matrix(displacement, w, axis_dims, theta_base) @ k)


# splitmix64 (Steele, Lea and Flood, "Fast splittable pseudorandom number
# generators", OOPSLA 2014) with its published constants.
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MIX = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))


def splitmix64(seed, count):
    """The first ``count`` outputs of the splitmix64 stream seeded by ``seed``, as ints."""
    state = seed % 2**64
    out = []
    for _ in range(count):
        state = (state + _SPLITMIX_GAMMA) % 2**64
        z = state
        for shift, mult in _SPLITMIX_MIX:
            z = ((z ^ (z >> shift)) * mult) % 2**64
        out.append(z ^ (z >> 31))
    return out


def splitmix64_uniform(seed, count, low, high):
    """The stream's first ``count`` outputs as floats ``low + (z / 2**64) * (high - low)``.

    ``z / 2**64`` is Python's correctly rounded integer division, so each
    entry is rounded once before the affine map.
    """
    return np.array([low + (z / 2**64) * (high - low) for z in splitmix64(seed, count)])


def naive_joint_attention(
    tgt_text,
    tgt_image,
    src_image,
    tgt_pos,
    src_pos,
    wq,
    wk,
    wv,
    num_heads,
    head_dim,
    axis_dims,
    theta_base,
    w,
    use_rope=True,
):
    """Loop-based joint attention with shared image keys/values, pre-output-projection.

    Queries from [target text; target image], keys/values from
    [target text; source image]; image rows optionally rotated.
    """
    n_txt = tgt_text.shape[0]
    q_tokens = np.vstack([tgt_text, tgt_image]) @ wq
    k_tokens = np.vstack([tgt_text @ wk, src_image @ wk])
    v_tokens = np.vstack([tgt_text @ wv, src_image @ wv])

    def rotate_rows(rows, positions):
        rows = rows.copy()
        for r in range(rows.shape[0]):
            for h in range(num_heads):
                seg = slice(h * head_dim, (h + 1) * head_dim)
                rot = rotation_matrix(positions[r], w, axis_dims, theta_base)
                rows[r, seg] = rot @ rows[r, seg]
        return rows

    if use_rope:
        q_tokens = np.vstack([q_tokens[:n_txt], rotate_rows(q_tokens[n_txt:], tgt_pos)])
        k_tokens = np.vstack([k_tokens[:n_txt], rotate_rows(k_tokens[n_txt:], src_pos)])

    n_q = q_tokens.shape[0]
    n_k = k_tokens.shape[0]
    out = np.zeros_like(q_tokens)
    for h in range(num_heads):
        lo = h * head_dim
        for i in range(n_q):
            logits = []
            for j in range(n_k):
                dot = sum(q_tokens[i, lo + t] * k_tokens[j, lo + t] for t in range(head_dim))
                logits.append(dot / math.sqrt(head_dim))
            mx = max(logits)
            exps = [math.exp(val - mx) for val in logits]
            z = sum(exps)
            for t in range(head_dim):
                out[i, lo + t] = sum(
                    (exps[j] / z) * v_tokens[j, lo + t] for j in range(n_k)
                )
    return out[:n_txt], out[n_txt:]


def percentile_nearest_rank(values, percent: int) -> float:
    ordered = sorted(values)
    rank = math.ceil(Fraction(percent, 100) * len(ordered))
    return ordered[rank - 1]
