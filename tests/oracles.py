"""Independent brute-force references used as test oracles.

Everything here recomputes results with explicit loops and scalar math, so
it shares no numerical path with the library beyond plain array projection
products. Keep it slow and obvious.
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


def rotate_head_vector(v, pos, w, axis_dims, theta_base):
    """Pairwise rotation written longhand, one axis segment at a time."""
    out = np.array(v, dtype=float)
    offset = 0
    for axis, dim in enumerate(axis_dims):
        for k in range(dim // 2):
            theta = theta_base ** (-2.0 * k / dim)
            phi = w * pos[axis] * theta
            c, s = math.cos(phi), math.sin(phi)
            i0 = offset + 2 * k
            x, y = v[i0], v[i0 + 1]
            out[i0] = x * c - y * s
            out[i0 + 1] = x * s + y * c
        offset += dim
    return out


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
                rows[r, seg] = rotate_head_vector(
                    rows[r, seg], positions[r], w, axis_dims, theta_base
                )
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
