"""Deterministic toy transformer backbone.

Stands in for a pretrained multimodal diffusion transformer at desk scale:
seeded pseudo-random projections, a hash-based prompt encoder and a stack of
attention+MLP blocks. A backbone's weights are one ``(n_blocks, 6, d, d)``
array, and one block's a ``(6, d, d)`` slice of it, its matrices in
:data:`~synattn.attention.ROLES` order; the config travels beside it.
Everything is a pure function of the configuration, so two runs with the
same config agree bit for bit.

Randomness is generated by splitmix64 streams. A stream's output sequence
is ``mix(seed + i * GAMMA)`` for i = 1, 2, ... where ``mix`` is the
splitmix64 finalizer and ``GAMMA = 0x9E3779B97F4A7C15``. Stream seeds are
derived by folding integer parts with :func:`derive_seed`; strings enter as
their 64-bit FNV-1a hash. Since entry i depends only on the seed and i, any
range of any stream can be mixed on its own: every draw (all of a
backbone's weight streams, a prompt's rows, the noise) fills its result in
tiles, split across the :func:`usable_cores` when it is large, and its bytes
do not depend on the split.
"""

from __future__ import annotations

import math
import numbers
import operator
import os
import threading
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .attention import MLP_IN, MLP_OUT, ROLES, WO, joint_attention
from .rope import RotaryTable

__all__ = [
    "MASK64",
    "derive_seed",
    "fnv1a64",
    "BackboneConfig",
    "WEIGHT_SCALE",
    "MAX_HEADS",
    "MAX_HEAD_DIM",
    "MAX_BLOCKS",
    "MAX_TXT_TOKENS",
    "MAX_GRID_SIDE",
    "MAX_STEPS",
    "usable_cores",
    "init_block",
    "init_backbone",
    "encode_prompt",
    "initial_noise",
    "block_forward",
]

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# The same constants as uint64 scalars for the vector draw, built once:
# small draws (a 64-entry prompt row) would pay for them on every call.
_U_GAMMA = np.uint64(_GAMMA)
_U_ROUNDS = ((np.uint64(30), np.uint64(_MIX1)), (np.uint64(27), np.uint64(_MIX2)))
_U_LAST_SHIFT = np.uint64(31)
# round(z) / 2**64 without numpy's uint64 -> float64 cast, which is several
# times slower than the mixing itself. With z = hi * 2**12 + lo, 1.0's bits
# with hi as mantissa are 1 + hi * 2**-52, and 2**-52's bits with lo atop the
# mantissa are 2**-52 + lo * 2**-64. Taking 1 and 2**-52 back off is exact,
# so the one rounding is that of the sum, z * 2**-64, as in the cast.
_U_HI_SHIFT = np.uint64(12)
_U_LO_SHIFT = np.uint64(52)
_U_ONE = np.uint64(0x3FF0000000000000)  # bits of 1.0
_U_TINY = np.uint64(0x3CB0000000000000)  # bits of 2.0**-52

# Entries per tile of a vector draw. Drawing FLUX-width weights on a
# 2-vCPU machine, 16k to 64k ran at the same speed and 4k and 256k slower.
_CHUNK = 1 << 15
# Fewest tiles a draw gives each thread: 16 tiles are about 6 ms of mixing,
# against about 0.2 ms to start and join a two-thread pool. Each thread
# holds one tile of scratch, so this also keeps the scratch of a draw small
# next to its result.
_TILES_PER_WORKER = 16

# Entry bound for the uniform weight initializer.
WEIGHT_SCALE = 0.05

# Largest accepted value of each size field of a BackboneConfig. They admit
# full-scale FLUX's shape (24x128 heads, 57 blocks, a 64x64 grid, 512 text
# tokens, 50 steps), not its memory: its weights are 25.8 GB, 453 MB per
# block. Building a config inside them allocates nothing large.
MAX_HEADS = 256
MAX_HEAD_DIM = 1024
MAX_BLOCKS = 1024
MAX_TXT_TOKENS = 4096
MAX_GRID_SIDE = 1024
MAX_STEPS = 10_000


def _mix64(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def derive_seed(*parts: int) -> int:
    """Fold integer parts into one 64-bit stream seed (order-sensitive)."""
    h = 0
    for part in parts:
        h = _mix64((h + _GAMMA + (int(part) & MASK64)) & MASK64)
    return h


def fnv1a64(text: str) -> int:
    """64-bit FNV-1a hash of the UTF-8 encoding of ``text``."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & MASK64
    return h


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity set, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _draw_streams(seeds, count: int, low: float, high: float) -> np.ndarray:
    """``(len(seeds), count)`` floats: row ``s`` is the first ``count`` of stream ``seeds[s]``.

    Each entry is ``low + u * (high - low)`` with ``u = z / 2**64`` rounded
    once to float64. About 1 output ``z`` in 2**54 (``z >= 2**64 - 1024``)
    rounds to ``u = 1.0``, so an entry can be exactly ``high``. Golden files
    and benchmark digests pin these bytes, so the rounding stays.

    The result is filled in tiles of at most ``_CHUNK`` entries: several
    short streams side by side, or one slice of a long stream. Entry ``j`` of
    a tile starting at column ``first`` mixes ``seed + (first + j + 1) * GAMMA``,
    so a tile's bytes do not depend on which thread computes it. A draw with
    ``_TILES_PER_WORKER`` tiles or more per usable core runs on a thread pool
    (numpy's ufunc loops release the GIL) whose threads each take the next
    tile until none is left, so a thread whose core is slowed by other work
    does fewer tiles instead of holding up the draw. Smaller draws run inline
    and start no thread.
    """
    seeds = np.array(seeds, dtype=np.uint64)
    out = np.empty((seeds.size, count), dtype=np.float64)
    if out.size == 0:
        return out
    rows, cols = max(1, _CHUNK // count), min(count, _CHUNK)
    tiles = [(r, min(r + rows, seeds.size), c, min(c + cols, count))
             for r in range(0, seeds.size, rows) for c in range(0, count, cols)]
    # (j + 1) * GAMMA for a tile's columns j, shared read-only by every thread
    steps = np.arange(1, cols + 1, dtype=np.uint64)
    np.multiply(steps, _U_GAMMA, out=steps)

    scratch = min(rows, seeds.size) * cols
    pending = iter(tiles)
    taking = threading.Lock()

    def fill() -> None:
        z = np.empty(scratch, dtype=np.uint64)
        while True:
            with taking:
                tile = next(pending, None)
            if tile is None:
                return
            r0, r1, c0, c1 = tile
            dst = out[r0:r1, c0:c1]
            zc = z[:dst.size].reshape(dst.shape)
            shifted = dst.view(np.uint64)
            base = seeds[r0:r1, None]
            if c0:  # one slice of a long stream
                base = base + np.uint64((c0 * _GAMMA) & MASK64)
            np.add(base, steps[:c1 - c0], out=zc)
            for shift, mult in _U_ROUNDS:
                np.right_shift(zc, shift, out=shifted)
                np.bitwise_xor(zc, shifted, out=zc)
                np.multiply(zc, mult, out=zc)
            np.right_shift(zc, _U_LAST_SHIFT, out=shifted)
            np.bitwise_xor(zc, shifted, out=zc)
            # round(z) / 2**64 as hi * 2**-52 + lo * 2**-64 (see _U_HI_SHIFT)
            np.left_shift(zc, _U_LO_SHIFT, out=shifted)
            np.right_shift(shifted, _U_HI_SHIFT, out=shifted)  # lo atop the mantissa
            np.bitwise_or(shifted, _U_TINY, out=shifted)
            np.right_shift(zc, _U_HI_SHIFT, out=zc)  # hi
            np.bitwise_or(zc, _U_ONE, out=zc)
            hi = zc.view(np.float64)
            np.subtract(hi, 1.0, out=hi)
            np.subtract(dst, 2.0**-52, out=dst)
            np.add(dst, hi, out=dst)
            dst *= high - low
            dst += low

    workers = min(usable_cores(), len(tiles) // _TILES_PER_WORKER)
    if workers < 2:
        fill()
        return out
    # imported here: toy-size runs never start a pool, nor pay for its modules
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        for running in [pool.submit(fill) for _ in range(workers)]:
            running.result()
    return out


def _integral(name: str, value) -> int:
    """``value`` as an int: numpy integers pass, and a float is refused, not truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be integral, got {value!r}") from None


@dataclass(frozen=True)
class BackboneConfig:
    """Shape, rotary geometry and seeding of the toy backbone.

    Defaults give a 4-head model of width 64 on a 4x4 token grid with 8
    blocks, of which {0, 2, 5} share attention, denoised over 10 steps.
    ``d_model`` is derived as ``num_heads * head_dim``, the one value it
    may be given. The rotary arrays (see :mod:`synattn.rope`) ``pair_freqs``,
    ``pair_axes`` and ``channel_pairs`` are built once, read-only, and are
    not fields.
    """

    d_model: int | None = None
    num_heads: int = 4
    head_dim: int = 16
    axis_dims: tuple[int, ...] = (4, 6, 6)
    n_blocks: int = 8
    shared_blocks: frozenset[int] = frozenset({0, 2, 5})
    n_txt_tokens: int = 4
    grid: tuple[int, int] = (4, 4)
    seed: int = 0
    n_steps: int = 10
    theta_base: float = 10000.0

    def __post_init__(self) -> None:
        for name in ("num_heads", "head_dim", "n_blocks", "n_txt_tokens", "seed", "n_steps"):
            object.__setattr__(self, name, _integral(name, getattr(self, name)))
        for name, collect in (("axis_dims", tuple), ("shared_blocks", frozenset), ("grid", tuple)):
            values = getattr(self, name)
            if not isinstance(values, Iterable):
                raise ValueError(f"{name} must be a collection of integers, got {values!r}")
            object.__setattr__(self, name, collect(_integral(name, v) for v in values))
        if len(self.grid) != 2:
            raise ValueError(f"grid must be (height, width), got {self.grid}")
        for name, value, limit in (
            ("num_heads", self.num_heads, MAX_HEADS),
            ("head_dim", self.head_dim, MAX_HEAD_DIM),
            ("n_blocks", self.n_blocks, MAX_BLOCKS),
            ("n_txt_tokens", self.n_txt_tokens, MAX_TXT_TOKENS),
            ("grid height", self.grid[0], MAX_GRID_SIDE),
            ("grid width", self.grid[1], MAX_GRID_SIDE),
            ("n_steps", self.n_steps, MAX_STEPS),
        ):
            if not 1 <= value <= limit:
                raise ValueError(f"{name} must be in [1, {limit}], got {value}")
        if not 0 <= self.seed <= MASK64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        d_model = self.num_heads * self.head_dim
        if self.d_model is not None and _integral("d_model", self.d_model) != d_model:
            raise ValueError(
                f"d_model {self.d_model} != num_heads {self.num_heads} "
                f"* head_dim {self.head_dim}"
            )
        object.__setattr__(self, "d_model", d_model)
        if not all(0 <= b < self.n_blocks for b in self.shared_blocks):
            raise ValueError(
                f"shared_blocks {sorted(self.shared_blocks)} outside "
                f"[0, {self.n_blocks})"
            )
        if len(self.axis_dims) != 3:  # position ids are (marker, row, column)
            raise ValueError(f"axis_dims must have 3 entries, got {self.axis_dims}")
        if sum(self.axis_dims) != self.head_dim:
            raise ValueError(
                f"axis_dims {self.axis_dims} must sum to head_dim {self.head_dim}"
            )
        if any(d <= 0 or d % 2 for d in self.axis_dims):
            raise ValueError(f"every axis dim must be positive and even, got {self.axis_dims}")
        theta = self.theta_base
        if not (isinstance(theta, numbers.Real) and math.isfinite(theta) and theta > 1.0):
            raise ValueError(f"theta_base must be finite and exceed 1, got {theta!r}")
        object.__setattr__(self, "theta_base", float(theta))
        # Derived only now that every size is bounded: the frequency of every channel
        # pair (axis segments concatenated) and the position axis it reads.
        freqs = np.concatenate([
            self.theta_base ** (-2.0 * np.arange(d // 2, dtype=np.float64) / d)
            for d in self.axis_dims
        ])
        axes = np.repeat(np.arange(len(self.axis_dims)), [d // 2 for d in self.axis_dims])
        # Channel c of a token vector belongs to its head's pair (c % head_dim) // 2.
        channel_pairs = np.arange(d_model) % self.head_dim // 2
        for name, value in (("pair_freqs", freqs), ("pair_axes", axes),
                            ("channel_pairs", channel_pairs)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n_img(self) -> int:
        return self.grid[0] * self.grid[1]


def _draw_blocks(config: BackboneConfig, blocks: range) -> np.ndarray:
    """Every matrix of ``blocks``, ``(len(blocks), 6, d, d)``, in one draw, each its own stream."""
    d = config.d_model
    seeds = [derive_seed(config.seed, b, r) for b in blocks for r in range(len(ROLES))]
    return _draw_streams(seeds, d * d, -WEIGHT_SCALE, WEIGHT_SCALE).reshape(
        len(blocks), len(ROLES), d, d
    )


def init_block(config: BackboneConfig, b: int) -> np.ndarray:
    """Draw block ``b``'s ``(6, d, d)`` weights deterministically from the config seed.

    Matrix r (its role ``ROLES[r]``) is the stream seeded by
    ``derive_seed(seed, b, r)``; entries are uniform in
    [-WEIGHT_SCALE, WEIGHT_SCALE]. Every matrix has its own stream, so a
    block drawn alone equals the same block of :func:`init_backbone`.
    """
    if not 0 <= b < config.n_blocks:
        raise ValueError(f"block index {b} outside [0, {config.n_blocks})")
    return _draw_blocks(config, range(b, b + 1))[0]


def init_backbone(config: BackboneConfig) -> np.ndarray:
    """Draw every block's weights, all ``n_blocks * 6`` streams in one draw.

    The result is one C-contiguous float64 ``(n_blocks, 6, d, d)`` array,
    its block ``b`` the bytes of ``init_block(config, b)``.
    """
    return _draw_blocks(config, range(config.n_blocks))


def encode_prompt(prompt: str, config: BackboneConfig) -> np.ndarray:
    """Hash a prompt into an (n_txt_tokens, d_model) embedding matrix.

    Whitespace-split token i seeds its row's stream with
    ``derive_seed(fnv1a64(token))``; if the prompt has fewer tokens than
    ``n_txt_tokens``, row i is padded from ``derive_seed(fnv1a64(prompt), i)``.
    Extra tokens beyond ``n_txt_tokens`` are ignored. All entries are uniform
    in [-1, 1], so rows are never zero vectors in practice.
    """
    tokens = prompt.split()
    if not tokens:
        raise ValueError("prompt must contain at least one token")
    seeds = [
        derive_seed(fnv1a64(tokens[i])) if i < len(tokens) else derive_seed(fnv1a64(prompt), i)
        for i in range(config.n_txt_tokens)
    ]
    return _draw_streams(seeds, config.d_model, -1.0, 1.0)


def initial_noise(config: BackboneConfig) -> np.ndarray:
    """Deterministic stand-in for the Gaussian initial state, uniform in [-1, 1]."""
    seed = derive_seed(config.seed, fnv1a64("noise"))
    return _draw_streams([seed], config.n_img * config.d_model, -1.0, 1.0).reshape(
        config.n_img, config.d_model
    )


def block_forward(
    tokens: np.ndarray,
    block: np.ndarray,
    config: BackboneConfig,
    table: RotaryTable,
    src_image: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One block: attention, output projection, residual, 2-layer tanh MLP, residual.

    ``tokens`` is one branch's ``[text; image]`` matrix, its first
    ``n_txt_tokens`` rows text, or a stack ``(..., n, d)`` of such matrices,
    such as ``(B, n, d)``, one per case, or the engine's ``(2, B, n, d)``
    source/target pair, and ``block`` one block's ``(6, d, d)`` weights,
    unchecked; ``table`` rotates its image rows (with a ``(B,)``
    weight for a stack whose cases differ in ``w``). When ``src_image``, the
    source branch's image rows, is given, every matrix of the stack attends
    to its image keys and values, broadcast over the leading axes; otherwise
    the block runs ordinary self-attention. Returns the
    updated stack and the raw pre-projection attention output for the
    measurement, written into ``out`` when given (a float64 array of
    ``tokens``' shape with contiguous rows, such as the engine's held slot
    for this block) and else into a new array; ``out`` is what is returned.
    """
    attn = joint_attention(tokens, block, config, table, src_image, out)
    tokens = tokens + attn @ block[WO]
    # in place on the sum just made, never on the caller's array
    tokens += np.tanh(tokens @ block[MLP_IN]) @ block[MLP_OUT]
    return tokens, attn
