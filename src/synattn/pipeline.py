"""Paired source/target denoising with adaptive attention sharing.

Both branches start from the same deterministic noise and walk the same
timestep loop. At every step the current positional weight ``w`` is applied
to all rotary embeddings of both branches; in shared blocks the target
branch attends to the source branch's image rows in place of its own. The
block loop ends in one Euler update per branch. Each live case's step is
then closed by :func:`~synattn.measurement.close_step`, whose first failing
block aborts the case, and its record's measurement gives ``w`` for the
next step through :meth:`PipelineConfig.rotary_weight` (first step: w = 1,
or the fixed override for ablations).

The source branch never reads target state: with a fixed override weight
its trajectory is independent of the target prompt and of which blocks
share. Under the adaptive schedule the measurement couples the branches
through ``w`` alone.

Cases whose :class:`BackboneConfig` is the same, every field and the seed
included, run as one stacked computation: the weights, the initial noise
and each distinct prompt's encoding are drawn once for the group, and both
branches of every case are one ``(2, B, n, d)`` pair, axis 0 the source
and the target, with one ``w`` per case. Each layer makes one numpy call
for the whole pair, one block call per block; a shared block hands the
whole pair the source's image rows, so the source attends to its own and
the target to the source's. Every branch of every case still gets
its own BLAS calls, so its bytes are the ones it gets alone. A case that
aborts numerically stores its exception and its rows stay in the pair,
masked: computed but never read again, while the others carry on. A draw
that fails (one that cannot be allocated, say) is every case's of the
group; any other failure is every case's of its sub-batch alone. A prompt
with no tokens is refused when the :class:`PipelineConfig` is built.
:func:`run_groups`, the one batch executor, groups configs by backbone for
:func:`run_batch` and ``synattn run``; :func:`run_edit` is the same engine
on one case.
"""

from __future__ import annotations

import numbers
import sys
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .attention import grid_position_ids
from .backbone import (
    BackboneConfig,
    _usable_cores,
    block_forward,
    encode_prompt,
    init_backbone,
    initial_noise,
)
from .measurement import (
    NumericalAbortError,
    StepRecord,
    Thresholds,
    adaptive_weight,
    close_step,
)
from .numerics import row_cosines
from .rope import rotary_table

__all__ = [
    "PipelineConfig",
    "EditingTrace",
    "run_edit",
    "run_batch",
    "run_groups",
]

# Bytes of branch state (both branches' [text; image] stacks) one stacked
# computation may hold; a larger group runs as several sub-batches, and one
# case always fits. A toy case takes 20 KB and a FLUX-width one 13 MB, so a
# FLUX-width sub-batch is one case. The attention outputs held for a step's
# measurement have the same bound, and one block's always fit: a toy step
# holds all 8 blocks (160 KB a case), a FLUX-width step one block (13 MB) at
# a time and closes its measurement in parts. The attention core's logits
# have their own budget, attention._LOGITS_BYTES.
_STACK_BYTES = 1 << 24


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one edit run depends on."""

    src_prompt: str
    tgt_prompt: str
    backbone: BackboneConfig = BackboneConfig()
    thresholds: Thresholds = Thresholds()
    w_override: float | None = None

    def __post_init__(self) -> None:
        for key in ("src_prompt", "tgt_prompt"):
            value = getattr(self, key)
            if not (isinstance(value, str) and value.split()):
                raise ValueError(f"{key} must contain at least one token, got {value!r}")
            # the config text strips each value and splits lines: it could not carry these
            if value != value.strip() or len(value.splitlines()) != 1:
                raise ValueError(f"{key} must be one line with no surrounding whitespace, got {value!r}")
        for key, kind in (("backbone", BackboneConfig), ("thresholds", Thresholds)):
            if not isinstance(getattr(self, key), kind):
                raise ValueError(f"{key} must be a {kind.__name__}, got {getattr(self, key)!r}")
        w = self.w_override
        if w is not None:
            if not (isinstance(w, numbers.Real) and 0.0 <= w <= 1.0):
                raise ValueError(f"w_override must be a number in [0, 1], got {w!r}")
            object.__setattr__(self, "w_override", float(w))

    def rotary_weight(self, m_prev: float | None) -> float:
        """The schedule: a step's positional weight, given the previous step's measurement.

        The override if set, else 1 on the first step (``m_prev`` None),
        else :func:`adaptive_weight` of ``m_prev``.
        """
        if self.w_override is not None:
            return self.w_override
        return 1.0 if m_prev is None else adaptive_weight(m_prev, self.thresholds)


@dataclass(frozen=True)
class EditingTrace:
    """Step records ordered from t = T down to 1, plus the config they came from."""

    steps: tuple[StepRecord, ...]
    config: PipelineConfig


EditResult = tuple[np.ndarray, np.ndarray, EditingTrace]
Sink = Callable[[int, EditResult | Exception], Any]  # (input index, result) -> a value to yield


def _run_stack(
    configs: Sequence[PipelineConfig], weights: np.ndarray, noise: np.ndarray,
    text: dict[str, np.ndarray],
) -> list[EditResult | Exception]:
    """The paired loop for configs sharing ``weights``, one row of each branch's stack per case.

    A step runs its blocks in chunks of ``n_held``, as many as one held
    buffer, branch first, ``(2, n_held, B, n, d)``, of at most
    ``max(one block, _STACK_BYTES)`` holds; a toy step takes one chunk, a
    FLUX-width step one chunk per block. Each block writes its attention
    output into its slot of the buffer and records which branches are still
    finite, and one :func:`row_cosines` call per chunk writes its blocks'
    ``s_txt`` and ``s_img``. Once every live case has a non-finite block,
    the step runs no further block: the chunk so far is measured, and every
    case's step ends at or before that block. After the Euler update, one
    :func:`close_step` call per live case walks the blocks run in order and
    appends its step record to the case's slot of ``cases``, or puts the
    case's abort in that slot.
    """
    bb = configs[0].backbone
    n_txt = bb.n_txt_tokens
    n_blocks = bb.n_blocks
    # each case's step records, or its abort once it has aborted
    cases: list[list[StepRecord] | NumericalAbortError] = [[] for _ in configs]
    # axis 0 of every pair is (source, target), axis 1 the case
    txt = np.array([[text[c.src_prompt] for c in configs], [text[c.tgt_prompt] for c in configs]])
    # read-only views of the one noise draw; each step's update makes a new array
    x = np.broadcast_to(noise, (2, len(configs), *noise.shape))
    w = np.array([c.rotary_weight(None) for c in configs], dtype=float)
    positions = grid_position_ids(*bb.grid)
    block_shape = (len(configs), n_txt + bb.n_img, bb.d_model)
    n_held = min(n_blocks, max(1, _STACK_BYTES // (2 * 8 * np.prod(block_shape))))
    # branch first, so held[0] and held[1] are contiguous and row_cosines copies nothing
    held = np.empty((2, n_held, *block_shape))
    finite = np.empty((len(configs), n_blocks, 2), dtype=bool)  # case, block, branch
    s_txt, s_img = np.empty((2, len(configs), n_blocks))  # case, block

    # A non-finite value is reported once per case, as its abort, not as numpy warnings.
    # An aborted case's rows stay in the pair, computed but never read again.
    with np.errstate(all="ignore"):
        for t in range(bb.n_steps, 0, -1):
            table = rotary_table(positions, w, bb)
            pair = np.concatenate([txt, x], axis=2)
            run = n_blocks  # blocks this step runs: fewer once every live case has failed
            for first in range(0, n_blocks, n_held):
                last = min(first + n_held, n_blocks)
                for l in range(first, last):
                    # a shared block hands both branches the source's image rows:
                    # the source attends to its own, the target to the source's
                    shared = pair[0, :, n_txt:] if l in bb.shared_blocks else None
                    pair, _ = block_forward(pair, weights[l], bb, table, shared, held[:, l - first])
                    block_ok = np.isfinite(pair).all(axis=(2, 3), out=finite[:, l].T)
                    if not block_ok.all():  # a failure: has every live case one by now?
                        live = [i for i, records in enumerate(cases) if isinstance(records, list)]
                        if not finite[live, :l + 1].all(axis=(1, 2)).any():
                            run = last = l + 1
                            break
                cos = row_cosines(held[0, :last - first], held[1, :last - first])
                # sum / count is np.mean's own arithmetic, without its overhead
                np.divide(cos[..., :n_txt].sum(axis=2), n_txt, out=s_txt[:, first:last].T)
                np.divide(cos[..., n_txt:].sum(axis=2), bb.n_img, out=s_img[:, first:last].T)
                if last == run:
                    break

            # the Euler update toward the step's output
            x = x + (pair[:, :, n_txt:] - x) / bb.n_steps
            # close the step: each live case's blocks in order, its first failure winning
            ok = finite[:, :run].tolist()
            txt_sim, img_sim = s_txt[:, :run].tolist(), s_img[:, :run].tolist()
            for i, records in enumerate(cases):
                if isinstance(records, list):
                    try:
                        records.append(close_step(t, txt_sim[i], img_sim[i], float(w[i]), ok[i]))
                    except NumericalAbortError as exc:
                        cases[i] = exc
                    else:
                        w[i] = configs[i].rotary_weight(records[-1].m_mean)
            if all(isinstance(records, NumericalAbortError) for records in cases):
                return cases

    return [records if isinstance(records, NumericalAbortError) else
            (x[0, i], x[1, i], EditingTrace(steps=tuple(records), config=configs[i]))
            for i, records in enumerate(cases)]


def _run_group(configs: Sequence[PipelineConfig]) -> list[EditResult | Exception]:
    """Run configs that share one backbone, drawing its weights, noise and prompts once.

    The cases run in sub-batches of at most ``_STACK_BYTES`` of state. Each
    result is the case's final states and trace, or its exception: a
    numerical abort is the case's own, a failed draw (a weight, prompt or
    noise draw that cannot be allocated, say) is every case's, and any
    other failure is every case's of its sub-batch alone.
    """
    try:
        bb = configs[0].backbone
        weights = init_backbone(bb)
        prompts = dict.fromkeys(p for c in configs for p in (c.src_prompt, c.tgt_prompt))
        text = {p: encode_prompt(p, bb) for p in prompts}
        noise = initial_noise(bb)
    except Exception as exc:  # noqa: BLE001 - every case of the group raised it
        return [exc] * len(configs)
    case_bytes = 2 * (bb.n_txt_tokens + bb.n_img) * bb.d_model * 8
    per_stack = max(1, _STACK_BYTES // case_bytes)
    results: list[EditResult | Exception] = []
    for start in range(0, len(configs), per_stack):
        stack = configs[start:start + per_stack]
        try:
            results += _run_stack(stack, weights, noise, text)
        except Exception as exc:  # noqa: BLE001 - every case of the sub-batch raised it
            results += [exc] * len(stack)
    return results


def run_edit(config: PipelineConfig) -> EditResult:
    """Run the full paired denoising loop.

    Returns the final source and target image-token matrices and the trace
    of per-step similarities, measurements, and applied weights. This is the
    stacked engine on one case; the case's exception is raised.
    """
    (result,) = _run_group([config])
    if isinstance(result, Exception):
        raise result
    return result


def run_batch(configs: Sequence[PipelineConfig]) -> list[EditingTrace | Exception]:
    """Each config's trace, in input order, from one stacked computation per backbone.

    A failing case stores its exception at that index and the batch
    continues: a numerical abort at the case's own index, the exception it
    raises alone, a failed draw at every index of its backbone group, and
    any other failure at every index of its sub-batch.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("run_batch needs at least one config")

    def keep(i: int, result: EditResult | Exception) -> tuple[int, EditingTrace | Exception]:
        return i, result if isinstance(result, Exception) else result[2]

    traces = dict(kept for group in run_groups(dict(enumerate(configs)), keep) for kept in group)
    return [traces[i] for i in range(len(configs))]


def run_groups(configs: dict[int, PipelineConfig], sink: Sink, jobs: int = 1) -> Iterator[list]:
    """Run configs grouped by backbone; yield each group's ``sink(index, result)`` values.

    ``configs`` maps an input index to its config. Groups come in order of
    first appearance, each list in its group's index order. A result is the
    case's ``(src, tgt, trace)`` or its exception, and the sink runs in the
    process that ran the group. Groups run inline and lazily unless ``jobs``,
    the group count and :func:`_usable_cores` all exceed 1, ``fork`` exists
    and no other thread runs (a fork would copy it mid-state); then up to
    ``jobs`` forked workers run them, and the sink and its values must pickle.
    """
    groups: dict[BackboneConfig, dict[int, PipelineConfig]] = {}
    for i, config in configs.items():
        groups.setdefault(config.backbone, {})[i] = config
    workers = min(jobs, len(groups), _usable_cores())
    if workers > 1 and threading.active_count() == 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
            yield from _run_forked(list(groups.values()), sink, workers, context)
            return
    for group in groups.values():
        yield _sink_group(group, sink)


def _sink_group(group: dict[int, PipelineConfig], sink: Sink) -> list:
    return [sink(i, result) for i, result in zip(group, _run_group(list(group.values())))]


def _run_forked(groups: list[dict], sink: Sink, workers: int, context) -> Iterator[list]:
    """:func:`run_groups` on a pool of ``workers`` forked processes.

    A worker that dies breaks the pool. Every group it had not finished then
    runs again in a process of its own, one after another, so only a group
    that kills its own worker is reported: the parent passes the sink a
    :class:`ChildProcessError` for each of its cases.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    def lost(future) -> bool:
        return isinstance(future.exception(), BrokenProcessPool)

    def alone(group: dict[int, PipelineConfig]) -> list:
        with ProcessPoolExecutor(1, mp_context=context) as pool:
            future = pool.submit(_sink_group, group, sink)
            if not lost(future):
                return future.result()
        died = ChildProcessError("the worker process running this case died")
        return [sink(i, died) for i in group]

    # a forked worker flushes what it inherits of these buffers when it exits
    sys.stdout.flush()
    sys.stderr.flush()
    futures = []
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        try:
            for group in groups:
                futures.append(pool.submit(_sink_group, group, sink))
        except BrokenProcessPool:  # a worker died before every group was queued
            pass
        done = 0
        while done < len(futures) and not lost(futures[done]):
            yield futures[done].result()
            done += 1
    for k in range(done, len(groups)):
        finished = k < len(futures) and not lost(futures[k])
        yield futures[k].result() if finished else alone(groups[k])
