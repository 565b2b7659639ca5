"""Outside-in tracer: rebinds the library's public functions to span-recording wrappers.

Modules import each other's functions by name (``matmul`` lives in
``numerics`` and is bound again in ``attention`` and ``backbone``), so
installing a wrapper means replacing every module-level binding of the
function object in every ``synattn`` module, not just the defining one.

A span is (name, start, end, parent, thread). Each thread appends to its own
arrays, so recording takes no lock; the parent is the innermost open span of
the same thread. Spans stay in memory until :meth:`Tracer.save`. A function
named in ``LAYERS`` that the library no longer has is reported as unmeasured.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

import numpy as np

LAYERS = {
    "numerics": ("matmul", "as_matrix", "softmax_rows", "cosine_similarity"),
    "rope": ("rotate_tokens",),
    "attention": ("shared_attention", "attention_map"),
    "measurement": ("block_similarity", "editing_measurement", "adaptive_weight"),
    "backbone": ("init_backbone", "encode_prompt", "initial_noise", "block_forward", "denoise_step"),
    "pipeline": ("run_edit",),
    "cli": ("parse_config_text", "write_trace", "write_matrix", "cmd_run", "parse_trace",
            "compute_stats", "build_map_inputs"),
}


def _array_bytes(obj) -> int:
    """Total bytes of every ndarray reachable through dataclass fields, tuples and lists."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_array_bytes(x) for x in obj)
    fields = getattr(obj, "__dataclass_fields__", None)
    if fields:
        return sum(_array_bytes(getattr(obj, f)) for f in fields)
    return 0


def _shape(x) -> tuple:
    shape = getattr(x, "shape", None)
    return np.shape(x) if shape is None else shape


def _matmul_flop(args, out) -> float:
    m, k = _shape(args[0])
    return 2.0 * m * k * _shape(args[1])[1]


# Work recorded per call, in the unit of the metric built from it.
WORK = {
    "numerics.matmul": _matmul_flop,
    "numerics.as_matrix": lambda args, out: float(out.nbytes),
    "backbone.init_backbone": lambda args, out: float(_array_bytes(out)),
}


class _ThreadLog:
    """Spans of one thread: (index, name, parent, start, end) appended as each call returns."""

    __slots__ = ("tid", "count", "spans", "work", "stack")

    def __init__(self) -> None:
        self.tid = threading.get_ident()
        self.count = 0
        self.spans: list[tuple] = []
        self.work: list[tuple[int, float]] = []
        self.stack = [-1]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.unmeasured: list[str] = []
        self.init_keys: list[tuple] = []
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _log(self) -> _ThreadLog:
        log = getattr(self._tls, "log", None)
        if log is None:
            log = self._tls.log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
        return log

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        work = WORK.get(name)
        keys = self.init_keys if name == "backbone.init_backbone" else None
        perf = time.perf_counter
        get_log = self._log

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log = get_log()
            stack = log.stack
            idx = log.count
            log.count = idx + 1
            parent = stack[-1]
            stack.append(idx)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                log.spans.append((idx, name_id, parent, t0, t1))
            if work is not None:
                log.work.append((idx, work(args, out)))
            if keys is not None:
                cfg = args[0] if args else kwargs.get("config")
                keys.append((getattr(cfg, "seed", None), getattr(cfg, "n_blocks", None),
                             getattr(cfg, "d_model", None)))
            return out

        return wrapper

    def install(self) -> None:
        """Replace every module-level binding of each function in ``LAYERS``."""
        layers = {layer: importlib.import_module(f"synattn.{layer}") for layer in LAYERS}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "synattn" or n.startswith("synattn."))]
        for layer, fn_names in LAYERS.items():
            module = layers[layer]
            for fn_name in fn_names:
                fn = getattr(module, fn_name, None)
                if not callable(fn):
                    self.unmeasured.append(f"{layer}.{fn_name}")
                    continue
                wrapper = self._wrap(f"{layer}.{fn_name}", fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def spans(self) -> dict[str, np.ndarray]:
        """All spans as flat arrays; ``parent`` indexes into the same arrays, -1 for a root."""
        cols = {k: [] for k in ("name", "start", "end", "parent", "tid", "work")}
        offset = 0
        for log in self._logs:
            rows = np.array(sorted(log.spans), dtype=np.float64).reshape(-1, 5)
            parents = rows[:, 2].astype(np.int64)
            work = np.zeros(len(rows))
            for idx, value in log.work:
                work[idx] = value
            cols["name"].append(rows[:, 1].astype(np.int64))
            cols["start"].append(rows[:, 3])
            cols["end"].append(rows[:, 4])
            cols["parent"].append(np.where(parents >= 0, parents + offset, -1))
            cols["tid"].append(np.full(len(rows), log.tid, dtype=np.uint64))
            cols["work"].append(work)
            offset += len(rows)
        out = {k: np.concatenate(v) if v else np.zeros(0) for k, v in cols.items()}
        dur = out["end"] - out["start"]
        child = np.zeros_like(dur)
        has_parent = out["parent"] >= 0
        np.add.at(child, out["parent"][has_parent], dur[has_parent])
        out["self"] = dur - child
        return out

    def save(self, path, spans) -> None:
        np.savez_compressed(path, names=np.array(self.names), **spans)


def totals(tracer: Tracer, spans, window=None) -> dict[str, dict[str, float]]:
    """Per function: calls, self seconds, work and span durations, optionally within time windows."""
    keep = np.ones(len(spans["start"]), dtype=bool)
    if window is not None:
        keep = np.zeros_like(keep)
        for t0, t1 in window:
            keep |= (spans["start"] >= t0) & (spans["start"] < t1)
    out = {}
    for i, name in enumerate(tracer.names):
        sel = keep & (spans["name"] == i)
        out[name] = {
            "calls": float(sel.sum()),
            "self_s": float(spans["self"][sel].sum()),
            "work": float(spans["work"][sel].sum()),
            "durations": spans["end"][sel] - spans["start"][sel],
        }
    return out


def peak_gflops(n: int = 1024, repeats: int = 3) -> float:
    """Best achieved rate of one n x n float64 matrix product, in GFLOP/s."""
    rng = np.random.default_rng(0)
    a, b = rng.random((n, n)), rng.random((n, n))
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t0)
    return 2.0 * n**3 / best / 1e9
