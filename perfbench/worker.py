"""One workload in one fresh process; ``run.py`` starts it and reads its last stdout line.

Modes:
  (default)      closed loop for --seconds, untraced; end-to-end metrics
  --trace 1      a fixed set of operations traced, then the same number untraced
                 for the overhead; per-layer metrics
  --setup-only   import and generate the inputs, report when ready, exit
  --record N     print the output digests of the first N operations (digests.json)
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import synattn  # noqa: E402,F401
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Operations in the traced set: fixed, so that every count repeats exactly.
TRACED_OPS = {"toy-edit": 20, "cli-batch": 1, "flux-width": 1}


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS will use, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(workload: str, seed: int, threads: int | None) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or commit
    src_hash = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src_hash.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


def _p90_with_tail(values: list[float]) -> float | None:
    """90th percentile, only when at least ten samples lie beyond it."""
    if len(values) < 100:
        return None
    return statistics.quantiles(values, n=10)[-1]


def end_to_end(name: str, wl, res: workloads.Result) -> dict:
    """Every end-to-end figure of this workload as {name: (value, unit)}."""
    t = res.times
    m = {}
    if name == "cli-batch":
        n_cases = len(wl.configs)
        m["op_s_p50"] = (statistics.median(t["cycle"]), "s")
        m["cases_per_s"] = (n_cases / statistics.median(t["run_j1"]), "1/s")
        m["cases_per_s_j2"] = (n_cases / statistics.median(t["run_j2"]), "1/s")
        m["stats_s"] = (statistics.median(t["stats"]), "s")
        m["map_s_p50"] = (statistics.median(t["map"]), "s")
    else:
        edits = t["edit"]
        m["op_s_p50"] = (statistics.median(edits), "s")
        m["edit_s_p50"] = m["op_s_p50"]
        p90 = _p90_with_tail(edits)
        if p90 is not None:
            m["edit_s_p90"] = (p90, "s")
        m["cases_per_s"] = (len(edits) / sum(edits), "1/s")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    m["failed_frac"] = (res.failed / max(res.attempted, 1), "ratio")
    return m


def timed_run(name: str, wl, seconds: float) -> tuple[workloads.Result, dict]:
    res = workloads.Result()
    deadline = time.perf_counter() + seconds
    for i in itertools.count():
        wl.run_op(i, res)
        if time.perf_counter() >= deadline:
            break
    samples = {k: len(v) for k, v in res.times.items()}
    return res, {"metrics": end_to_end(name, wl, res), "samples": samples, "times": res.times}


def traced_run(name: str, wl, seed: int) -> tuple[workloads.Result, dict]:
    n = TRACED_OPS[name]
    tr = tracing.Tracer()
    res = workloads.Result()
    tr.install()
    try:
        for i in range(n):
            wl.run_op(i, res)
    finally:
        tr.uninstall()
    out_bytes = getattr(wl, "last_out_bytes", 0)

    # The untraced reference uses the next operations: fresh seeds for the edit
    # workloads, so nothing the traced set drew is reused.
    ref = workloads.Result()
    for i in range(n, 2 * n):
        wl.run_op(i, ref)
    key = "run_j1" if name == "cli-batch" else "edit"
    overhead = statistics.median(res.times[key]) / statistics.median(ref.times[key]) - 1.0

    spans = tr.spans()
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{name}-seed{seed}.npz"
    tr.save(spans_path, spans)
    metrics = per_layer(tr, spans, n, res, tracing.peak_gflops(), overhead, out_bytes)
    res.attempted += ref.attempted
    res.failed += ref.failed
    res.failures += ref.failures
    res.digests_checked += ref.digests_checked
    return res, {"metrics": metrics, "traced_ops": n, "spans": len(spans["start"]),
                 "spans_file": str(spans_path.relative_to(ROOT)), "unmeasured": tr.unmeasured}


def per_layer(tr, spans, n_ops: int, res: workloads.Result, peak: float, overhead: float,
              out_bytes: int) -> dict:
    """Per-layer metrics, per traced operation where they are sums."""
    tot = tracing.totals(tr, spans)
    zero = {"calls": 0.0, "self_s": 0.0, "work": 0.0, "durations": np.zeros(0)}

    def get(fn: str) -> dict:
        return tot.get(fn, zero)

    m = {}

    def calls(fn):
        m[f"{fn}.calls"] = (get(fn)["calls"] / n_ops, "count")

    def self_s(fn):
        m[f"{fn}.self_s"] = (get(fn)["self_s"] / n_ops, "s")

    for fn in ("numerics.matmul", "numerics.as_matrix", "rope.rotate_tokens",
               "attention.shared_attention", "backbone.init_backbone", "backbone.block_forward"):
        calls(fn)
        self_s(fn)
    for fn in ("numerics.softmax_rows", "numerics.cosine_similarity", "attention.attention_map",
               "backbone.encode_prompt", "backbone.initial_noise", "backbone.denoise_step",
               "pipeline.run_edit", "cli.parse_config_text", "cli.write_trace", "cli.write_matrix",
               "cli.parse_trace", "cli.compute_stats", "cli.build_map_inputs"):
        self_s(fn)

    mm = get("numerics.matmul")
    m["numerics.matmul.gflop"] = (mm["work"] / 1e9 / n_ops, "GFLOP")
    m["numerics.matmul.gflops"] = (mm["work"] / 1e9 / mm["self_s"] if mm["self_s"] else 0.0, "GFLOP/s")
    m["numerics.matmul.peak_gflops"] = (peak, "GFLOP/s")
    m["numerics.as_matrix.mb_scanned"] = (get("numerics.as_matrix")["work"] / 1e6 / n_ops, "MB")
    m["backbone.init_backbone.mb_drawn"] = (get("backbone.init_backbone")["work"] / 1e6 / n_ops, "MB")
    keys = tr.init_keys
    m["backbone.init_backbone.repeat_frac"] = (
        (len(keys) - len(set(keys))) / len(keys) if keys else 0.0, "ratio")

    parts = [get(f"measurement.{f}") for f in tracing.LAYERS["measurement"]]
    m["measurement.calls"] = (sum(p["calls"] for p in parts) / n_ops, "count")
    m["measurement.self_s"] = (sum(p["self_s"] for p in parts) / n_ops, "s")

    # --jobs 2 leaves cmd_run waiting on its pool, so its own work is taken at --jobs 1.
    j1 = [(t0, t1) for label, t0, t1 in res.windows if label == "run_j1"]
    j2 = [(t0, t1) for label, t0, t1 in res.windows if label == "run_j2"]
    m["cli.cmd_run.self_s"] = (
        tracing.totals(tr, spans, j1)["cli.cmd_run"]["self_s"] / n_ops if j1 and "cli.cmd_run" in tot else 0.0, "s")
    inflation = 0.0
    if j1 and j2 and "pipeline.run_edit" in tot:
        d1 = tracing.totals(tr, spans, j1)["pipeline.run_edit"]["durations"]
        d2 = tracing.totals(tr, spans, j2)["pipeline.run_edit"]["durations"]
        if len(d1) and len(d2):
            inflation = float(np.median(d2) / np.median(d1))
    m["pipeline.run_edit.inflation_j2"] = (inflation, "ratio")
    m["cli.out_mb"] = (out_bytes / 1e6 / n_ops, "MB")
    m["trace.overhead_frac"] = (overhead, "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", type=int, default=0, metavar="N")
    args = parser.parse_args(argv)

    threads = blas_threads()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    wl = workloads.make(args.workload, args.seed, threads, workdir)
    ready = time.monotonic()
    try:
        if args.setup_only:
            report = {"ready": ready}
        elif args.record:
            report = {"blas_threads": threads, "digests": wl.record_digests(args.record)}
        else:
            run = traced_run if args.trace else timed_run
            extra = (args.seed,) if args.trace else (args.seconds,)
            res, report = run(args.workload, wl, *extra)
            report.update(
                ready=ready, attempted=res.attempted, failed=res.failed, failures=res.failures,
                digests_checked=res.digests_checked, env=environment(args.workload, args.seed, threads),
            )
    finally:
        wl.close()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
