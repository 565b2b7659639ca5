"""synattn benchmark: end-to-end and per-layer metrics of three workloads.

Usage (from the repository root):

  python3 perfbench/run.py --workload toy-edit --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py                   # every workload, one after another

Each workload runs in its own fresh process (worker.py); set-up is timed from
the moment that process is started until its inputs are ready, several times
per run, and the median is reported. A table of every figure goes to stdout,
then, as the last line, one JSON object: {"correct", "attempted", "failed",
"metrics"} with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1) that BENCHMARK.json names. Full results, with the environment, are
written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

# Extra set-up-only processes per run; with the workload's own process they give the set-up median.
SETUP_PROBES = 6
WORKER_TIMEOUT_S = 170

# toy-edit is many small BLAS calls; one BLAS thread keeps it steady. flux-width
# and cli-batch run with the BLAS threading users get by default.
WORKLOAD_ENV = {"toy-edit": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}}


def spec_metrics(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json asks for: per-layer when traced, else end-to-end."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_worker(workload: str, args: list[str], extra_env: dict | None = None) -> tuple[dict, float]:
    """Start worker.py, wait for it, return its report and the start time (monotonic)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, *args]
    env = {**os.environ, **WORKLOAD_ENV.get(workload, {}), **(extra_env or {})}
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{workload} worker did not finish within {WORKER_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), started


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    common = ["--seed", str(seed)]
    setups = []
    for _ in range(SETUP_PROBES):
        probe, started = run_worker(workload, [*common, "--setup-only"])
        setups.append(probe["ready"] - started)
    report, started = run_worker(workload, [*common, "--seconds", str(seconds), "--trace", str(trace)])
    setups.append(report["ready"] - started)
    report["metrics"]["setup_s"] = (statistics.median(setups), "s")
    report["setup_samples_s"] = setups
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(report, indent=1) + "\n")
    return report


def print_report(report: dict) -> None:
    env = report["env"]
    print(f"# {env['workload']} seed={env['seed']} nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} blas={env['blas']} blas_threads={env['blas_threads']} "
          f"commit={env['git_commit']} src_sha256={env['src_sha256'][:16]}")
    print(f"# attempted={report['attempted']} failed={report['failed']} "
          f"digests_checked={report['digests_checked']} samples={report.get('samples', {})}")
    for msg in report["failures"]:
        print(f"# FAILED {msg}")
    for name in report.get("unmeasured", []):
        print(f"# unmeasured: {name} is not in the library")
    for name, (value, unit) in report["metrics"].items():
        print(f"{env['workload']:<11} {name:<36} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that a running worker is killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "synattn" / "__init__.py").is_file():
        print(f"error: no synattn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wanted = spec_metrics(args.trace)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    attempted = failed = 0
    correct = True
    metrics = {}
    try:
        for workload in workloads:
            report = run_workload(workload, args.seed, args.seconds, args.trace)
            print_report(report)
            attempted += report["attempted"]
            failed += report["failed"]
            correct = correct and report["failed"] == 0
            prefix = "" if args.workload else f"{workload}."
            for name, unit in wanted.items():
                value, got_unit = report["metrics"][name]
                if got_unit != unit:
                    raise RuntimeError(f"{name}: unit {got_unit}, expected {unit}")
                metrics[prefix + name] = {"value": value, "unit": unit}
    except (RuntimeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
