"""Record the reference output digests (digests.json) from the library as it stands.

  python3 perfbench/record_digests.py

Runs the first operations of every workload at the reference seed in fresh
worker processes, with the same environment as a benchmark run. flux-width is
recorded at one BLAS thread and at the default, because its outputs differ
between the two; the toy-sized workloads were checked to be identical.
Re-record only when a change is meant to alter the outputs, and say so.
"""

from __future__ import annotations

import json
import sys

from run import run_worker
from workloads import DIGESTS_PATH, REFERENCE_SEED

# Operations recorded per workload: more than one run performs, so each is checked.
RECORDED_OPS = {"toy-edit": 256, "cli-batch": 1, "flux-width": 4}


def record(workload: str, extra_env: dict | None = None) -> dict:
    report, _ = run_worker(workload, ["--seed", str(REFERENCE_SEED), "--record", str(RECORDED_OPS[workload])],
                           extra_env)
    return report


def main() -> int:
    digests = {"seed": REFERENCE_SEED}
    digests["toy-edit"] = record("toy-edit")["digests"]
    digests["cli-batch"] = record("cli-batch")["digests"]
    flux = {}
    for env in ({"OPENBLAS_NUM_THREADS": "1"}, None):
        report = record("flux-width", env)
        flux[str(report["blas_threads"])] = report["digests"]
    digests["flux-width"] = {"blas_threads": flux}
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
