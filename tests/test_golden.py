"""Byte-for-byte comparison of CLI outputs against a committed golden corpus.

Every other determinism test compares a run with a second run of the same
code, so a refactor that changes bits passes them all. These files pin the
bytes themselves.

How the files were made: each ``tests/golden/<case>/`` directory holds a
hand-written ``config.cfg``; the other four files in it were written by
``synattn run --config <case>/config.cfg --out <case>`` with the code as it
stood before the config-schema refactor (one hand-written parser, renderer
and manifest echo per key). The two files in ``tests/golden/maps/`` were
written by ``synattn map`` with the arguments listed in ``MAPS`` below, by
the same code. These are the bytes of OpenBLAS's ``SkylakeX`` kernel. The
products' bytes depend on the kernel, so each other recorded kernel has its
own set in ``tests/golden/<kernel>/``: the same run cases (without their
``config.cfg``, read from the ``SkylakeX`` set) and maps, written by the same
commands under ``OPENBLAS_CORETYPE=<kernel>`` with the code as it stood
before ``RopeConfig`` was folded into ``BackboneConfig``. The in-process
tests compare against the set of the kernel numpy's OpenBLAS runs on, and
fail on a kernel with no set. :func:`test_run_outputs_match_golden_on_kernel`
runs the CLI in fresh processes under every recorded kernel the CPU can
run, so a change that moves bytes on one kernel only fails on any machine.
Writing every set with 1 and with 2 OpenBLAS threads gave the same bytes,
and :func:`test_run_outputs_match_golden_at_blas_threads` checks that
claim for the runs and the maps on every run. It runs all six configs in
one ``synattn run``, so ``adaptive``, ``w_zero`` and ``w_one``, which share a
backbone, go through the stacked engine as one group of three, while each
per-case test runs its config alone. All cases are toy width; at FLUX
width the bytes depend on the BLAS thread count, so such a case could not
be pinned. On OpenBLAS's ``SkylakeX`` kernels the product that differs
between 1 and 2 threads is the ``attention_weights`` ``QKᵀ`` logits over
260 tokens, ``(24, 260, 128) @ (24, 128, 260)``; the ``(260, 3072) @
(3072, 3072)`` projections, and ``QKᵀ`` over 64, 128 or 200 tokens, give
the same bytes on 1 and 2 threads.

Weight draws involve no BLAS, so one FLUX-width draw is pinned:
``flux_width_wq.sha256`` holds the sha256 of block 0's ``wq`` from
``init_block`` at d=3072 (24x128 heads, seed 0), as little-endian float64
bytes in C order, recorded with the vector draw as it stood before it filled
its result in chunks. It guards draws longer than the toy corpus's, drawn
on one thread and split across several.

Nothing here regenerates the files: a mismatch means the program changed
its output.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import synattn.backbone as backbone
from conftest import _openblas_kernel
from synattn import BackboneConfig, derive_seed, init_block
from synattn.cli import main, parse_config_text

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CASES = ("adaptive", "w_zero", "w_one", "grid_3x5", "no_shared", "mixed")
RUN_FILES = ("trace.txt", "src_final.txt", "tgt_final.txt", "manifest.json")
# One recorded set per OpenBLAS kernel; only ever added to, never rewritten.
SETS = {"SkylakeX": GOLDEN, "Haswell": GOLDEN / "Haswell", "Sandybridge": GOLDEN / "Sandybridge"}
MAPS = {
    "prompts": [
        "--config", str(GOLDEN / "grid_3x5" / "config.cfg"),
        "--cell", "2,4", "--w", "0.7", "--block", "3",
    ],
    "constant_field": [
        "--config", str(GOLDEN / "adaptive" / "config.cfg"),
        "--cell", "1,2", "--w", "0.5", "--probe", "constant-field",
    ],
}


def golden_set(kernel: str) -> Path:
    """The directory of ``kernel``'s recorded set; a kernel with none fails, naming it."""
    if kernel not in SETS:
        pytest.fail(f"no golden set recorded for OpenBLAS kernel {kernel!r}; "
                    f"recorded: {', '.join(SETS)}")
    return SETS[kernel]


def test_unrecorded_kernel_fails_naming_it():
    with pytest.raises(pytest.fail.Exception, match="kernel 'Zen'"):
        golden_set("Zen")


@pytest.mark.parametrize("case", CASES)
def test_run_outputs_match_golden(case, tmp_path):
    want = golden_set(_openblas_kernel()) / case
    out = tmp_path / case
    assert main(["run", "--config", str(GOLDEN / case / "config.cfg"), "--out", str(out)]) == 0
    for name in RUN_FILES:
        assert (out / name).read_bytes() == (want / name).read_bytes(), name


@pytest.mark.parametrize("probe", sorted(MAPS))
def test_map_output_matches_golden(probe, tmp_path):
    want = golden_set(_openblas_kernel()) / "maps" / f"{probe}.txt"
    out = tmp_path / f"{probe}.txt"
    assert main(["map", *MAPS[probe], "--out", str(out)]) == 0
    assert out.read_bytes() == want.read_bytes()


def cli_env(**variables: str) -> dict:
    """This process's environment with ``variables`` set and ``src`` importable."""
    env = dict(os.environ, **variables)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def check_corpus(env: dict, want: Path, tmp_path: Path) -> None:
    """All six configs in one ``synattn run``, then both maps, each in a fresh process."""
    def cli(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "synattn.cli", *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr

    configs = [arg for case in CASES for arg in ("--config", str(GOLDEN / case / "config.cfg"))]
    cli("run", *configs, "--out", str(tmp_path))
    for i, case in enumerate(CASES):
        for name in RUN_FILES:
            got = (tmp_path / f"case_{i:03d}" / name).read_bytes()
            assert got == (want / case / name).read_bytes(), f"{case}/{name}"
    for probe, args in MAPS.items():
        out = tmp_path / f"{probe}.txt"
        cli("map", *args, "--out", str(out))
        assert out.read_bytes() == (want / "maps" / f"{probe}.txt").read_bytes(), probe


@pytest.mark.parametrize("threads", ["1", "2"])
def test_run_outputs_match_golden_at_blas_threads(threads, tmp_path):
    # a fresh process per command and thread count: OpenBLAS reads the
    # variable once, at import
    backbones = [parse_config_text((GOLDEN / case / "config.cfg").read_text()).backbone
                 for case in CASES]
    assert backbones[0] == backbones[1] == backbones[2]  # one group of three
    assert len(set(backbones)) == 4
    want = golden_set(_openblas_kernel())
    check_corpus(cli_env(OPENBLAS_NUM_THREADS=threads), want, tmp_path)


@pytest.mark.parametrize("kernel", sorted(SETS))
def test_run_outputs_match_golden_on_kernel(kernel, tmp_path):
    env = cli_env(OPENBLAS_CORETYPE=kernel)
    # a kernel this CPU lacks the instructions for is not run: OpenBLAS
    # either falls back to another kernel or the process dies
    probe = subprocess.run(
        [sys.executable, "-c", "import numpy as np; np.ones((64, 64)) @ np.ones((64, 64)); "
         "from conftest import _openblas_kernel; print(_openblas_kernel())"],
        cwd=ROOT / "tests", env=env, capture_output=True, text=True, timeout=60,
    )
    if probe.returncode != 0 or probe.stdout.strip() != kernel:
        pytest.skip(f"this CPU does not run OpenBLAS kernel {kernel}")
    check_corpus(env, SETS[kernel], tmp_path)


def test_flux_width_weights_match_golden():
    config = BackboneConfig(d_model=3072, num_heads=24, head_dim=128, axis_dims=(16, 56, 56))
    wq = init_block(config, 0)[backbone._ROLES.index("wq")]
    digest = hashlib.sha256(np.ascontiguousarray(wq, dtype="<f8").tobytes()).hexdigest()
    assert digest == (GOLDEN / "flux_width_wq.sha256").read_text().strip()


@pytest.mark.parametrize("cores", [1, 3])
def test_flux_width_weights_match_golden_however_split(cores, monkeypatch):
    # block 0's wq is stream derive_seed(0, 0, 0), drawn inline or in three runs
    monkeypatch.setattr(backbone, "_usable_cores", lambda: cores)
    scale = backbone.WEIGHT_SCALE
    wq = backbone._draw_streams([derive_seed(0, 0, 0)], 3072 * 3072, -scale, scale)
    digest = hashlib.sha256(np.ascontiguousarray(wq, dtype="<f8").tobytes()).hexdigest()
    assert digest == (GOLDEN / "flux_width_wq.sha256").read_text().strip()
