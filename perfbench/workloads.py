"""The three benchmark workloads: inputs drawn from a seed, timed operations, output checks.

Every workload is a closed loop with one caller: the next operation starts when
the previous one has returned. Inputs depend only on the workload seed. The
library is always reached through module attributes looked up at call time
(``pipeline.run_edit``, ``cli.main``), so the tracer's rebinding sees them.

Output checks (each mismatch fails the operation it belongs to):

* digests: for ``REFERENCE_SEED`` the outputs are compared with the sha256
  digests in ``digests.json``, recorded from the library by
  ``record_digests.py``;
* for any seed, every trace must be self-consistent: ``ratio == s_img / s_txt``
  per block, ``m_mean`` the mean of the block ratios, timesteps T..1, and each
  ``weight_applied`` the piecewise gate of the previous step's ``m_mean``
  (1 on the first step, or the fixed override);
* for any seed, ``synattn run`` writes byte-identical files at ``--jobs 1``
  and ``--jobs 2``.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS_PATH = HERE / "digests.json"
REFERENCE_SEED = 0

WORKLOADS = ("toy-edit", "cli-batch", "flux-width")

# The gate band the benchmark passes to the program and checks traces against.
M_MIN = 0.9
M_MAX = 1.0

# The acceptance-suite batch: case i uses backbone seed i at workload seed 0.
CASE_PROMPTS = [
    ("a dog standing on grass", "a dog sitting on grass"),
    ("a cat curled on a chair", "a cat stretching on a chair"),
    ("a horse walking in a field", "a horse rearing in a field"),
    ("a woman facing the camera", "a woman facing the window"),
    ("a man holding a cup", "a man raising a cup"),
    ("a bird perched on a branch", "a bird taking off from a branch"),
    ("a child reading a book", "a child throwing a book"),
    ("a fox lying in snow", "a fox jumping in snow"),
    ("a dancer with arms down", "a dancer with arms raised"),
    ("a bear fishing in a river", "a bear swimming in a river"),
    ("a rabbit eating a carrot", "a rabbit running with a carrot"),
    ("a knight kneeling by a gate", "a knight charging by a gate"),
    ("a robot folding its arms", "a robot waving its arms"),
    ("a deer grazing at dawn", "a deer leaping at dawn"),
    ("an owl sleeping on a beam", "an owl hunting from a beam"),
    ("a turtle resting on sand", "a turtle crawling on sand"),
    ("a skater gliding forward", "a skater spinning in place"),
    ("a monkey hanging from a vine", "a monkey climbing a vine"),
    ("a swimmer floating calmly", "a swimmer diving deep"),
    ("a sheep standing in a pen", "a sheep jumping the pen"),
]
SCHEDULES = (("adaptive", None), ("w1", 1.0), ("w0", 0.0))
MAP_WEIGHTS = ("0", "0.5", "1")
GRID = (4, 4)

_SUBJECTS = ("dog", "cat", "horse", "fox", "bear", "rabbit", "deer", "owl",
             "robot", "knight", "dancer", "child")
_ACTIONS = (("standing", "sitting"), ("walking", "running"), ("sleeping", "jumping"),
            ("resting", "climbing"), ("eating", "drinking"), ("lying", "rearing"),
            ("looking up", "looking down"), ("facing left", "facing right"))
_PLACES = ("on grass", "in snow", "by a river", "on a chair", "in a field",
           "at dawn", "under a tree", "on sand")


# ----------------------------------------------------------------------
# trace checks, written independently of the library


def gate(m_prev: float, m_min: float, m_max: float) -> float:
    """The paper's piecewise-linear weight gate."""
    if m_prev > m_max:
        return 0.0
    if m_prev < m_min:
        return 1.0
    return (m_max - m_prev) / (m_max - m_min)


def trace_errors(steps, m_min: float, m_max: float, w_override) -> list[str]:
    """Self-consistency of one trace given as (t, m_mean, w, [(s_txt, s_img, ratio)])."""
    errors = []
    m_prev = None
    n = len(steps)
    for i, (t, m_mean, w, blocks) in enumerate(steps):
        if t != n - i:
            errors.append(f"step {i}: timestep {t}, expected {n - i}")
        ratios = []
        for b, (s_txt, s_img, ratio) in enumerate(blocks):
            if ratio != s_img / s_txt:
                errors.append(f"t={t} block {b}: ratio {ratio!r} != s_img/s_txt")
            ratios.append(ratio)
        if not ratios or m_mean != sum(ratios) / len(ratios):
            errors.append(f"t={t}: m_mean {m_mean!r} is not the mean of the block ratios")
        if w_override is not None:
            expected = w_override
        else:
            expected = 1.0 if m_prev is None else gate(m_prev, m_min, m_max)
        if w != expected:
            errors.append(f"t={t}: weight_applied {w!r}, gate gives {expected!r}")
        m_prev = m_mean
    if n == 0:
        errors.append("trace has no steps")
    return errors


def _library_steps(trace) -> list:
    return [
        (s.timestep, s.m_mean, s.weight_applied, [(b.s_txt, b.s_img, b.ratio) for b in s.blocks])
        for s in trace.steps
    ]


def _file_steps(text: str) -> tuple[dict, list]:
    """Config echo and step rows of a ``trace.txt``, parsed without the library."""
    config, steps = {}, []
    for line in text.splitlines():
        if line.startswith("# config:"):
            key, _, value = line[len("# config:"):].partition("=")
            config[key.strip()] = value.strip()
        elif line and not line.startswith("#"):
            f = line.split()
            blocks = [tuple(float(x) for x in f[3 + 3 * b: 6 + 3 * b]) for b in range((len(f) - 3) // 3)]
            steps.append((int(f[0]), float(f[1]), float(f[2]), blocks))
    return config, steps


def trace_file_errors(text: str) -> list[str]:
    config, steps = _file_steps(text)
    override = config.get("w_override")
    return trace_errors(
        steps,
        float(config.get("m_min", "nan")),
        float(config.get("m_max", "nan")),
        None if override is None else float(override),
    )


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def edit_digest(src, tgt, trace) -> str:
    """One digest over both final states (shape and raw float64 bytes) and the trace values."""
    h = hashlib.sha256()
    for m in (src, tgt):
        h.update(repr(m.shape).encode())
        h.update(m.astype("<f8", copy=False).tobytes())
    for t, m_mean, w, blocks in _library_steps(trace):
        row = [str(t), m_mean.hex(), w.hex()] + [x.hex() for blk in blocks for x in blk]
        h.update((" ".join(row) + "\n").encode())
    return h.hexdigest()


def load_reference(workload: str, seed: int, blas_threads: int | None):
    """Reference digests for this workload and seed, or None when none were recorded.

    flux-width digests are keyed by the BLAS thread count, because its final
    states differ in the last bits between one and two OpenBLAS threads.
    """
    if seed != REFERENCE_SEED or not DIGESTS_PATH.exists():
        return None
    ref = json.loads(DIGESTS_PATH.read_text()).get(workload)
    if ref is not None and "blas_threads" in ref:
        ref = ref["blas_threads"].get(str(blas_threads))
    return ref


# ----------------------------------------------------------------------
# inputs


def edit_config(workload: str, seed: int, index: int):
    """Config of edit ``index``: backbone seed and prompt pair drawn from the workload seed."""
    from synattn import BackboneConfig, PipelineConfig, Thresholds

    rng = random.Random(f"{workload}/{seed}/{index}")
    subject = rng.choice(_SUBJECTS)
    a, b = rng.choice(_ACTIONS)
    place = rng.choice(_PLACES)
    src, tgt = f"a {subject} {a} {place}", f"a {subject} {b} {place}"
    backbone_seed = rng.randrange(2**32)
    if workload == "flux-width":
        backbone = BackboneConfig(
            d_model=3072, num_heads=24, head_dim=128, axis_dims=(16, 56, 56),
            grid=(16, 16), n_txt_tokens=4, n_blocks=2, shared_blocks=frozenset({0}),
            n_steps=2, seed=backbone_seed,
        )
    else:
        backbone = BackboneConfig(seed=backbone_seed)
    return PipelineConfig(src_prompt=src, tgt_prompt=tgt, backbone=backbone,
                          thresholds=Thresholds(M_MIN, M_MAX))


def case_config_text(seed: int, index: int, override) -> str:
    src, tgt = CASE_PROMPTS[index]
    lines = [f"src_prompt = {src}", f"tgt_prompt = {tgt}", f"seed = {len(CASE_PROMPTS) * seed + index}"]
    if override is not None:
        lines.append(f"w_override = {override}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# the workloads


class Result:
    """Per-operation outcomes and timings of one workload process."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests_checked = 0
        self.times: dict[str, list[float]] = {}
        self.windows: list[tuple[str, float, float]] = []

    def record(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{label}: {errors[0]}")

    def time(self, key: str, seconds: float) -> None:
        self.times.setdefault(key, []).append(seconds)


class EditWorkload:
    """toy-edit and flux-width: one library ``run_edit`` per operation, fresh seed each time."""

    def __init__(self, name: str, seed: int, blas_threads: int | None, workdir: Path) -> None:
        self.name = name
        self.seed = seed
        self.reference = load_reference(name, seed, blas_threads)

    def run_op(self, i: int, result: Result) -> None:
        import synattn.pipeline as pipeline

        config = edit_config(self.name, self.seed, i)
        t0 = time.perf_counter()
        try:
            src, tgt, trace = pipeline.run_edit(config)
        except Exception as exc:  # noqa: BLE001 - a raising edit is a counted failure
            result.time("edit", time.perf_counter() - t0)
            result.record(f"edit {i}", [f"{type(exc).__name__}: {exc}"])
            return
        result.time("edit", time.perf_counter() - t0)
        errors = trace_errors(_library_steps(trace), M_MIN, M_MAX, None)
        digest = edit_digest(src, tgt, trace)
        if self.reference is not None and i < len(self.reference):
            result.digests_checked += 1
            if digest != self.reference[i]:
                errors.append("final states or trace differ from the recorded digest")
        result.record(f"edit {i}", errors)

    def record_digests(self, n: int) -> list[str]:
        import synattn.pipeline as pipeline

        return [edit_digest(*pipeline.run_edit(edit_config(self.name, self.seed, i))) for i in range(n)]

    def close(self) -> None:
        pass


class CliWorkload:
    """cli-batch: the acceptance ablation batch through ``synattn.cli.main``, one cycle per operation.

    A cycle is ``run`` over 20 pairs x 3 schedules at ``--jobs 1`` and again at
    ``--jobs 2``, ``stats`` over each schedule's 20 traces, and ``map`` for every
    cell of case 0 at each weight in ``MAP_WEIGHTS``. Each case of each ``run``
    and each ``stats`` and ``map`` call counts as one checked operation.
    """

    def __init__(self, name: str, seed: int, blas_threads: int | None, workdir: Path,
                 n_pairs: int = len(CASE_PROMPTS)) -> None:
        self.workdir = workdir
        self.reference = load_reference(name, seed, blas_threads)
        self.configs = []
        cfg_dir = workdir / "configs"
        cfg_dir.mkdir(parents=True)
        for label, override in SCHEDULES:
            for i in range(n_pairs):
                path = cfg_dir / f"{label}_{i:02d}.cfg"
                path.write_text(case_config_text(seed, i, override))
                self.configs.append(path)
        self.n_pairs = n_pairs
        self._checked = 0
        self._cli_s = 0.0
        self.last_out_bytes = 0

    def _cli(self, argv: list[str]) -> tuple[int | str, float]:
        import synattn.cli as cli

        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - a raising call is a counted failure
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        self._cli_s += elapsed
        return code, elapsed

    def cycle_outputs(self, out: Path, result: Result | None) -> dict[str, bytes]:
        """Run one cycle into ``out``; returns the reference-checked files by relative name."""
        files: dict[str, bytes] = {}
        cfg_args = [a for p in self.configs for a in ("--config", str(p))]
        run_dirs = {}
        for jobs in (1, 2):
            run_dir = out / f"run_j{jobs}"
            t_start = time.perf_counter()
            code, elapsed = self._cli(["run", *cfg_args, "--out", str(run_dir), "--jobs", str(jobs)])
            run_dirs[jobs] = run_dir
            if result is not None:
                result.time(f"run_j{jobs}", elapsed)
                result.windows.append((f"run_j{jobs}", t_start, t_start + elapsed))
            for k in range(len(self.configs)):
                case = run_dir / f"case_{k:03d}"
                errors = [f"run --jobs {jobs} exited with {code}"] if code != 0 else []
                if not errors:
                    errors += self._case_errors(case, jobs, run_dirs[1] / case.name, files)
                if result is not None:
                    result.record(f"run --jobs {jobs} case {k}", errors)

        n = self.n_pairs
        for s, (label, _) in enumerate(SCHEDULES):
            traces = [str(run_dirs[1] / f"case_{s * n + i:03d}" / "trace.txt") for i in range(n)]
            path = out / "stats" / f"{label}.txt"
            path.parent.mkdir(parents=True, exist_ok=True)
            code, elapsed = self._cli(["stats", *traces, "--out", str(path)])
            self._finish(f"stats/{label}.txt", path, code, elapsed, "stats", files, result)

        (out / "map").mkdir(parents=True, exist_ok=True)
        for w in MAP_WEIGHTS:
            for r in range(GRID[0]):
                for c in range(GRID[1]):
                    name = f"map/r{r}c{c}_w{w}.txt"
                    code, elapsed = self._cli(["map", "--config", str(self.configs[0]), "--cell", f"{r},{c}",
                                               "--w", w, "--out", str(out / name)])
                    self._finish(name, out / name, code, elapsed, "map", files, result)
        return files

    def _case_errors(self, case: Path, jobs: int, twin: Path, files: dict) -> list[str]:
        errors = []
        for fname in ("trace.txt", "src_final.txt", "tgt_final.txt", "manifest.json"):
            try:
                data = (case / fname).read_bytes()
                twin_data = (twin / fname).read_bytes()
            except OSError as exc:
                return [f"{fname} unreadable: {exc}"]
            if jobs == 2:
                if data != twin_data:
                    errors.append(f"{fname} differs between --jobs 1 and --jobs 2")
                continue
            if fname != "manifest.json":
                files[f"{case.name}/{fname}"] = data
                errors += self._digest_errors(f"{case.name}/{fname}", data)
            if fname == "trace.txt":
                errors += trace_file_errors(data.decode("utf-8", "replace"))
        return errors

    def _digest_errors(self, name: str, data: bytes) -> list[str]:
        if self.reference is None or name not in self.reference:
            return []
        self._checked += 1
        return [] if sha256(data) == self.reference[name] else [f"{name} differs from the recorded digest"]

    def _finish(self, name, path, code, elapsed, kind, files, result) -> None:
        errors = [f"{kind} exited with {code}"] if code != 0 else []
        if not errors:
            try:
                data = path.read_bytes()
            except OSError as exc:
                data, errors = b"", [f"{name} unreadable: {exc}"]
            files[name] = data
            errors += self._digest_errors(name, data)
        if result is not None:
            result.time(kind, elapsed)
            result.record(name, errors)

    def run_op(self, i: int, result: Result) -> None:
        """One cycle; its time is the sum of the CLI calls, without the benchmark's checks."""
        out = self.workdir / f"cycle_{i}"
        self._checked = 0
        self._cli_s = 0.0
        self.cycle_outputs(out, result)
        result.digests_checked += self._checked
        result.time("cycle", self._cli_s)
        self.last_out_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        shutil.rmtree(out)

    def record_digests(self, n: int) -> dict[str, str]:
        out = self.workdir / "record"
        self._checked = 0
        files = self.cycle_outputs(out, None)
        shutil.rmtree(out)
        return {name: sha256(data) for name, data in files.items()}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def make(name: str, seed: int, blas_threads: int | None, workdir: Path):
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    cls = CliWorkload if name == "cli-batch" else EditWorkload
    return cls(name, seed, blas_threads, workdir)
