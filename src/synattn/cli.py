"""Command-line front end: run edits, aggregate trace statistics, dump attention maps.

Subcommands
-----------
run    Run one or more edit configs; per config writes trace.txt,
       src_final.txt, tgt_final.txt and manifest.json into the output
       directory (one case_NNN subdirectory per config when several are
       given). The executor is pipeline.run_groups: cases that share a
       backbone (every backbone key, seed included) run as one stacked
       computation, and each group's case directories are written as soon
       as it finishes. --jobs N runs up to N groups at once, each in a
       forked worker that computes and writes its group; the bytes do not
       depend on N. Each worker holds one backbone's weights: at FLUX width
       (d = 3072) about 0.45 GB per block, so 0.9 GB more memory per worker
       for a 2-block backbone. Platforms without the fork start method, and
       callers running other threads, run the groups inline.
stats  Aggregate several trace files: per timestep the mean, population
       standard deviation, and nearest-rank 20th/80th percentiles of the
       editing measurement across traces.
map    Dump one attention map (target query over source image keys) as a
       text grid, at a fixed rotary weight.

Config files are flat key-value text: one ``key = value`` per line, blank
lines and lines starting with ``#`` ignored, unknown or repeated keys
rejected. Keys and defaults are listed in ``run --help``.

All output files are plain text, reproducible byte for byte from the config,
tool version and OpenBLAS kernel. Floats are serialized with 17 significant
digits so every file round-trips losslessly.

Exit codes: 0 success, 1 usage or config error, 2 numerical abort.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from ._version import __version__
from .attention import _ROLES, attention_map
from .backbone import BackboneConfig, encode_prompt, init_block, initial_noise
from .measurement import NumericalAbortError, Thresholds, close_step
from .pipeline import EditingTrace, PipelineConfig, run_groups

__all__ = [
    "ConfigError",
    "CONFIG_FIELDS",
    "parse_config_text",
    "render_config",
    "config_to_dict",
    "write_trace",
    "parse_trace",
    "write_matrix",
    "parse_matrix",
    "nearest_rank_percentile",
    "compute_stats",
    "write_stats",
    "build_map_inputs",
    "cmd_run",
    "cmd_stats",
    "cmd_map",
    "main",
    "entrypoint",
]

# Content scale of the off-query bump in the constant-field probe; small
# enough that full-strength rotation suppression at two cells' displacement
# beats it, large enough to win outright when rotation is off.
PROBE_BUMP_SCALE = 1.2


class ConfigError(ValueError):
    """Malformed run configuration; carries the offending key when known."""

    def __init__(self, message: str, key: str | None = None) -> None:
        super().__init__(message)
        self.key = key


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ----------------------------------------------------------------------
# config files


def _parse_number(kind: type, raw: str, where: str, key: str | None = None):
    try:
        return kind(raw)
    except ValueError:
        expected = "integer" if kind is int else "number"
        raise ConfigError(f"{where}: expected {expected}, got '{raw}'", key) from None


def _parse_int(key: str, raw: str) -> int:
    return _parse_number(int, raw, f"key '{key}'", key)


def _parse_float(key: str, raw: str) -> float:
    return _parse_number(float, raw, f"key '{key}'", key)


def _parse_int_list(key: str, raw: str) -> tuple[int, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(_parse_int(key, part.strip()) for part in raw.split(","))


def _parse_grid(key: str, raw: str) -> tuple[int, int]:
    parts = raw.lower().split("x")
    if len(parts) != 2:
        raise ConfigError(f"key '{key}': expected HxW, got '{raw}'", key)
    return _parse_int(key, parts[0]), _parse_int(key, parts[1])


def _join(values) -> str:
    return ",".join(str(v) for v in values)


class _Kind(NamedTuple):
    parse: Callable[[str, str], Any]  # (key, raw text) -> value
    render: Callable[[Any], str]  # value -> config-file text


_KINDS = {
    "text": _Kind(lambda key, raw: raw, str),
    "int": _Kind(_parse_int, str),
    "float": _Kind(_parse_float, _fmt),
    "int-list": _Kind(_parse_int_list, _join),
    "int-set": _Kind(lambda key, raw: frozenset(_parse_int_list(key, raw)), lambda v: _join(sorted(v))),
    "grid": _Kind(_parse_grid, lambda v: f"{v[0]}x{v[1]}"),
}


class ConfigField(NamedTuple):
    """One config key: where its value lives in a :class:`PipelineConfig` and how it is spelled."""

    key: str
    owner: str  # "pipeline", "backbone" or "thresholds"
    attr: str
    kind: str  # a key of _KINDS
    help: str


# The single source of truth for config keys, in render order. ``w_override``
# stays last because rendering omits it when unset.
CONFIG_FIELDS = (
    ConfigField("src_prompt", "pipeline", "src_prompt", "text", "source prompt"),
    ConfigField("tgt_prompt", "pipeline", "tgt_prompt", "text", "target prompt"),
    ConfigField("seed", "backbone", "seed", "int", "backbone seed, integer in [0, 2**64)"),
    ConfigField("steps", "backbone", "n_steps", "int", "denoising steps T"),
    ConfigField("grid", "backbone", "grid", "grid", "image token grid HxW"),
    ConfigField("blocks", "backbone", "n_blocks", "int", "number of transformer blocks"),
    ConfigField(
        "shared_blocks", "backbone", "shared_blocks", "int-set",
        "comma-separated block indices that share attention",
    ),
    ConfigField("m_min", "thresholds", "m_min", "float", "lower measurement threshold"),
    ConfigField("m_max", "thresholds", "m_max", "float", "upper measurement threshold"),
    ConfigField("num_heads", "backbone", "num_heads", "int", "attention heads"),
    ConfigField("head_dim", "backbone", "head_dim", "int", "per-head dimension"),
    ConfigField(
        "axis_dims", "backbone", "axis_dims", "int-list",
        "three comma-separated even axis splits summing to head_dim",
    ),
    ConfigField("n_txt_tokens", "backbone", "n_txt_tokens", "int", "text tokens per prompt"),
    ConfigField("theta_base", "backbone", "theta_base", "float", "rotary frequency base"),
    ConfigField(
        "w_override", "pipeline", "w_override", "float",
        "fixed rotary weight in [0,1] instead of the adaptive schedule",
    ),
)
_OWNER_DEFAULTS = {
    owner: {d.name: d.default for d in fields(cls)}
    for owner, cls in [("pipeline", PipelineConfig), ("backbone", BackboneConfig),
                       ("thresholds", Thresholds)]
}
# Dataclass default per key; ``MISSING`` marks a required key.
_DEFAULTS = {f.key: _OWNER_DEFAULTS[f.owner][f.attr] for f in CONFIG_FIELDS}


def _value(config: PipelineConfig, f: ConfigField):
    owner = config if f.owner == "pipeline" else getattr(config, f.owner)
    return getattr(owner, f.attr)


def parse_config_text(text: str) -> PipelineConfig:
    """Parse the flat key-value config grammar into a :class:`PipelineConfig`."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{stripped}'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'", key)
        if key in values:
            raise ConfigError(f"line {lineno}: key '{key}' given twice", key)
        values[key] = raw.strip()

    for f in CONFIG_FIELDS:
        if _DEFAULTS[f.key] is MISSING and not values.get(f.key):
            raise ConfigError(f"missing required key '{f.key}'", f.key)

    kwargs: dict[str, dict] = {"pipeline": {}, "backbone": {}, "thresholds": {}}
    for f in CONFIG_FIELDS:
        if f.key in values:
            kwargs[f.owner][f.attr] = _KINDS[f.kind].parse(f.key, values[f.key])
    try:
        return PipelineConfig(
            backbone=BackboneConfig(**kwargs["backbone"]),
            thresholds=Thresholds(**kwargs["thresholds"]),
            **kwargs["pipeline"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def render_config(config: PipelineConfig) -> str:
    """Canonical text form of a config; parses back to an equal config."""
    values = ((f, _value(config, f)) for f in CONFIG_FIELDS)
    return "".join(f"{f.key} = {_KINDS[f.kind].render(v)}\n" for f, v in values if v is not None)


def config_to_dict(config: PipelineConfig) -> dict:
    """JSON-ready echo of a config (for the run manifest): a set sorted, an unset key None."""
    values = ((f.key, _value(config, f)) for f in CONFIG_FIELDS)
    return {key: sorted(v) if isinstance(v, frozenset) else v for key, v in values}


def _key_help() -> str:
    rows = []
    for f in CONFIG_FIELDS:
        default = _DEFAULTS[f.key]
        if default is MISSING:
            note = "required"
        elif default is None:
            note = "default unset"
        else:
            shown = repr(default) if f.kind == "float" else _KINDS[f.kind].render(default)
            note = f"default {shown}"
        rows.append(f"  {f.key:<14} {f.help} ({note})")
    return "\n".join(rows)


# ----------------------------------------------------------------------
# trace files


def write_trace(trace: EditingTrace) -> str:
    """Serialize a trace; one line per timestep, config echoed in the header."""
    n_blocks = trace.config.backbone.n_blocks
    lines = [
        "# synattn trace v1",
        "# columns: timestep m_mean weight_applied then per block: s_txt s_img ratio",
        f"# blocks per step: {n_blocks}",
    ]
    for cfg_line in render_config(trace.config).splitlines():
        lines.append(f"# config: {cfg_line}")
    for step in trace.steps:
        values = [step.timestep, step.m_mean, step.weight_applied]
        for blk in step.blocks:
            values += [blk.s_txt, blk.s_img, blk.ratio]
        # one format per row; "%.17g" prints a float as _fmt does
        lines.append(("%s" + " %.17g" * (len(values) - 1)) % tuple(values))
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> EditingTrace:
    """Inverse of :func:`write_trace`; exact for round-trips.

    Refuses a trace that contradicts itself or that no run can have
    written: a ``# blocks per step`` header that differs from the config's
    ``blocks``, a record count other than the config's ``steps``, timesteps
    that do not run from the record count down to 1, a ``weight_applied``
    other than the config's :meth:`~PipelineConfig.rotary_weight` of the
    previous record's ``m_mean``, a row that :func:`close_step` refuses (a
    non-finite or degenerate similarity, which the engine never writes),
    ratios and an ``m_mean`` other than the record it makes, or a non-finite
    ``m_mean`` (finite ratios whose sum overflows). A malformed number is
    refused naming its line and field.
    """
    config_lines = []
    header_blocks = None
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("# config:"):
            config_lines.append(stripped[len("# config:") :].strip())
        elif stripped.startswith("# blocks per step:"):
            header_blocks = (lineno, stripped[len("# blocks per step:") :].strip())
        elif not stripped.startswith("#"):
            records.append((lineno, stripped))
    if not config_lines:
        raise ConfigError("trace file has no config echo")
    config = parse_config_text("\n".join(config_lines))
    n_blocks = config.backbone.n_blocks
    if header_blocks is not None and header_blocks[1] != str(n_blocks):
        raise ConfigError(
            f"line {header_blocks[0]}: {header_blocks[1]} blocks per step, "
            f"but the config echo has blocks = {n_blocks}"
        )
    if len(records) != config.backbone.n_steps:
        raise ConfigError(
            f"trace has {len(records)} records, "
            f"but the config echo has steps = {config.backbone.n_steps}"
        )

    names = ["m_mean", "weight_applied"] + [
        f"block {b} {name}" for b in range(n_blocks) for name in ("s_txt", "s_img", "ratio")
    ]
    steps = []
    for row, (lineno, line) in enumerate(records):
        values = line.split()
        if len(values) != 1 + len(names):
            raise ConfigError(
                f"line {lineno}: trace record has {len(values)} fields, expected {1 + len(names)}"
            )
        timestep = _parse_number(int, values[0], f"line {lineno}: timestep")
        m_mean, weight, *sims = (
            _parse_number(float, raw, f"line {lineno}: {name}")
            for name, raw in zip(names, values[1:])
        )
        if timestep != len(records) - row:
            raise ConfigError(
                f"line {lineno}: timestep {timestep}, expected {len(records) - row} "
                f"(timesteps run from {len(records)} down to 1)"
            )
        schedule = config.rotary_weight(steps[-1].m_mean if steps else None)
        if weight != schedule:
            raise ConfigError(
                f"line {lineno}: weight_applied {weight!r}, but the schedule gives {schedule!r}"
            )
        try:
            step = close_step(timestep, sims[0::3], sims[1::3], weight, [(True, True)] * n_blocks)
        except NumericalAbortError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
        for b, (block, ratio) in enumerate(zip(step.blocks, sims[2::3])):
            if ratio != block.ratio:
                raise ConfigError(f"line {lineno}: block {b} ratio is not s_img / s_txt")
        if m_mean != step.m_mean:
            raise ConfigError(f"line {lineno}: m_mean is not the mean of the block ratios")
        if not math.isfinite(m_mean):
            raise ConfigError(f"line {lineno}: m_mean {m_mean!r} is not finite")
        steps.append(step)
    return EditingTrace(steps=tuple(steps), config=config)


# ----------------------------------------------------------------------
# matrix / grid files


def write_matrix(m: np.ndarray, tag: str = "matrix", comments: tuple[str, ...] = ()) -> str:
    m = np.asarray(m, dtype=np.float64)
    lines = [f"# {tag} {m.shape[0]} {m.shape[1]}"]
    lines += [f"# {c}" for c in comments]
    # "%.17g" prints a float as format(x, ".17g") does, nan and inf included
    row_format = " ".join(["%.17g"] * m.shape[1])
    lines += [row_format % tuple(row) for row in m.tolist()]
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    rows = []
    shape = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            parts = stripped[1:].split()
            if shape is None and len(parts) == 3 and parts[1].isdigit():
                shape = (int(parts[1]), _parse_number(int, parts[2], f"line {lineno}"))
            continue
        row = [_parse_number(float, x, f"line {lineno}") for x in stripped.split()]
        if rows and len(row) != len(rows[0]):
            raise ConfigError(
                f"line {lineno}: {len(row)} values, the first row has {len(rows[0])}"
            )
        rows.append(row)
    m = np.array(rows, dtype=np.float64)
    if shape is not None and m.shape != shape:
        raise ConfigError(f"matrix body {m.shape} does not match header {shape}")
    return m


# ----------------------------------------------------------------------
# statistics


def nearest_rank_percentile(values, percent: int) -> float:
    """Nearest-rank percentile: the element of rank ceil(percent/100 * n)."""
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("percentile of empty sequence")
    if not 0 < percent <= 100:
        raise ValueError(f"percent must be in (0, 100], got {percent}")
    rank = -(-percent * len(ordered) // 100)  # ceil without float rounding
    return ordered[rank - 1]


def compute_stats(traces: list[EditingTrace]) -> list[tuple[int, float, float, float, float]]:
    """Per-timestep (timestep, mean, std, p20, p80) of m_mean across traces."""
    if not traces:
        raise ConfigError("stats needs at least one trace")
    timeline = [step.timestep for step in traces[0].steps]
    for i, trace in enumerate(traces):
        if [step.timestep for step in trace.steps] != timeline:
            raise ConfigError(
                f"trace {i} has a different timestep sequence than trace 0"
            )
    rows = []
    for row, t in enumerate(timeline):
        values = [trace.steps[row].m_mean for trace in traces]
        mean = sum(values) / len(values)
        std = math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
        rows.append(
            (
                t,
                mean,
                std,
                nearest_rank_percentile(values, 20),
                nearest_rank_percentile(values, 80),
            )
        )
    return rows


def write_stats(rows, n_traces: int) -> str:
    lines = [
        "# synattn stats v1",
        f"# traces: {n_traces}",
        "# percentile: nearest-rank, rank = ceil(p * n); std: population (ddof = 0)",
        "# columns: timestep mean std p20 p80",
    ]
    for t, mean, std, p20, p80 in rows:
        lines.append(f"{t} {_fmt(mean)} {_fmt(std)} {_fmt(p20)} {_fmt(p80)}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# attention-map inputs


def build_map_inputs(
    config: PipelineConfig,
    probe: str,
    block: int | None,
    query_cell: tuple[int, int],
):
    """Target ``[text; image]`` matrix, source image rows, weights and block index for one map.

    probe = 'prompts': both branches at the start of denoising (shared
    noise, prompt-encoded text), the chosen block's ``(6, d, d)`` weights.

    probe = 'constant-field': every image token is the same all-ones vector
    except a single bump token, scaled by PROBE_BUMP_SCALE, half a grid away
    from the query cell; projections are identities. Content is then uniform
    up to the bump, so the map is governed by the rotary term alone, which
    makes the weight's effect directly visible.
    """
    bb = config.backbone
    h, w = bb.grid
    if block is None:
        block = min(bb.shared_blocks) if bb.shared_blocks else 0
    if not 0 <= block < bb.n_blocks:
        raise ConfigError(f"block {block} outside [0, {bb.n_blocks})")

    if probe == "prompts":
        noise = initial_noise(bb)
        tokens = np.vstack([encode_prompt(config.tgt_prompt, bb), noise])
        return tokens, noise, init_block(bb, block), block

    if probe == "constant-field":
        dr, dc = h // 2, w // 2
        if dr == 0 and dc == 0:
            raise ConfigError("constant-field probe needs a grid larger than 1x1")
        base = np.ones(bb.d_model)
        image = np.tile(base, (h * w, 1))
        r, c = query_cell
        bump = ((r + dr) % h) * w + ((c + dc) % w)
        image[bump] *= PROBE_BUMP_SCALE
        tokens = np.vstack([encode_prompt(config.src_prompt, bb), image])
        d = bb.d_model
        return tokens, image, np.broadcast_to(np.eye(d), (len(_ROLES), d, d)), block

    raise ConfigError(f"unknown probe '{probe}'")


# ----------------------------------------------------------------------
# subcommands


def _write_case(out_dir: Path, src_final: np.ndarray, tgt_final: np.ndarray,
                trace: EditingTrace) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "trace.txt").write_text(write_trace(trace))
    (out_dir / "src_final.txt").write_text(write_matrix(src_final))
    (out_dir / "tgt_final.txt").write_text(write_matrix(tgt_final))
    manifest = {
        "tool": "synattn",
        "version": __version__,
        "config": config_to_dict(trace.config),
        "files": {
            "trace": "trace.txt",
            "src_final": "src_final.txt",
            "tgt_final": "tgt_final.txt",
        },
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def _exit_code(exc: Exception) -> int:
    """2 for a numerical abort, 1 for any other failure."""
    return 2 if isinstance(exc, NumericalAbortError) else 1


def _write_or_fail(targets: dict[int, Path], i: int, result) -> tuple[int, str, int] | None:
    """Write case ``i``'s directory, or return ``(i, message, exit code)``; never raises."""
    if not isinstance(result, Exception):
        try:
            _write_case(targets[i], *result)
            return None
        except Exception as exc:  # noqa: BLE001 - reported per index by contract
            result = exc
    return i, str(result), _exit_code(result)


def cmd_run(config_paths: list[str], out_dir: str, jobs: int = 1) -> int:
    """Run every config; one output directory per case when several are given.

    All configs are parsed first. :func:`~synattn.pipeline.run_groups` runs
    the cases that share a backbone as one stacked computation, on up to
    ``jobs`` forked worker processes, and each case's directory is written
    where its group ran, as soon as the group finishes. A failing case is
    reported on stderr by index, in group order, and the batch continues.
    """
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")
    root = Path(out_dir)
    code = 0

    def report(i: int, message: str, exit_code: int) -> None:
        nonlocal code
        print(f"case {i} ({config_paths[i]}): {message}", file=sys.stderr)
        code = max(code, exit_code)

    configs: dict[int, PipelineConfig] = {}
    for i, path in enumerate(config_paths):
        try:
            configs[i] = parse_config_text(Path(path).read_text())
        except Exception as exc:  # noqa: BLE001 - reported per index by contract
            report(i, str(exc), _exit_code(exc))
    targets = {i: root if len(config_paths) == 1 else root / f"case_{i:03d}" for i in configs}
    for failures in run_groups(configs, functools.partial(_write_or_fail, targets), jobs):
        for failure in filter(None, failures):
            report(*failure)
    return code


def cmd_stats(trace_paths: list[str], out_path: str) -> int:
    """Aggregate m_mean across trace files into per-timestep statistics."""
    traces = [parse_trace(Path(p).read_text()) for p in trace_paths]
    rows = compute_stats(traces)
    Path(out_path).write_text(write_stats(rows, len(traces)))
    return 0


def cmd_map(
    config_path: str,
    cell: tuple[int, int],
    w_value: float,
    out_path: str,
    block: int | None = None,
    probe: str = "prompts",
) -> int:
    """Dump one attention map as a text grid."""
    if not 0.0 <= w_value <= 1.0:
        raise ConfigError(f"--w must be in [0, 1], got {w_value}")
    config = parse_config_text(Path(config_path).read_text())
    tokens, src_image, weights, block_used = build_map_inputs(config, probe, block, cell)
    grid = attention_map(tokens, src_image, weights, config.backbone, w_value, cell)
    comments = (
        f"query_cell: {cell[0]} {cell[1]}",
        f"w: {_fmt(w_value)}",
        f"block: {block_used}",
        f"probe: {probe}",
    )
    Path(out_path).write_text(write_matrix(grid, tag="map", comments=comments))
    return 0


# ----------------------------------------------------------------------
# argument parsing


def _parse_cell(raw: str) -> tuple[int, int]:
    parts = raw.split(",")
    if len(parts) != 2:
        raise ConfigError(f"--cell expects ROW,COL, got '{raw}'")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"--cell expects integers, got '{raw}'") from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first :func:`main` call and reused.

    Parsing never changes it, so many :func:`main` calls in one process
    (a batch driven from Python) build it once.
    """
    parser = argparse.ArgumentParser(
        prog="synattn",
        description="Deterministic toy pipeline for adaptive position-weighted attention sharing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run",
        help="run edit configs and write traces, final states, and manifests",
        description=(
            "Config grammar: one 'key = value' per line; blank lines and lines "
            "starting with '#' are ignored; unknown or repeated keys are "
            "rejected.\n\nKeys:\n" + _key_help()
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    run_p.add_argument(
        "--config",
        action="append",
        required=True,
        metavar="FILE",
        help="config file; repeat for a batch (outputs then go to case_NNN subdirectories)",
    )
    run_p.add_argument("--out", required=True, metavar="DIR", help="output directory")
    run_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "run up to N backbone groups at once, each in a forked worker process "
            "(default 1: inline); output bytes do not depend on N"
        ),
    )
    run_p.set_defaults(func=lambda a: cmd_run(a.config, a.out, a.jobs))

    stats_p = sub.add_parser(
        "stats",
        help="aggregate editing-measurement statistics across trace files",
        description=(
            "Writes per-timestep mean, population standard deviation, and "
            "20th/80th percentiles (nearest-rank: the sorted element of rank "
            "ceil(p * n)) of m_mean across the given traces."
        ),
    )
    stats_p.add_argument("traces", nargs="+", metavar="TRACE", help="trace files from 'run'")
    stats_p.add_argument("--out", required=True, metavar="FILE", help="output stats file")
    stats_p.set_defaults(func=lambda a: cmd_stats(a.traces, a.out))

    map_p = sub.add_parser(
        "map",
        help="dump one attention map (target query over source image keys)",
        description=(
            "Evaluates the attention map of the query token at --cell over the "
            "source image keys at rotary weight --w, at the start of denoising. "
            "probe 'prompts' encodes the config's prompts over the initial noise "
            "and uses the weights of --block (default: lowest shared block); "
            "probe 'constant-field' uses "
            "a uniform image with one bump token half a grid away from the query "
            "and identity projections, isolating the positional term."
        ),
    )
    map_p.add_argument("--config", required=True, metavar="FILE")
    map_p.add_argument("--cell", required=True, metavar="R,C", help="query cell row,col")
    map_p.add_argument("--w", required=True, type=float, help="rotary weight in [0, 1]")
    map_p.add_argument("--out", required=True, metavar="FILE", help="output map file")
    map_p.add_argument("--block", type=int, default=None, help="block whose projections to use")
    map_p.add_argument(
        "--probe",
        choices=("prompts", "constant-field"),
        default="prompts",
        help="how the map's inputs are built (default: prompts)",
    )
    map_p.set_defaults(
        func=lambda a: cmd_map(a.config, _parse_cell(a.cell), a.w, a.out, a.block, a.probe)
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (NumericalAbortError, OSError, ValueError, MemoryError) as exc:
        code = _exit_code(exc)
        print(f"{'numerical abort' if code == 2 else 'error'}: {exc}", file=sys.stderr)
        return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
