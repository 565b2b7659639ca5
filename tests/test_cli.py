import argparse
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import FLUX_SHARED_BLOCKS, percentile_nearest_rank
from synattn import (
    BackboneConfig,
    BlockSimilarity,
    EditingTrace,
    NumericalAbortError,
    PipelineConfig,
    StepRecord,
    Thresholds,
    adaptive_weight,
    run_edit,
)
from synattn.backbone import (
    MAX_BLOCKS,
    MAX_GRID_SIDE,
    MAX_HEADS,
    MAX_STEPS,
    MAX_TXT_TOKENS,
)
from synattn.cli import (
    CONFIG_FIELDS,
    ConfigError,
    _fmt,
    build_map_inputs,
    cmd_run,
    compute_stats,
    config_to_dict,
    main,
    nearest_rank_percentile,
    parse_config_text,
    parse_trace,
    render_config,
    write_matrix,
    write_trace,
)

MINIMAL = "src_prompt = a standing dog\ntgt_prompt = a sitting dog\n"
# one block and two steps: enough for tests about how a batch is run
SMALL = MINIMAL + "blocks = 1\nshared_blocks = 0\nsteps = 2\n"


def run_python(*args, check=True):
    """Run ``python *args`` with a time limit in a fresh interpreter that imports this synattn."""
    import synattn

    src = str(Path(synattn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120, check=check)


def fabricated_trace(m_means, config=None):
    """Trace with chosen per-step measurements and a one-block body, one step per measurement.

    Each step's weight is the one the schedule gives after the previous measurement.
    """
    config = config or parse_config_text(
        MINIMAL + f"blocks = 1\nshared_blocks = 0\nsteps = {len(m_means)}\n"
    )
    steps = []
    weight = 1.0 if config.w_override is None else config.w_override
    for row, m in enumerate(m_means):
        t = len(m_means) - row
        steps.append(
            StepRecord(
                timestep=t,
                blocks=(BlockSimilarity(0, 1.0, m, m),),
                m_mean=m,
                weight_applied=weight,
            )
        )
        if config.w_override is None:
            weight = adaptive_weight(m, config.thresholds)
    return EditingTrace(steps=tuple(steps), config=config)


class TestConfigParsing:
    def test_defaults(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg.src_prompt == "a standing dog"
        assert cfg.backbone.n_steps == 10
        assert cfg.backbone.grid == (4, 4)
        assert cfg.backbone.shared_blocks == frozenset({0, 2, 5})
        assert cfg.thresholds.m_min == 0.9
        assert cfg.w_override is None

    def test_full_round_trip(self):
        text = (
            "src_prompt = a red fox # not a comment\n"
            "tgt_prompt = a leaping red fox\n"
            "seed = 42\nsteps = 6\ngrid = 2x3\nblocks = 4\n"
            "shared_blocks = 1,3\nm_min = 0.85\nm_max = 1.1\n"
            "w_override = 0.25\nnum_heads = 2\nhead_dim = 8\n"
            "axis_dims = 2,2,4\nn_txt_tokens = 3\ntheta_base = 500\n"
        )
        cfg = parse_config_text(text)
        assert cfg.src_prompt == "a red fox # not a comment"
        assert parse_config_text(render_config(cfg)) == cfg

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("# header\n\n" + MINIMAL + "\n# trailing\n")
        assert cfg.backbone.seed == 0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(MINIMAL + "foo = 1\n")
        assert "foo" in str(exc.value)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text(MINIMAL + "seed = 1\nseed = 2\n")

    def test_missing_prompt_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("src_prompt = x\n")

    def test_bad_grid(self):
        with pytest.raises(ConfigError):
            parse_config_text(MINIMAL + "grid = 4\n")

    def test_bad_numbers_surface_key(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(MINIMAL + "steps = many\n")
        assert "key 'steps'" in str(exc.value)

    def test_inconsistent_shape_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text(MINIMAL + "axis_dims = 2,2,2\n")

    def test_full_scale_flux_parses(self):
        shared = ",".join(str(b) for b in sorted(FLUX_SHARED_BLOCKS))
        cfg = parse_config_text(
            MINIMAL + "num_heads = 24\nhead_dim = 128\naxis_dims = 16,56,56\nblocks = 57\n"
            f"shared_blocks = {shared}\ngrid = 64x64\nn_txt_tokens = 512\nsteps = 50\n"
        )
        assert cfg.backbone.d_model == 3072
        assert cfg.backbone.n_img == 4096


# Values rejected when the config is parsed, before any weight is drawn.
# The head_dim case would ask for a 2**49-entry frequency table if it were
# built.
BAD_VALUES = (
    "m_max = inf",
    "m_min = -inf",
    "m_min = nan",
    "theta_base = inf",
    "blocks = 0\nshared_blocks =",
    f"blocks = {MAX_BLOCKS + 1}",
    f"steps = {MAX_STEPS + 1}",
    f"grid = {MAX_GRID_SIDE + 1}x4",
    f"n_txt_tokens = {MAX_TXT_TOKENS + 1}",
    f"num_heads = {MAX_HEADS + 1}",
    "head_dim = 1125899906842624\nnum_heads = 1\naxis_dims = 1125899906842624",
)


class TestNonFiniteConfig:
    @pytest.mark.parametrize("line", BAD_VALUES)
    def test_rejected_at_parse_naming_key(self, line):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(MINIMAL + line + "\n")
        assert line.split()[0] in str(exc.value)

    @pytest.mark.parametrize("line", BAD_VALUES)
    def test_run_exits_one_without_case_directory(self, line, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(MINIMAL + line + "\n")
        good = tmp_path / "good.cfg"
        good.write_text(MINIMAL + "steps = 1\nblocks = 1\nshared_blocks = 0\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(bad), "--config", str(good), "--out", str(out)]) == 1
        assert not (out / "case_000").exists()
        assert (out / "case_001" / "manifest.json").exists()
        assert "case 0" in capsys.readouterr().err


# Valid configs drawn at small sizes; prompts carry no surrounding
# whitespace or line break, which PipelineConfig refuses because the config
# text could not carry them (test_prompt_the_config_text_cannot_carry_is_refused).
prompts = st.from_regex(r"[a-z0-9#=,.]([a-z0-9 #=,.]{0,20}[a-z0-9#=,.])?", fullmatch=True)
# what the grammar strips from a value's ends, and where its splitlines splits
WHITESPACE = [c for c in map(chr, range(0x3001)) if c.isspace()]
LINE_BREAKS = [c for c in WHITESPACE if len(f"a{c}b".splitlines()) == 2]
finite = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def pipeline_configs(draw):
    axis_dims = draw(st.lists(st.sampled_from((2, 4, 6)), min_size=3, max_size=3))
    num_heads = draw(st.integers(1, 3))
    n_blocks = draw(st.integers(1, 6))
    m_min, m_max = sorted(draw(st.lists(finite, min_size=2, max_size=2, unique=True)))
    backbone = BackboneConfig(
        d_model=num_heads * sum(axis_dims),
        num_heads=num_heads,
        head_dim=sum(axis_dims),
        axis_dims=tuple(axis_dims),
        n_blocks=n_blocks,
        shared_blocks=frozenset(draw(st.sets(st.integers(0, n_blocks - 1)))),
        n_txt_tokens=draw(st.integers(1, 5)),
        grid=(draw(st.integers(1, 4)), draw(st.integers(1, 4))),
        seed=draw(st.integers(0, 2**40)),
        n_steps=draw(st.integers(1, 20)),
        theta_base=draw(st.floats(1.0, 1e6, exclude_min=True)),
    )
    return PipelineConfig(
        src_prompt=draw(prompts),
        tgt_prompt=draw(prompts),
        backbone=backbone,
        thresholds=Thresholds(m_min=m_min, m_max=m_max),
        w_override=draw(st.none() | st.floats(0.0, 1.0)),
    )


class TestFieldTable:
    @settings(max_examples=200)
    @given(pipeline_configs())
    def test_render_parse_round_trip(self, config):
        assert parse_config_text(render_config(config)) == config

    @given(pipeline_configs())
    def test_manifest_echo_has_exactly_the_table_keys(self, config):
        echo = config_to_dict(config)
        assert list(echo) == [f.key for f in CONFIG_FIELDS]
        assert echo["w_override"] == config.w_override

    # " a cat" would parse back as "a cat", whose padding rows differ, and a
    # line break would echo a config text that parse_config_text refuses
    @given(prompts, st.booleans(), st.sampled_from(["src_prompt", "tgt_prompt"]), st.data())
    def test_prompt_the_config_text_cannot_carry_is_refused(self, prompt, at_end, key, data):
        if at_end:
            char = data.draw(st.sampled_from(WHITESPACE))
            where = data.draw(st.sampled_from([0, len(prompt)]))
        else:
            char = data.draw(st.sampled_from(LINE_BREAKS))
            where = data.draw(st.integers(0, len(prompt)))
        bad = prompt[:where] + char + prompt[where:]
        with pytest.raises(ValueError, match=f"^{key} must be one line with no surrounding"):
            PipelineConfig(**{"src_prompt": "a dog", "tgt_prompt": "a dog", key: bad})

    # a real-valued field stores float(value): json cannot write a numpy
    # float32, and a bool would echo as true/false
    @pytest.mark.parametrize("m_min, m_max, w, theta", [
        (False, True, True, 10000),
        (np.float32(0.25), np.float32(0.75), np.float32(0.5), np.float32(500.0)),
    ], ids=["bool-and-int", "float32"])
    def test_real_fields_store_floats(self, m_min, m_max, w, theta):
        config = PipelineConfig("a", "b", BackboneConfig(theta_base=theta), Thresholds(m_min, m_max), w)
        echo = config_to_dict(config)
        reals = {key: echo[key] for key in ("m_min", "m_max", "w_override", "theta_base")}
        assert reals == {"m_min": float(m_min), "m_max": float(m_max),
                         "w_override": float(w), "theta_base": float(theta)}
        assert {type(value) for value in reals.values()} == {float}
        json.dumps(echo)
        assert parse_config_text(render_config(config)) == config

    # exit 1 belongs to the boundary: a config it accepts runs to its
    # files (exit 0) or to a numerical abort (exit 2), never to a usage error
    @given(pipeline_configs())
    def test_every_accepted_config_runs(self, config):
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "edit.cfg", Path(tmp) / "out"
            cfg.write_text(render_config(config))
            code = main(["run", "--config", str(cfg), "--out", str(out)])
            assert code in (0, 2)
            if code == 0:
                assert parse_trace((out / "trace.txt").read_text()) == run_edit(config)[2]

    def test_run_help_lists_every_key_once(self, capsys):
        assert main(["run", "--help"]) == 0
        lines = capsys.readouterr().out.splitlines()
        first_words = [line.split()[0] for line in lines if line.strip()]
        for f in CONFIG_FIELDS:
            assert first_words.count(f.key) == 1, f.key
        assert len(CONFIG_FIELDS) == 15
        assert any(line.split()[:1] == ["m_min"] and "(default 0.9)" in line for line in lines)


class TestTraceSerialization:
    def test_real_trace_round_trips_exactly(self):
        _, _, trace = run_edit(parse_config_text(MINIMAL))
        assert parse_trace(write_trace(trace)) == trace

    def test_fabricated_trace_round_trips(self):
        trace = fabricated_trace([1.0, 0.953, 1.07e-3 + 1.0])
        assert parse_trace(write_trace(trace)) == trace

    def test_record_count_matches_steps(self):
        trace = fabricated_trace([1.0, 0.9, 1.1])
        body = [
            line
            for line in write_trace(trace).splitlines()
            if line and not line.startswith("#")
        ]
        assert len(body) == 3

    def test_matrix_round_trip(self):
        # numpy reads the written text back bit for bit, edge values and
        # one-row and one-column matrices included
        edges = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072e-309, 1e300]
        wide = np.random.default_rng(90).normal(size=(5, len(edges))) * 1e3
        wide[2] = edges
        for m in (wide, np.array([edges]), np.array([edges]).T, np.array([[-0.0]])):
            text = write_matrix(m)
            assert text.partition("\n")[0] == f"# matrix {m.shape[0]} {m.shape[1]}"
            got = np.loadtxt(io.StringIO(text), ndmin=2)
            assert got.view(np.uint64).tolist() == m.view(np.uint64).tolist()

    def test_matrix_rows_print_each_float_as_format_17g(self):
        rows = [
            [0.0, -0.0, 5e-324, -2.2250738585072e-309, 1e300],
            [math.nan, math.inf, -math.inf, 0.1, -1.0 / 3.0],
        ]
        body = write_matrix(np.array(rows)).splitlines()[1:]
        assert body == [" ".join(format(x, ".17g") for x in row) for row in rows]

    def test_trace_rows_print_each_float_as_fmt_does(self):
        values = [0.1, 1e-300, 5e-324, -0.0, 1.0 / 3.0, -2.2250738585072e-309, 1e300, 0.0]
        blocks = (BlockSimilarity(0, *values[2:5]), BlockSimilarity(1, *values[5:8]))
        config = parse_config_text(MINIMAL + "blocks = 2\nshared_blocks = 0\nsteps = 1\n")
        step = StepRecord(timestep=1, blocks=blocks, m_mean=values[0], weight_applied=values[1])
        body = write_trace(EditingTrace(steps=(step,), config=config)).splitlines()[-1]
        assert body == " ".join(["1"] + [_fmt(x) for x in values])


def mutate_record(text, row, col, value):
    """Replace field ``col`` of body record ``row``; returns the text and its 1-based line."""
    lines = text.splitlines()
    body = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
    fields = lines[body[row]].split()
    fields[col] = value
    lines[body[row]] = " ".join(fields)
    return "\n".join(lines) + "\n", body[row] + 1


class TestTraceConsistency:
    TEXT = write_trace(fabricated_trace([1.0, 0.9, 1.1]))

    def test_blocks_header_must_match_config(self):
        text = self.TEXT.replace("# blocks per step: 1", "# blocks per step: 2")
        with pytest.raises(ConfigError, match="line 3:"):
            parse_trace(text)

    @pytest.mark.parametrize("headers", [("7", "1"), ("1", "7"), ("1", "1")])
    def test_blocks_header_given_twice_is_refused(self, headers):
        # the second header is refused wherever the one that disagrees sits,
        # and also when both agree with the config
        lines = "".join(f"# blocks per step: {n}\n" for n in headers)
        text = self.TEXT.replace("# blocks per step: 1\n", lines)
        with pytest.raises(ConfigError, match="^line 4: second '# blocks per step' header$"):
            parse_trace(text)

    def test_ratio_must_be_s_img_over_s_txt(self):
        text, lineno = mutate_record(self.TEXT, 1, 5, "0.5")
        with pytest.raises(ConfigError, match=f"line {lineno}: block 0 ratio"):
            parse_trace(text)

    def test_m_mean_must_be_mean_of_ratios(self):
        text, lineno = mutate_record(self.TEXT, 2, 1, "1.0999999999999999")
        with pytest.raises(ConfigError, match=f"line {lineno}: m_mean"):
            parse_trace(text)

    def test_timesteps_must_run_down_to_one(self):
        text, lineno = mutate_record(self.TEXT, 1, 0, "3")
        with pytest.raises(ConfigError, match=f"line {lineno}: timestep 3"):
            parse_trace(text)

    def test_config_echo_required(self):
        text = "".join(line + "\n" for line in self.TEXT.splitlines()
                       if not line.startswith("# config:"))
        with pytest.raises(ConfigError, match="^trace file has no config echo$"):
            parse_trace(text)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("blocks = 1\n", "blocks = 1\n# config: seed = 3\n", "line 10: key 'seed' given twice"),
            ("grid = 4x4\n", "grid 4x4\n", "line 8: expected 'key = value', got 'grid 4x4'"),
            ("blocks = 1\n", "blocks = 1\n# config: foo = 1\n", "line 10: unknown key 'foo'"),
        ],
        ids=["repeated-key", "no-equals", "unknown-key"],
    )
    def test_config_echo_fault_names_its_file_line(self, old, new, message):
        # the config grammar counts the trace file's lines, not the echo's
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_trace(self.TEXT.replace(f"# config: {old}", f"# config: {new}"))

    @pytest.mark.parametrize(
        "col, field", [(0, "timestep: expected integer"), (4, "block 0 s_img: expected number")]
    )
    def test_malformed_number_names_line_and_field(self, col, field):
        text, lineno = mutate_record(self.TEXT, 1, col, "2x")
        with pytest.raises(ConfigError, match=f"line {lineno}: {field}, got '2x'"):
            parse_trace(text)

    @pytest.mark.parametrize("kept", [2, 0])
    def test_record_count_must_match_steps(self, kept):
        # drop the first records, so the kept ones still run down to 1
        lines = self.TEXT.splitlines()
        body = [i for i, line in enumerate(lines) if not line.startswith("#")]
        dropped = set(body[: len(body) - kept])
        text = "".join(line + "\n" for i, line in enumerate(lines) if i not in dropped)
        with pytest.raises(ConfigError, match=f"trace has {kept} records, .* steps = 3"):
            parse_trace(text)

    def test_stats_refuses_contradicting_trace(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text(mutate_record(self.TEXT, 0, 1, "0.5")[0])
        assert main(["stats", str(path), "--out", str(tmp_path / "s.txt")]) == 1
        assert "m_mean" in capsys.readouterr().err

    def test_stats_refuses_degenerate_s_txt(self, tmp_path, capsys):
        # a row whose ratio and m_mean agree with its s_txt, but whose s_txt
        # the engine refuses as degenerate, so no run can have written it
        def with_s_txt(s_txt):
            text = self.TEXT
            for col, value in ((3, s_txt), (5, 0.9 / s_txt), (1, 0.9 / s_txt)):
                text, lineno = mutate_record(text, 1, col, _fmt(value))
            # the schedule's next weight after an m_mean above m_max
            return mutate_record(text, 2, 2, "0")[0], lineno

        assert parse_trace(with_s_txt(1e-5)[0]).steps[1].blocks[0].s_txt == 1e-5
        text, lineno = with_s_txt(1e-7)
        path = tmp_path / "t.txt"
        path.write_text(text)
        assert main(["stats", str(path), "--out", str(tmp_path / "s.txt")]) == 1
        err = capsys.readouterr().err
        assert (f"line {lineno}: degenerate text similarity at timestep 2, block 0: "
                "|s_txt| = 1.000e-07 is below 1e-06") in err
        assert not (tmp_path / "s.txt").exists()

    # block 0's ratio and the m_mean read inf: s_img is inf, or a finite s_img
    # over s_txt overflows (in the last record, whose m_mean no schedule reads)
    @pytest.mark.parametrize("row, s_txt, s_img, message", [
        (1, "1", "inf", "non-finite values at timestep 2, block 0: s_txt = 1.0, s_img = inf"),
        (2, "0.5", "1e308", "m_mean inf is not finite"),
    ], ids=["inf-s_img", "overflowing-ratio"])
    def test_stats_refuses_non_finite_measurement(self, row, s_txt, s_img, message, tmp_path,
                                                  capsys):
        text = self.TEXT
        for col, value in ((3, s_txt), (4, s_img), (5, "inf"), (1, "inf")):
            text, lineno = mutate_record(text, row, col, value)
        path = tmp_path / "t.txt"
        path.write_text(text)
        assert main(["stats", str(path), "--out", str(tmp_path / "s.txt")]) == 1
        assert capsys.readouterr().err == f"error: {path}: line {lineno}: {message}\n"
        assert not (tmp_path / "s.txt").exists()

    # w_one's override is 1; the adaptive schedule starts at 1, and its third
    # record's weight is adaptive_weight of the second's m_mean, about 9.3e-05
    @pytest.mark.parametrize("case, row, weight", [
        ("w_one", 3, "7"), ("adaptive", 0, "0.5"), ("adaptive", 2, "1"),
    ], ids=["override", "adaptive-first", "adaptive-later"])
    def test_stats_refuses_weight_off_the_schedule(self, case, row, weight, tmp_path, capsys):
        golden = (Path(__file__).parent / "golden" / case / "trace.txt").read_text()
        parse_trace(golden)
        text, lineno = mutate_record(golden, row, 2, weight)
        path = tmp_path / "t.txt"
        path.write_text(text)
        assert main(["stats", str(path), "--out", str(tmp_path / "s.txt")]) == 1
        assert f"line {lineno}: weight_applied {float(weight)!r}, but" in capsys.readouterr().err
        assert not (tmp_path / "s.txt").exists()


# Grammar fuzzing: valid configs under line edits (a value swapped for a
# real or junk one, a line swapped for another key's line or for junk), and
# a real trace under small character edits. Integer values reach 2**62: the
# size bounds reject a huge head_dim before its frequency table is built.
fuzz_values = st.one_of(
    st.integers(-2, 2**62).map(str),
    st.sampled_from(["", "2x2", "4X3", "0x3", "4,6,6", "2,2", "0,1", "1.5", "0.9", "-0.0",
                     "nan", "inf", "-inf", "1e400", "1_0", "\u0663", "a dog", "=", "#"]),
    st.text(max_size=8),
)
fuzz_lines = st.one_of(
    st.builds("{} = {}".format, st.sampled_from([f.key for f in CONFIG_FIELDS] + ["bogus"]),
              fuzz_values),
    st.text(max_size=16),
)
line_edits = st.lists(
    st.tuples(st.integers(0, 20), st.booleans(), fuzz_values | fuzz_lines), min_size=1, max_size=3
)
FUZZ_TRACE = write_trace(run_edit(parse_config_text(
    MINIMAL + "steps = 2\ngrid = 2x2\nblocks = 2\nshared_blocks = 1\n"))[2])
char_edits = st.lists(
    st.tuples(st.integers(0, len(FUZZ_TRACE)), st.integers(0, 3),
              st.text("0123456789.-+eExnaif #=:,\n", max_size=3)),
    min_size=1, max_size=4,
)


def edit_lines(text, edits):
    """At line ``at`` (mod count), swap the value (``value_only``) or the whole line for ``new``."""
    lines = text.splitlines()
    for at, value_only, new in edits:
        at %= len(lines)
        lines[at] = f"{lines[at].partition('=')[0]}= {new}" if value_only else new
    return "\n".join(lines)


def edit_chars(text, edits):
    """Replace ``cut`` characters at each ``at`` (clipped to the text) with ``new``."""
    for at, cut, new in edits:
        at = min(at, len(text))
        text = text[:at] + new + text[at + cut :]
    return text


def parsed_or_none(parse, text):
    """``parse(text)``, or None when it raises ConfigError; any other exception propagates."""
    try:
        return parse(text)
    except ConfigError:
        return None


class TestGrammarFuzz:
    """Any text either parses and round-trips, or raises ConfigError."""

    @settings(max_examples=200)
    @given(pipeline_configs(), line_edits)
    def test_config_text_parses_and_round_trips_or_is_a_config_error(self, config, edits):
        config = parsed_or_none(parse_config_text, edit_lines(render_config(config), edits))
        if config is not None:
            assert parse_config_text(render_config(config)) == config

    @settings(max_examples=400)
    @given(char_edits)
    def test_edited_trace_parses_and_round_trips_or_is_a_config_error(self, edits):
        trace = parsed_or_none(parse_trace, edit_chars(FUZZ_TRACE, edits))
        if trace is not None:
            # compared as text: a nan weight_applied survives the round trip but not ==
            text = write_trace(trace)
            assert write_trace(parse_trace(text)) == text


class TestStats:
    def test_single_trace(self):
        trace = fabricated_trace([1.0, 0.95, 0.9])
        rows = compute_stats([trace])
        for (t, mean, std, p20, p80), step in zip(rows, trace.steps):
            assert t == step.timestep
            assert mean == step.m_mean
            assert std == 0.0
            assert p20 == step.m_mean
            assert p80 == step.m_mean

    def test_five_known_values(self):
        traces = [fabricated_trace([float(v)]) for v in (3, 1, 5, 2, 4)]
        (t, mean, std, p20, p80), = compute_stats(traces)
        assert mean == 3.0
        assert p20 == 1.0
        assert p80 == 4.0
        assert p20 == percentile_nearest_rank([1, 2, 3, 4, 5], 20)
        assert p80 == percentile_nearest_rank([1, 2, 3, 4, 5], 80)

    def test_constant_traces_have_zero_std(self):
        traces = [fabricated_trace([0.97, 0.97]) for _ in range(4)]
        for _, _, std, _, _ in compute_stats(traces):
            assert std == 0.0

    def test_percentile_matches_oracle_on_random_data(self):
        rng = np.random.default_rng(91)
        for n in (1, 2, 5, 9, 20, 37):
            values = list(rng.uniform(0.5, 1.5, size=n))
            for p in (20, 50, 80, 100):
                assert nearest_rank_percentile(values, p) == percentile_nearest_rank(values, p)

    def test_mismatched_timesteps_rejected(self):
        with pytest.raises(ConfigError):
            compute_stats([fabricated_trace([1.0, 1.0]), fabricated_trace([1.0])])

    def test_no_traces_refused(self):
        with pytest.raises(ConfigError, match="^stats needs at least one trace$"):
            compute_stats([])

    @pytest.mark.parametrize("values, percent, message", [
        ([], 50, "percentile of empty sequence"),
        ([1.0, 2.0], 0, "percent must be in (0, 100], got 0"),
        ([1.0, 2.0], 101, "percent must be in (0, 100], got 101"),
    ], ids=["empty", "percent-0", "percent-101"])
    def test_percentile_refusals(self, values, percent, message):
        with pytest.raises(ValueError) as exc:
            nearest_rank_percentile(values, percent)
        assert type(exc.value) is ValueError
        assert str(exc.value) == message


@pytest.fixture
def inline_pools(monkeypatch):
    """Replace ``ProcessPoolExecutor`` with pools that run each group in this process.

    Returns a log whose ``sizes`` lists each pool's ``max_workers``, so a
    pool's size is checked without starting a process. Setting
    ``refuse = n`` makes the first pool raise ``BrokenProcessPool`` on its
    submission after the first ``n``, as a pool whose worker died does.
    """
    import concurrent.futures
    from concurrent.futures.process import BrokenProcessPool
    from types import SimpleNamespace

    log = SimpleNamespace(sizes=[], refuse=None)

    class InlinePool:
        def __init__(self, max_workers, mp_context=None):
            self.accept = log.refuse if not log.sizes else None
            log.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            if self.accept is not None:
                if self.accept == 0:
                    raise BrokenProcessPool("a worker died")
                self.accept -= 1
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return log


class TestRunCommand:
    def test_run_writes_all_outputs(self, tmp_path):
        cfg_file = tmp_path / "edit.cfg"
        cfg_file.write_text(MINIMAL)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 0
        trace = parse_trace((out / "trace.txt").read_text())
        assert len(trace.steps) == 10
        for name in ("src_final.txt", "tgt_final.txt"):
            assert (out / name).read_text().startswith("# matrix 16 64\n")
            assert np.loadtxt(out / name, ndmin=2).shape == (16, 64)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "synattn"
        assert manifest["config"]["src_prompt"] == "a standing dog"

    def test_byte_identical_reruns(self, tmp_path):
        cfg_file = tmp_path / "edit.cfg"
        cfg_file.write_text(MINIMAL)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", "--config", str(cfg_file), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(cfg_file), "--out", str(out2)]) == 0
        for name in ("trace.txt", "src_final.txt", "tgt_final.txt", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_unknown_key_exits_one_and_names_it(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(MINIMAL + "foo = 1\n")
        code = main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "foo" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path):
        code = main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_batch_layout_and_error_reporting(self, tmp_path, capsys):
        good = tmp_path / "good.cfg"
        good.write_text(MINIMAL)
        bad = tmp_path / "bad.cfg"
        bad.write_text(MINIMAL + "foo = 1\n")
        out = tmp_path / "batch"
        code = main(
            ["run", "--config", str(good), "--config", str(bad),
             "--config", str(good), "--out", str(out)]
        )
        assert code == 1
        assert (out / "case_000" / "trace.txt").exists()
        assert (out / "case_002" / "trace.txt").exists()
        assert not (out / "case_001").exists()
        assert "case 1" in capsys.readouterr().err

    def test_failed_write_is_reported_by_index(self, tmp_path, capsys):
        # case 1's directory cannot be made (a file holds its name); the cases
        # of its group before and after it are still written
        cfg = tmp_path / "edit.cfg"
        cfg.write_text(SMALL)
        out = tmp_path / "batch"
        out.mkdir()
        (out / "case_001").write_text("not a directory")
        assert main(["run", *["--config", str(cfg)] * 3, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"case 1 ({cfg}): ")
        assert (out / "case_001").read_text() == "not a directory"
        for case in ("case_000", "case_002"):
            assert sorted(p.name for p in (out / case).iterdir()) == [
                "manifest.json", "src_final.txt", "tgt_final.txt", "trace.txt"]

    def test_abort_inside_a_group_spares_the_other_cases(self, tmp_path, capsys, monkeypatch):
        # three cases share a backbone; NaN in one target prompt aborts that
        # case alone, and the other two write the bytes they write alone
        import synattn.pipeline as pipeline_mod

        real = pipeline_mod.encode_prompt

        def poisoned(prompt, bb):
            out = real(prompt, bb)
            if prompt == "a poisoned dog":
                out[0, 0] = np.nan
            return out

        monkeypatch.setattr(pipeline_mod, "encode_prompt", poisoned)
        texts = [MINIMAL, "src_prompt = a standing dog\ntgt_prompt = a poisoned dog\n",
                 MINIMAL + "w_override = 0\n"]
        cfgs = []
        for i, text in enumerate(texts):
            (tmp_path / f"c{i}.cfg").write_text(text)
            cfgs += ["--config", str(tmp_path / f"c{i}.cfg")]
        out = tmp_path / "batch"
        assert main(["run", *cfgs, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"case 1 ({tmp_path / 'c1.cfg'}): non-finite values at timestep 10, "
                       "block 0: target branch stream"]
        assert not (out / "case_001").exists()
        for i in (0, 2):
            alone = tmp_path / f"alone{i}"
            assert main(["run", "--config", str(tmp_path / f"c{i}.cfg"), "--out", str(alone)]) == 0
            for name in ("trace.txt", "src_final.txt", "tgt_final.txt", "manifest.json"):
                assert (out / f"case_{i:03d}" / name).read_bytes() == (alone / name).read_bytes()

    def test_jobs_do_not_change_bytes(self, tmp_path, capsys, monkeypatch):
        # three backbone groups (seeds 0, 2, 1 in order of first appearance),
        # a config that fails to parse and two cases that abort numerically;
        # every file, the stderr lines in group order and the exit code agree
        # between the inline run and two and three worker processes
        import synattn.pipeline as pipeline_mod

        real = pipeline_mod.encode_prompt

        def poisoned(prompt, bb):
            out = real(prompt, bb)
            if prompt == "a poisoned dog":
                out[0, 0] = np.nan
            return out

        monkeypatch.setattr(pipeline_mod, "encode_prompt", poisoned)
        monkeypatch.setattr(pipeline_mod, "usable_cores", lambda: 4)
        poison = "src_prompt = a standing dog\ntgt_prompt = a poisoned dog\n"
        texts = [MINIMAL + "seed = 0\n", poison + "seed = 2\n", MINIMAL + "foo = 1\n",
                 MINIMAL + "seed = 1\n", MINIMAL + "seed = 0\nw_override = 0\n",
                 MINIMAL + "seed = 2\n", poison + "seed = 1\nw_override = 1\n"]
        cfgs = []
        for i, text in enumerate(texts):
            (tmp_path / f"c{i}.cfg").write_text(text)
            cfgs += ["--config", str(tmp_path / f"c{i}.cfg")]
        abort = "non-finite values at timestep 10, block 0: target branch stream"
        expected_err = [
            f"case 2 ({tmp_path / 'c2.cfg'}): line 3: unknown key 'foo'",
            f"case 1 ({tmp_path / 'c1.cfg'}): {abort}",
            f"case 6 ({tmp_path / 'c6.cfg'}): {abort}",
        ]
        files = ("trace.txt", "src_final.txt", "tgt_final.txt", "manifest.json")
        outputs = {}
        for jobs in (1, 2, 3):
            out = tmp_path / f"jobs{jobs}"
            assert main(["run", *cfgs, "--out", str(out), "--jobs", str(jobs)]) == 2
            assert capsys.readouterr().err.splitlines() == expected_err
            assert sorted(p.name for p in out.iterdir()) == [f"case_{i:03d}" for i in (0, 3, 4, 5)]
            outputs[jobs] = {(i, name): (out / f"case_{i:03d}" / name).read_bytes()
                             for i in (0, 3, 4, 5) for name in files}
        assert outputs[2] == outputs[1]
        assert outputs[3] == outputs[1]

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_usage_error(self, jobs, tmp_path, capsys):
        cfg_file = tmp_path / "edit.cfg"
        cfg_file.write_text(MINIMAL)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_file), "--out", str(out), "--jobs", jobs]) == 1
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "jobs, n_groups, cores, methods, threads, sizes",
        [
            (1000, 3, 8, ["fork", "spawn"], 1, [3]),
            (1000, 3, 2, ["fork", "spawn"], 1, [2]),
            (2, 3, 8, ["fork", "spawn"], 1, [2]),
            (1, 3, 8, ["fork", "spawn"], 1, []),
            (1000, 1, 8, ["fork", "spawn"], 1, []),
            (1000, 3, 1, ["fork", "spawn"], 1, []),
            (1000, 3, 8, ["spawn"], 1, []),
            (1000, 3, 8, ["fork", "spawn"], 2, []),
        ],
    )
    def test_pool_size_is_bounded_by_jobs_groups_and_cores(
        self, jobs, n_groups, cores, methods, threads, sizes, tmp_path, monkeypatch, inline_pools
    ):
        import multiprocessing
        import threading

        import synattn.pipeline as pipeline_mod

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
        monkeypatch.setattr(threading, "active_count", lambda: threads)
        monkeypatch.setattr(pipeline_mod, "usable_cores", lambda: cores)
        cfgs = []
        for i in range(4):
            f = tmp_path / f"c{i}.cfg"
            f.write_text(SMALL + f"seed = {i % n_groups}\n")
            cfgs += ["--config", str(f)]
        out = tmp_path / "o"
        assert main(["run", *cfgs, "--out", str(out), "--jobs", str(jobs)]) == 0
        assert inline_pools.sizes == sizes
        assert all((out / f"case_{i:03d}" / "manifest.json").exists() for i in range(4))

    def test_pool_broken_while_queueing_runs_the_rest_alone(
        self, tmp_path, monkeypatch, inline_pools
    ):
        import synattn.pipeline as pipeline_mod

        monkeypatch.setattr(pipeline_mod, "usable_cores", lambda: 4)
        inline_pools.refuse = 1  # the second group finds the pool broken
        cfgs = []
        for i in range(3):
            f = tmp_path / f"c{i}.cfg"
            f.write_text(SMALL + f"seed = {i}\n")
            cfgs += ["--config", str(f)]
        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        assert main(["run", *cfgs, "--out", str(serial)]) == 0
        assert main(["run", *cfgs, "--out", str(pooled), "--jobs", "2"]) == 0
        assert inline_pools.sizes == [2, 1, 1]
        for i in range(3):
            for name in ("trace.txt", "src_final.txt", "tgt_final.txt", "manifest.json"):
                case = f"case_{i:03d}"
                assert (pooled / case / name).read_bytes() == (serial / case / name).read_bytes()

    def test_dead_worker_is_reported_and_spares_the_other_groups(self, tmp_path):
        # runs in a child interpreter with a time limit, so a pool that waits
        # on a dead worker fails the test instead of hanging it
        cfgs = []
        for i in range(6):
            f = tmp_path / f"c{i}.cfg"
            f.write_text(MINIMAL + f"seed = {i % 3}\n" + ("w_override = 0\n" if i >= 3 else ""))
            cfgs += ["--config", str(f)]
        serial = tmp_path / "serial"
        assert main(["run", *cfgs, "--out", str(serial)]) == 0
        probe = (
            "import multiprocessing, os, sys\n"
            "import synattn.cli as cli, synattn.pipeline as pipeline\n"
            "real, parent = pipeline._run_group, os.getpid()\n"
            "def dying(configs):  # the forked workers inherit this patch\n"
            "    if configs[0].backbone.seed == 1:\n"
            "        assert os.getpid() != parent, 'the group ran inline'\n"
            "        os._exit(3)\n"
            "    return real(configs)\n"
            "pipeline._run_group = dying\n"
            "pipeline.usable_cores = lambda: 2\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(code, multiprocessing.active_children())\n"
        )
        out = tmp_path / "parallel"
        proc = run_python("-c", probe, "run", *cfgs, "--out", str(out), "--jobs", "2")
        assert proc.stdout.split() == ["1", "[]"]
        err = proc.stderr.splitlines()
        assert [line.split(" (")[0] for line in err] == ["case 1", "case 4"]
        assert all(line.endswith("the worker process running this case died") for line in err)
        assert not (out / "case_001").exists() and not (out / "case_004").exists()
        for i in (0, 2, 3, 5):
            for name in ("trace.txt", "src_final.txt", "tgt_final.txt", "manifest.json"):
                case = f"case_{i:03d}"
                assert (out / case / name).read_bytes() == (serial / case / name).read_bytes()

    def test_numerical_abort_exits_two(self, tmp_path, capsys, monkeypatch):
        import synattn.pipeline as pipeline_mod

        def blow_up(config):
            raise NumericalAbortError(7, 2, "target branch stream")

        monkeypatch.setattr(pipeline_mod, "init_backbone", blow_up)
        cfg_file = tmp_path / "edit.cfg"
        cfg_file.write_text(MINIMAL)
        code = main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "timestep 7" in err and "block 2" in err

    def test_non_finite_state_exits_two_without_case_directory(self, tmp_path, capsys, monkeypatch):
        import synattn.pipeline as pipeline_mod

        real = pipeline_mod.initial_noise
        monkeypatch.setattr(pipeline_mod, "initial_noise", lambda bb: real(bb) * np.nan)
        cfg_file = tmp_path / "edit.cfg"
        cfg_file.write_text(MINIMAL)
        out = tmp_path / "o"
        assert cmd_run([str(cfg_file)], str(out)) == 2
        assert not out.exists()
        assert "timestep 10, block 0: source branch stream" in capsys.readouterr().err

    def test_inf_state_aborts_without_numpy_warning(self, tmp_path, recwarn, monkeypatch):
        # inf (unlike NaN) makes numpy warn inside the loop; pytest captures
        # such warnings, so recwarn, not stderr, is where one would show
        import synattn.pipeline as pipeline_mod

        real = pipeline_mod.initial_noise
        monkeypatch.setattr(pipeline_mod, "initial_noise", lambda bb: real(bb) * np.inf)
        cfg_file = tmp_path / "edit.cfg"
        cfg_file.write_text(MINIMAL)
        assert cmd_run([str(cfg_file)], str(tmp_path / "o")) == 2
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestStatsCommand:
    def test_stats_file_matches_compute(self, tmp_path):
        paths = []
        for i, m in enumerate(([1.0, 0.9], [1.1, 0.8], [0.95, 1.05])):
            p = tmp_path / f"t{i}.txt"
            p.write_text(write_trace(fabricated_trace(m)))
            paths.append(str(p))
        out = tmp_path / "stats.txt"
        assert main(["stats", *paths, "--out", str(out)]) == 0
        body = [
            line.split()
            for line in out.read_text().splitlines()
            if line and not line.startswith("#")
        ]
        rows = compute_stats([parse_trace((tmp_path / f"t{i}.txt").read_text()) for i in range(3)])
        for fields, (t, mean, std, p20, p80) in zip(body, rows):
            assert int(fields[0]) == t
            assert float(fields[1]) == mean
            assert float(fields[2]) == std
            assert float(fields[3]) == p20
            assert float(fields[4]) == p80

    def test_parse_fault_names_its_trace(self, tmp_path, capsys):
        paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
        text = write_trace(fabricated_trace([1.0, 0.9]))
        paths[0].write_text(text)
        text, lineno = mutate_record(text, 0, 0, "7")
        paths[1].write_text(text)
        assert main(["stats", *map(str, paths), "--out", str(tmp_path / "s.txt")]) == 1
        assert capsys.readouterr().err == (
            f"error: {paths[1]}: line {lineno}: timestep 7, expected 2 "
            "(timesteps run from 2 down to 1)\n"
        )

    def test_mismatched_lengths_exit_one(self, tmp_path):
        a = tmp_path / "a.txt"
        a.write_text(write_trace(fabricated_trace([1.0, 1.0])))
        b = tmp_path / "b.txt"
        b.write_text(write_trace(fabricated_trace([1.0])))
        out = tmp_path / "s.txt"
        assert main(["stats", str(a), str(b), "--out", str(out)]) == 1


class TestMapCommand:
    def test_map_sums_to_one_after_reparse(self, tmp_path):
        cfg_file = tmp_path / "edit.cfg"
        cfg_file.write_text(MINIMAL)
        out = tmp_path / "map.txt"
        assert main(
            ["map", "--config", str(cfg_file), "--cell", "1,2", "--w", "0.7",
             "--out", str(out)]
        ) == 0
        assert out.read_text().startswith("# map 4 4\n")
        grid = np.loadtxt(out, ndmin=2)
        assert grid.shape == (4, 4)
        assert abs(grid.sum() - 1.0) <= 1e-9

    def test_probe_argmax_switches_with_weight(self, tmp_path):
        cfg_file = tmp_path / "edit.cfg"
        cfg_file.write_text(MINIMAL)
        maps = {}
        for w in ("0", "1"):
            out = tmp_path / f"map{w}.txt"
            assert main(
                ["map", "--config", str(cfg_file), "--cell", "1,2", "--w", w,
                 "--out", str(out), "--probe", "constant-field"]
            ) == 0
            assert out.read_text().startswith("# map 4 4\n")
            maps[w] = np.loadtxt(out, ndmin=2)
        on = np.unravel_index(np.argmax(maps["1"]), (4, 4))
        off = np.unravel_index(np.argmax(maps["0"]), (4, 4))
        assert on == (1, 2)
        assert off != (1, 2)

    def test_repeat_invocations_identical(self, tmp_path):
        cfg_file = tmp_path / "edit.cfg"
        cfg_file.write_text(MINIMAL)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["map", "--config", str(cfg_file), "--cell", "0,0", "--w", "1.0"]
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_cell_out_of_range_exits_one(self, tmp_path):
        cfg_file = tmp_path / "edit.cfg"
        cfg_file.write_text(MINIMAL)
        code = main(
            ["map", "--config", str(cfg_file), "--cell", "4,0", "--w", "1.0",
             "--out", str(tmp_path / "m.txt")]
        )
        assert code == 1

    @pytest.mark.parametrize("args, message", [
        (["--cell", "1"], "--cell expects ROW,COL, got '1'"),
        (["--cell", "a,b"], "--cell expects integers, got 'a,b'"),
        (["--cell", "0,0", "--block", "8"], r"block 8 outside \[0, 8\)"),
    ], ids=["cell-one-part", "cell-not-integers", "block-out-of-range"])
    def test_bad_cell_or_block_exits_one(self, args, message, tmp_path, capsys):
        cfg_file = tmp_path / "edit.cfg"
        cfg_file.write_text(MINIMAL)
        out = tmp_path / "m.txt"
        code = main(["map", "--config", str(cfg_file), *args, "--w", "1.0", "--out", str(out)])
        assert code == 1
        assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)
        assert not out.exists()

    def test_weight_out_of_range_exits_one(self, tmp_path):
        cfg_file = tmp_path / "edit.cfg"
        cfg_file.write_text(MINIMAL)
        code = main(
            ["map", "--config", str(cfg_file), "--cell", "0,0", "--w", "1.5",
             "--out", str(tmp_path / "m.txt")]
        )
        assert code == 1

    def test_memory_error_exits_one(self, tmp_path, capsys, monkeypatch):
        # an absurd grid fails in initial_noise; raised here, never allocated
        import synattn.cli as cli_mod

        def no_memory(bb):
            raise MemoryError("Unable to allocate 4.66 TiB")

        monkeypatch.setattr(cli_mod, "initial_noise", no_memory)
        cfg_file = tmp_path / "edit.cfg"
        cfg_file.write_text(MINIMAL)
        code = main(
            ["map", "--config", str(cfg_file), "--cell", "0,0", "--w", "1.0",
             "--out", str(tmp_path / "m.txt")]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: Unable to allocate 4.66 TiB\n"
        assert not (tmp_path / "m.txt").exists()

    def test_probe_needs_grid_larger_than_1x1(self):
        cfg = parse_config_text(MINIMAL + "grid = 1x1\naxis_dims = 4,6,6\n")
        with pytest.raises(ConfigError):
            build_map_inputs(cfg, "constant-field", None, (0, 0))

    @pytest.mark.parametrize("probe", ["bogus", "", "Prompts"])
    def test_unknown_probe_refused(self, probe):
        with pytest.raises(ConfigError) as exc:
            build_map_inputs(parse_config_text(MINIMAL), probe, None, (0, 0))
        assert str(exc.value) == f"unknown probe '{probe}'"


class TestUsage:
    def test_one_executor_behind_the_public_api(self):
        # each synattn module imports only public names from the others (a
        # dunder such as __version__ is public), and pipeline.py is the one
        # module that starts a process pool
        import ast

        import synattn

        def names(tree):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    yield node.id
                elif isinstance(node, ast.Attribute):
                    yield node.attr
                elif isinstance(node, ast.alias):
                    yield node.name.rpartition(".")[2]

        def dunder(name):
            return name.startswith("__") and name.endswith("__")

        package = Path(synattn.__file__).parent
        trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
        private = [
            (name, "." * node.level + (node.module or ""), alias.name)
            for name, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").partition(".")[0] == "synattn")
            for alias in node.names
            if alias.name.startswith("_") and not dunder(alias.name)
        ]
        assert private == []
        pools = [name for name, tree in trees.items() if "ProcessPoolExecutor" in names(tree)]
        assert pools == ["pipeline.py"]

    def test_import_loads_no_process_pool(self):
        # the inline path, and so every one-worker run, pays nothing for the pool's modules
        probe = ("import sys, synattn.cli\n"
                 "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])")
        assert run_python("-c", probe).stdout.strip() == "[]"

    @pytest.mark.parametrize("case, code", [("run", 0), ("unknown-key", 1), ("help", 0)])
    def test_module_entry_point_exits_with_main_code(self, case, code, tmp_path):
        # `python -m synattn.cli` exits through entrypoint() with main's return value
        cfg = tmp_path / "edit.cfg"
        cfg.write_text(SMALL + ("foo = 1\n" if case == "unknown-key" else ""))
        out = tmp_path / "o"
        args = ["--help"] if case == "help" else ["run", "--config", str(cfg), "--out", str(out)]
        proc = run_python("-m", "synattn.cli", *args, check=False)
        assert proc.returncode == code, proc.stderr
        assert (out / "trace.txt").exists() == (case == "run")
        assert ("usage: synattn" in proc.stdout) == (case == "help")
        assert ("'foo'" in proc.stderr) == (case == "unknown-key")

    def test_no_arguments_is_usage_error(self):
        assert main([]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_parser_built_once_per_process(self, monkeypatch):
        parsers = []
        real = argparse.ArgumentParser.parse_args

        def recording(self, *args, **kwargs):
            parsers.append(self)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
        assert main(["--help"]) == 0
        assert main(["run", "--jobs", "x"]) == 1
        assert main(["--help"]) == 0
        assert len(parsers) == 3 and parsers[0] is parsers[1] is parsers[2]
