"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criteria 8 and 9 share a fixed 20-case synthetic batch produced
through the real CLI.
"""

import math
import time

import numpy as np
import pytest

from oracles import (
    naive_joint_attention,
    percentile_nearest_rank,
    rotated_inner_product,
    rotation_matrix,
)
from synattn import (
    RopeConfig,
    Thresholds,
    adaptive_weight,
    encode_prompt,
    grid_position_ids,
    image_kv,
    rotary_table,
)
from synattn.attention import _ROLES, _WK, _WQ, _WV, joint_attention
from synattn.cli import PROBE_BUMP_SCALE, main, parse_config_text, parse_matrix, parse_trace
from synattn.rope import apply_rotary

FULL = RopeConfig(num_heads=1)  # one head of 128, splits (16, 56, 56)
ATTN_CFG = RopeConfig(head_dim=8, axis_dims=(2, 2, 4), num_heads=2)

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


def _case_config_text(index: int, schedule: str) -> str:
    src, tgt = CASE_PROMPTS[index]
    lines = [f"src_prompt = {src}", f"tgt_prompt = {tgt}", f"seed = {index}"]
    if schedule == "w1":
        lines.append("w_override = 1.0")
    elif schedule == "w0":
        lines.append("w_override = 0.0")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def synthetic_batch(tmp_path_factory):
    """20 cases x 3 weight schedules, run through the CLI; returns trace paths."""
    root = tmp_path_factory.mktemp("batch")
    traces = {"adaptive": [], "w1": [], "w0": []}
    for schedule in traces:
        cfg_args = []
        for i in range(len(CASE_PROMPTS)):
            cfg = root / f"{schedule}_{i:02d}.cfg"
            cfg.write_text(_case_config_text(i, schedule))
            cfg_args += ["--config", str(cfg)]
        out = root / schedule
        assert main(["run", *cfg_args, "--out", str(out), "--jobs", "2"]) == 0
        traces[schedule] = [
            out / f"case_{i:03d}" / "trace.txt" for i in range(len(CASE_PROMPTS))
        ]
    return traces


def rotate(v, pos, w):
    """One head vector of ``FULL`` rotated to position id ``pos`` at strength ``w``."""
    return apply_rotary(v[None], rotary_table([pos], w, FULL))[0]


def inner(q, k, pos_q, pos_k, w):
    return float(rotate(q, pos_q, w) @ rotate(k, pos_k, w))


def test_criterion_01_rope_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        v = rng.normal(size=128)
        pos = rng.uniform(-32.0, 32.0, size=3)
        w = rng.uniform(0.0, 1.0)
        fast = rotate(v, pos, w)
        slow = rotation_matrix(pos, w, FULL.axis_dims, FULL.theta_base) @ v
        worst = max(worst, float(np.abs(fast - slow).max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 1.0
    print(
        f"[criterion 1] PASS rope fast path vs block-diagonal oracle: "
        f"max diff {worst:.3e} over 100 triples in {elapsed:.3f}s"
    )


def test_criterion_02_relative_displacement_law():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        q, k = rng.normal(size=(2, 128))
        pos_q = rng.uniform(-16.0, 16.0, size=3)
        pos_k = rng.uniform(-16.0, 16.0, size=3)
        offset = rng.uniform(-16.0, 16.0, size=3)
        a = inner(q, k, pos_q, pos_k, 1.0)
        b = inner(q, k, pos_q + offset, pos_k + offset, 1.0)
        want = rotated_inner_product(q, k, pos_q, pos_k, 1.0, FULL.axis_dims, FULL.theta_base)
        worst = max(worst, abs(a - b), abs(a - want))
    assert worst <= 1e-9
    print(
        f"[criterion 2] PASS joint translation leaves inner products unchanged, "
        f"equal to the displacement-matrix form: max diff {worst:.3e}"
    )


def test_criterion_03_scaling_law():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        q, k = rng.normal(size=(2, 128))
        pos_q = rng.uniform(-16.0, 16.0, size=3)
        pos_k = rng.uniform(-16.0, 16.0, size=3)
        w = rng.uniform(0.0, 1.0)
        a = inner(q, k, pos_q, pos_k, w)
        b = inner(q, k, w * pos_q, w * pos_k, 1.0)
        want = rotated_inner_product(q, k, pos_q, pos_k, w, FULL.axis_dims, FULL.theta_base)
        worst = max(worst, abs(a - b), abs(a - want))
    assert worst <= 1e-9
    print(
        f"[criterion 3] PASS weight w equals pre-scaled positions at w=1 and the "
        f"displacement-matrix form: max diff {worst:.3e}"
    )


def test_criterion_04_zero_weight_collapses_to_rotation_free_sharing():
    rng = np.random.default_rng(104)
    worst = 0.0
    positions = grid_position_ids(2, 2)
    table = rotary_table(positions, 0.0, ATTN_CFG)
    for _ in range(5):
        # [text; image] matrices of both branches; only the source's image
        # rows enter the target's attention
        tgt = rng.normal(size=(6, ATTN_CFG.d_model))
        src_image = rng.normal(size=(6, ATTN_CFG.d_model))[2:]
        block = np.zeros((len(_ROLES), 16, 16))  # random attention projections, zero MLP
        block[:4] = rng.normal(size=(4, 16, 16)) * 0.4
        got = joint_attention(tgt, 2, block, ATTN_CFG, table, image_kv(src_image, block, table))
        want_txt, want_img = naive_joint_attention(
            tgt[:2], tgt[2:], src_image, positions, positions,
            block[_WQ], block[_WK], block[_WV],
            ATTN_CFG.num_heads, ATTN_CFG.head_dim, ATTN_CFG.axis_dims,
            ATTN_CFG.theta_base, w=0.0, use_rope=False,
        )
        worst = max(worst, float(np.abs(got - np.vstack([want_txt, want_img])).max()))
    assert worst <= 1e-12
    print(f"[criterion 4] PASS w=0 sharing equals rotation-free reference: max diff {worst:.3e}")


def test_criterion_05_adaptive_weight_table_and_monotonicity():
    th = Thresholds(m_min=0.9, m_max=1.0)
    assert adaptive_weight(1.05, th) == 0.0
    assert adaptive_weight(0.85, th) == 1.0
    assert adaptive_weight(1.0, th) == 0.0
    assert adaptive_weight(0.9, th) == 1.0
    # 0.95 is not representable as the float midpoint of [0.9, 1.0]; the
    # linear branch lands within decimal-conversion noise of 0.5
    assert adaptive_weight(0.95, th) == pytest.approx(0.5, abs=1e-15)
    rng = np.random.default_rng(105)
    for _ in range(1000):
        a, b = rng.uniform(0.0, 2.0, size=2)
        lo, hi = min(a, b), max(a, b)
        assert adaptive_weight(lo, th) >= adaptive_weight(hi, th)
    print(
        "[criterion 5] PASS weight table {1.05->0, 0.85->1, 1.0->0, 0.9->1, "
        "0.95->0.5 (1e-15)} and 1000 monotone pairs"
    )


def test_criterion_06_identical_prompt_fixed_point():
    from synattn import PipelineConfig, run_edit

    start = time.perf_counter()
    src, tgt, trace = run_edit(
        PipelineConfig(src_prompt="same words here", tgt_prompt="same words here")
    )
    elapsed = time.perf_counter() - start
    assert src.tobytes() == tgt.tobytes()
    assert len(trace.steps) == 10
    worst = max(abs(step.m_mean - 1.0) for step in trace.steps)
    assert worst <= 1e-9
    assert elapsed < 5.0
    print(
        f"[criterion 6] PASS identical prompts: bit-identical branches, "
        f"max |M_t - 1| = {worst:.3e}, {elapsed:.2f}s"
    )


def test_criterion_07_cli_run_determinism(tmp_path):
    cfg = tmp_path / "edit.cfg"
    cfg.write_text("src_prompt = a standing dog\ntgt_prompt = a sitting dog\nseed = 3\n")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    names = ("trace.txt", "src_final.txt", "tgt_final.txt", "manifest.json")
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    print(f"[criterion 7] PASS two cmd_run invocations byte-identical across {names}")


def test_criterion_08_ablation_separation_and_self_consistency(synthetic_batch):
    th = Thresholds(m_min=0.9, m_max=1.0)
    n = len(CASE_PROMPTS)
    for i in range(n):
        blobs = {s: synthetic_batch[s][i].read_bytes() for s in ("adaptive", "w1", "w0")}
        assert blobs["adaptive"] != blobs["w1"]
        assert blobs["adaptive"] != blobs["w0"]
        assert blobs["w1"] != blobs["w0"]
        trace = parse_trace(blobs["adaptive"].decode())
        steps = trace.steps
        assert steps[0].weight_applied == 1.0
        for prev, step in zip(steps, steps[1:]):
            assert step.weight_applied == adaptive_weight(prev.m_mean, th)
    print(
        f"[criterion 8] PASS {n} cases: three schedules pairwise distinct; "
        "adaptive weights exactly reproduce the gate applied to the trace's own m_mean"
    )


def test_criterion_09_stats_match_independent_oracle(synthetic_batch, tmp_path):
    paths = [str(p) for p in synthetic_batch["adaptive"]]
    out = tmp_path / "stats.txt"
    assert main(["stats", *paths, "--out", str(out)]) == 0
    traces = [parse_trace(p.read_text()) for p in synthetic_batch["adaptive"]]
    body = [
        line.split()
        for line in out.read_text().splitlines()
        if line and not line.startswith("#")
    ]
    assert len(body) == 10
    for row, fields in enumerate(body):
        values = [trace.steps[row].m_mean for trace in traces]
        assert int(fields[0]) == traces[0].steps[row].timestep
        assert float(fields[3]) == percentile_nearest_rank(values, 20)
        assert float(fields[4]) == percentile_nearest_rank(values, 80)
        mean = sum(values) / len(values)
        assert float(fields[1]) == pytest.approx(mean, abs=1e-12)
        std = math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
        assert float(fields[2]) == pytest.approx(std, abs=1e-12)
    print(
        "[criterion 9] PASS cmd_stats: p20/p80 exactly equal the sort-based "
        "nearest-rank oracle on all 20 traces (mean/std within 1e-12)"
    )


def _brute_force_probe_map(config, w, cell):
    """Recompute the constant-field probe map with longhand loops."""
    bb = config.backbone
    h, wid = bb.grid
    base = np.ones(bb.d_model)
    image = np.tile(base, (h * wid, 1))
    bump = ((cell[0] + h // 2) % h) * wid + ((cell[1] + wid // 2) % wid)
    image[bump] *= PROBE_BUMP_SCALE
    text = encode_prompt(config.src_prompt, bb)
    positions = [
        (0.0, float(r // wid), float(r % wid)) for r in range(h * wid)
    ]
    qcell = cell[0] * wid + cell[1]

    acc = np.zeros(h * wid)
    for head in range(bb.num_heads):
        lo = head * bb.head_dim
        seg = slice(lo, lo + bb.head_dim)
        q = rotation_matrix(positions[qcell], w, bb.axis_dims, bb.theta_base) @ image[qcell][seg]
        logits = []
        for trow in range(text.shape[0]):
            logits.append(sum(q[d] * text[trow][seg][d] for d in range(bb.head_dim)) / math.sqrt(bb.head_dim))
        for r in range(h * wid):
            k = rotation_matrix(positions[r], w, bb.axis_dims, bb.theta_base) @ image[r][seg]
            logits.append(sum(q[d] * k[d] for d in range(bb.head_dim)) / math.sqrt(bb.head_dim))
        mx = max(logits)
        exps = [math.exp(x - mx) for x in logits]
        z = sum(exps)
        for r in range(h * wid):
            acc[r] += exps[text.shape[0] + r] / z
    acc /= bb.num_heads
    return (acc / acc.sum()).reshape(h, wid)


def test_criterion_10_attention_map_contracts(tmp_path):
    cfg = tmp_path / "edit.cfg"
    cfg.write_text("src_prompt = a standing dog\ntgt_prompt = a sitting dog\n")
    emitted = []
    for probe in ("prompts", "constant-field"):
        for w in ("0", "0.5", "1"):
            out = tmp_path / f"map_{probe}_{w}.txt"
            assert main(
                ["map", "--config", str(cfg), "--cell", "1,2", "--w", w,
                 "--out", str(out), "--probe", probe]
            ) == 0
            emitted.append(out)
    worst = 0.0
    for path in emitted:
        grid = parse_matrix(path.read_text())
        worst = max(worst, abs(float(grid.sum()) - 1.0))
    assert worst <= 1e-9

    config = parse_config_text(cfg.read_text())
    on = parse_matrix((tmp_path / "map_constant-field_1.txt").read_text())
    off = parse_matrix((tmp_path / "map_constant-field_0.txt").read_text())
    assert np.unravel_index(np.argmax(on), on.shape) == (1, 2)
    assert np.unravel_index(np.argmax(off), off.shape) != (1, 2)
    for w, grid in ((1.0, on), (0.0, off)):
        brute = _brute_force_probe_map(config, w, (1, 2))
        assert np.unravel_index(np.argmax(brute), brute.shape) == np.unravel_index(
            np.argmax(grid), grid.shape
        )
        assert np.abs(brute - grid).max() <= 1e-9
    print(
        f"[criterion 10] PASS {len(emitted)} emitted maps sum to 1 (worst "
        f"dev {worst:.3e}); probe argmax at query cell for w=1, elsewhere "
        "for w=0, matching the brute-force map"
    )
