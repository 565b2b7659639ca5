"""Measurement statistics across a batch of edits, one table per schedule.

Runs the same prompt pairs under the adaptive schedule and both fixed
ablations as one ``run_batch`` of 24 configs, 8 groups of 3 that share a
backbone, splits the traces by schedule, then aggregates the per-step editing measurement across cases:
mean, population standard deviation, and nearest-rank 20th/80th
percentiles. The adaptive schedule holds the measurement closest to 1.
"""

from synattn import BackboneConfig, PipelineConfig, run_batch
from synattn.cli import compute_stats

PAIRS = [
    ("a dog standing on grass", "a dog sitting on grass"),
    ("a cat curled on a chair", "a cat stretching on a chair"),
    ("a horse walking in a field", "a horse rearing in a field"),
    ("a bird perched on a branch", "a bird taking off from a branch"),
    ("a fox lying in snow", "a fox jumping in snow"),
    ("a deer grazing at dawn", "a deer leaping at dawn"),
    ("a rabbit eating a carrot", "a rabbit running with a carrot"),
    ("a bear fishing in a river", "a bear swimming in a river"),
]


SCHEDULES = (("adaptive", None), ("w = 1 ablation", 1.0), ("w = 0 ablation", 0.0))

# One batch for all three schedules: the configs of a pair share a backbone
# (its seed), so each pair's three schedules run as one stacked computation.
configs = [
    PipelineConfig(
        src_prompt=src,
        tgt_prompt=tgt,
        backbone=BackboneConfig(seed=i),
        w_override=override,
    )
    for _, override in SCHEDULES
    for i, (src, tgt) in enumerate(PAIRS)
]
results = run_batch(configs)

for s, (label, _) in enumerate(SCHEDULES):
    traces = results[s * len(PAIRS):(s + 1) * len(PAIRS)]
    rows = compute_stats(traces)
    print(f"\n=== {label}: measurement across {len(traces)} cases ===")
    print(" step       mean          std           p20           p80")
    for t, mean, std, p20, p80 in rows:
        print(f"  {t:3d}   {mean:.9f}   {std:.3e}   {p20:.9f}   {p80:.9f}")
