"""Acceptance gate: one test per criterion, one printed verdict line each.

Criteria 1-3 and 7 are exact or statistical oracles; 4-6 are
direction-of-effect reproductions on the calibrated desk configuration;
8 is the byte-level determinism contract. Runtime is dominated by the
25-run method sweep of criterion 4 (a few minutes on one core), whose seed-0
sdd and finetune runs also check the README's Quick-start table.
"""
import dataclasses
import os
import time

import numpy as np
import pytest

from conftest import desk_config
from fedscil import (Tensor, cross_entropy, info_entropy,
                     reverse_cross_entropy, run_experiment, student_loss,
                     train_generator_session, transferability_loss)
from fedscil.cli import main
from fedscil.data import dirichlet_partition, make_blobs
from fedscil.generation import (teacher_confidence, teacher_pool_entropy)
from fedscil.orchestrator import prepare_schedule, run_base_session
from fedscil.reporting import compare_table, render_text
from fedscil.seeding import derive_seed
from gradcheck import TOL, run_suite
from oracles import check_aggregation_against_dense

SWEEP_METHODS = ("sdd", "baseline_kd", "sdd_nagr_only", "sdd_cswa_only",
                 "finetune")
SWEEP_SEEDS = range(5)


def _verdict(capsys, n: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(scope="module")
def sweep():
    """Full desk runs for every method over five seeds, with wall times."""
    out = {}
    for method in SWEEP_METHODS:
        runs = []
        for seed in SWEEP_SEEDS:
            started = time.perf_counter()
            result = run_experiment(desk_config(method=method, seed=seed))
            runs.append((result, time.perf_counter() - started))
        out[method] = runs
    return out


def _mean_avg_pct(runs) -> float:
    return 100.0 * float(np.mean([r.average_accuracy for r, _ in runs]))


def test_criterion_1_gradient_suite(capsys):
    started = time.perf_counter()
    worst_by_case = run_suite(instances=20)
    elapsed = time.perf_counter() - started
    worst = max(worst_by_case.values())
    ok = len(worst_by_case) >= 20 and worst <= TOL and elapsed < 60.0
    _verdict(capsys, 1, ok,
             f"{len(worst_by_case)} ops/losses x 20 finite-difference "
             f"instances, worst rel err {worst:.2e} (tol {TOL:.0e}), "
             f"{elapsed:.1f}s")


def test_criterion_2_aggregation_oracles(capsys):
    trials = check_aggregation_against_dense(np.random.default_rng(9100), 200,
                                             atol=1e-12)
    _verdict(capsys, 2, trials == 200,
             f"{trials} randomized instances match the dense einsum "
             "reference to 1e-12 (count-weighted old tensors, both "
             "column-weighting modes, assembly, full averaging)")


def test_criterion_3_loss_closed_forms(capsys):
    def p(rows):
        return Tensor(np.log(np.asarray(rows, dtype=np.float64)))

    checks = [
        ("ce 3/4", cross_entropy(p([[0.75, 0.25]]), np.array([0])),
         0.2876820724517809),
        ("ce uniform", cross_entropy(p([[0.5, 0.5]]), np.array([0])),
         np.log(2.0)),
        ("rce 0.7", reverse_cross_entropy(Tensor(np.array([[0.7, 0.3]])),
                                          np.array([0])), 1.2),
        ("rce uniform", reverse_cross_entropy(Tensor(np.array([[0.5, 0.5]])),
                                              np.array([0])), 2.0),
        ("entropy c=2", info_entropy(Tensor(np.full((1, 2), 0.5))),
         0.34657359027997264),
        ("entropy c=3", info_entropy(Tensor(np.full((1, 3), 1 / 3))),
         0.3662040962227033),
        ("kl to uniform", student_loss(p([[0.8, 0.2]]), p([[0.5, 0.5]])),
         0.19274475702175747),
        ("gated -kl", transferability_loss(p([[0.8, 0.2]]), p([[0.3, 0.7]])),
         -0.5341108087103075),
    ]
    worst = max(abs(float(value.data) - want) for _, value, want in checks)
    _verdict(capsys, 3, worst <= 1e-9,
             f"{len(checks)} hand/scripted values (ce, rce at floor -4, "
             f"scaled entropy, kl) reproduced, worst abs err {worst:.1e}")


def test_criterion_4_direction_of_effect(capsys, sweep):
    sdd = _mean_avg_pct(sweep["sdd"])
    kd = _mean_avg_pct(sweep["baseline_kd"])
    nagr = _mean_avg_pct(sweep["sdd_nagr_only"])
    cswa = _mean_avg_pct(sweep["sdd_cswa_only"])
    gap = sdd - kd
    collapse = all(r.sessions[-1].old < 0.5 * r.sessions[0].overall
                   for r, _ in sweep["finetune"])
    between = kd < nagr < sdd and kd < cswa < sdd
    slowest = max(sec for runs in sweep.values() for _, sec in runs)
    ok = gap >= 2.0 and collapse and between and slowest < 300.0
    _verdict(capsys, 4, ok,
             f"mean avg acc over 5 seeds: sdd {sdd:.2f}% vs baseline_kd "
             f"{kd:.2f}% (+{gap:.2f}pp >= 2pp); ablations between: "
             f"replay-only {nagr:.2f}%, weighting-only {cswa:.2f}%; "
             f"finetune old-class collapse on 5/5 seeds; "
             f"slowest run {slowest:.0f}s < 300s")


def test_readme_quick_start_table_is_the_seed_0_desk_runs(sweep):
    """The README's Quick-start table is ``fedscil compare`` of the sweep's
    seed-0 sdd and finetune runs: every per-session, Average, Improvement
    and delta figure matches them at two decimals."""
    runs = []
    for method in ("sdd", "finetune"):
        result = next(r for r, _ in sweep[method] if r.seed == 0)
        runs.append((f"{method}-seed0-{result.run_id}",
                     [{"overall": m.overall} for m in result.sessions]))
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
              encoding="utf-8") as fh:
        text = fh.read()
    quick = text[text.index("## Quick start"):text.index("## Methods")]
    assert f"```\n{render_text(*compare_table(runs))}\n```" in quick


def test_criterion_5_noise_robust_replay(capsys):
    def mean_avg(extra):
        accs = []
        for seed in SWEEP_SEEDS:
            cfg = desk_config("replay_label_noise=0.3", *extra, seed=seed)
            accs.append(run_experiment(cfg).average_accuracy)
        return 100.0 * float(np.mean(accs))

    robust = mean_avg(())
    plain = mean_avg(("weights.beta=0",))
    ok = robust >= plain
    _verdict(capsys, 5, ok,
             "30% of replay pseudo-labels flipped: symmetric ce+rce replay "
             f"{robust:.2f}% >= plain-ce replay {plain:.2f}% "
             f"(+{robust - plain:.2f}pp, mean over 5 seeds)")


def test_criterion_6_generator_properties(capsys):
    confidences, entropy_pairs = [], []
    teachers_clean = True
    for seed in range(3):
        cfg = desk_config(method="finetune", seed=seed)  # base model only
        sched = prepare_schedule(cfg)
        base = run_base_session(cfg, sched)
        before = {name: arr.copy() for name, arr, _ in
                  base.model.state_entries()}
        pools = {}
        for lam2 in (1.0, 0.0):
            weights = dataclasses.replace(cfg.weights, lambda2=lam2)
            _, _, pools[lam2] = train_generator_session(
                [base.model], 0, sched.session_range(0),
                (sched.envelope_low, sched.envelope_high), cfg.generator,
                weights, derive_seed(cfg.seed, "genlab", 0))
        confidences.append(teacher_confidence([base.model], 0, pools[1.0]))
        entropy_pairs.append((teacher_pool_entropy([base.model], 0, pools[1.0]),
                              teacher_pool_entropy([base.model], 0, pools[0.0])))
        teachers_clean &= all(np.array_equal(arr, before[name])
                              for name, arr, _ in base.model.state_entries())
    lifted = sum(1 for with_h, without in entropy_pairs if with_h > without)
    ok = (min(confidences) >= 0.8 and lifted == len(entropy_pairs)
          and teachers_clean)
    _verdict(capsys, 6, ok,
             f"teacher confidence in condition class {min(confidences):.3f}.."
             f"{max(confidences):.3f} (>= 0.8); prediction entropy strictly "
             f"higher with the entropy term on {lifted}/3 paired seeds; "
             f"teacher tensors bit-identical: {teachers_clean}")


def test_criterion_7_partitioner_statistics(capsys):
    data = make_blobs(classes=5, dim=4, per_class_train=40, per_class_test=5,
                      spread=0.1, seed=7).train
    prior = np.bincount(data.y, minlength=5) / len(data)
    exact = True

    def check_exact(shards):
        merged = np.sort(np.concatenate(shards))
        return np.array_equal(merged, np.arange(len(data)))

    worst_dev = 0.0
    for seed in range(20):
        shards = dirichlet_partition(data, 5, 1000.0, seed)
        exact &= check_exact(shards)
        for s in shards:
            if len(s):
                props = np.bincount(data.y[s], minlength=5) / len(s)
                worst_dev = max(worst_dev, float(np.max(np.abs(props - prior))))

    concentrated = total = 0
    for seed in range(20):
        shards = dirichlet_partition(data, 5, 0.05, seed)
        exact &= check_exact(shards)
        for s in shards:
            total += 1
            if len(s) == 0:
                concentrated += 1
                continue
            counts = np.sort(np.bincount(data.y[s], minlength=5))[::-1]
            if counts[:2].sum() / len(s) >= 0.7:
                concentrated += 1
    fraction = concentrated / total
    ok = worst_dev <= 0.10 and fraction >= 0.8 and exact
    _verdict(capsys, 7, ok,
             f"alpha=1000: worst per-class deviation {worst_dev:.3f} <= 0.10; "
             f"alpha=0.05: {fraction:.0%} of shards concentrated in <= 2 "
             f"classes (>= 80%); every draw an exact partition: {exact}")


def test_criterion_8_manifest_determinism(capsys, tmp_path, monkeypatch):
    """A manifest rerun reproduces metrics.jsonl, every checkpoint and
    synthetics.csv byte for byte."""
    monkeypatch.setenv("FEDSCIL_RUN_ROOT", str(tmp_path))
    assert main(["run", "--preset", "desk", "--quiet", "--save-checkpoints",
                 "--export-synthetics"]) == 0
    run_dir = next(p for p in tmp_path.iterdir() if p.is_dir())
    replay = tmp_path / "replay"
    assert main(["run", "--from-manifest", str(run_dir / "manifest.json"),
                 "--out", str(replay), "--quiet"]) == 0
    ckpts = [f"session_{t}.ckpt" for t in range(5)]
    for run in (run_dir, replay):
        assert sorted(p.name for p in (run / "checkpoints").iterdir()) == ckpts
    names = ["metrics.jsonl", *(f"checkpoints/{c}" for c in ckpts), "synthetics.csv"]
    differ = [n for n in names if (run_dir / n).read_bytes() != (replay / n).read_bytes()]
    original = (run_dir / "metrics.jsonl").read_bytes()
    ok = not differ and len(original) > 0 and (run_dir / "synthetics.csv").stat().st_size > 0
    _verdict(capsys, 8, ok,
             f"manifest replay reproduced metrics.jsonl "
             f"({len(original.splitlines())} session records, {len(original)} bytes), "
             f"{len(ckpts)} checkpoints and synthetics.csv byte for byte"
             + (f"; differ: {differ}" if differ else ""))
