"""End-to-end experiment driver.

A run is one base session (centralized training on the data-rich classes)
followed by T incremental sessions. Each incremental session partitions the
session's few-shot data across clients with a per-class Dirichlet draw, runs
local updates, trains the session's generator against the local models,
aggregates, then relabels and banks the session's synthetic pool for future
replay. ``config.METHODS`` maps each method to its local and head rules.

Everything is deterministic given the config: every random stream is derived
from the master seed (``cli._resolved_seeds`` lists the paths),
clients consume independent streams so results do not depend on iteration
order, and metrics records carry no wall-clock fields (timings travel in a
separate stream).
"""
from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from .aggregation import (aggregate_old, assemble_global, build_accuracy_matrix,
                          cswa_aggregate_new, cswa_weights, fedavg_full)
from .autodiff import Optimizer, OptimizerConfig, backprop
from .client import (_epoch_batches, local_update_baseline_kd,
                     local_update_nagr)
from .config import METHODS, ExperimentConfig, run_id, validate_config
from .data import (DatasetSplits, LabeledDataset, SessionSchedule,
                   build_schedule, dirichlet_partition, load_csv_dataset,
                   make_blobs, partition_summary)
from .errors import NonFiniteError
from .generation import (ReplayBuffer, SyntheticPool, relabel,
                         train_generator_session)
from .losses import cross_entropy
from .models import Classifier
from .seeding import derive_seed, rng_for


@dataclass
class SessionMetrics:
    session: int
    classes_seen: int
    overall: float
    old: float | None       # None in the base session (nothing is old yet)
    new: float
    per_class: list[float | None]
    seconds: float
    audit: dict | None = None    # aggregation details, incremental sessions only


@dataclass
class BaseResult:
    model: Classifier
    buffer: ReplayBuffer
    metrics: SessionMetrics


@dataclass
class SessionResult:
    model: Classifier
    metrics: SessionMetrics


@dataclass
class RunResult:
    run_id: str
    method: str
    seed: int
    alpha: float
    sessions: list[SessionMetrics]
    final_accuracy: float
    average_accuracy: float
    buffer_rows: list | None = None


def prepare_data(cfg: ExperimentConfig) -> DatasetSplits:
    d = cfg.data
    if d.csv_train:
        train = load_csv_dataset(d.csv_train, d.classes)
        test = load_csv_dataset(d.csv_test, d.classes)
        return DatasetSplits(train, test)
    return make_blobs(d.classes, d.dim, d.per_class_train, d.per_class_test,
                      d.spread, derive_seed(cfg.seed, "data"))


def prepare_schedule(cfg: ExperimentConfig) -> SessionSchedule:
    d = cfg.data
    return build_schedule(prepare_data(cfg), d.base_classes, d.sessions,
                          d.way, d.shot, derive_seed(cfg.seed, "schedule"))


def prepare_partitions(cfg: ExperimentConfig, sched: SessionSchedule) -> list:
    """Client shards per incremental session (index 0 unused)."""
    parts: list = [None]
    for t in range(1, sched.sessions + 1):
        parts.append(dirichlet_partition(
            sched.train_by_session[t], cfg.clients, cfg.alpha,
            derive_seed(cfg.seed, "partition", t)))
    return parts


def inspect_partitions(cfg: ExperimentConfig) -> dict:
    """JSON-ready schedule and shard-assignment summary."""
    sched = prepare_schedule(cfg)
    parts = prepare_partitions(cfg, sched)
    sessions = []
    for t in range(sched.sessions + 1):
        lo, hi = sched.session_range(t)
        entry = {
            "session": t,
            "classes": list(range(lo, hi)),
            "train_samples": len(sched.train_by_session[t]),
            "eval_samples": len(sched.eval_by_session[t]),
        }
        if t > 0:
            entry["partition"] = partition_summary(sched.train_by_session[t],
                                                   parts[t])
        sessions.append(entry)
    return {
        "class_order": [int(c) for c in sched.class_order],
        "clients": cfg.clients,
        "alpha": cfg.alpha,
        "sessions": sessions,
    }


def evaluate(model: Classifier, ds: LabeledDataset,
             old_count: int) -> tuple[float, float | None, float, list[float | None]]:
    """(overall, old, new, per-class) full-head argmax accuracy. old is None
    without old-class samples (the base session), new falls back to overall
    without new-class samples, and a class without samples reads None."""
    correct = model.predict(ds.x) == ds.y
    overall = float(correct.mean())
    old_mask = ds.y < old_count
    old = float(correct[old_mask].mean()) if old_mask.any() else None
    new_mask = ~old_mask
    new = float(correct[new_mask].mean()) if new_mask.any() else overall
    per_class = [float(correct[ds.y == c].mean()) if (ds.y == c).any() else None
                 for c in range(model.classes_seen)]
    return overall, old, new, per_class


def _train_base(model: Classifier, ds: LabeledDataset,
                cfg: ExperimentConfig) -> None:
    b = cfg.base
    rates = {"backbone": b.lr, "head_new": b.lr, "head_old": b.lr}
    opt = Optimizer(model.parameters(),
                    OptimizerConfig("sgd_momentum", rates, momentum=b.momentum))
    params = model.parameters()
    rng = np.random.default_rng(derive_seed(cfg.seed, "base"))
    milestones = sorted(int(f * b.epochs) for f in b.decay_milestones)
    for epoch in range(b.epochs):
        passed = sum(1 for m in milestones if epoch >= m)
        lr = b.lr * (b.decay_factor ** passed)
        for group in rates:
            opt.set_rate(group, lr)
        for batch in _epoch_batches(len(ds), b.batch_size, rng):
            logits = model.forward(ds.x[batch], mode="train")
            backprop(cross_entropy(logits, ds.y[batch]), params)
            opt.step()


def run_base_session(cfg: ExperimentConfig,
                     sched: SessionSchedule | None = None) -> BaseResult:
    """Centralized training on the data-rich classes, then (for methods with
    a local replay rule) generator training against the fresh model and
    buffer seeding."""
    if sched is None:
        sched = prepare_schedule(cfg)
    started = time.perf_counter()
    model = Classifier(sched.dim, sched.base_classes,
                       seed=derive_seed(cfg.seed, "init"),
                       hidden=cfg.model.hidden,
                       feature_dim=cfg.model.feature_dim)
    _train_base(model, sched.train_by_session[0], cfg)

    buffer = ReplayBuffer(cfg.generator.buffer_capacity, cfg.replay_label_noise)
    local_rule, _ = METHODS[cfg.method]
    if local_rule is not None:
        _, _, pool = train_generator_session(
            [model], 0, sched.session_range(0),
            (sched.envelope_low, sched.envelope_high), cfg.generator,
            cfg.weights, derive_seed(cfg.seed, "genlab", 0))
        _check_pool(pool, "session 0, generator")
        buffer.add_pool(relabel(pool, model), rng_for(cfg.seed, "buffer", 0))

    overall, old, new, per_class = evaluate(model, sched.eval_by_session[0], 0)
    metrics = SessionMetrics(0, sched.classes_through(0), overall, old, new,
                             per_class, time.perf_counter() - started)
    return BaseResult(model, buffer, metrics)


def _check_finite(model: Classifier, where: str) -> None:
    """Raise NonFiniteError, naming ``where``, unless every parameter and
    running statistic of the model is finite."""
    state = np.concatenate([arr.ravel() for _, arr, _ in model.state_entries()])
    if not np.isfinite(state).all():
        raise NonFiniteError(f"non-finite model state after {where}")


def _check_pool(pool: SyntheticPool, where: str) -> None:
    """Raise NonFiniteError, naming ``where``, unless every banked synthetic
    sample is finite."""
    if not np.isfinite(pool.samples).all():
        raise NonFiniteError(f"non-finite synthetic pool after {where}")


def _local_models(cfg: ExperimentConfig, local_rule: str | None,
                  sched: SessionSchedule, t: int, r: int, current: Classifier,
                  prev_global: Classifier, shards,
                  buffer: ReplayBuffer) -> tuple[list[Classifier], list[int]]:
    data_t = sched.train_by_session[t]
    old_count = sched.session_range(t)[0]
    models, counts = [], []
    for m, shard in enumerate(shards):
        x, y = data_t.x[shard.indices], data_t.y[shard.indices]
        seed = derive_seed(cfg.seed, "client", t, r, m)
        if local_rule == "replay":
            local, n = local_update_nagr(current, x, y, buffer, cfg.weights,
                                         cfg.client, old_count, seed)
        elif local_rule == "distill":
            local, n = local_update_baseline_kd(current, prev_global, x, y,
                                                buffer, cfg.weights, cfg.client,
                                                old_count, seed)
        else:  # session data only
            no_replay = dataclasses.replace(cfg.weights, k=0.0)
            local, n = local_update_nagr(current, x, y, None, no_replay,
                                         cfg.client, old_count, seed)
        _check_finite(local, f"session {t}, round {r}, local update of client {m}")
        models.append(local)
        counts.append(n)
    return models, counts


def run_incremental_session(cfg: ExperimentConfig, sched: SessionSchedule,
                            t: int, prev_global: Classifier,
                            buffer: ReplayBuffer, shards) -> SessionResult:
    """One federated session: head expansion, R rounds of local updates plus
    generator training and aggregation, then buffer growth and evaluation."""
    started = time.perf_counter()
    lo, hi = sched.session_range(t)
    local_rule, head_rule = METHODS[cfg.method]
    needs_replay = local_rule is not None
    if needs_replay:
        buffer.require(range(0, lo))
    current = prev_global.clone()
    current.expand_head(t, hi - lo, derive_seed(cfg.seed, "head", t))

    generator = student = pool = None
    audit: dict | None = None
    for r in range(cfg.rounds):
        locals_, counts = _local_models(cfg, local_rule, sched, t, r, current,
                                        prev_global, shards, buffer)
        if needs_replay:
            generator, student, pool = train_generator_session(
                locals_, t, (lo, hi),
                (sched.envelope_low, sched.envelope_high), cfg.generator,
                cfg.weights, derive_seed(cfg.seed, "genlab", t),
                generator=generator, student=student)
            _check_pool(pool, f"session {t}, round {r}, generator")
        if head_rule == "cswa":
            matrix = build_accuracy_matrix(locals_, pool)
            blocks = [(m.head_blocks[-1].linear.weight.value.data,
                       m.head_blocks[-1].linear.bias.value.data)
                      for m in locals_]
            new_block = cswa_aggregate_new(blocks, matrix,
                                           cfg.aggregation.cswa_mode)
            current = assemble_global(locals_[0],
                                      aggregate_old(locals_, counts), new_block)
            audit = {
                "client_counts": counts,
                "accuracy_matrix": matrix.values.tolist(),
                "column_weights": cswa_weights(
                    matrix, cfg.aggregation.cswa_mode).tolist(),
            }
        else:
            current = fedavg_full(locals_, counts)
            audit = {"client_counts": counts, "accuracy_matrix": None,
                     "column_weights": None}
        _check_finite(current, f"session {t}, round {r}, aggregation")

    # bank only the final round's pool, pseudo-labeled by the fresh global
    if needs_replay:
        buffer.add_pool(relabel(pool, current), rng_for(cfg.seed, "buffer", t))

    overall, old, new, per_class = evaluate(current, sched.eval_by_session[t], lo)
    metrics = SessionMetrics(t, sched.classes_through(t), overall, old, new,
                             per_class, time.perf_counter() - started, audit)
    return SessionResult(current, metrics)


def run_experiment(cfg: ExperimentConfig, on_session=None) -> RunResult:
    """Run sessions 0..T; on_session(SessionMetrics, model) after each one."""
    validate_config(cfg)
    rid = run_id(cfg)
    sched = prepare_schedule(cfg)
    partitions = prepare_partitions(cfg, sched)

    base = run_base_session(cfg, sched)
    results = [base.metrics]
    if on_session:
        on_session(base.metrics, base.model)

    model, buffer = base.model, base.buffer
    for t in range(1, sched.sessions + 1):
        step = run_incremental_session(cfg, sched, t, model, buffer,
                                       partitions[t])
        model = step.model
        results.append(step.metrics)
        if on_session:
            on_session(step.metrics, model)

    average = float(np.mean([s.overall for s in results]))
    return RunResult(rid, cfg.method, cfg.seed, cfg.alpha, results,
                     results[-1].overall, average,
                     buffer.export_rows() if cfg.export_synthetics else None)
