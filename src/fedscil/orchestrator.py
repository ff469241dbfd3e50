"""End-to-end experiment driver.

A run is one base session (centralized training on the data-rich classes)
followed by T incremental sessions. Each incremental session partitions the
session's few-shot data across clients with a per-class Dirichlet draw, runs
local updates, trains the session's generator against the local models,
aggregates, then relabels and banks the session's synthetic pool for future
replay. ``config.METHODS`` maps each method to its local and head rules.

Everything is deterministic given the config: every random stream is derived
from the master seed (``seeding.seed_streams`` lists the paths),
clients consume independent streams so results do not depend on iteration
order, and metrics records carry no wall-clock fields (timings travel in a
separate stream).
"""
from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from .aggregation import build_accuracy_matrix, cswa_weights, fedavg_full
from .autodiff import Optimizer, Replay
from .client import (_epoch_batches, local_update_baseline_kd,
                     local_update_nagr)
from .config import METHODS, ExperimentConfig, run_id, validate_config
from .data import (DatasetSplits, LabeledDataset, SessionSchedule,
                   build_schedule, dirichlet_partition, load_csv_dataset,
                   make_blobs, partition_summary)
from .errors import BufferGapError, ConfigError, NonFiniteError, PoolGapError
from .generation import (ReplayBuffer, SyntheticPool, relabel,
                         train_generator_session)
from .losses import cross_entropy
from .models import Classifier
from .seeding import stream_seed


@dataclass
class SessionMetrics:
    session: int
    classes_seen: int
    overall: float
    old: float | None       # None in the base session (nothing is old yet)
    new: float
    per_class: list[float | None]
    audit: dict | None = None    # aggregation details, incremental sessions only


@dataclass
class SessionState:
    """All that one session hands the next (the global model and the replay
    buffer), with the session's deterministic metrics and wall-clock time."""
    model: Classifier
    buffer: ReplayBuffer
    metrics: SessionMetrics
    seconds: float


@dataclass
class RunResult:
    run_id: str
    method: str
    seed: int
    alpha: float
    sessions: list[SessionMetrics]
    final_accuracy: float
    average_accuracy: float
    buffer: ReplayBuffer    # the final replay buffer, empty without a local rule


def prepare_data(cfg: ExperimentConfig) -> DatasetSplits:
    d = cfg.data
    if d.csv_train:
        train = load_csv_dataset(d.csv_train, d.classes)
        test = load_csv_dataset(d.csv_test, d.classes)
        if train.x.shape[1] != test.x.shape[1]:
            raise ConfigError(f"{d.csv_train}: {train.x.shape[1]} features, but "
                              f"{d.csv_test} has {test.x.shape[1]}")
        return DatasetSplits(train, test)
    return make_blobs(d.classes, d.dim, d.per_class_train, d.per_class_test,
                      d.spread, stream_seed(cfg, "data"))


def prepare_schedule(cfg: ExperimentConfig) -> SessionSchedule:
    d = cfg.data
    return build_schedule(prepare_data(cfg), d.base_classes, d.sessions,
                          d.way, d.shot, stream_seed(cfg, "schedule"))


def prepare_partitions(cfg: ExperimentConfig, sched: SessionSchedule) -> list:
    """Client shards per incremental session (index 0 unused)."""
    parts: list = [None]
    for t in range(1, sched.sessions + 1):
        parts.append(dirichlet_partition(
            sched.train_by_session[t], cfg.clients, cfg.alpha,
            stream_seed(cfg, "partition", t)))
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
    opt = Optimizer(model.parameters(), "sgd_momentum", rates, b.momentum)
    replay = Replay(lambda x, y: [(cross_entropy(model.forward(x, mode="train"), y),
                                   opt)])
    rng = np.random.default_rng(stream_seed(cfg, "base"))
    milestones = sorted(int(f * b.epochs) for f in b.decay_milestones)
    for epoch in range(b.epochs):
        passed = sum(1 for m in milestones if epoch >= m)
        lr = b.lr * (b.decay_factor ** passed)
        for group in rates:
            opt.set_rate(group, lr)
        for batch in _epoch_batches(len(ds), b.batch_size, rng):
            replay(ds.x[batch], ds.y[batch])


def run_base_session(cfg: ExperimentConfig, sched: SessionSchedule) -> SessionState:
    """Centralized training on the data-rich classes, then (for methods with
    a local replay rule) generator training against the fresh model and
    buffer seeding."""
    started = time.perf_counter()
    model = Classifier(sched.dim, sched.base_classes,
                       seed=stream_seed(cfg, "init"),
                       hidden=cfg.model.hidden,
                       feature_dim=cfg.model.feature_dim)
    _train_base(model, sched.train_by_session[0], cfg)
    _check_finite(model, "session 0, base training")

    buffer = ReplayBuffer(cfg.generator.buffer_capacity, cfg.replay_label_noise)
    pool = None
    local_rule, _ = METHODS[cfg.method]
    if local_rule is not None:
        _, _, pool = train_generator_session(
            [model], 0, sched.session_range(0),
            (sched.envelope_low, sched.envelope_high), cfg.generator,
            cfg.weights, stream_seed(cfg, "genlab", 0))
        _check_pool(pool, "session 0, generator")
    return _close_session(cfg, sched, 0, model, buffer, pool, started)


def _close_session(cfg: ExperimentConfig, sched: SessionSchedule, t: int,
                   model: Classifier, buffer: ReplayBuffer,
                   pool: SyntheticPool | None, started: float,
                   audit: dict | None = None) -> SessionState:
    """Bank the session's final pool, if it has one, pseudo-labeled by the
    session's final model; then evaluate the model."""
    if pool is not None:
        buffer.add_pool(relabel(pool, model),
                        np.random.default_rng(stream_seed(cfg, "buffer", t)))
    overall, old, new, per_class = evaluate(model, sched.eval_by_session[t],
                                            sched.session_range(t)[0])
    metrics = SessionMetrics(t, sched.classes_through(t), overall, old, new,
                             per_class, audit)
    return SessionState(model, buffer, metrics, time.perf_counter() - started)


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


def _local_models(cfg: ExperimentConfig, local_rule: str | None, k: float,
                  sched: SessionSchedule, t: int, r: int, current: Classifier,
                  prev_global: Classifier, shards,
                  buffer: ReplayBuffer) -> tuple[list[Classifier], list[int]]:
    """Each client's local update under the local rule, replay weight k."""
    data_t = sched.train_by_session[t]
    old_count = sched.session_range(t)[0]
    weights = dataclasses.replace(cfg.weights, k=k)
    models, counts = [], []
    for m, shard in enumerate(shards):
        x, y = data_t.x[shard], data_t.y[shard]
        seed = stream_seed(cfg, "client", t, r, m)
        if local_rule == "distill":
            local, n = local_update_baseline_kd(current, prev_global, x, y,
                                                buffer, weights, cfg.client,
                                                old_count, seed)
        else:
            local, n = local_update_nagr(current, x, y, buffer, weights,
                                         cfg.client, old_count, seed)
        _check_finite(local, f"session {t}, round {r}, local update of client {m}")
        models.append(local)
        counts.append(n)
    return models, counts


def run_incremental_session(cfg: ExperimentConfig, sched: SessionSchedule,
                            t: int, prev_global: Classifier,
                            buffer: ReplayBuffer, shards) -> SessionState:
    """One federated session: head expansion, R rounds of local updates plus
    generator training and aggregation, then buffer growth and evaluation.
    The head rule picks only the client weights of the new head columns."""
    started = time.perf_counter()
    lo, hi = sched.session_range(t)
    local_rule, head_rule = METHODS[cfg.method]
    k = cfg.weights.k if local_rule is not None else 0.0
    if k > 0.0:  # only a replay term draws from the buffer
        try:
            buffer.require(range(0, lo))
        except BufferGapError as exc:
            raise BufferGapError(f"{exc} before session {t}") from None
    current = prev_global.clone()
    current.expand_head(t, hi - lo, stream_seed(cfg, "head", t))

    generator = student = pool = None
    for r in range(cfg.rounds):
        locals_, counts = _local_models(cfg, local_rule, k, sched, t, r, current,
                                        prev_global, shards, buffer)
        if local_rule is not None:
            try:
                generator, student, pool = train_generator_session(
                    locals_, t, (lo, hi),
                    (sched.envelope_low, sched.envelope_high), cfg.generator,
                    cfg.weights, stream_seed(cfg, "genlab", t),
                    generator=generator, student=student)
            except NonFiniteError as exc:
                raise NonFiniteError(f"{exc}, round {r}") from None
            _check_pool(pool, f"session {t}, round {r}, generator")
        matrix = weights = None
        if head_rule == "cswa":
            try:
                matrix = build_accuracy_matrix(locals_, pool)
            except PoolGapError as exc:
                raise PoolGapError(f"{exc} in session {t}, round {r}") from None
            weights = cswa_weights(matrix, cfg.aggregation.cswa_mode)
        current = fedavg_full(locals_, counts, weights)
        _check_finite(current, f"session {t}, round {r}, aggregation")
    audit = {"client_counts": counts,
             "accuracy_matrix": None if matrix is None else matrix.values.tolist(),
             "column_weights": None if weights is None else weights.tolist()}

    # bank only the final round's pool, pseudo-labeled by the fresh global
    return _close_session(cfg, sched, t, current, buffer, pool, started, audit)


def run_experiment(cfg: ExperimentConfig, on_session=None,
                   prepared: tuple[SessionSchedule, list] | None = None) -> RunResult:
    """Run sessions 0..T; on_session(SessionState) after each one.
    ``prepared`` is the config's (schedule, shards), drawn here when None."""
    validate_config(cfg)
    if prepared is None:
        sched = prepare_schedule(cfg)
        prepared = sched, prepare_partitions(cfg, sched)
    sched, partitions = prepared

    results = []
    for t in range(sched.sessions + 1):
        state = (run_base_session(cfg, sched) if t == 0 else
                 run_incremental_session(cfg, sched, t, state.model,
                                         state.buffer, partitions[t]))
        results.append(state.metrics)
        if on_session:
            on_session(state)

    average = float(np.mean([s.overall for s in results]))
    return RunResult(run_id(cfg), cfg.method, cfg.seed, cfg.alpha, results,
                     results[-1].overall, average, state.buffer)
