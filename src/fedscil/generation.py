"""Data-free synthesis of replay samples for completed sessions.

Per session the server trains a label-conditioned generator against the
frozen session teachers (the initial global model in the base session, the
locally fine-tuned client models afterwards) and, adversarially, a student
that distills from the teachers on the synthetic stream. The generator
minimizes

    lambda1 * fidelity + lambda2 * (-entropy) + lambda3 * bn-stats + lambda4 * (-gated KL)

while the student minimizes plain KL(teacher || student), both stepped by
one ``autodiff.Replay``. One batch per epoch is banked into the session
pool; after aggregation the pool is pseudo-labeled by the new global model
and pushed into the replay buffer.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .autodiff import Optimizer, Replay, frozen
from .config import GenLabConfig, LossWeights
from .errors import BufferGapError, ContractError, EmptyBufferError, NonFiniteError
from .losses import (bn_stat_loss, generator_entropy_loss,
                     generator_fidelity_loss, generator_total_loss,
                     info_entropy, student_loss, transferability_loss)
from .models import Classifier, ConditionalGenerator, ModelStack, make_student
from .seeding import derive_seed

Array = np.ndarray


@dataclass
class SyntheticPool:
    """The banked synthetic samples of one session."""

    session: int
    class_lo: int
    class_hi: int
    samples: Array
    condition: Array                 # intended class, global id
    pseudo: Array | None = None      # relabeled class, global id

    def __len__(self) -> int:
        return int(self.samples.shape[0])


def generator_loss(generator: ConditionalGenerator, stack: ModelStack,
                   z: Array, labels: Array, weights: LossWeights):
    """The generator objective on one noise batch.

    Returns (loss, synthetic batch, teacher ensemble logits). The stack's
    teachers and its opponent slot, the student of the disagreement term,
    run in eval mode as one pass.
    """
    fake = generator.forward(z, labels, mode="train")
    ensemble, opponent, stats = stack.forward(fake, capture_bn=weights.lambda3 != 0)
    fidelity = generator_fidelity_loss(ensemble, labels)
    entropy = generator_entropy_loss(ensemble)
    stat_term = (bn_stat_loss(stats, stack.running_stats())
                 if weights.lambda3 != 0 else 0.0)
    if weights.lambda4 != 0:
        if opponent is None:
            raise ContractError("the disagreement term needs an opponent slot")
        disagreement = transferability_loss(ensemble, opponent,
                                            weights.kl_temperature)
    else:
        disagreement = 0.0
    loss = generator_total_loss(fidelity, entropy, stat_term, disagreement,
                                weights)
    return loss, fake, ensemble


def train_generator_session(teachers: list[Classifier], session: int,
                            class_range: tuple[int, int], envelope: tuple[Array, Array],
                            cfg: GenLabConfig, weights: LossWeights, seed: int,
                            generator: ConditionalGenerator | None = None,
                            student: Classifier | None = None,
                            ) -> tuple[ConditionalGenerator, Classifier, SyntheticPool]:
    """Adversarial generator/student training against frozen teachers.

    Returns the trained pair plus the pool banked this call (one batch per
    epoch). Pass the previous round's generator and student to continue
    training them; the pool is rebuilt from scratch each call. A non-finite
    loss at the last step of an epoch, the generator's or the training
    student's, raises NonFiniteError naming the session and the epoch.
    """
    cfg.validate()
    weights.validate()
    lo, hi = class_range
    c = hi - lo
    if c < 1:
        raise ContractError("session must introduce at least one class")
    in_dim = teachers[0].in_dim

    if generator is None:
        generator = ConditionalGenerator(cfg.noise_dim, c, envelope[0], envelope[1],
                                         seed=derive_seed(seed, "generator"),
                                         hidden=cfg.hidden)
    if student is None:
        student = make_student(in_dim, c, session,
                               seed=derive_seed(seed, "student"),
                               hidden=teachers[0].hidden,
                               feature_dim=teachers[0].feature_dim)

    gen_opt = Optimizer(generator.parameters(), "adam", {"backbone": cfg.gen_lr})
    stu_rates = {"backbone": cfg.student_lr, "head_new": cfg.student_lr,
                 "head_old": cfg.student_lr}
    stu_opt = Optimizer(student.parameters(), "sgd_momentum", stu_rates,
                        cfg.student_momentum)

    # the generator step reads copies of the teachers and of the opponent
    # student, so it updates neither
    stack = ModelStack(teachers, session,
                       student if weights.lambda4 != 0 else None)
    rng = np.random.default_rng(derive_seed(seed, "draws"))
    banked_x, banked_y = [], []

    def step(z: Array, labels: Array) -> list[tuple]:
        loss, fake, ensemble = generator_loss(generator, stack, z, labels, weights)
        roots = [(loss, gen_opt)]
        # student step on the same batch, detached from the generator
        if cfg.student_lr > 0:
            roots.append((student_loss(ensemble.detach(),
                                       student.forward(fake.data, mode="train"),
                                       weights.kl_temperature), stu_opt))
        return roots

    replay = Replay(step)
    for epoch in range(cfg.epochs):
        for _ in range(cfg.rounds_per_epoch):
            z = rng.standard_normal((cfg.batch_size, cfg.noise_dim))
            labels = rng.integers(0, c, size=cfg.batch_size)
            stack.load_opponent()
            losses = replay(z, labels)
        if not np.isfinite(losses).all():
            raise NonFiniteError(f"non-finite generator loss at epoch {epoch} "
                                 f"of session {session}")

        z = rng.standard_normal((cfg.bank_per_epoch, cfg.noise_dim))
        labels = rng.integers(0, c, size=cfg.bank_per_epoch)
        with frozen(generator.parameters()):  # no graph; running stats still move
            banked_x.append(generator.forward(z, labels, mode="train").data)
        banked_y.append(labels + lo)

    pool = SyntheticPool(session, lo, hi, np.concatenate(banked_x),
                         np.concatenate(banked_y).astype(np.int64))
    return generator, student, pool


def relabel(pool: SyntheticPool, model: Classifier) -> SyntheticPool:
    """Pseudo-label the pool by the model's session-slice argmax.

    Samples whose pseudo-label disagrees with their condition are kept; they
    are the hard examples. Relabeling twice with the same model is a no-op.
    """
    pseudo = model.predict(pool.samples, session=pool.session) + pool.class_lo
    return SyntheticPool(pool.session, pool.class_lo, pool.class_hi,
                         pool.samples, pool.condition, pseudo.astype(np.int64))


class ReplayBuffer:
    """Per-class FIFO store of pseudo-labeled synthetic samples.

    Entries are keyed by pseudo-label; the condition label and origin session
    ride along as metadata. Each class holds three arrays (samples,
    conditions, sessions), oldest row first, which own their data: no stored
    array is a view of a session's pool. ``label_noise`` is an evaluation
    knob: with probability p an incoming pseudo-label is flipped uniformly to
    another class of its session before storage.
    """

    def __init__(self, capacity_per_class: int = 200, label_noise: float = 0.0):
        if capacity_per_class < 1:
            raise ContractError("capacity_per_class must be >= 1")
        if not (0.0 <= label_noise < 1.0):
            raise ContractError("label_noise must be in [0, 1)")
        self.capacity_per_class = capacity_per_class
        self.label_noise = label_noise
        self._store: dict[int, tuple[Array, Array, Array]] = {}

    def __len__(self) -> int:
        return sum(len(v[0]) for v in self._store.values())

    def classes(self) -> list[int]:
        return sorted(self._store)

    def per_class_counts(self) -> dict[int, int]:
        return {c: len(v[0]) for c, v in sorted(self._store.items())}

    def add_pool(self, pool: SyntheticPool, rng: np.random.Generator) -> None:
        if pool.pseudo is None:
            raise ContractError("pool must be relabeled before buffering")
        lo, span = pool.class_lo, pool.class_hi - pool.class_lo
        labels = pool.pseudo.astype(np.int64)
        if np.any((labels < lo) | (labels >= pool.class_hi)):
            raise ContractError("pseudo-label outside the pool's session range")
        if self.label_noise > 0.0 and span > 1:
            for i in range(len(labels)):  # one draw (two on a flip) per sample
                if rng.random() < self.label_noise:
                    shift = int(rng.integers(1, span))
                    labels[i] = lo + (labels[i] - lo + shift) % span
        cap = self.capacity_per_class
        for c in (np.flatnonzero(np.bincount(labels - lo)) + lo).tolist():
            rows = labels == c
            parts = (pool.samples[rows], pool.condition[rows],
                     np.full(np.count_nonzero(rows), pool.session, dtype=np.int64))
            if c in self._store:
                parts = tuple(map(np.concatenate, zip(self._store[c], parts)))
            if len(parts[0]) > cap:  # oldest out
                parts = tuple(a[-cap:].copy() for a in parts)
            self._store[c] = parts

    def require(self, classes: range) -> None:
        for c in classes:
            if c not in self._store:
                raise BufferGapError(f"replay buffer has no samples for class {c}")

    def sample(self, count: int, rng: np.random.Generator) -> tuple[Array, Array]:
        """Class-balanced draw with replacement across every stored class."""
        present = self.classes()
        if not present:
            raise EmptyBufferError("replay buffer is empty")
        base, extra = divmod(count, len(present))
        wants = np.full(len(present), base)
        wants[rng.permutation(len(present))[:extra]] += 1
        xs = []
        for c, want in zip(present, wants.tolist()):
            if want:
                samples = self._store[c][0]
                xs.append(samples[rng.integers(0, len(samples), size=want)])
        x = np.concatenate(xs)
        y = np.repeat(np.asarray(present, dtype=np.int64), wants)
        order = rng.permutation(y.shape[0])
        return x[order], y[order]

    def export_rows(self) -> list[tuple]:
        rows = []
        for c in self.classes():
            samples, conditions, sessions = self._store[c]
            rows.extend((sample, int(condition), c, int(session))
                        for sample, condition, session
                        in zip(samples, conditions, sessions))
        return rows


def export_synthetics_csv(path, rows) -> None:
    """Rows of (sample, condition_label, pseudo_label, session)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for sample, condition, pseudo, session in rows:
            writer.writerow([repr(float(v)) for v in sample]
                            + [int(condition), int(pseudo), int(session)])


def teacher_confidence(teachers: list[Classifier], session: int,
                       pool: SyntheticPool) -> float:
    """Mean ensemble softmax probability of each sample's condition class."""
    logits, _, _ = ModelStack(teachers, session).forward(pool.samples)
    probs = logits.softmax().data
    local = pool.condition - pool.class_lo
    return float(probs[np.arange(len(pool)), local].mean())


def teacher_pool_entropy(teachers: list[Classifier], session: int,
                         pool: SyntheticPool) -> float:
    """Mean scaled prediction entropy of the ensemble over the pool."""
    logits, _, _ = ModelStack(teachers, session).forward(pool.samples)
    return float(info_entropy(logits.softmax()).data)
