"""Client-side local fine-tuning for one federated session.

Both trainers clone the distributed global model, then run mini-batch SGD
with two learning-rate groups: the backbone and inherited head columns move
at a small rate, the session's new columns at a large one. When replay is
active, each step draws a fresh class-balanced batch from the synthetic
buffer and forwards it together with the session batch (one train-mode pass,
so batch-norm sees the union batch and a singleton session batch can never
reach the batch statistics). The replay term reads the replay rows' logits:
every column in ``replay_loss`` "subset" mode, only the old-class columns in
"sliced" mode, which is the same objective under their own softmax.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (Optimizer, OptimizerConfig, Replay, Tensor, col_slice,
                       concat, frozen, row_slice)
from .errors import ContractError
from .generation import ReplayBuffer
from .losses import (LossWeights, client_loss, cross_entropy,
                     distillation_loss_subset)
from .models import Classifier


@dataclass
class ClientConfig:
    epochs: int = 15
    batch_size_new: int = 8
    batch_size_replay: int = 8
    lr_backbone_and_old: float = 1e-4
    lr_new_head: float = 0.1
    momentum: float = 0.9
    replay_loss: str = "subset"  # subset | sliced

    def validate(self) -> None:
        if self.epochs < 1:
            raise ContractError("client.epochs must be >= 1")
        if self.batch_size_new < 1 or self.batch_size_replay < 1:
            raise ContractError("client batch sizes must be >= 1")
        if not 0 <= self.lr_backbone_and_old <= self.lr_new_head < np.inf:
            raise ContractError("need 0 <= lr_backbone_and_old <= lr_new_head, finite")
        if not 0 <= self.momentum < 1:
            raise ContractError("client.momentum must be in [0, 1)")
        if self.replay_loss not in ("subset", "sliced"):
            raise ContractError(f"unknown replay_loss {self.replay_loss!r}")


def _epoch_batches(n: int, size: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Shuffled index batches; a trailing singleton is merged into its
    predecessor so train-mode batch norm never sees one sample."""
    perm = rng.permutation(n)
    batches = [perm[i:i + size] for i in range(0, n, size)]
    if len(batches) > 1 and batches[-1].shape[0] == 1:
        batches[-2] = np.concatenate([batches[-2], batches[-1]])
        batches.pop()
    return batches


def _local_step(model: Classifier, opt: Optimizer, cfg: ClientConfig,
                old_count: int, loss_fn) -> Replay:
    """The local step, called per batch with the session rows and, when
    replay is on, the replay rows and the labels the loss reads.
    loss_fn(new_logits, new_labels, replay_logits, replay_x, *replay_labels)
    -> scalar, the replay logits cut to ``old_count`` columns in sliced mode."""

    def step(xb, yb, xr=None, *yr):
        nb = xb.shape[0]
        if xr is None:
            logits = model.forward(xb, mode="train" if nb >= 2 else "eval")
            return [(loss_fn(logits, yb), opt.params, opt)]
        # an op over both inputs, so that the joint batch replays fresh
        joint = model.forward(concat([Tensor(xb), Tensor(xr)], axis=0), mode="train")
        replay = row_slice(joint, nb, nb + xr.shape[0])
        if cfg.replay_loss == "sliced":
            replay = col_slice(replay, 0, old_count)
        loss = loss_fn(row_slice(joint, 0, nb), yb, replay, xr, *yr)
        return [(loss, opt.params, opt)]

    return Replay(step)


def _run_local(model_in: Classifier, x: np.ndarray, y: np.ndarray,
               buffer: ReplayBuffer | None, cfg: ClientConfig,
               weights: LossWeights, old_count: int, seed: int,
               loss_fn, replay_arrays: int) -> tuple[Classifier, int]:
    """Shared loop over :func:`_local_step`; a step reads the first
    ``replay_arrays`` of a buffer draw's (x, y)."""
    cfg.validate()
    model = model_in.clone()
    n = int(y.shape[0])
    if n == 0:
        return model, 0
    use_replay = weights.k > 0.0
    if use_replay and (buffer is None or len(buffer) == 0):
        raise ContractError("replay requested but the buffer is empty")
    rates = {"backbone": cfg.lr_backbone_and_old,
             "head_old": cfg.lr_backbone_and_old, "head_new": cfg.lr_new_head}
    opt = Optimizer(model.parameters(), OptimizerConfig("sgd_momentum", rates,
                                                        momentum=cfg.momentum))
    replay = _local_step(model, opt, cfg, old_count, loss_fn)
    rng = np.random.default_rng(seed)
    for _ in range(cfg.epochs):
        for batch in _epoch_batches(n, cfg.batch_size_new, rng):
            drawn = buffer.sample(cfg.batch_size_replay, rng) if use_replay else ()
            replay(x[batch], y[batch], *drawn[:replay_arrays])
    return model, n


def local_update_nagr(model: Classifier, x: np.ndarray, y: np.ndarray,
                      buffer: ReplayBuffer | None, weights: LossWeights,
                      cfg: ClientConfig, old_count: int,
                      seed: int) -> tuple[Classifier, int]:
    """Local update with noise-aware replay: CE on the session batch plus
    k * (alpha CE + beta RCE) on pseudo-labeled synthetic replay.

    An empty shard returns the model unchanged with count 0.
    """

    def loss_fn(new_logits, new_labels, replay_logits=None, _xr=None,
                replay_labels=None):
        return client_loss(new_logits, new_labels, replay_logits, replay_labels,
                           weights, old_count)

    return _run_local(model, x, y, buffer, cfg, weights, old_count, seed,
                      loss_fn, 2)


def local_update_baseline_kd(model: Classifier, prev_model: Classifier,
                             x: np.ndarray, y: np.ndarray,
                             buffer: ReplayBuffer | None, weights: LossWeights,
                             cfg: ClientConfig, old_count: int,
                             seed: int) -> tuple[Classifier, int]:
    """Baseline local update: CE on the session batch plus k * KL from the
    frozen previous global model on the replay batch's old-class entries.

    The old-class entries follow cfg.replay_loss: in subset mode they come
    from the full-head softmax (mass leaking to new columns raises the
    divergence), in sliced mode from the softmax of the old-class columns
    alone. With k == 0 the replay stream is never drawn, so the trajectory
    is bit-identical to local_update_nagr under the same seed.
    """
    if prev_model.classes_seen != old_count:
        raise ContractError("previous global model must cover the old classes")

    def loss_fn(new_logits, new_labels, replay_logits=None, xr=None):
        loss = cross_entropy(new_logits, new_labels)
        if replay_logits is None:
            return loss
        teacher = prev_model.forward(Tensor(xr), mode="eval")
        kd = distillation_loss_subset(teacher, replay_logits, old_count,
                                      weights.kl_temperature)
        return loss + weights.k * kd

    # the teacher's forward pass needs no graph
    with frozen(prev_model.parameters()):
        return _run_local(model, x, y, buffer, cfg, weights, old_count, seed,
                          loss_fn, 1)
