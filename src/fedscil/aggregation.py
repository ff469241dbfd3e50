"""Server-side aggregation of client models.

Inherited parameters (backbone, previously learned head columns, batch-norm
running statistics) are combined by sample-count weighted averaging. The new
session's head columns are combined class by class: each client's column is
weighted by that client's accuracy on the synthetic samples of that class,
so clients that never saw a class contribute little to its column.
"""
from __future__ import annotations

import warnings  # not logging, which no other part of a run imports
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .generation import SyntheticPool
from .models import Classifier

Array = np.ndarray

OLD_GROUPS = ("backbone", "head_old", "bn_stats")


def _count_weights(counts: list[int] | Array, clients: int) -> Array:
    counts = np.asarray(counts, dtype=np.float64)
    if counts.shape != (clients,):
        raise ContractError("need one sample count per client")
    if np.any(counts < 0):
        raise ContractError("sample counts must be >= 0")
    total = counts.sum()
    if total == 0:
        warnings.warn("all client sample counts are zero; averaging uniformly")
        return np.full(clients, 1.0 / clients)
    return counts / total


def _weighted_state(models: list[Classifier], weights: Array,
                    names: set[str] | None = None) -> dict[str, Array]:
    out: dict[str, Array] = {}
    reference = models[0].state_entries()
    per_model = [dict((n, a) for n, a, _ in m.state_entries()) for m in models]
    for name, arr, group in reference:
        if names is not None and name not in names:
            continue
        acc = np.zeros_like(arr)
        for w, state in zip(weights, per_model):
            if state[name].shape != arr.shape:
                raise ContractError(f"client models disagree on shape of {name}")
            acc += w * state[name]
        out[name] = acc
    return out


def aggregate_old(models: list[Classifier], counts) -> dict[str, Array]:
    """Sample-count weighted average of every inherited tensor.

    Covers backbone weights and biases, batch-norm affine parameters and
    running statistics, and head columns of earlier sessions. Returns a name
    to array map; assemble_global installs it.
    """
    if not models:
        raise ContractError("need at least one client model")
    weights = _count_weights(counts, len(models))
    names = {name for name, _, group in models[0].state_entries()
             if group in OLD_GROUPS}
    return _weighted_state(models, weights, names)


def eval_class_accuracy(model: Classifier, pool: SyntheticPool) -> Array:
    """Per-class accuracy of full-head argmax on the pool's condition labels.

    Row entry i is the fraction of synthetic samples conditioned on class
    (class_lo + i) that the model assigns to exactly that class.
    """
    if len(pool) == 0:
        raise ContractError("empty synthetic pool")
    pred = model.predict(pool.samples)
    row = np.empty(pool.class_hi - pool.class_lo)
    for i, c in enumerate(range(pool.class_lo, pool.class_hi)):
        mask = pool.condition == c
        if not mask.any():
            raise ContractError(f"pool holds no samples conditioned on class {c}")
        row[i] = float((pred[mask] == c).mean())
    return row


@dataclass
class AccuracyMatrix:
    """Client-by-class accuracy on the session's synthetic samples."""

    values: Array  # (clients, classes)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ContractError("accuracy matrix must be 2-d")
        if np.any(self.values < 0) or np.any(self.values > 1):
            raise ContractError("accuracies must lie in [0, 1]")


def build_accuracy_matrix(models: list[Classifier],
                          pool: SyntheticPool) -> AccuracyMatrix:
    return AccuracyMatrix(np.stack([eval_class_accuracy(m, pool) for m in models]))


def cswa_weights(matrix: AccuracyMatrix, mode: str = "normalized") -> Array:
    """Per-column client weights derived from the accuracy matrix.

    normalized: column entries divided by the column sum (a convex blend per
    class); columns summing to zero fall back to uniform 1/M. paper_exact:
    the raw accuracies are used as weights without renormalization.
    """
    a = matrix.values
    if mode == "paper_exact":
        return a.copy()
    if mode != "normalized":
        raise ContractError(f"unknown cswa mode {mode!r}")
    sums = a.sum(axis=0, keepdims=True)
    return np.where(sums > 0, a / np.where(sums == 0, 1.0, sums), 1.0 / a.shape[0])


def cswa_aggregate_new(blocks: list[tuple[Array, Array]], matrix: AccuracyMatrix,
                       mode: str = "normalized") -> tuple[Array, Array]:
    """Column-wise weighted combination of the clients' new head blocks.

    blocks[m] is client m's (weight, bias) for the session's columns; bias
    entries are weighted exactly like their columns.
    """
    if len(blocks) != matrix.values.shape[0]:
        raise ContractError("need one head block per accuracy-matrix row")
    w0, b0 = blocks[0]
    classes = matrix.values.shape[1]
    if w0.shape[1] != classes or b0.shape != (classes,):
        raise ContractError("head block width does not match the accuracy matrix")
    weights = cswa_weights(matrix, mode)
    w_out = np.zeros_like(w0)
    b_out = np.zeros_like(b0)
    for m, (w, b) in enumerate(blocks):
        if w.shape != w0.shape or b.shape != b0.shape:
            raise ContractError("client head blocks disagree on shape")
        w_out += w * weights[m][None, :]
        b_out += b * weights[m]
    return w_out, b_out


def assemble_global(template: Classifier, old_state: dict[str, Array],
                    new_block: tuple[Array, Array]) -> Classifier:
    """Build the next global model from aggregated parts.

    The template provides the architecture (any client model works). Every
    tensor must be covered exactly once: inherited tensors by old_state, the
    last head block by new_block.
    """
    model = template.clone()
    new_linear = model.head_blocks[-1].linear
    new_names = {new_linear.weight.name, new_linear.bias.name}
    all_names = {name for name, _, _ in model.state_entries()}
    expected_old = all_names - new_names
    if set(old_state) != expected_old:
        missing = sorted(expected_old - set(old_state))
        extra = sorted(set(old_state) - expected_old)
        raise ContractError(f"old state mismatch; missing={missing} extra={extra}")
    w, b = new_block
    if w.shape != new_linear.weight.value.shape or b.shape != new_linear.bias.value.shape:
        raise ContractError("new block shape does not match the template head")
    arrays = dict(old_state)
    arrays[new_linear.weight.name] = w
    arrays[new_linear.bias.name] = b
    model.load_state(arrays)
    return model


def fedavg_full(models: list[Classifier], counts) -> Classifier:
    """Sample-count weighted average of every tensor, the plain baseline."""
    if not models:
        raise ContractError("need at least one client model")
    weights = _count_weights(counts, len(models))
    merged = _weighted_state(models, weights)
    model = models[0].clone()
    model.load_state(merged)
    return model
