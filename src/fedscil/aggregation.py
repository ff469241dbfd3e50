"""Server-side aggregation of client models.

Inherited parameters (backbone, previously learned head columns, batch-norm
running statistics) are combined by sample-count weighted averaging. The new
session's head columns are combined class by class, each client's column
weighted by its sample-count share (the count rule) or by its accuracy on
the synthetic samples of that class (the accuracy rule).
"""
from __future__ import annotations

import warnings  # not logging, which no other part of a run imports
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, PoolGapError
from .generation import SyntheticPool
from .models import Classifier

Array = np.ndarray

OLD_GROUPS = ("backbone", "head_old", "bn_stats")


def _count_weights(counts: list[int] | Array, clients: int) -> Array:
    if clients < 1:
        raise ContractError("need at least one client model")
    counts = np.asarray(counts, dtype=np.float64)
    if counts.shape != (clients,):
        raise ContractError("need one sample count per client")
    if np.any(counts < 0):
        raise ContractError("sample counts must be >= 0")
    return counts / counts.sum() if counts.any() else np.full(clients, 1.0 / clients)


def _accumulate(arrays: list[Array], weights, mismatch: str) -> Array:
    """The sum over clients m of weights[m] * arrays[m], added from zeros in
    client order; weights[m] is a scalar or broadcasts against arrays[m]."""
    out = np.zeros_like(arrays[0])
    for w, arr in zip(weights, arrays):
        if arr.shape != out.shape:
            raise ContractError(mismatch)
        out += w * arr
    return out


def aggregate_old(models: list[Classifier], counts) -> dict[str, Array]:
    """Sample-count weighted average of every inherited tensor (backbone
    weights and biases, batch-norm affine parameters and running statistics,
    head columns of earlier sessions), as the name to array map that
    assemble_global installs. All-zero counts average uniformly, with a warning.
    Client models must hold the same tensors, by name.
    """
    weights = _count_weights(counts, len(models))
    if not np.any(counts):
        warnings.warn("all client sample counts are zero; averaging uniformly")
    per_model = [dict((n, a) for n, a, _ in m.state_entries()) for m in models]
    for m, state in enumerate(per_model[1:], 1):
        odd = sorted(state.keys() ^ per_model[0].keys())
        if odd:
            has, lacks = (m, 0) if odd[0] in state else (0, m)
            raise ContractError(f"client {lacks} has no tensor {odd[0]}, "
                                f"client {has} has")
    return {name: _accumulate([state[name] for state in per_model], weights,
                              f"client models disagree on shape of {name}")
            for name, _, group in models[0].state_entries() if group in OLD_GROUPS}


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
            raise PoolGapError(f"pool holds no samples conditioned on class {c}")
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


def cswa_aggregate_new(blocks: list[tuple[Array, Array]],
                       weights: Array) -> tuple[Array, Array]:
    """Column-wise weighted combination of the clients' new head blocks.

    blocks[m] is client m's (weight, bias) for the session's columns and
    weights[m] its per-column weights (a row of :func:`cswa_weights`, or its
    count share in every column); bias entries are weighted like their columns.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2 or len(blocks) != weights.shape[0]:
        raise ContractError("need one head block per client-weight row")
    w0, b0 = blocks[0]
    classes = weights.shape[1]
    if w0.shape[1] != classes or b0.shape != (classes,):
        raise ContractError("head block width does not match the client weights")
    mismatch = "client head blocks disagree on shape"
    return (_accumulate([w for w, _ in blocks], weights, mismatch),
            _accumulate([b for _, b in blocks], weights, mismatch))


def _new_head(model: Classifier):
    if not model.heads:
        raise ContractError("model has no head block to aggregate")
    return list(model.heads.values())[-1]


def assemble_global(template: Classifier, old_state: dict[str, Array],
                    new_block: tuple[Array, Array]) -> Classifier:
    """Build the next global model from aggregated parts.

    The template gives only its architecture (any client model works). Every
    tensor must be covered exactly once, inherited tensors by old_state and
    the last head block by new_block; :meth:`Classifier.load_state` checks it.
    """
    model = Classifier.from_arch(template.arch())
    head = _new_head(model)
    new = dict(zip((head.weight.name, head.bias.name), new_block))
    if held := sorted(new.keys() & old_state.keys()):
        raise ContractError(f"old state holds a new head tensor: {', '.join(held)}")
    model.load_state({**old_state, **new})
    return model


def fedavg_full(models: list[Classifier], counts,
                column_weights: Array | None = None) -> Classifier:
    """FedAvg with per-client weights on the new head columns: inherited
    tensors by sample count (:func:`aggregate_old`), the last head block by
    column_weights, one row per client (:func:`cswa_aggregate_new`). Without
    them each column takes the clients' count shares, as every tensor does."""
    heads = [_new_head(m) for m in models]
    old_state = aggregate_old(models, counts)
    if column_weights is None:
        shares = _count_weights(counts, len(models))
        column_weights = np.repeat(shares[:, None], heads[0].out_dim, axis=1)
    blocks = [(h.weight.data, h.bias.data) for h in heads]
    return assemble_global(models[0], old_state,
                           cswa_aggregate_new(blocks, column_weights))
