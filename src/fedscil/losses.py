"""Every training objective in the simulator, as autodiff graphs.

Cross entropy, the entropy term, the batch-norm statistics term and every
KL term (plain, gated, and old-class distillation) are fused nodes that
repeat the arithmetic of their composed form; the rest are composed from
autodiff ops.

All losses are batch means and return scalar graph tensors. Conventions:

- cross_entropy(logits, y)        = mean_i -log softmax(logits)_[i, y_i]
- reverse_cross_entropy(p, y)     = mean_i -(sum_c p_ic * log onehot(y_i)_c)
  with log 0 := log_zero (default -4), which reduces to -log_zero * (1 - p_iy).
- KL terms are computed between softmax distributions at a configurable
  temperature (default 1), teacher distribution first.
"""
from __future__ import annotations

import numpy as np

from .autodiff import (Array, Tensor, _apply, _check_range, _log_fw, _softmax_bw,
                       _softmax_fw, _wrap, col_slice, gather_rows, one_hot)
from .config import LossWeights
from .errors import ContractError


def _check_batch(logits: Tensor, labels: Array) -> Array:
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or logits.shape[0] == 0:
        raise ContractError("loss expects a nonempty (batch, classes) tensor")
    if labels.shape != (logits.shape[0],):
        raise ContractError("labels must be 1-d, one per row")
    return labels


def _cross_entropy_fw(ins, labels):
    _check_range(labels, ins[0].shape[1], "label")
    p, _ = _softmax_fw(ins)
    rows = np.arange(labels.shape[0])
    logs, (above, clamped) = _log_fw([p[rows, labels]])
    return (-(np.add.reduce(logs, axis=None) / rows.shape[0]),
            (p, rows, labels, above, clamped))


def _cross_entropy_bw(g, s, needs):
    p, rows, labels, above, clamped = s
    full = np.zeros_like(p)
    np.add.at(full, (rows, labels), -g / rows.shape[0] * above / clamped)
    return _softmax_bw(full, p, needs)


def cross_entropy(logits: Tensor, labels: Array) -> Tensor:
    """One node: ``-gather_rows(logits.softmax(), labels).log().mean()``."""
    return _apply(_cross_entropy_fw, _cross_entropy_bw, (logits,),
                  _check_batch(logits, labels))


def reverse_cross_entropy(probs: Tensor, labels: Array,
                          log_zero: float = -4.0) -> Tensor:
    """-mean_i sum_c p_ic log onehot(y_i)_c with log 0 := log_zero; for rows
    summing to 1, per sample -log_zero * (1 - p_y)."""
    labels = _check_batch(probs, labels)
    log_hot = log_zero * (1.0 - one_hot(labels, probs.shape[1]).data)
    per_sample = (probs * Tensor(log_hot)).sum(axis=1)
    return -(per_sample.mean())


def replay_loss_subset(full_logits: Tensor, labels: Array, old_count: int,
                       alpha: float, beta: float,
                       log_zero: float = -4.0) -> Tensor:
    """The replay objective: alpha * CE + beta * RCE on old-class targets.

    Over the full head the softmax spans every seen class, so the gradient
    also pushes new-class logits down on old-class samples: the CE pulls p_y
    toward 1 and the RCE term -log_zero * (1 - p_y) counts any mass off the
    target, new columns included. Given only the old-class columns, it is
    the same objective under their own softmax. The column slice and the
    gather check ``old_count`` and the labels against the head's width.
    """
    labels = _check_batch(full_logits, labels)
    p = full_logits.softmax()
    p_y = gather_rows(col_slice(p, 0, old_count), labels)
    ce = -(p_y.log().mean())
    rce = -((log_zero * (1.0 - p_y)).mean())
    return alpha * ce + beta * rce


def noise_robust_loss(logits: Tensor, labels: Array, alpha: float, beta: float,
                      log_zero: float = -4.0) -> Tensor:
    """alpha * CE + beta * RCE over the softmax of all the given logits."""
    return replay_loss_subset(logits, labels, logits.shape[1], alpha, beta,
                              log_zero)


def client_loss(new_logits: Tensor, new_labels: Array,
                replay_logits: Tensor | None, replay_labels: Array | None,
                weights: LossWeights, old_count: int = 0) -> Tensor:
    """Local objective: CE on the session's data plus k times
    :func:`replay_loss_subset` on the replay rows.

    ``replay_logits`` may be None only when k == 0 (no replay drawn).
    """
    loss = cross_entropy(new_logits, new_labels)
    if weights.k == 0.0:
        return loss
    if replay_logits is None or replay_labels is None:
        raise ContractError("replay batch required when k > 0")
    old = replay_loss_subset(replay_logits, replay_labels, old_count,
                             weights.alpha, weights.beta, weights.rce_log_zero)
    return loss + weights.k * old


def info_entropy(probs: Tensor) -> Tensor:
    """Mean over the batch of -(1/c) * sum_c p log p."""
    if probs.ndim != 2 or probs.shape[0] == 0:
        raise ContractError("info_entropy expects a nonempty (batch, classes) tensor")
    c = probs.shape[1]
    per_sample = -((probs * probs.log()).sum(axis=1))
    return per_sample.mean() * (1.0 / c)


# CE between the teachers' session-slice prediction and the condition
generator_fidelity_loss = cross_entropy


def _entropy_fw(ins):
    n, c = ins[0].shape
    p, _ = _softmax_fw(ins)
    logs, (above, clamped) = _log_fw([p])
    per_sample = -((p * logs).sum(axis=1))
    value = -(np.add.reduce(per_sample, axis=None) / n * (1.0 / c))
    return value, (p, logs, above, clamped, n, c)


def _entropy_bw(g, s, needs):
    p, logs, above, clamped, n, c = s
    g_terms = -(-g * (1.0 / c) / n)
    return _softmax_bw(g_terms * logs + g_terms * p * above / clamped, p, needs)


def generator_entropy_loss(teacher_logits: Tensor) -> Tensor:
    """Negated prediction entropy: minimizing it favors hard samples.

    One node: ``-info_entropy(teacher_logits.softmax())``.
    """
    if teacher_logits.ndim != 2 or teacher_logits.shape[0] == 0:
        raise ContractError("generator_entropy_loss expects a nonempty "
                            "(batch, classes) tensor")
    return _apply(_entropy_fw, _entropy_bw, (teacher_logits,))


def _bn_stat_fw(ins, refs):
    models = refs[0].shape[0]
    diffs = [stat - ref for stat, ref in zip(ins, refs)]
    # one row sum per model, as over that model's statistic alone
    norms = [np.sqrt((d * d).reshape(models, -1).sum(axis=1)) for d in diffs]
    total = None
    for m in range(models):
        for k in range(0, len(norms), 2):
            term = norms[k][m] + norms[k + 1][m]
            total = term if total is None else total + term
    return total * (1.0 / models), (diffs, norms, models)


def _bn_stat_bw(g, s, needs):
    diffs, norms, models = s
    g_total = g * (1.0 / models)
    grads = []
    for d, norm in zip(diffs, norms):
        safe = np.maximum(norm, 1e-150).reshape((models,) + (1,) * (d.ndim - 1))
        g_d = g_total * 0.5 / safe * d
        grads.append(g_d + g_d)
    return grads


def bn_stat_loss(batch_stats: list[tuple[Tensor, Tensor]],
                 running_stats: list[tuple[Array, Array]]) -> Tensor:
    """Mean over models of the summed L2 distances between the synthetic
    batch's per-layer statistics and that model's running statistics.

    Both lists hold one (mean, var) pair per layer, each with a leading axis
    over the M models compared; each batch statistic has its running
    statistic's shape.

    One node over every statistic. It repeats the arithmetic of
    ``l2_norm(mu[m] - r_mu[m]) + l2_norm(var[m] - r_var[m])`` summed layer by
    layer, model by model, then scaled by 1 / M.
    """
    if len(batch_stats) != len(running_stats) or not batch_stats:
        raise ContractError("need matching, nonempty per-layer statistics")
    models = running_stats[0][0].shape[0]
    stats, refs = [], []
    for (mu, var), (r_mu, r_var) in zip(batch_stats, running_stats):
        for stat, ref in ((mu, r_mu), (var, r_var)):
            if stat.shape != ref.shape or ref.shape[0] != models:
                raise ContractError(f"batch statistics {stat.shape} do not "
                                    f"match running statistics {ref.shape}")
            stats.append(stat)
            refs.append(ref)
    return _apply(_bn_stat_fw, _bn_stat_bw, tuple(stats), tuple(refs))


def _kl_fw(ins, scale, width, gated):
    t, s = ins
    p, _ = _softmax_fw([t * scale])
    q_full, _ = _softmax_fw([s * scale])
    log_p, (above_p, clamped_p) = _log_fw([p])
    log_q, (above_q, clamped_q) = _log_fw([q_full[:, :width]])
    diff = log_p + -log_q
    rows = (p * diff).sum(axis=1)
    n = rows.shape[0]
    gate = None
    if gated:
        # 1 exactly where the two argmax predictions disagree
        gate = (t.argmax(axis=1) != s.argmax(axis=1)).astype(np.float64)
        value = -(np.add.reduce(rows * gate, axis=None) / n)
    else:
        value = np.add.reduce(rows, axis=None) / n
    return value, (scale, gate, p, diff, above_p, clamped_p, q_full, above_q,
                   clamped_q)


def _kl_bw(g, s, needs):
    scale, gate, p, diff, above_p, clamped_p, q_full, above_q, clamped_q = s
    n = p.shape[0]
    g_terms = g / n if gate is None else (-g / n * gate)[:, None]
    g_diff = g_terms * p
    g_t = g_s = None
    if needs[0]:
        g_p = g_terms * diff + g_diff * above_p / clamped_p
        g_t = _softmax_bw(g_p, p, needs)[0] * scale
    if needs[1]:
        g_q = np.zeros_like(q_full)
        g_q[:, :above_q.shape[1]] = -g_diff * above_q / clamped_q
        g_s = _softmax_bw(g_q, q_full, needs)[0] * scale
    return (g_t, g_s)


def _kl_loss(teacher_logits: Tensor, student_logits: Tensor,
             temperature: float, gated: bool = False,
             old_count: int | None = None) -> Tensor:
    """One node for the batch mean of row-wise KL(p || q), with
    ``p = (teacher_logits * (1 / T)).softmax()`` and q likewise; gated, the
    negated mean over the rows whose argmax predictions disagree. With
    ``old_count``, q is the first ``old_count`` entries of the student's
    full-width softmax, their gradient zero-padded to the full width."""
    width = student_logits.shape[1] if old_count is None else old_count
    if teacher_logits.shape != (student_logits.shape[0], width):
        raise ContractError("KL needs distributions of identical shape")
    return _apply(_kl_fw, _kl_bw, (teacher_logits, student_logits),
                  1.0 / temperature, width, gated)


def student_loss(teacher_logits: Tensor, student_logits: Tensor,
                 temperature: float = 1.0) -> Tensor:
    """Batch-mean KL(teacher || student) between tempered softmaxes."""
    return _kl_loss(teacher_logits, student_logits, temperature)


def distillation_loss_subset(teacher_logits: Tensor, full_logits: Tensor,
                             old_count: int, temperature: float = 1.0) -> Tensor:
    """KL from the teacher to the old-class entries of the full-head softmax.

    The student entries come from the softmax over every seen class and sum
    to less than one when new columns take probability mass, so minimizing
    the divergence also pushes new-class logits down on replay samples.
    Coincides with :func:`student_loss` on the old-class slice while the
    head has no new columns.
    """
    if not (0 < old_count <= full_logits.shape[1]):
        raise ContractError("old_count outside the head's width")
    if teacher_logits.shape != (full_logits.shape[0], old_count):
        raise ContractError("teacher must cover exactly the old classes")
    return _kl_loss(teacher_logits, full_logits, temperature,
                    old_count=old_count)


def transferability_loss(teacher_logits: Tensor, student_logits: Tensor,
                         temperature: float = 1.0) -> Tensor:
    """Negated KL(teacher || student), gated per sample.

    The gate is 1 exactly where the two argmax predictions disagree, so only
    disagreeing samples contribute; minimizing the loss steers the generator
    toward samples the student has not mastered. Equal to the negated,
    gate-masked student_loss by construction.
    """
    return _kl_loss(teacher_logits, student_logits, temperature, gated=True)


def _total_fw(ins, lams):
    total = None
    for lam, term in zip(lams, ins):
        part = lam * term
        total = part if total is None else total + part
    return np.asarray(total, dtype=np.float64), lams


def _total_bw(g, lams, needs):
    return tuple(g * lam if need else None for lam, need in zip(lams, needs))


def generator_total_loss(fidelity: Tensor | float, entropy: Tensor | float,
                         stats: Tensor | float, disagreement: Tensor | float,
                         weights: LossWeights) -> Tensor:
    """Weighted sum of the four generator terms; weight-0 terms may be 0.0.

    One node: the value is ((l1 * F + l2 * E) + l3 * S) + l4 * D and each
    Tensor term's gradient is ``g * l``, as over the composed chain of
    products and sums.
    """
    lams = (weights.lambda1, weights.lambda2, weights.lambda3, weights.lambda4)
    return _apply(_total_fw, _total_bw, tuple(
        _wrap(term) for term in (fidelity, entropy, stats, disagreement)), lams)
