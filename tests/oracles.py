"""Independent references for tests.

- Aggregation: expected values are computed with einsum over stacked state
  arrays, a different code path from the per-client accumulation loops in
  the package, so agreement is evidence rather than tautology. The count
  rule's whole-model average is kept as the exact reference for its path
  through the per-column blend.
- Fused autodiff nodes: the composed graphs the fused nodes replace, built
  from primitive ops. Under ``composed_graphs()`` the package runs on them,
  so a test can demand bit-identical values and gradients.
- Generator session, client update and base training: the loops with every
  step built and differentiated on the graph, the references for the
  replayed steps.
- Optimizer: a loop over the parameters with the same update rules and
  per-name state, the reference for the flat step.
"""
from __future__ import annotations

import sys
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest

from fedscil import Classifier, autodiff, client, generation, losses
from fedscil.aggregation import (AccuracyMatrix, aggregate_old,
                                 assemble_global, cswa_aggregate_new,
                                 cswa_weights, fedavg_full)
from fedscil.autodiff import (Tensor, _apply, _ufunc_fw,
                              _unbroadcast, col_slice, concat, gather_rows)
from fedscil.errors import ContractError, DegenerateBatchError
from fedscil.models import ConditionalGenerator, ModelStack, make_student
from fedscil.seeding import derive_seed

OLD_GROUPS = ("backbone", "head_old", "bn_stats")


def _state_map(model: Classifier) -> dict[str, np.ndarray]:
    return {name: arr for name, arr, _ in model.state_entries()}


def _dense_weights(matrix: np.ndarray, mode: str) -> np.ndarray:
    if mode == "paper_exact":
        return matrix.copy()
    sums = matrix.sum(axis=0)
    out = np.empty_like(matrix)
    for j in range(matrix.shape[1]):
        if sums[j] > 0:
            out[:, j] = matrix[:, j] / sums[j]
        else:
            out[:, j] = 1.0 / matrix.shape[0]
    return out


def _random_clients(rng: np.random.Generator):
    """A shared expanded architecture with per-client perturbed state."""
    clients_n = int(rng.integers(1, 5))
    base = int(rng.integers(1, 4))
    new = int(rng.integers(1, 5))
    in_dim = int(rng.integers(2, 5))
    template = Classifier(in_dim=in_dim, base_classes=base,
                          seed=int(rng.integers(0, 1000)),
                          hidden=int(rng.integers(4, 9)),
                          feature_dim=int(rng.integers(3, 7)))
    template.expand_head(1, new, seed=int(rng.integers(0, 1000)))
    clients = []
    for _ in range(clients_n):
        c = template.clone()
        for _, arr, _ in c.state_entries():
            arr += rng.standard_normal(arr.shape)
        clients.append(c)
    return clients, base, new


def zero_counts_warning(counts):
    """``pytest.warns`` for the uniform fallback when every sample count is
    zero; otherwise a block in which a fedscil warning fails the test."""
    if np.sum(counts) == 0:
        return pytest.warns(UserWarning, match="all client sample counts are zero")
    return nullcontext()


def whole_model_fedavg(models: list[Classifier], counts) -> Classifier:
    """The count rule as a whole-model average, apart from the column path
    the package now shares with the accuracy rule: every tensor, the new
    head block included, summed from zeros in client order, each client's
    tensor times its sample-count share (uniform when every count is 0)."""
    counts = np.asarray(counts, dtype=np.float64)
    shares = (counts / counts.sum() if counts.sum() > 0
              else np.full(len(models), 1.0 / len(models)))
    states = [_state_map(m) for m in models]
    merged = {}
    for name, arr, _ in models[0].state_entries():
        merged[name] = np.zeros_like(arr)
        for share, state in zip(shares, states):
            merged[name] += share * state[name]
    model = models[0].clone()
    model.load_state(merged)
    return model


def check_aggregation_against_dense(rng: np.random.Generator,
                                    trials: int, atol: float) -> int:
    """Randomized end-to-end check of the aggregation module.

    Raises AssertionError on the first disagreement; returns the number of
    trials that were checked.
    """
    for trial in range(trials):
        clients, base, new = _random_clients(rng)
        m = len(clients)
        counts = rng.integers(0, 11, size=m)
        if trial % 7 == 0:
            counts = np.zeros(m, dtype=counts.dtype)  # uniform fallback path
        states = [_state_map(c) for c in clients]
        norm = (counts / counts.sum() if counts.sum() > 0
                else np.full(m, 1.0 / m))

        # inherited tensors, both the filtered and the full average
        old_names = {name for name, _, group in clients[0].state_entries()
                     if group in OLD_GROUPS}
        with zero_counts_warning(counts):
            old = aggregate_old(clients, counts)
        assert set(old) == old_names
        for name in old_names:
            stacked = np.stack([s[name] for s in states])
            expected = np.einsum("m...,m->...", stacked, norm)
            assert np.allclose(old[name], expected, atol=atol), name

        with zero_counts_warning(counts):
            averaged = fedavg_full(clients, counts)
        merged = _state_map(averaged)
        for name, arr, _ in clients[0].state_entries():
            stacked = np.stack([s[name] for s in states])
            expected = np.einsum("m...,m->...", stacked, norm)
            assert np.allclose(merged[name], expected, atol=atol), name

        # new-session columns under both weighting modes
        matrix_values = rng.uniform(0.0, 1.0, size=(m, new))
        if new > 1 and trial % 3 == 0:
            matrix_values[:, int(rng.integers(0, new))] = 0.0
        matrix = AccuracyMatrix(matrix_values)
        blocks = [(c.heads[1].weight.data, c.heads[1].bias.data)
                  for c in clients]
        for mode in ("normalized", "paper_exact"):
            dense = _dense_weights(matrix_values, mode)
            assert np.allclose(cswa_weights(matrix, mode), dense, atol=atol)
            w_out, b_out = cswa_aggregate_new(blocks, cswa_weights(matrix, mode))
            w_exp = np.einsum("mfj,mj->fj", np.stack([w for w, _ in blocks]),
                              dense)
            b_exp = np.einsum("mj,mj->j", np.stack([b for _, b in blocks]),
                              dense)
            assert np.allclose(w_out, w_exp, atol=atol)
            assert np.allclose(b_out, b_exp, atol=atol)

        # assembly installs exactly the aggregated tensors
        w_out, b_out = cswa_aggregate_new(blocks, cswa_weights(matrix, "normalized"))
        merged_model = assemble_global(clients[0], old, (w_out, b_out))
        final = _state_map(merged_model)
        head = merged_model.heads[1]
        for name, value in old.items():
            assert np.array_equal(final[name], value), name
        assert np.array_equal(final[head.weight.name], w_out)
        assert np.array_equal(final[head.bias.name], b_out)
    return trials


# -- composed references for the fused autodiff nodes --------------------------


def _tanh_fw(ins):
    out = np.tanh(ins[0])
    return out, out


def _tanh_bw(g, out, needs):
    return (g * (1.0 - out * out),)


def tanh(t: Tensor) -> Tensor:
    return _apply(_tanh_fw, _tanh_bw, (t,))


def _sqrt_fw(ins):
    out = np.sqrt(ins[0])
    # the 1e-150 floor keeps the zero case finite; 0 * finite == 0
    return out, np.maximum(out, 1e-150)


def _sqrt_bw(g, safe, needs):
    return (g * 0.5 / safe,)


def sqrt(t: Tensor) -> Tensor:
    return _apply(_sqrt_fw, _sqrt_bw, (t,))


def _div_bw(g, ins, needs):
    a, b = ins
    return (_unbroadcast(g / b, a.shape) if needs[0] else None,
            _unbroadcast(-g * a / (b * b), b.shape) if needs[1] else None)


def div(a: Tensor, b: Tensor) -> Tensor:
    """``a / b``, b broadcast to a; the program itself never divides tensors."""
    return _apply(_ufunc_fw, _div_bw, (a, b), np.true_divide)


def _matmul_fw(ins):
    return ins[0] @ ins[1], ins


def _matmul_bw(g, ins, needs):
    a, b = ins
    return (g @ b.T if needs[0] else None, a.T @ g if needs[1] else None)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ContractError("matmul expects 2-d operands")
    if a.shape[1] != b.shape[0]:
        raise ContractError(f"matmul shape mismatch {a.shape} @ {b.shape}")
    return _apply(_matmul_fw, _matmul_bw, (a, b))


def l2_norm(t: Tensor) -> Tensor:
    """Euclidean norm over all entries; zero input gives zero gradient."""
    return sqrt((t * t).sum())


def composed_scaled_tanh(t: Tensor, half, mid) -> Tensor:
    return tanh(t) * Tensor(half) + Tensor(mid)


def composed_generator_total_loss(fidelity, entropy, stats, disagreement,
                                  weights) -> Tensor:
    total = (weights.lambda1 * fidelity + weights.lambda2 * entropy
             + weights.lambda3 * stats + weights.lambda4 * disagreement)
    if not isinstance(total, Tensor):
        total = Tensor(float(total))
    return total


def composed_linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return matmul(x, w) + b


def _composed_moments(x: Tensor):
    mu = x.mean(axis=0)
    centered = x - mu
    return mu, centered, (centered * centered).mean(axis=0)


def composed_batch_statistics(x: Tensor):
    mu, _, var = _composed_moments(x)
    return mu, var


def composed_batchnorm(x: Tensor, gamma: Tensor, beta: Tensor,
                       state: tuple[Tensor, Tensor], mode: str) -> Tensor:
    """Batch norm from primitive ops; train mode normalizes by the one
    centered node that the variance also reads."""
    if mode not in ("train", "eval"):
        raise ContractError(f"unknown batchnorm mode {mode!r}")
    if mode == "train":
        if x.shape[0] < 2:
            raise DegenerateBatchError("batch statistics need at least 2 samples")
        mu, centered, var = _composed_moments(x)
        normed = div(centered, sqrt(var + autodiff.BN_EPSILON))
        m = autodiff.BN_MOMENTUM
        state[0].data = (1.0 - m) * state[0].data + m * mu.data
        state[1].data = (1.0 - m) * state[1].data + m * var.data
    else:
        inv = 1.0 / np.sqrt(state[1].data + autodiff.BN_EPSILON)
        normed = (x - Tensor(state[0].data)) * Tensor(inv)
    return gamma * normed + beta


def bn_running_stats(model: Classifier) -> list[tuple[np.ndarray, np.ndarray]]:
    return [(bn.running_mean.data, bn.running_var.data)
            for bn in model.bn_layers()]


def composed_bn_stat_loss(batch_stats, running_stats) -> Tensor:
    """Per teacher, per layer (mean, var) pairs without a model axis."""
    total = None
    for per_layer, per_layer_running in zip(batch_stats, running_stats):
        for (mu, var), (r_mu, r_var) in zip(per_layer, per_layer_running):
            term = l2_norm(mu - Tensor(r_mu)) + l2_norm(var - Tensor(r_var))
            total = term if total is None else total + term
    return total * (1.0 / len(batch_stats))


def captured_forward(model: Classifier, x: Tensor):
    """Eval-mode full-head logits of a classifier and, per backbone layer,
    the (mean, var) batch statistics of its batch-norm input."""
    h, stats = x, []
    for fc, bn in model.backbone.blocks():
        h = fc(h)
        # looked up at call time, so composed_graphs() can substitute them
        stats.append(autodiff.batch_statistics(h))
        h = autodiff.batchnorm_forward(h, bn.gamma, bn.beta, (bn.running_mean,
                                       bn.running_var), "eval").relu()
    parts = [head(h) for head in model.heads.values()]
    logits = parts[0] if len(parts) == 1 else concat(parts, axis=1)
    return logits, stats


def composed_teacher_logits(x, teachers, session, capture_bn=False):
    """Full-head forward of every teacher, then the session's columns."""
    if not isinstance(x, Tensor):
        x = Tensor(x)
    slices, stats = [], []
    for model in teachers:
        logits, layer_stats = captured_forward(model, x)
        lo, hi = model.session_map[session]
        slices.append(col_slice(logits, lo, hi))
        stats.append(layer_stats)
    total = slices[0]
    for part in slices[1:]:
        total = total + part
    ensemble = total * (1.0 / len(teachers))
    return (ensemble, stats) if capture_bn else ensemble


def composed_generator_loss(generator, stack, z, labels, weights):
    """The generator objective with one forward per teacher and one for the
    opponent, read from the models the stack was built from."""
    fake = generator.forward(z, labels, mode="train")
    ensemble, stats = composed_teacher_logits(fake, stack.teachers, stack.session,
                                              capture_bn=True)
    fidelity = losses.generator_fidelity_loss(ensemble, labels)
    entropy = losses.generator_entropy_loss(ensemble)
    if weights.lambda3 != 0:
        running = [bn_running_stats(model) for model in stack.teachers]
        stat_term = composed_bn_stat_loss(stats, running)
    else:
        stat_term = 0.0
    if weights.lambda4 != 0:
        opponent = stack.opponent.forward(fake, mode="eval")
        disagreement = losses.transferability_loss(ensemble, opponent,
                                                   weights.kl_temperature)
    else:
        disagreement = 0.0
    loss = losses.generator_total_loss(fidelity, entropy, stat_term,
                                       disagreement, weights)
    return loss, fake, ensemble


def composed_cross_entropy(logits: Tensor, labels) -> Tensor:
    p_y = gather_rows(logits.softmax(), np.asarray(labels, dtype=np.int64))
    return -(p_y.log().mean())


def composed_entropy_loss(teacher_logits: Tensor) -> Tensor:
    return -losses.info_entropy(teacher_logits.softmax())


def composed_kl_rows(teacher_logits, student_logits, temperature,
                     old_count=None):
    """Row-wise KL(p || q) of the tempered softmaxes; with old_count, q is the
    first old_count entries of the student's full-width softmax."""
    p = (teacher_logits * (1.0 / temperature)).softmax()
    q = (student_logits * (1.0 / temperature)).softmax()
    if old_count is not None:
        q = col_slice(q, 0, old_count)
    return (p * (p.log() - q.log())).sum(axis=1)


def composed_student_loss(teacher_logits, student_logits, temperature=1.0):
    return composed_kl_rows(teacher_logits, student_logits, temperature).mean()


def composed_distillation_loss_subset(teacher_logits, full_logits, old_count,
                                      temperature=1.0):
    return composed_kl_rows(teacher_logits, full_logits, temperature,
                            old_count).mean()


def composed_transferability_loss(teacher_logits, student_logits,
                                  temperature=1.0):
    gate = (teacher_logits.data.argmax(axis=1)
            != student_logits.data.argmax(axis=1)).astype(np.float64)
    rows = composed_kl_rows(teacher_logits, student_logits, temperature)
    return -((rows * Tensor(gate)).mean())


COMPOSED = [
    (autodiff.linear, composed_linear),
    (autodiff.batchnorm_forward, composed_batchnorm),
    (autodiff.batch_statistics, composed_batch_statistics),
    (autodiff.scaled_tanh, composed_scaled_tanh),
    (generation.generator_loss, composed_generator_loss),
    (losses.cross_entropy, composed_cross_entropy),
    (losses.generator_entropy_loss, composed_entropy_loss),
    (losses.student_loss, composed_student_loss),
    (losses.distillation_loss_subset, composed_distillation_loss_subset),
    (losses.transferability_loss, composed_transferability_loss),
    (losses.generator_total_loss, composed_generator_total_loss),
]


@contextmanager
def composed_graphs():
    """Run the package on the composed graphs: every fedscil module that
    holds a fused function by name gets its composed reference instead."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "fedscil" or name.startswith("fedscil.")]
    saved = []
    for fused, ref in COMPOSED:
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is fused:
                    saved.append((module, name, value))
                    setattr(module, name, ref)
    try:
        yield
    finally:
        for module, name, value in saved:
            setattr(module, name, value)


# -- the generator session on the graph -----------------------------------------


def graph_generator_session(teachers, session, class_range, envelope, cfg,
                            weights, seed, generator=None, student=None):
    """``generation.train_generator_session`` with every step built and
    differentiated on the graph: the reference for the replayed steps. The
    step's functions are looked up at call time, so under
    ``composed_graphs()`` it runs the composed graphs."""
    lo, hi = class_range
    c = hi - lo
    if generator is None:
        generator = ConditionalGenerator(cfg.noise_dim, c, envelope[0], envelope[1],
                                         seed=derive_seed(seed, "generator"),
                                         hidden=cfg.hidden)
    if student is None:
        student = make_student(teachers[0].in_dim, c, session,
                               seed=derive_seed(seed, "student"),
                               hidden=teachers[0].hidden,
                               feature_dim=teachers[0].feature_dim)
    gen_opt = autodiff.Optimizer(generator.parameters(), "adam",
                                 {"backbone": cfg.gen_lr})
    stu_opt = autodiff.Optimizer(student.parameters(), "sgd_momentum",
                                 dict.fromkeys(("backbone", "head_new", "head_old"),
                                               cfg.student_lr),
                                 cfg.student_momentum)
    stack = ModelStack(teachers, session, student if weights.lambda4 != 0 else None)
    rng = np.random.default_rng(derive_seed(seed, "draws"))
    banked_x, banked_y = [], []
    for _ in range(cfg.epochs):
        for _ in range(cfg.rounds_per_epoch):
            z = rng.standard_normal((cfg.batch_size, cfg.noise_dim))
            labels = rng.integers(0, c, size=cfg.batch_size)
            stack.load_opponent()
            loss, fake, ensemble = generation.generator_loss(generator, stack, z,
                                                             labels, weights)
            autodiff.backprop(loss, generator.parameters())
            gen_opt.step()
            if cfg.student_lr > 0:
                logits = student.forward(fake.data, mode="train")
                autodiff.backprop(losses.student_loss(ensemble.detach(), logits,
                                                      weights.kl_temperature),
                                  student.parameters())
                stu_opt.step()
        z = rng.standard_normal((cfg.bank_per_epoch, cfg.noise_dim))
        labels = rng.integers(0, c, size=cfg.bank_per_epoch)
        banked_x.append(generator.forward(z, labels, mode="train").data)
        banked_y.append(labels + lo)
    pool = generation.SyntheticPool(session, lo, hi, np.concatenate(banked_x),
                                    np.concatenate(banked_y).astype(np.int64))
    return generator, student, pool


# -- the client and base training loops on the graph ------------------------------


def nagr_loss(weights, old_count):
    """The step loss of ``client.local_update_nagr``."""

    def loss_fn(new_logits, new_labels, replay_logits=None, _xr=None,
                replay_labels=None):
        return losses.client_loss(new_logits, new_labels, replay_logits,
                                  replay_labels, weights, old_count)
    return loss_fn


def distill_loss(teacher, weights, old_count):
    """The step loss of ``client.local_update_baseline_kd``; it reads no
    replay labels, and the teacher must be frozen around the steps."""

    def loss_fn(new_logits, new_labels, replay_logits=None, xr=None):
        loss = losses.cross_entropy(new_logits, new_labels)
        if replay_logits is None:
            return loss
        kd = losses.distillation_loss_subset(teacher.forward(Tensor(xr), mode="eval"),
                                             replay_logits, old_count,
                                             weights.kl_temperature)
        return loss + weights.k * kd
    return loss_fn


def nagr_term(weights, old_count):
    """The (k, replay term) that ``client.local_update_nagr`` hands
    ``client._local_step``."""
    return weights.k, lambda logits, _xr, labels: losses.replay_loss_subset(
        logits, labels, old_count, weights.alpha, weights.beta, weights.rce_log_zero)


def distill_term(teacher, weights, old_count):
    """The (k, replay term) that ``client.local_update_baseline_kd`` hands
    ``client._local_step``; the teacher must be frozen around the steps."""
    return weights.k, lambda logits, xr: losses.distillation_loss_subset(
        teacher.forward(Tensor(xr), mode="eval"), logits, old_count,
        weights.kl_temperature)


def graph_local_step(model, opt, cfg, old_count, loss_fn, xb, yb, xr=None, *yr):
    """One ``client._local_step`` step built and differentiated on the graph,
    with the joint batch concatenated outside it."""
    nb = xb.shape[0]
    if xr is None:
        loss = loss_fn(model.forward(xb, mode="train" if nb >= 2 else "eval"), yb)
    else:
        joint = model.forward(np.concatenate([xb, xr]), mode="train")
        replay = autodiff.row_slice(joint, nb, nb + xr.shape[0])
        if cfg.replay_loss == "sliced":
            replay = col_slice(replay, 0, old_count)
        loss = loss_fn(autodiff.row_slice(joint, 0, nb), yb, replay, xr, *yr)
    autodiff.backprop(loss, model.parameters())
    opt.step()


def client_optimizer(model, cfg):
    """The optimizer of a client's local update."""
    rates = {"backbone": cfg.lr_backbone_and_old,
             "head_old": cfg.lr_backbone_and_old, "head_new": cfg.lr_new_head}
    return autodiff.Optimizer(model.parameters(), "sgd_momentum", rates,
                              cfg.momentum)


def graph_run_local(model_in, x, y, buffer, cfg, weights, old_count, seed,
                    loss_fn, replay_arrays):
    """``client._run_local`` with every step built and differentiated on the
    graph: the reference for the replayed local update."""
    model = model_in.clone()
    n = int(y.shape[0])
    if n == 0:
        return model, 0
    opt = client_optimizer(model, cfg)
    rng = np.random.default_rng(seed)
    for _ in range(cfg.epochs):
        for batch in client._epoch_batches(n, cfg.batch_size_new, rng):
            drawn = buffer.sample(cfg.batch_size_replay, rng) if weights.k > 0 else ()
            graph_local_step(model, opt, cfg, old_count, loss_fn, x[batch], y[batch],
                             *drawn[:replay_arrays])
    return model, n


def graph_train_base(model, ds, cfg):
    """``orchestrator._train_base`` with every step built and differentiated
    on the graph: the reference for the replayed base training."""
    b = cfg.base
    rates = {"backbone": b.lr, "head_new": b.lr, "head_old": b.lr}
    params = model.parameters()
    opt = autodiff.Optimizer(params, "sgd_momentum", rates, b.momentum)
    rng = np.random.default_rng(derive_seed(cfg.seed, "base"))
    milestones = sorted(int(f * b.epochs) for f in b.decay_milestones)
    for epoch in range(b.epochs):
        passed = sum(1 for m in milestones if epoch >= m)
        for group in rates:
            opt.set_rate(group, b.lr * (b.decay_factor ** passed))
        for batch in client._epoch_batches(len(ds), b.batch_size, rng):
            logits = model.forward(ds.x[batch], mode="train")
            autodiff.backprop(losses.cross_entropy(logits, ds.y[batch]), params)
            opt.step()


# -- the per-parameter optimizer step -------------------------------------------


class LoopOptimizer:
    """SGD with momentum or Adam, one parameter at a time, with state keyed
    by parameter name: the update ``autodiff.Optimizer`` makes in one flat
    pass."""

    def __init__(self, params, kind: str, rates: dict, momentum: float = 0.0):
        self.params = list(params)
        self.kind, self.rates, self.momentum = kind, dict(rates), momentum
        self._vel, self._m, self._v = {}, {}, {}
        self._t = 0

    def set_rate(self, group: str, rate: float) -> None:
        self.rates[group] = float(rate)

    def step(self) -> None:
        b1, b2, eps = autodiff.ADAM_BETA1, autodiff.ADAM_BETA2, autodiff.ADAM_EPSILON
        self._t += 1
        for p in self.params:
            rate = self.rates[p.group]
            g = p.grad
            if self.kind == "sgd_momentum":
                v = self._vel.get(p.name)
                v = g if v is None else self.momentum * v + g
                self._vel[p.name] = v
                p.data = p.data - rate * v
            else:
                m = self._m.get(p.name, 0.0) * b1 + (1 - b1) * g
                v = self._v.get(p.name, 0.0) * b2 + (1 - b2) * g * g
                self._m[p.name] = m
                self._v[p.name] = v
                m_hat = m / (1 - b1 ** self._t)
                v_hat = v / (1 - b2 ** self._t)
                p.data = p.data - rate * m_hat / (np.sqrt(v_hat) + eps)
