"""Central finite-difference gradient checks for the autodiff engine.

The case registry below covers every differentiable operation and every
loss; test_autodiff runs it as the unit gate and the acceptance suite runs
it again under a timer. Each case builds fresh parameters from its own rng,
returns a closure that recomputes the scalar loss from the current parameter
values, and is probed by central differences.
"""
from __future__ import annotations

import hashlib

import numpy as np

from fedscil import (LossWeights, Parameter, Tensor, bn_stat_loss,
                     client_loss, cross_entropy, generator_entropy_loss,
                     generator_fidelity_loss, generator_total_loss, grad,
                     info_entropy, make_student, noise_robust_loss,
                     replay_loss_subset, reverse_cross_entropy, student_loss,
                     transferability_loss)
from fedscil.autodiff import (batch_statistics, batchnorm_forward,
                              col_slice, concat, gather_rows,
                              linear, row_slice, scaled_tanh)
from fedscil.losses import distillation_loss_subset
from fedscil.models import Classifier, ConditionalGenerator, ModelStack
from oracles import div, l2_norm, matmul, sqrt, tanh

STEP = 1e-5
TOL = 1e-4
MAX_PROBES = 24


def away_from_zero(rng: np.random.Generator, shape, margin: float = 0.05):
    """Uniform draw in [-1, 1] pushed at least `margin` away from 0, so a
    +-STEP probe can never cross a relu or sqrt kink."""
    u = rng.uniform(-1.0, 1.0, size=shape)
    return u + np.where(u >= 0, margin, -margin)


def _param(name: str, data) -> Parameter:
    return Parameter(name, np.asarray(data, dtype=np.float64), "backbone")


def relative_error(ad, fd) -> float:
    ad = np.asarray(ad, dtype=np.float64)
    fd = np.asarray(fd, dtype=np.float64)
    scale = max(1e-3, float(np.max(np.abs(fd))), float(np.max(np.abs(ad))))
    return float(np.max(np.abs(ad - fd))) / scale


def fd_gradient(build_loss, param: Parameter, rng: np.random.Generator,
                step: float = STEP):
    """Central differences at up to MAX_PROBES entries of one parameter."""
    flat = param.data.reshape(-1)
    n = flat.shape[0]
    if n <= MAX_PROBES:
        probes = np.arange(n)
    else:
        probes = rng.choice(n, size=MAX_PROBES, replace=False)
    out = np.zeros(n)
    for i in probes:
        keep = flat[i]
        flat[i] = keep + step
        hi = float(build_loss().data)
        flat[i] = keep - step
        lo = float(build_loss().data)
        flat[i] = keep
        out[i] = (hi - lo) / (2.0 * step)
    return out.reshape(param.data.shape), probes


def check_case(build_loss, params, rng: np.random.Generator,
               tol: float = TOL) -> float:
    """Probe every parameter; returns the worst relative error seen."""
    analytic = grad(build_loss(), params)
    worst = 0.0
    for p in params:
        fd, probes = fd_gradient(build_loss, p, rng)
        ad = analytic[p.name].reshape(-1)[probes]
        fdp = fd.reshape(-1)[probes]
        err = relative_error(ad, fdp)
        worst = max(worst, err)
        if err > tol:
            raise AssertionError(
                f"{p.name}: relative gradient error {err:.3e} > {tol:g}")
    return worst


# -- case builders -------------------------------------------------------------
# Each builder returns (build_loss, params). Shapes stay small so the probes
# cover most entries; relu/sqrt/log inputs are kept away from their kinks.


def _case_arithmetic(rng):
    a = _param("p0", rng.uniform(-1, 1, (3, 4)))
    b = _param("p1", rng.uniform(-1, 1, (3, 4)))
    c = _param("p2", rng.uniform(0.5, 1.5, (1, 4)))  # broadcast divisor, > 0

    def build():
        t = (a + b) * 2.0 - (a - 1.5) * b
        t = div(t, c) + (-a)
        return t.sum()

    return build, [a, b, c]


def _case_matmul(rng):
    a = _param("p0", rng.uniform(-1, 1, (3, 4)))
    b = _param("p1", rng.uniform(-1, 1, (4, 2)))
    return (lambda: matmul(a, b).sum()), [a, b]


def _case_linear(rng):
    x = _param("p0", rng.uniform(-1, 1, (4, 3)))
    w = _param("p1", rng.uniform(-1, 1, (3, 2)))
    b = _param("p2", rng.uniform(-1, 1, (2,)))
    target = Tensor(rng.uniform(-1, 1, (4, 2)))
    return (lambda: (linear(x, w, b) * target).sum()), [x, w, b]


def _case_linear_stacked_shared_input(rng):
    """Three models' weights over one (batch, d) input."""
    x = _param("p0", rng.uniform(-1, 1, (4, 3)))
    w = _param("p1", rng.uniform(-1, 1, (3, 3, 2)))
    b = _param("p2", rng.uniform(-1, 1, (3, 1, 2)))
    target = Tensor(rng.uniform(-1, 1, (3, 4, 2)))
    return (lambda: (linear(x, w, b) * target).sum()), [x, w, b]


def _case_linear_stacked_input(rng):
    """Each of three models reads its own slice of a stacked input."""
    x = _param("p0", rng.uniform(-1, 1, (3, 4, 3)))
    w = _param("p1", rng.uniform(-1, 1, (3, 3, 2)))
    b = _param("p2", rng.uniform(-1, 1, (3, 1, 2)))
    target = Tensor(rng.uniform(-1, 1, (3, 4, 2)))
    return (lambda: (linear(x, w, b) * target).sum()), [x, w, b]


def _case_concat_slices(rng):
    a = _param("p0", rng.uniform(-1, 1, (3, 2)))
    b = _param("p1", rng.uniform(-1, 1, (3, 3)))
    w = Tensor(rng.uniform(-1, 1, (3, 5)))

    def build():
        joined = concat([a, b], axis=1)
        kept = col_slice(joined, 1, 4) * col_slice(w, 1, 4)
        rows = row_slice(kept, 0, 2)
        return rows.sum() + col_slice(joined, 0, 1).mean()

    return build, [a, b]


def _case_gather(rng):
    a = _param("p0", rng.uniform(-1, 1, (5, 4)))
    idx = rng.integers(0, 4, size=5)
    return (lambda: (gather_rows(a, idx) * gather_rows(a, idx)).sum()), [a]


def _case_relu_tanh(rng):
    a = _param("p0", away_from_zero(rng, (4, 3)))
    return (lambda: (a.relu() + tanh(a)).sum()), [a]


def _case_scaled_tanh(rng):
    a = _param("p0", rng.uniform(-2, 2, (4, 3)))
    half, mid = rng.uniform(0.1, 2.0, 3), rng.uniform(-1, 1, 3)
    w = Tensor(rng.uniform(-1, 1, (4, 3)))
    return (lambda: (scaled_tanh(a, half, mid) * w).sum()), [a]


def _case_sqrt_log(rng):
    a = _param("p0", rng.uniform(0.2, 2.0, (3, 3)))
    return (lambda: (sqrt(a) + a.log()).mean()), [a]


def _case_reductions(rng):
    a = _param("p0", rng.uniform(-1, 1, (3, 4)))

    def build():
        return (a.sum(axis=0) * a.mean(axis=0)).sum() \
            + a.mean(axis=1).sum() + a.mean() + a.sum()

    return build, [a]


def _case_softmax(rng):
    a = _param("p0", rng.uniform(-2, 2, (4, 3)))
    w = Tensor(rng.uniform(-1, 1, (4, 3)))
    return (lambda: (a.softmax() * w).sum()), [a]


def _case_l2_norm(rng):
    a = _param("p0", rng.uniform(0.1, 1.0, (5,)) * np.sign(rng.uniform(-1, 1, 5)))
    return (lambda: l2_norm(a)), [a]


def _case_batchnorm_train(rng):
    x = _param("p0", rng.uniform(-1, 1, (6, 3)))
    gamma = _param("p1", rng.uniform(0.5, 1.5, (3,)))
    beta = _param("p2", rng.uniform(-0.5, 0.5, (3,)))
    state = (Tensor(rng.uniform(-0.5, 0.5, 3)), Tensor(rng.uniform(0.5, 1.5, 3)))
    w = Tensor(rng.uniform(-1, 1, (6, 3)))

    def build():
        y = batchnorm_forward(x, gamma, beta, state, "train")
        mu, var = batch_statistics(x)
        return (y * w).sum() + mu.sum() + var.sum()

    return build, [x, gamma, beta]


def _case_batchnorm_eval(rng):
    x = _param("p0", rng.uniform(-1, 1, (4, 3)))
    gamma = _param("p1", rng.uniform(0.5, 1.5, (3,)))
    beta = _param("p2", rng.uniform(-0.5, 0.5, (3,)))
    state = (Tensor(rng.uniform(-0.5, 0.5, 3)), Tensor(rng.uniform(0.5, 1.5, 3)))

    def build():
        y = batchnorm_forward(x, gamma, beta, state, "eval")
        return (y * y).mean()

    return build, [x, gamma, beta]


def _case_batchnorm_eval_statistics(rng):
    """Eval mode with the batch statistics consumed, as teachers run."""
    x = _param("p0", rng.uniform(-1, 1, (5, 3)))
    gamma = _param("p1", rng.uniform(0.5, 1.5, (3,)))
    beta = _param("p2", rng.uniform(-0.5, 0.5, (3,)))
    state = (Tensor(rng.uniform(-0.5, 0.5, 3)), Tensor(rng.uniform(0.5, 1.5, 3)))
    w = Tensor(rng.uniform(-1, 1, (5, 3)))

    def build():
        y = batchnorm_forward(x, gamma, beta, state, "eval")
        mu, var = batch_statistics(x)
        return (y * w).sum() + (mu * mu).sum() + (var * var).sum()

    return build, [x, gamma, beta]


def _case_batchnorm_eval_stacked_statistics(rng):
    """Eval mode over three stacked models, the statistics of the first two
    feeding the statistics loss, as the generator step runs it."""
    x = _param("p0", rng.uniform(-1, 1, (3, 5, 4)))
    gamma = _param("p1", rng.uniform(0.5, 1.5, (3, 1, 4)))
    beta = _param("p2", rng.uniform(-0.5, 0.5, (3, 1, 4)))
    state = (Tensor(rng.uniform(-0.5, 0.5, (3, 1, 4))),
             Tensor(rng.uniform(0.5, 1.5, (3, 1, 4))))
    running = [(rng.uniform(-0.5, 0.5, (2, 1, 4)), rng.uniform(0.5, 1.5, (2, 1, 4)))]
    w = Tensor(rng.uniform(-1, 1, (3, 5, 4)))

    def build():
        y = batchnorm_forward(x, gamma, beta, state, "eval")
        mu, var = batch_statistics(x, 2)
        return (y * w).sum() + bn_stat_loss([(mu, var)], running)

    return build, [x, gamma, beta]


def _case_teacher_ensemble(rng):
    """Stacked session-head forward of two teachers and an opponent with
    captured statistics, as the generator objective uses it."""
    models = []
    for _ in range(3):
        model = Classifier(in_dim=3, base_classes=2, seed=int(rng.integers(2**31)),
                           hidden=5, feature_dim=4)
        model.expand_head(1, 2, seed=int(rng.integers(2**31)))
        models.append(model)
    stack = ModelStack(models[:2], 1, opponent=models[2])
    x = _param("p0", rng.uniform(-1, 1, (6, 3)))
    y = rng.integers(0, 2, size=6)

    def build():
        ensemble, opponent, stats = stack.forward(x, capture_bn=True)
        return (cross_entropy(ensemble, y) + cross_entropy(opponent, y)
                + bn_stat_loss(stats, stack.running_stats()))

    return build, [x]


def _case_cross_entropy(rng):
    logits = _param("p0", rng.uniform(-2, 2, (5, 4)))
    y = rng.integers(0, 4, size=5)
    return (lambda: cross_entropy(logits, y)), [logits]


def _case_reverse_cross_entropy(rng):
    logits = _param("p0", rng.uniform(-2, 2, (5, 4)))
    y = rng.integers(0, 4, size=5)
    return (lambda: reverse_cross_entropy(logits.softmax(), y)), [logits]


def _case_noise_robust(rng):
    logits = _param("p0", rng.uniform(-2, 2, (5, 4)))
    y = rng.integers(0, 4, size=5)
    return (lambda: noise_robust_loss(logits, y, 0.7, 1.3)), [logits]


def _case_replay_subset(rng):
    logits = _param("p0", rng.uniform(-2, 2, (5, 6)))
    y = rng.integers(0, 4, size=5)  # old classes are columns 0..3
    return (lambda: replay_loss_subset(logits, y, 4, 0.5, 2.0)), [logits]


def _case_client_loss(rng):
    new_logits = _param("p0", rng.uniform(-2, 2, (4, 6)))
    replay_logits = _param("p1", rng.uniform(-2, 2, (5, 6)))
    y_new = rng.integers(4, 6, size=4)
    y_old = rng.integers(0, 4, size=5)
    weights = LossWeights(alpha=0.5, beta=2.0, k=1.5)

    def build():
        return client_loss(new_logits, y_new, replay_logits,
                           y_old, weights, old_count=4)

    return build, [new_logits, replay_logits]


def _case_info_entropy(rng):
    logits = _param("p0", rng.uniform(-2, 2, (4, 5)))
    return (lambda: info_entropy(logits.softmax())), [logits]


def _case_generator_fidelity(rng):
    logits = _param("p0", rng.uniform(-2, 2, (5, 3)))
    y = rng.integers(0, 3, size=5)
    return (lambda: generator_fidelity_loss(logits, y)), [logits]


def _case_generator_entropy(rng):
    logits = _param("p0", rng.uniform(-2, 2, (5, 3)))
    return (lambda: generator_entropy_loss(logits)), [logits]


def _case_bn_stat_loss(rng):
    """Two models, two layers of different widths."""
    mu1 = _param("p0", rng.uniform(-1, 1, (2, 3)))
    var1 = _param("p1", rng.uniform(0.5, 1.5, (2, 3)))
    mu2 = _param("p2", rng.uniform(-1, 1, (2, 4)))
    var2 = _param("p3", rng.uniform(0.5, 1.5, (2, 4)))
    running = [(rng.uniform(-1, 1, (2, 3)), rng.uniform(0.5, 1.5, (2, 3))),
               (rng.uniform(-1, 1, (2, 4)), rng.uniform(0.5, 1.5, (2, 4)))]

    def build():
        stats = [(mu1, var1), (mu2, var2)]
        return bn_stat_loss(stats, running)

    return build, [mu1, var1, mu2, var2]


def _case_student_loss(rng):
    t = _param("p0", rng.uniform(-2, 2, (4, 3)))
    s = _param("p1", rng.uniform(-2, 2, (4, 3)))
    return (lambda: student_loss(t, s, temperature=2.0)), [t, s]


def _case_distillation_subset(rng):
    t = _param("p0", rng.uniform(-2, 2, (4, 3)))
    s = _param("p1", rng.uniform(-2, 2, (4, 5)))  # 3 old + 2 new columns
    return (lambda: distillation_loss_subset(t, s, 3, 2.0)), [t, s]


def _separated_logits(rng, shape):
    """Random logits whose per-row argmax leads by >= 0.5, so a +-STEP probe
    can never flip the disagreement gate."""
    x = rng.uniform(-1, 1, shape)
    x[np.arange(shape[0]), x.argmax(axis=1)] += 0.5
    return x


def _case_transferability(rng):
    t = _param("p0", _separated_logits(rng, (5, 3)))
    s = _param("p1", _separated_logits(rng, (5, 3)))
    return (lambda: transferability_loss(t, s, 1.5)), [t, s]


def _case_generator_total(rng):
    logits = _param("p0", rng.uniform(-2, 2, (4, 3)))
    s = _param("p1", _separated_logits(rng, (4, 3)))
    y = rng.integers(0, 3, size=4)
    mu = _param("p2", rng.uniform(-1, 1, (1, 3)))
    teacher = Tensor(_separated_logits(rng, (4, 3)))  # frozen opponent side
    running = [(rng.uniform(-1, 1, (1, 3)), np.ones((1, 3)))]
    weights = LossWeights(lambda1=2.0, lambda2=0.5, lambda3=1.5, lambda4=0.7)

    def build():
        fidelity = generator_fidelity_loss(logits, y)
        entropy = generator_entropy_loss(logits)
        stats = bn_stat_loss([(mu, Tensor(np.ones((1, 3))))], running)
        disagreement = transferability_loss(teacher, s)
        return generator_total_loss(fidelity, entropy, stats, disagreement, weights)

    return build, [logits, s, mu]


def _case_generator_total_float_terms(rng):
    """The generator objective with its statistics and disagreement terms
    switched off, as 0.0 floats."""
    logits = _param("p0", rng.uniform(-2, 2, (4, 3)))
    y = rng.integers(0, 3, size=4)
    weights = LossWeights(lambda1=2.0, lambda2=0.5, lambda3=0.0, lambda4=0.0)

    def build():
        return generator_total_loss(generator_fidelity_loss(logits, y),
                                    generator_entropy_loss(logits),
                                    0.0, 0.0, weights)

    return build, [logits]


def _case_classifier_forward(rng):
    """Composite chain: linear -> batchnorm -> relu twice, concat head, CE."""
    model = Classifier(in_dim=3, base_classes=2, seed=int(rng.integers(2**31)),
                       hidden=5, feature_dim=4)
    model.expand_head(1, 2, seed=int(rng.integers(2**31)))
    x = rng.uniform(-1, 1, (6, 3))
    y = rng.integers(0, 4, size=6)
    params = model.parameters()

    def build():
        logits = model.forward(x, mode="train")
        return cross_entropy(logits, y)

    return build, params


def _case_generator_forward(rng):
    gen = ConditionalGenerator(noise_dim=3, classes=2,
                               out_low=-np.ones(4), out_high=np.ones(4),
                               seed=int(rng.integers(2**31)), hidden=5)
    z = rng.standard_normal((6, 3))
    labels = rng.integers(0, 2, size=6)
    target = rng.uniform(-1, 1, (6, 4))

    def build():
        fake = gen.forward(z, labels, mode="train")
        return l2_norm(fake - Tensor(target))

    return build, gen.parameters()


def _case_student_model(rng):
    student = make_student(3, 2, session=1, seed=int(rng.integers(2**31)),
                           hidden=4, feature_dim=4)
    x = rng.uniform(-1, 1, (5, 3))
    t = rng.uniform(-2, 2, (5, 2))

    def build():
        logits = student.forward(x, mode="train")
        return student_loss(Tensor(t), logits)

    return build, student.parameters()


CASES = [
    ("arithmetic", _case_arithmetic),
    ("matmul", _case_matmul),
    ("linear", _case_linear),
    ("linear_stacked_shared_input", _case_linear_stacked_shared_input),
    ("linear_stacked_input", _case_linear_stacked_input),
    ("concat_and_slices", _case_concat_slices),
    ("gather_rows", _case_gather),
    ("relu_tanh", _case_relu_tanh),
    ("scaled_tanh", _case_scaled_tanh),
    ("sqrt_log", _case_sqrt_log),
    ("reductions", _case_reductions),
    ("softmax", _case_softmax),
    ("l2_norm", _case_l2_norm),
    ("batchnorm_train", _case_batchnorm_train),
    ("batchnorm_eval", _case_batchnorm_eval),
    ("batchnorm_eval_statistics", _case_batchnorm_eval_statistics),
    ("batchnorm_eval_stacked_statistics", _case_batchnorm_eval_stacked_statistics),
    ("cross_entropy", _case_cross_entropy),
    ("reverse_cross_entropy", _case_reverse_cross_entropy),
    ("noise_robust_loss", _case_noise_robust),
    ("replay_loss_subset", _case_replay_subset),
    ("client_loss", _case_client_loss),
    ("info_entropy", _case_info_entropy),
    ("generator_fidelity_loss", _case_generator_fidelity),
    ("generator_entropy_loss", _case_generator_entropy),
    ("bn_stat_loss", _case_bn_stat_loss),
    ("student_loss", _case_student_loss),
    ("distillation_loss_subset", _case_distillation_subset),
    ("transferability_loss", _case_transferability),
    ("generator_total_loss", _case_generator_total),
    ("generator_total_loss_float_terms", _case_generator_total_float_terms),
    ("classifier_forward_chain", _case_classifier_forward),
    ("generator_forward_chain", _case_generator_forward),
    ("student_forward_chain", _case_student_model),
    ("teacher_ensemble", _case_teacher_ensemble),
]


def case_rng(name: str, k: int) -> np.random.Generator:
    """Process-independent seed per (case, instance); hash() is salted."""
    digest = hashlib.sha256(f"{name}:{k}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def run_suite(instances: int = 20, tol: float = TOL) -> dict[str, float]:
    """Run every case `instances` times; returns worst error per case."""
    worst: dict[str, float] = {}
    for name, make in CASES:
        top = 0.0
        for k in range(instances):
            rng = case_rng(name, k)
            build_loss, params = make(rng)
            top = max(top, check_case(build_loss, params, rng, tol))
        worst[name] = top
    return worst
