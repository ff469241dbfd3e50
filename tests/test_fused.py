"""Fused autodiff nodes against the composed graphs they replace.

Every comparison is np.array_equal: a fused node repeats the composed
arithmetic in the same order, so values and gradients agree bit for bit.
"""
import numpy as np
import pytest

from fedscil import (Classifier, ConditionalGenerator, LossWeights, Parameter,
                     Tensor, client_loss, grad, losses, train_generator_session)
from fedscil.autodiff import BatchNormState, batchnorm_forward, frozen, row_slice
from fedscil.generation import GenLabConfig, generator_loss, teacher_logits
from fedscil.models import make_student
from oracles import (composed_batchnorm, composed_cross_entropy,
                     composed_distillation_loss_subset, composed_entropy_loss,
                     composed_graphs, composed_student_loss,
                     composed_teacher_logits, composed_transferability_loss)

IN_DIM, SESSION, CLASSES = 6, 2, 2


def _teachers(n: int = 3) -> list[Classifier]:
    """Clients at session 2: base block plus two session blocks, running
    statistics away from the (0, 1) initialization."""
    out = []
    for m in range(n):
        model = Classifier(IN_DIM, 4, seed=10 + m, hidden=12, feature_dim=10)
        model.expand_head(1, CLASSES, seed=20 + m)
        model.expand_head(SESSION, CLASSES, seed=30 + m)
        rng = np.random.default_rng(40 + m)
        for bn in model.bn_layers():
            bn.state.running_mean = rng.uniform(-0.5, 0.5, bn.state.running_mean.shape)
            bn.state.running_var = rng.uniform(0.5, 1.5, bn.state.running_var.shape)
        out.append(model)
    return out


def _assert_grads_equal(a: dict, b: dict) -> None:
    assert a.keys() == b.keys()
    for name in a:
        assert np.array_equal(a[name], b[name]), name


def _generator_step(weights: LossWeights, freeze: bool):
    """Generator loss and gradients, then the student loss and gradients on
    the same batch, the way train_generator_session takes one step."""
    teachers = _teachers()
    generator = ConditionalGenerator(4, CLASSES, -np.ones(IN_DIM), np.ones(IN_DIM),
                                     seed=5, hidden=12)
    student = make_student(IN_DIM, CLASSES, SESSION, seed=6, hidden=12,
                           feature_dim=10)
    rng = np.random.default_rng(7)
    # batch sizes and weights avoid powers of two, whose divisions and
    # products are exact under any association
    z = rng.standard_normal((12, 4))
    labels = rng.integers(0, CLASSES, size=12)
    running = [model.bn_running_stats() for model in teachers]
    opponents = [p for model in teachers for p in model.parameters()]
    opponents += student.parameters() if freeze else []
    with frozen(opponents):
        loss, fake, ensemble = generator_loss(generator, student, teachers,
                                              SESSION, running, z, labels, weights)
        gen_grads = grad(loss, generator.parameters())
    logits = student.forward(fake.data, mode="train")
    # looked up at call time, so composed_graphs() can substitute it
    s_loss = losses.student_loss(ensemble.detach(), logits,
                                 weights.kl_temperature)
    stu_grads = grad(s_loss, student.parameters())
    running_after = [bn.state.running_mean for bn in student.bn_layers()]
    return (loss.data, fake.data, ensemble.data, gen_grads, s_loss.data,
            stu_grads, running_after)


@pytest.mark.parametrize("lambda4", [0.7, 0.0])
def test_generator_step_matches_composed_graph(lambda4):
    weights = LossWeights(lambda1=2.0, lambda2=0.7, lambda3=1.3, lambda4=lambda4,
                          kl_temperature=1.5)
    fused = _generator_step(weights, freeze=True)
    with composed_graphs():
        composed = _generator_step(weights, freeze=False)
    for name, a, b in zip(("loss", "fake", "ensemble"), fused[:3], composed[:3]):
        assert np.array_equal(a, b), name
    _assert_grads_equal(fused[3], composed[3])
    assert np.array_equal(fused[4], composed[4])
    _assert_grads_equal(fused[5], composed[5])
    for a, b in zip(fused[6], composed[6]):
        assert np.array_equal(a, b)
    assert any(np.abs(g).sum() > 0 for g in fused[3].values())


@pytest.mark.parametrize("session", [0, 1, 2])
def test_teacher_logits_match_full_head_slice(session):
    teachers = _teachers()
    x = Parameter("x", Tensor(np.random.default_rng(8).standard_normal((9, IN_DIM))),
                  "backbone")
    fused, fused_stats = teacher_logits(x.value, teachers, session, capture_bn=True)
    ref, ref_stats = composed_teacher_logits(x.value, teachers, session,
                                             capture_bn=True)
    assert np.array_equal(fused.data, ref.data)
    for per_fused, per_ref in zip(fused_stats, ref_stats):
        for (mu_a, var_a), (mu_b, var_b) in zip(per_fused, per_ref):
            assert np.array_equal(mu_a.data, mu_b.data)
            assert np.array_equal(var_a.data, var_b.data)
    _assert_grads_equal(grad((fused * fused).sum(), [x]),
                        grad((ref * ref).sum(), [x]))


@pytest.mark.parametrize("mode", ["subset", "sliced"])
def test_client_loss_matches_composed_graph(mode):
    weights = LossWeights(alpha=0.5, beta=2.0, k=2.0)

    def run():
        model = _teachers(1)[0]
        rng = np.random.default_rng(9)
        xb, xr = rng.standard_normal((5, IN_DIM)), rng.standard_normal((7, IN_DIM))
        yb = rng.integers(6, 8, size=5)
        yr = rng.integers(0, 6, size=7)
        joint = model.forward(np.concatenate([xb, xr]), mode="train")
        loss = client_loss(row_slice(joint, 0, 5), yb, row_slice(joint, 5, 12), yr,
                           weights, old_count=6, replay_mode=mode)
        params = model.parameters()
        return loss.data, grad(loss, params), model.bn_running_stats()

    fused = run()
    with composed_graphs():
        composed = run()
    assert np.array_equal(fused[0], composed[0])
    _assert_grads_equal(fused[1], composed[1])
    for (m_a, v_a), (m_b, v_b) in zip(fused[2], composed[2]):
        assert np.array_equal(m_a, m_b) and np.array_equal(v_a, v_b)


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_batchnorm_matches_composed_graph(mode):
    rng = np.random.default_rng(11)
    x = Parameter("x", Tensor(rng.standard_normal((9, 5)) * 2.0 + 1.0), "backbone")
    gamma = Parameter("gamma", Tensor(rng.uniform(0.5, 1.5, 5)), "backbone")
    beta = Parameter("beta", Tensor(rng.uniform(-0.5, 0.5, 5)), "backbone")
    w = Tensor(rng.standard_normal((9, 5)))
    target = rng.uniform(0.5, 1.5, 5)
    params = [x, gamma, beta]

    def run(bn):
        state = BatchNormState(rng.uniform(-0.5, 0.5, 5), rng.uniform(0.5, 1.5, 5))
        y, mu, var = bn(x.value, gamma.value, beta.value, state, mode)
        loss = (y * w).sum()
        if mode == "eval":
            # only teachers consume the statistics, and they run in eval mode
            loss = loss + (mu * mu).sum() + ((var - Tensor(target)) * w).sum()
        return (y.data, mu.data, var.data, state.running_mean,
                state.running_var, grad(loss, params))

    rng_state = rng.bit_generator.state
    fused = run(batchnorm_forward)
    rng.bit_generator.state = rng_state
    composed = run(composed_batchnorm)
    for a, b in zip(fused[:5], composed[:5]):
        assert np.array_equal(a, b)
    _assert_grads_equal(fused[5], composed[5])


LOSS_PAIRS = {
    "cross_entropy": (lambda t, s, y: losses.cross_entropy(t, y),
                      lambda t, s, y: composed_cross_entropy(t, y)),
    "entropy": (lambda t, s, y: losses.generator_entropy_loss(t),
                lambda t, s, y: composed_entropy_loss(t)),
    "student_loss": (lambda t, s, y: losses.student_loss(t, s, 1.7),
                     lambda t, s, y: composed_student_loss(t, s, 1.7)),
    "transferability": (lambda t, s, y: losses.transferability_loss(t, s, 1.7),
                        lambda t, s, y: composed_transferability_loss(t, s, 1.7)),
}


@pytest.mark.parametrize("name", sorted(LOSS_PAIRS))
def test_fused_loss_matches_composed_graph(name):
    rng = np.random.default_rng(12)
    t = Parameter("t", Tensor(rng.uniform(-3, 3, (13, 5))), "backbone")
    s = Parameter("s", Tensor(rng.uniform(-3, 3, (13, 5))), "backbone")
    y = rng.integers(0, 5, size=13)
    fused, composed = LOSS_PAIRS[name]
    a, b = fused(t.value, s.value, y), composed(t.value, s.value, y)
    assert np.array_equal(a.data, b.data)
    _assert_grads_equal(grad(a * 0.7, [t, s]), grad(b * 0.7, [t, s]))


@pytest.mark.parametrize("new_columns", [0, 1, 3])
def test_distillation_subset_matches_composed_graph(new_columns):
    # the old-class width is the whole head when there are no new columns
    rng = np.random.default_rng(14 + new_columns)
    for _ in range(25):
        n, old = int(rng.integers(1, 20)), int(rng.integers(1, 7))
        temperature = float(rng.uniform(0.5, 3.0))
        t = Parameter("t", Tensor(rng.uniform(-4, 4, (n, old))), "backbone")
        s = Parameter("s", Tensor(rng.uniform(-4, 4, (n, old + new_columns))),
                      "backbone")
        a = losses.distillation_loss_subset(t.value, s.value, old, temperature)
        b = composed_distillation_loss_subset(t.value, s.value, old,
                                              temperature)
        assert np.array_equal(a.data, b.data)
        _assert_grads_equal(grad(a * 0.7, [t, s]), grad(b * 0.7, [t, s]))


def test_frozen_restores_trainability_exactly():
    a = Parameter("a", Tensor(np.ones(2)), "backbone")
    b = Parameter("b", Tensor(np.ones(2)), "backbone")
    b.value.requires_grad = False
    with frozen([a, b, a]):
        assert not a.value.requires_grad and not b.value.requires_grad
        loss = (a.value * Tensor(np.array([1.0, 2.0]))).sum()
        assert not loss.requires_grad
    assert a.value.requires_grad and not b.value.requires_grad
    with pytest.raises(RuntimeError):
        with frozen([a]):
            raise RuntimeError("boom")
    assert a.value.requires_grad


def test_generator_session_leaves_trainability_as_it_was():
    teachers = _teachers(2)
    student = make_student(IN_DIM, CLASSES, SESSION, seed=6, hidden=12,
                           feature_dim=10)
    student.parameters()[0].value.requires_grad = False
    models = teachers + [student]
    before = [[p.value.requires_grad for p in m.parameters()] for m in models]
    cfg = GenLabConfig(epochs=1, rounds_per_epoch=2, batch_size=8, noise_dim=4,
                       hidden=12, bank_per_epoch=8)
    train_generator_session(teachers, SESSION, (8, 10),
                            (-np.ones(IN_DIM), np.ones(IN_DIM)), cfg,
                            LossWeights(), 3, student=student)
    after = [[p.value.requires_grad for p in m.parameters()] for m in models]
    assert after == before
