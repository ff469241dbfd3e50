"""Fused autodiff nodes against the composed graphs they replace.

Every comparison is np.array_equal: a fused node repeats the composed
arithmetic in the same order, so values and gradients agree bit for bit.
"""
import numpy as np
import pytest

from fedscil import (Classifier, ConditionalGenerator, LossWeights, Parameter,
                     Tensor, bn_stat_loss, client_loss, generation, grad, losses,
                     train_generator_session)
from fedscil.autodiff import (batch_statistics, batchnorm_forward,
                              col_slice, frozen, row_slice, scaled_tanh)
from fedscil.config import GenLabConfig
from fedscil.errors import ContractError
from fedscil.models import ModelStack, make_student
from oracles import (bn_running_stats, captured_forward,
                     composed_batch_statistics, composed_batchnorm,
                     composed_bn_stat_loss, composed_cross_entropy,
                     composed_distillation_loss_subset, composed_entropy_loss,
                     composed_generator_total_loss, composed_graphs,
                     composed_scaled_tanh, composed_student_loss,
                     composed_teacher_logits, composed_transferability_loss,
                     graph_generator_session)

IN_DIM, SESSION, CLASSES = 6, 2, 2
# (input, hidden, feature) widths; the desk preset's make BLAS take the paths
# where a contiguous copy of transposed weights changes bits
SMALL, DESK = (IN_DIM, 12, 10), (16, 64, 64)


def _teachers(n: int = 3, widths: tuple = SMALL) -> list[Classifier]:
    """Clients at session 2: base block plus two session blocks, running
    statistics away from the (0, 1) initialization."""
    in_dim, hidden, feature = widths
    out = []
    for m in range(n):
        model = Classifier(in_dim, 4, seed=10 + m, hidden=hidden,
                           feature_dim=feature)
        model.expand_head(1, CLASSES, seed=20 + m)
        model.expand_head(SESSION, CLASSES, seed=30 + m)
        rng = np.random.default_rng(40 + m)
        for bn in model.bn_layers():
            bn.running_mean.data = rng.uniform(-0.5, 0.5, bn.running_mean.shape)
            bn.running_var.data = rng.uniform(0.5, 1.5, bn.running_var.shape)
        out.append(model)
    return out


def _assert_grads_equal(a: dict, b: dict) -> None:
    assert a.keys() == b.keys()
    for name in a:
        assert np.array_equal(a[name], b[name]), name


def _models(teachers: int, widths: tuple = SMALL):
    in_dim, hidden, feature = widths
    generator = ConditionalGenerator(4, CLASSES, -np.ones(in_dim), np.ones(in_dim),
                                     seed=5, hidden=hidden)
    student = make_student(in_dim, CLASSES, SESSION, seed=6, hidden=hidden,
                           feature_dim=feature)
    return _teachers(teachers, widths), generator, student


def _generator_step(teachers: int, weights: LossWeights, widths: tuple):
    """Generator loss and gradients, then the student loss and gradients on
    the same batch, the way train_generator_session takes one step."""
    teacher_models, generator, student = _models(teachers, widths)
    stack = ModelStack(teacher_models, SESSION,
                       student if weights.lambda4 != 0 else None)
    rng = np.random.default_rng(7)
    # batch sizes and weights avoid powers of two, whose divisions and
    # products are exact under any association
    z = rng.standard_normal((12, 4))
    labels = rng.integers(0, CLASSES, size=12)
    # looked up at call time, so composed_graphs() can substitute them
    loss, fake, ensemble = generation.generator_loss(generator, stack, z, labels,
                                                     weights)
    gen_grads = grad(loss, generator.parameters())
    logits = student.forward(fake.data, mode="train")
    s_loss = losses.student_loss(ensemble.detach(), logits,
                                 weights.kl_temperature)
    stu_grads = grad(s_loss, student.parameters())
    running_after = [bn.running_mean.data for bn in student.bn_layers()]
    return (loss.data, fake.data, ensemble.data, gen_grads, s_loss.data,
            stu_grads, running_after)


def _weights(lambda3: float, lambda4: float) -> LossWeights:
    return LossWeights(lambda1=2.0, lambda2=0.7, lambda3=lambda3, lambda4=lambda4,
                       kl_temperature=1.5)


# (teachers, lambda3, widths) per lambda4; lambda4 = 0 builds no opponent slot
STEP_CASES = {0.7: [(1, 1.3, SMALL), (3, 1.3, SMALL), (8, 1.3, SMALL),
                    (3, 0.0, SMALL), (3, 1.3, DESK)],
              0.0: [(3, 1.3, SMALL), (1, 0.0, SMALL)]}


@pytest.mark.parametrize("lambda4", [0.7, 0.0])
def test_generator_step_matches_composed_graph(lambda4):
    for teachers, lambda3, widths in STEP_CASES[lambda4]:
        case = f"{teachers} teachers, lambda3 {lambda3}, widths {widths}"
        weights = _weights(lambda3, lambda4)
        fused = _generator_step(teachers, weights, widths)
        with composed_graphs():
            composed = _generator_step(teachers, weights, widths)
        for name, a, b in zip(("loss", "fake", "ensemble"), fused[:3], composed[:3]):
            assert np.array_equal(a, b), (case, name)
        _assert_grads_equal(fused[3], composed[3])
        assert np.array_equal(fused[4], composed[4]), case
        _assert_grads_equal(fused[5], composed[5])
        for a, b in zip(fused[6], composed[6]):
            assert np.array_equal(a, b), case
        assert any(np.abs(g).sum() > 0 for g in fused[3].values()), case


@pytest.mark.parametrize("session", [0, 1, 2])
def test_teacher_logits_match_full_head_slice(session):
    """The stacked pass against one full-head forward per model, then the
    session's columns; 1, 3 and 8 teachers plus an opponent."""
    for teachers in (1, 3, 8):
        _check_stacked_pass(teachers, session)


def _check_stacked_pass(teachers: int, session: int):
    teacher_models = _teachers(teachers)
    opponent = make_student(IN_DIM, 4 if session == 0 else CLASSES, session,
                            seed=6, hidden=12, feature_dim=10)
    x = Parameter("x", np.random.default_rng(8).standard_normal((9, IN_DIM)),
                  "backbone")
    stack = ModelStack(teacher_models, session, opponent)
    ensemble, opp, stats = stack.forward(x, capture_bn=True)
    ref, ref_stats = composed_teacher_logits(x, teacher_models, session,
                                             capture_bn=True)
    ref_opp, ref_opp_stats = captured_forward(opponent, x)
    assert np.array_equal(ensemble.data, ref.data)
    assert np.array_equal(opp.data, ref_opp.data)
    # statistics of the teachers only: no loss reads the opponent's
    assert [(mu.shape[0], var.shape[0]) for mu, var in stats] == \
        [(teachers, teachers)] * len(ref_stats[0])
    for m, per_model in enumerate(ref_stats):
        for (mu, var), (mu_ref, var_ref) in zip(stats, per_model):
            assert np.array_equal(mu.data[m, 0], mu_ref.data)
            assert np.array_equal(var.data[m, 0], var_ref.data)

    # shaped like the generator objective, whose last term reads the
    # ensemble and the opponent: the walk then reaches every model's layers
    # before their statistics and sums the gradients into x teachers first,
    # in list order, then the opponent
    running = [bn_running_stats(model) for model in teacher_models]
    fused = ((ensemble * ensemble).sum()
             + bn_stat_loss(stats, stack.running_stats()) * 1.3
             + (ensemble * opp).sum() * 0.7)
    composed = ((ref * ref).sum() + composed_bn_stat_loss(ref_stats, running) * 1.3
                + (ref * ref_opp).sum() * 0.7)
    assert np.array_equal(fused.data, composed.data)
    _assert_grads_equal(grad(fused, [x]), grad(composed, [x]))


@pytest.mark.parametrize("student_lr, lambda4", [(0.2, 0.7), (0.0, 0.7),
                                                 (0.2, 0.0)])
def test_generator_session_matches_composed_graph(student_lr, lambda4):
    """20 generator and student steps, replayed against the composed graphs
    built at every step; a stale opponent slot would part the two runs after
    the first student step."""
    cfg = GenLabConfig(epochs=2, rounds_per_epoch=10, batch_size=12, noise_dim=4,
                       hidden=12, student_lr=student_lr, bank_per_epoch=6)
    weights = _weights(1.3, lambda4)

    def run(session_loop):
        teacher_models, _, student = _models(3)
        generator, student, pool = session_loop(
            teacher_models, SESSION, (8, 10), (-np.ones(IN_DIM), np.ones(IN_DIM)),
            cfg, weights, 3, student=student)
        return ([p.data for p in generator.parameters()],
                [p.data for p in student.parameters()],
                [a for pair in bn_running_stats(student) for a in pair],
                [pool.samples])

    fused = run(train_generator_session)
    with composed_graphs():
        composed = run(graph_generator_session)
    for part_a, part_b in zip(fused, composed):
        assert len(part_a) == len(part_b)
        for a, b in zip(part_a, part_b):
            assert np.array_equal(a, b)
    initial = [p.data for p in _models(3)[2].parameters()]
    moved = [not np.array_equal(a, b) for a, b in zip(initial, fused[1])]
    assert any(moved) == (student_lr > 0)


def test_stack_rejects_teachers_of_another_shape():
    teachers = _teachers(2)
    wide = Classifier(IN_DIM, 4, seed=1, hidden=13, feature_dim=10)
    wide.expand_head(1, CLASSES, seed=2)
    wide.expand_head(SESSION, CLASSES, seed=3)
    with pytest.raises(ContractError, match=r"teacher 2: backbone\.fc1\.weight "
                                            r"has shape \(6, 13\)"):
        ModelStack(teachers + [wide], SESSION)
    narrow = Classifier(IN_DIM, 4, seed=1, hidden=12, feature_dim=9)
    narrow.expand_head(1, CLASSES, seed=2)
    narrow.expand_head(SESSION, CLASSES, seed=3)
    with pytest.raises(ContractError, match=r"teacher 1: backbone\.fc2\.weight "
                                            r"has shape \(12, 9\)"):
        ModelStack([teachers[0], narrow], SESSION)
    broad_head = Classifier(IN_DIM, 4, seed=1, hidden=12, feature_dim=10)
    broad_head.expand_head(1, CLASSES, seed=2)
    broad_head.expand_head(SESSION, CLASSES + 1, seed=3)
    with pytest.raises(ContractError, match=r"teacher 1: head\.s2\.weight "
                                            r"has shape \(10, 3\)"):
        ModelStack([teachers[0], broad_head], SESSION)
    student = make_student(IN_DIM, CLASSES + 1, SESSION, seed=6, hidden=12,
                           feature_dim=10)
    with pytest.raises(ContractError, match="the opponent: head"):
        ModelStack(teachers, SESSION, student)
    with pytest.raises(ContractError, match="no head block for session 3"):
        ModelStack(teachers, 3)
    with pytest.raises(ContractError, match="at least one teacher"):
        ModelStack([], SESSION)


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
        replay = row_slice(joint, 5, 12)
        if mode == "sliced":
            replay = col_slice(replay, 0, 6)
        loss = client_loss(row_slice(joint, 0, 5), yb, replay, yr, weights,
                           old_count=6)
        params = model.parameters()
        return loss.data, grad(loss, params), bn_running_stats(model)

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
    x = Parameter("x", rng.standard_normal((9, 5)) * 2.0 + 1.0, "backbone")
    gamma = Parameter("gamma", rng.uniform(0.5, 1.5, 5), "backbone")
    beta = Parameter("beta", rng.uniform(-0.5, 0.5, 5), "backbone")
    w = Tensor(rng.standard_normal((9, 5)))
    target = rng.uniform(0.5, 1.5, 5)
    params = [x, gamma, beta]

    def run(bn, statistics):
        state = (Tensor(rng.uniform(-0.5, 0.5, 5)), Tensor(rng.uniform(0.5, 1.5, 5)))
        y = bn(x, gamma, beta, state, mode)
        mu, var = statistics(x)
        loss = (y * w).sum()
        if mode == "eval":
            # only teachers consume the statistics, and they run in eval mode
            loss = loss + (mu * mu).sum() + ((var - Tensor(target)) * w).sum()
        return (y.data, mu.data, var.data, state[0].data,
                state[1].data, grad(loss, params))

    rng_state = rng.bit_generator.state
    fused = run(batchnorm_forward, batch_statistics)
    rng.bit_generator.state = rng_state
    composed = run(composed_batchnorm, composed_batch_statistics)
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
    t = Parameter("t", rng.uniform(-3, 3, (13, 5)), "backbone")
    s = Parameter("s", rng.uniform(-3, 3, (13, 5)), "backbone")
    y = rng.integers(0, 5, size=13)
    fused, composed = LOSS_PAIRS[name]
    a, b = fused(t, s, y), composed(t, s, y)
    assert np.array_equal(a.data, b.data)
    _assert_grads_equal(grad(a * 0.7, [t, s]), grad(b * 0.7, [t, s]))


@pytest.mark.parametrize("new_columns", [0, 1, 3])
def test_distillation_subset_matches_composed_graph(new_columns):
    # the old-class width is the whole head when there are no new columns
    rng = np.random.default_rng(14 + new_columns)
    for _ in range(25):
        n, old = int(rng.integers(1, 20)), int(rng.integers(1, 7))
        temperature = float(rng.uniform(0.5, 3.0))
        t = Parameter("t", rng.uniform(-4, 4, (n, old)), "backbone")
        s = Parameter("s", rng.uniform(-4, 4, (n, old + new_columns)),
                      "backbone")
        a = losses.distillation_loss_subset(t, s, old, temperature)
        b = composed_distillation_loss_subset(t, s, old,
                                              temperature)
        assert np.array_equal(a.data, b.data)
        _assert_grads_equal(grad(a * 0.7, [t, s]), grad(b * 0.7, [t, s]))


# which of the four generator terms are Tensors; the others are 0.0 floats,
# as generator_loss passes a switched-off term
TERM_CASES = [(True, True, True, True), (True, True, False, True),
              (True, True, True, False), (True, True, False, False),
              (False, True, False, True), (False, False, False, False)]


@pytest.mark.parametrize("tensors", TERM_CASES)
def test_generator_total_matches_composed_graph(tensors):
    rng = np.random.default_rng(15)
    weights = LossWeights(lambda1=2.0, lambda2=0.7,
                          lambda3=1.3 if tensors[2] else 0.0,
                          lambda4=0.3 if tensors[3] else 0.0)
    for _ in range(20):
        t = Parameter("t", rng.uniform(-3, 3, (7, 3)), "backbone")
        s = Parameter("s", rng.uniform(-3, 3, (7, 3)), "backbone")
        y = rng.integers(0, 3, size=7)

        def terms():
            # every term reads t, so the walk sums four gradients into it
            built = [losses.cross_entropy(t, y),
                     losses.generator_entropy_loss(t),
                     (t * s).mean(),
                     losses.transferability_loss(t, s, 1.5)]
            return [term if keep else 0.0 for term, keep in zip(built, tensors)]

        a = losses.generator_total_loss(*terms(), weights)
        b = composed_generator_total_loss(*terms(), weights)
        assert np.array_equal(a.data, b.data)
        assert a.requires_grad == b.requires_grad == any(tensors)
        if any(tensors):
            _assert_grads_equal(grad(a, [t, s]), grad(b, [t, s]))


def test_generator_output_matches_composed_graph():
    rng = np.random.default_rng(16)
    for _ in range(20):
        pre = Parameter("pre", rng.uniform(-4, 4, (9, 5)), "backbone")
        low = rng.uniform(-3, 0, 5)
        high = low + rng.uniform(0, 3, 5)
        half, mid = (high - low) / 2.0, (high + low) / 2.0
        w = Tensor(rng.standard_normal((9, 5)))
        a = scaled_tanh(pre, half, mid)
        b = composed_scaled_tanh(pre, half, mid)
        assert np.array_equal(a.data, b.data)
        _assert_grads_equal(grad((a * w).sum(), [pre]), grad((b * w).sum(), [pre]))


def test_frozen_restores_trainability_exactly():
    a = Parameter("a", np.ones(2), "backbone")
    b = Parameter("b", np.ones(2), "backbone")
    b.requires_grad = False
    with frozen([a, b, a]):
        assert not a.requires_grad and not b.requires_grad
        loss = (a * Tensor(np.array([1.0, 2.0]))).sum()
        assert not loss.requires_grad
    assert a.requires_grad and not b.requires_grad
    with pytest.raises(RuntimeError):
        with frozen([a]):
            raise RuntimeError("boom")
    assert a.requires_grad


def test_generator_session_leaves_trainability_as_it_was():
    teachers = _teachers(2)
    student = make_student(IN_DIM, CLASSES, SESSION, seed=6, hidden=12,
                           feature_dim=10)
    student.parameters()[0].requires_grad = False
    models = teachers + [student]
    before = [[p.requires_grad for p in m.parameters()] for m in models]
    cfg = GenLabConfig(epochs=1, rounds_per_epoch=2, batch_size=8, noise_dim=4,
                       hidden=12, bank_per_epoch=8)
    train_generator_session(teachers, SESSION, (8, 10),
                            (-np.ones(IN_DIM), np.ones(IN_DIM)), cfg,
                            LossWeights(), 3, student=student)
    after = [[p.requires_grad for p in m.parameters()] for m in models]
    assert after == before
