"""The recorded-and-replayed generator session against the graph.

``train_generator_session`` builds its first step on the graph, records it
and replays every later step as array code; ``oracles.graph_generator_session``
builds and differentiates every step on the graph. Every comparison is
np.array_equal, over everything a call trains or banks.
"""
import numpy as np
import pytest

from fedscil import Classifier, LossWeights, Tensor, train_generator_session
from fedscil.autodiff import Optimizer, OptimizerConfig, Replay, backprop
from fedscil.errors import ContractError
from fedscil.generation import GenLabConfig, generator_loss
from fedscil.losses import student_loss
from fedscil.models import ConditionalGenerator, ModelStack, make_student
from oracles import graph_generator_session

IN_DIM, SESSION, CLASSES = 6, 2, 2
ENVELOPE = (-np.ones(IN_DIM), np.ones(IN_DIM))
CFG = dict(epochs=2, rounds_per_epoch=6, batch_size=10, noise_dim=4, hidden=12,
           bank_per_epoch=6)
WEIGHTS = dict(lambda1=2.0, lambda2=0.7, lambda3=1.3, lambda4=0.7)


def _teachers(n: int) -> list[Classifier]:
    """Clients at session 2, running statistics away from (0, 1)."""
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


def _session(loop, teachers: int, cfg: GenLabConfig, weights: LossWeights,
             calls: int) -> list[np.ndarray]:
    """Everything the calls train or bank: generator and student parameters
    and running statistics, and the pool, after each call."""
    models, generator, student, out = _teachers(teachers), None, None, []
    for _ in range(calls):
        generator, student, pool = loop(models, SESSION, (8, 10), ENVELOPE, cfg,
                                        weights, 3, generator=generator,
                                        student=student)
        out += [p.value.data for p in generator.parameters() + student.parameters()]
        for bn in generator.body.bn_layers() + student.bn_layers():
            out += [bn.state.running_mean, bn.state.running_var]
        out += [pool.samples, pool.condition]
    return out


# (teachers, weight overrides, generator config overrides, calls)
CASES = {
    "1 teacher": (1, {}, {}, 1),
    "3 teachers": (3, {}, {}, 1),
    "8 teachers": (8, {}, {}, 1),
    "lambda3 0": (3, {"lambda3": 0.0}, {}, 1),
    "lambda4 0, no opponent": (3, {"lambda4": 0.0}, {}, 1),
    "student_lr 0": (3, {}, {"student_lr": 0.0}, 1),
    "kl_temperature 2": (3, {"kl_temperature": 2.0}, {}, 1),
    "a second call continues the pair": (3, {}, {}, 2),
}


@pytest.mark.parametrize("case", CASES)
def test_replayed_session_matches_the_graph_at_every_step(case):
    teachers, weight_sets, cfg_sets, calls = CASES[case]
    weights = LossWeights(**{**WEIGHTS, **weight_sets})
    cfg = GenLabConfig(**{**CFG, **cfg_sets})
    replayed = _session(train_generator_session, teachers, cfg, weights, calls)
    graph = _session(graph_generator_session, teachers, cfg, weights, calls)
    assert len(replayed) == len(graph)
    for a, b in zip(replayed, graph):
        assert np.array_equal(a, b)


def _stepper(teachers: int = 3, batch: int = 10):
    """A generator-and-student step as train_generator_session builds it,
    and a draw of its inputs."""
    generator = ConditionalGenerator(4, CLASSES, *ENVELOPE, seed=5, hidden=12)
    student = make_student(IN_DIM, CLASSES, SESSION, seed=6, hidden=12, feature_dim=10)
    stack = ModelStack(_teachers(teachers), SESSION, student)
    gen_opt = Optimizer(generator.parameters(), OptimizerConfig("adam", {"backbone": 1e-3}))
    stu_opt = Optimizer(student.parameters(), OptimizerConfig(
        "sgd_momentum", dict.fromkeys(("backbone", "head_new", "head_old"), 0.2),
        momentum=0.9))
    weights = LossWeights(**WEIGHTS)
    rng = np.random.default_rng(0)

    def step(z, labels):
        loss, fake, ensemble = generator_loss(generator, stack, z, labels, weights)
        logits = student.forward(fake.data, mode="train")
        return [(loss, generator.parameters(), gen_opt),
                (student_loss(ensemble.detach(), logits), student.parameters(), stu_opt)]

    def draw(size: int = batch):
        return rng.standard_normal((size, 4)), rng.integers(0, CLASSES, size=size)

    return step, draw


def _schedule(replay: Replay):
    """The replay's schedule: op code, slots and needs, without the values."""
    forward = [(fw.__code__, args, statics, out)
               for fw, args, statics, out in replay.forward]
    roots = [(loss, [(node, bw.__code__, needs, parents)
                     for node, bw, needs, parents in schedule],
              [slot for _, slot in params])
             for loss, schedule, _, params in replay.roots]
    return forward, roots, [slot for slot, _ in replay.leaves], len(replay.values)


def test_recording_a_later_step_gives_the_same_schedule():
    step, draw = _stepper()
    first = Replay(step, *draw())
    for _ in range(4):
        first.run(*draw())
    later = Replay(step, *draw())
    assert _schedule(later) == _schedule(first)
    # the walks' 36 generator and 18 student nodes: ops, then parameters
    assert [(len(schedule), len(params)) for _, schedule, _, params
            in first.roots] == [(26, 10), (8, 10)]


def test_a_replay_with_another_batch_size_is_refused():
    step, draw = _stepper()
    replay = Replay(step, *draw())
    with pytest.raises(ContractError, match="recorded with"):
        replay.run(*draw(7))
    z, labels = draw()
    with pytest.raises(ContractError, match="recorded with"):
        replay.run(z[:, :3], labels)


def test_a_step_with_arithmetic_ops_replays_like_the_graph():
    """The generator step plus ``0.0 * (Tensor(z) * 2.0).sum()``, which
    reads an input through the elementwise and reduction ops: replayed, it
    trains every parameter as building and walking its graph at every step
    does."""
    trained = []
    for replayed in (True, False):
        step, draw = _stepper()
        params = []

        def with_arithmetic(z, labels):
            (loss, gen_params, opt), student_root = step(z, labels)
            params[:] = gen_params + student_root[1]
            return [(loss + 0.0 * (Tensor(z) * 2.0).sum(), gen_params, opt),
                    student_root]

        replay, values = None, []
        for _ in range(5):
            if replay is not None:
                replay.run(*draw())
            elif replayed:
                replay = Replay(with_arithmetic, *draw())
            else:
                for loss, root_params, opt in with_arithmetic(*draw()):
                    backprop(loss, root_params)
                    opt.step()
            values += [p.value.data for p in params]
        trained.append(values)
    replayed, graph = trained
    assert len(replayed) == len(graph) > 0
    for a, b in zip(replayed, graph):
        assert np.array_equal(a, b)


def test_a_step_with_an_unread_input_is_refused():
    step, draw = _stepper()

    def unread(z, labels, extra):
        return step(z, labels)

    with pytest.raises(ContractError, match="reaches none"):
        Replay(unread, *draw(), np.zeros(3))
