"""The recorded-and-replayed training loops against the graph.

Every training step runs through ``autodiff.Replay``, which records a step
on the graph once per tuple of input shapes and replays it as array code.
The references in ``oracles`` (``graph_generator_session``,
``graph_run_local``, ``graph_local_step``, ``graph_train_base``) build and
differentiate every step on the graph. A replayed client step takes a
(k, replay term) pair; its graph reference states the objective a second
time, through ``losses.client_loss`` for the replay rule. Every comparison
is np.array_equal, over everything a loop trains or banks.
"""
import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import desk_config
from fedscil import Classifier, LossWeights, Tensor, client, train_generator_session
from fedscil.autodiff import Optimizer, Replay, backprop, frozen, grad
from fedscil.config import ClientConfig, GenLabConfig
from fedscil.data import LabeledDataset
from fedscil.errors import ContractError
from fedscil.generation import generator_loss
from fedscil.losses import cross_entropy, student_loss
from fedscil.generation import ReplayBuffer, SyntheticPool
from fedscil.models import ConditionalGenerator, ModelStack, make_student
from fedscil.orchestrator import _train_base
from gradcheck import CASES as GRADIENT_CASES, case_rng
from oracles import (client_optimizer, distill_loss, distill_term,
                     graph_generator_session, graph_local_step, graph_run_local,
                     graph_train_base, nagr_loss, nagr_term)

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
            bn.running_mean.data = rng.uniform(-0.5, 0.5, bn.running_mean.shape)
            bn.running_var.data = rng.uniform(0.5, 1.5, bn.running_var.shape)
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
        out += [p.data for p in generator.parameters() + student.parameters()]
        for bn in generator.body.bn_layers() + student.bn_layers():
            out += [bn.running_mean.data, bn.running_var.data]
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


def _state_of(bns, opts):
    """A snapshot of everything a step may move: the optimizers' parameters
    and fields, and the batch-norm layers' running statistics."""

    def state():
        out = [p.data for opt in opts for p in opt.params]
        out += [a for bn in bns for a in (bn.running_mean.data, bn.running_var.data)]
        for opt in opts:
            out += [v for k, v in sorted(vars(opt).items()) if k != "params"]
        return copy.deepcopy(out)

    return state


def _assert_unchanged(before, after) -> None:
    assert len(before) == len(after)
    for a, b in zip(before, after):
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            assert np.array_equal(a, b)
        else:
            assert a == b


def _stepper(teachers: int = 3, batch: int = 10):
    """A generator-and-student step as train_generator_session builds it, a
    draw of its inputs and a snapshot of what it trains."""
    generator = ConditionalGenerator(4, CLASSES, *ENVELOPE, seed=5, hidden=12)
    student = make_student(IN_DIM, CLASSES, SESSION, seed=6, hidden=12, feature_dim=10)
    stack = ModelStack(_teachers(teachers), SESSION, student)
    gen_opt = Optimizer(generator.parameters(), "adam", {"backbone": 1e-3})
    stu_opt = Optimizer(student.parameters(), "sgd_momentum",
                        dict.fromkeys(("backbone", "head_new", "head_old"), 0.2), 0.9)
    weights = LossWeights(**WEIGHTS)
    rng = np.random.default_rng(0)

    def step(z, labels):
        loss, fake, ensemble = generator_loss(generator, stack, z, labels, weights)
        logits = student.forward(fake.data, mode="train")
        return [(loss, gen_opt), (student_loss(ensemble.detach(), logits), stu_opt)]

    def draw(size: int = batch):
        return rng.standard_normal((size, 4)), rng.integers(0, CLASSES, size=size)

    return step, draw, _state_of(generator.body.bn_layers() + student.bn_layers(),
                                 [gen_opt, stu_opt])


def _schedule(record: tuple):
    """A record's schedule: op code, slots and needs, without the values."""
    values, leaves, forward, roots = record
    forward = [(fw.__code__, args, statics, out) for fw, args, statics, out in forward]
    roots = [(loss, [(node, bw.__code__, needs, parents)
                     for node, bw, needs, parents in schedule],
              slots)
             for loss, schedule, _, slots in roots]
    return forward, roots, [slot for slot, _ in leaves], len(values)


def test_recording_a_later_step_gives_the_same_schedule():
    step, draw, _ = _stepper()
    first = Replay(step)
    for _ in range(5):
        first(*draw())
    later = Replay(step)
    later(*draw())
    [record] = first.records.values()
    assert _schedule(*later.records.values()) == _schedule(record)
    # the walks' 36 generator and 18 student nodes: ops, then parameters
    assert [(len(schedule), len(params)) for _, schedule, _, params
            in record[3]] == [(26, 10), (8, 10)]


def _trained(step, draw, sizes, replayed: bool) -> list[np.ndarray]:
    """Every parameter after each step of a run over batches of ``sizes``,
    replayed through one Replay or built and walked on the graph."""
    params, values = [], []

    def with_params(*inputs):
        roots = step(*inputs)
        params[:] = [p for _, opt in roots for p in opt.params]
        return roots

    def on_the_graph(*inputs):
        for loss, opt in with_params(*inputs):
            backprop(loss, opt.params)
            opt.step()

    run = Replay(with_params) if replayed else on_the_graph
    for size in sizes:
        run(*draw(size))
        values += [p.data for p in params]
    return values


def test_a_second_shape_records_its_own_schedule_and_both_replay_like_the_graph():
    sizes = [10, 7, 10, 7, 7, 10, 10, 7]
    replayed = _trained(*_stepper()[:2], sizes, replayed=True)
    graph = _trained(*_stepper()[:2], sizes, replayed=False)
    assert len(replayed) == len(graph) > 0
    for a, b in zip(replayed, graph):
        assert np.array_equal(a, b)
    step, draw, _ = _stepper()
    replay = Replay(step)
    for size in (10, 7, 10):
        replay(*draw(size))
    assert list(replay.records) == [((10, 4), (10,)), ((7, 4), (7,))]


def test_a_step_with_arithmetic_ops_replays_like_the_graph():
    """The generator step plus ``0.0 * (Tensor(z) * 2.0).sum()``, which
    reads an input through the elementwise and reduction ops: replayed, it
    trains every parameter as building and walking its graph at every step
    does."""
    trained = []
    for replayed in (True, False):
        step, draw, _ = _stepper()

        def with_arithmetic(z, labels, step=step):
            loss_root, student_root = step(z, labels)
            return [(loss_root[0] + 0.0 * (Tensor(z) * 2.0).sum(), loss_root[1]),
                    student_root]

        trained.append(_trained(with_arithmetic, draw, [10] * 5, replayed))
    replayed, graph = trained
    assert len(replayed) == len(graph) > 0
    for a, b in zip(replayed, graph):
        assert np.array_equal(a, b)


def test_a_step_with_an_unread_input_is_refused():
    """The refused recording call changes no state: no parameter, running
    statistic or optimizer field moves."""
    step, draw, state = _stepper()

    def unread(z, labels, extra):
        return step(z, labels)

    before = state()
    with pytest.raises(ContractError, match="reaches none"):
        Replay(unread)(*draw(), np.zeros(3))
    _assert_unchanged(before, state())


# -- client and base training ------------------------------------------------------

BASE, WAY = 3, 2
SIZES = st.sampled_from([1, 2, 3, 8])
CLIENT = dict(lr_backbone_and_old=0.05, lr_new_head=0.3, momentum=0.9)


def _classifier(heads: int, seed: int) -> Classifier:
    """A small classifier with ``heads`` head sessions and running
    statistics away from (0, 1)."""
    model = Classifier(IN_DIM, BASE, seed=seed, hidden=8, feature_dim=6)
    if heads == 2:
        model.expand_head(1, WAY, seed=seed + 1)
    rng = np.random.default_rng(seed)
    for bn in model.bn_layers():
        bn.running_mean.data = rng.uniform(-0.5, 0.5, bn.running_mean.shape)
        bn.running_var.data = rng.uniform(0.5, 1.5, bn.running_var.shape)
    return model


def _assert_same_state(a: Classifier, b: Classifier, opts=()) -> None:
    for (name, x, _), (_, y, _) in zip(a.state_entries(), b.state_entries()):
        assert np.array_equal(x, y), name
    if opts:
        first, second = opts
        assert np.array_equal(first._vel, second._vel)
        assert first._t == second._t


@st.composite
def _local_runs(draw):
    """A rule, its replay objective and the (session rows, replay rows) of
    each step; replay rows are None where the step draws none."""
    rule = draw(st.sampled_from(["finetune", "nagr", "distill"]))
    replay = {"finetune": st.none(), "nagr": SIZES, "distill": st.none() | SIZES}[rule]
    return (rule, draw(st.sampled_from(["subset", "sliced"])), draw(st.integers(1, 2)),
            draw(st.lists(st.tuples(SIZES, replay), min_size=1, max_size=8)),
            draw(st.integers(0, 2 ** 16)))


@settings(max_examples=60, deadline=None)
@given(_local_runs())
def test_local_steps_of_every_shape_replay_like_the_graph(run):
    """One Replay of ``client._local_step`` over a run of batch shapes,
    singletons (eval-mode batch norm) included, against the step built on
    the graph: after every step, every parameter, running statistic and
    optimizer state agree."""
    rule, mode, heads, batches, seed = run
    weights = LossWeights(k=0.0 if rule == "finetune" else 0.7, beta=0.5,
                          kl_temperature=2.0)
    teacher = _classifier(1, seed + 7)
    if rule == "distill":
        objective, loss_fn = (distill_term(teacher, weights, BASE),
                              distill_loss(teacher, weights, BASE))
    else:
        objective, loss_fn = nagr_term(weights, BASE), nagr_loss(weights, BASE)
    cfg = ClientConfig(replay_loss=mode, **CLIENT)
    replayed = _classifier(heads, seed)
    graph = replayed.clone()
    opts = [client_optimizer(model, cfg) for model in (replayed, graph)]
    rng = np.random.default_rng(seed)
    with frozen(teacher.parameters()):
        replay = client._local_step(replayed, opts[0], cfg, BASE, *objective)
        for new, old in batches:
            inputs = [rng.standard_normal((new, IN_DIM)),
                      rng.integers(0, replayed.classes_seen, size=new)]
            if old is not None:
                inputs += [rng.standard_normal((old, IN_DIM)),
                           rng.integers(0, BASE, size=old)][:2 if rule == "nagr" else 1]
            replay(*inputs)
            graph_local_step(graph, opts[1], cfg, BASE, loss_fn, *inputs)
            _assert_same_state(replayed, graph, opts)


def _old_class_buffer(rng) -> ReplayBuffer:
    labels = np.tile(np.arange(BASE), 4)
    buffer = ReplayBuffer(10)
    buffer.add_pool(SyntheticPool(0, 0, BASE, rng.standard_normal((12, IN_DIM)),
                                  labels, labels), rng)
    return buffer


@pytest.mark.parametrize("rule", ["finetune", "nagr", "distill"])
@pytest.mark.parametrize("mode", ["subset", "sliced"])
@pytest.mark.parametrize("rows", [1, 2, 11])
def test_a_local_update_replays_like_the_graph(rule, mode, rows):
    """A whole local update (3 epochs of 4-row batches and their tails)
    trains the model as its loop on the graph does."""
    rng = np.random.default_rng(rows)
    x = rng.standard_normal((rows, IN_DIM))
    y = rng.integers(BASE, BASE + WAY, size=rows)
    buffer = _old_class_buffer(rng)
    model, teacher = _classifier(2, 3), _classifier(1, 4)
    weights = LossWeights(k=0.0 if rule == "finetune" else 0.7, beta=0.5)
    cfg = ClientConfig(epochs=3, batch_size_new=4, batch_size_replay=5,
                       replay_loss=mode, **CLIENT)
    if rule == "distill":
        trained, count = client.local_update_baseline_kd(
            model, teacher, x, y, buffer, weights, cfg, BASE, seed=5)
        with frozen(teacher.parameters()):
            graph, graph_count = graph_run_local(
                model, x, y, buffer, cfg, weights, BASE, 5,
                distill_loss(teacher, weights, BASE), 1)
    else:
        trained, count = client.local_update_nagr(model, x, y, buffer, weights,
                                                  cfg, BASE, seed=5)
        graph, graph_count = graph_run_local(model, x, y, buffer, cfg, weights,
                                             BASE, 5, nagr_loss(weights, BASE), 2)
    assert count == graph_count == rows
    _assert_same_state(trained, graph)


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(2, 20), batch=st.sampled_from([2, 3, 8]),
       epochs=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
def test_base_training_replays_like_the_graph(rows, batch, epochs, seed):
    """Base training over full batches and their tail, with a learning-rate
    decay between epochs, trains the model as its loop on the graph does."""
    cfg = desk_config(f"base.epochs={epochs}", f"base.batch_size={batch}",
                      "base.decay_milestones=0.5", f"seed={seed}")
    rng = np.random.default_rng(seed)
    ds = LabeledDataset(rng.standard_normal((rows, IN_DIM)),
                        rng.integers(0, BASE, size=rows), BASE)
    replayed = _classifier(1, seed)
    graph = replayed.clone()
    _train_base(replayed, ds, cfg)
    graph_train_base(graph, ds, cfg)
    _assert_same_state(replayed, graph)


# -- argument checks on replay -----------------------------------------------------


# Each returns a Replay, a draw of its inputs around the given labels, the
# labels' width and a snapshot of what the step trains.

def _base_step():
    """A base-training step as ``_train_base`` builds it; its labels span
    the model's classes."""
    model = _classifier(1, 0)
    opt = client_optimizer(model, ClientConfig(**CLIENT))
    rng = np.random.default_rng(1)

    def draw(labels):
        return rng.standard_normal((labels.shape[0], IN_DIM)), labels

    return (Replay(lambda x, y: [(cross_entropy(model.forward(x, mode="train"), y),
                                  opt)]), draw, BASE, _state_of(model.bn_layers(), [opt]))


def _client_step(mode: str | None):
    """A session-2 client step. With a replay-loss mode it has replay rows,
    whose labels span the old classes; without one (k = 0) it has none, and
    its session labels span every class."""
    model = _classifier(2, 0)
    cfg = ClientConfig(replay_loss=mode or "subset", **CLIENT)
    opt = client_optimizer(model, cfg)
    objective = nagr_term(LossWeights(k=0.7 if mode else 0.0, beta=0.5), BASE)
    replay = client._local_step(model, opt, cfg, BASE, *objective)
    rng = np.random.default_rng(2)

    def draw(labels):
        if mode is None:
            return rng.standard_normal((labels.shape[0], IN_DIM)), labels
        return (rng.standard_normal((4, IN_DIM)), rng.integers(BASE, BASE + WAY, size=4),
                rng.standard_normal((labels.shape[0], IN_DIM)), labels)

    return (replay, draw, BASE if mode else model.classes_seen,
            _state_of(model.bn_layers(), [opt]))


def _generator_step():
    """A generator-and-student step; its condition labels span the session's
    classes."""
    step, draw, state = _stepper()
    return (Replay(step), lambda labels: (draw(labels.shape[0])[0], labels), CLASSES,
            state)


STEPS = {"base": _base_step, "client, no replay": lambda: _client_step(None),
         "client, subset": lambda: _client_step("subset"),
         "client, sliced": lambda: _client_step("sliced"),
         "generator": _generator_step}


@pytest.mark.parametrize("name", STEPS)
@pytest.mark.parametrize("bad", ["-1", "width"])
def test_a_replayed_step_checks_its_labels_as_the_recorded_one(name, bad):
    """A label of -1 or of the labels' width (the class count, the old-class
    count for replay rows, the session's class count for conditions) raises
    ContractError on the recording call and on a replayed one alike."""
    replay, draw, width, _ = STEPS[name]()
    labels = np.arange(5) % width
    wrong = labels.copy()
    wrong[3] = -1 if bad == "-1" else width
    with pytest.raises(ContractError):
        STEPS[name]()[0](*draw(wrong))
    replay(*draw(labels))
    replay(*draw(labels))
    with pytest.raises(ContractError):
        replay(*draw(wrong))
    assert len(replay.records) == 1


@pytest.mark.parametrize("name", STEPS)
@pytest.mark.parametrize("call", ["recording", "replayed"])
def test_a_step_that_raises_changes_no_state(name, call):
    """A label of the labels' width raises once the step's train-mode
    forwards have run (before them for the generator's conditions), on the
    recording call or on a replayed one; every parameter, running statistic
    and optimizer field stays as it was."""
    replay, draw, width, state = STEPS[name]()
    labels = np.arange(5) % width
    if call == "replayed":
        replay(*draw(labels))
    wrong = labels.copy()
    wrong[3] = width
    before = state()
    with pytest.raises(ContractError):
        replay(*draw(wrong))
    _assert_unchanged(before, state())


# -- every gradient case as a replayed step ------------------------------------


@pytest.mark.parametrize("name, make", GRADIENT_CASES, ids=[n for n, _ in GRADIENT_CASES])
def test_every_gradient_case_replays_like_the_graph(name, make):
    """Each case of the gradient suite as a ``Replay`` step under a rate-0
    optimizer: one recording call, then two replayed calls, each after every
    parameter is scaled, so an array made from one outside an op would
    replay stale. Each replayed call's gradients equal ``grad`` on a freshly
    built graph bit for bit; with the gradient suite's op coverage, every
    ``_*_fw``/``_*_bw`` op replays in some case."""
    build_loss, params = make(case_rng(name, 0))
    opt = Optimizer(params, "sgd_momentum", {p.group: 0.0 for p in params})
    replay = Replay(lambda: [(build_loss(), opt)])
    replay()
    for _ in range(2):
        for p in params:
            p.data = p.data * 1.25
        replay()
        graph = grad(build_loss(), params)
        for p in params:
            assert np.array_equal(p.grad, graph[p.name]), p.name
