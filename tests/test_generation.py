"""Generator lab, relabeling, and the replay buffer."""
import csv
import dataclasses

import numpy as np
import pytest

from conftest import quick_gen_config
from fedscil import (Classifier, LossWeights, ReplayBuffer, Tensor,
                     train_generator_session)
from fedscil import autodiff
from fedscil.autodiff import Parameter, grad
from fedscil.config import GenLabConfig
from fedscil.errors import (BufferGapError, ContractError, EmptyBufferError,
                            NonFiniteError)
from fedscil.generation import (SyntheticPool, export_synthetics_csv, relabel,
                                teacher_confidence, teacher_pool_entropy)
from fedscil.models import ConditionalGenerator, ModelStack, make_student


def _bias_teacher(bias, seed: int = 0) -> Classifier:
    """A 2-class model whose logits equal a fixed bias row for every input."""
    model = Classifier(in_dim=3, base_classes=2, seed=seed, hidden=8,
                       feature_dim=4)
    head = model.heads[0]
    head.weight.value.data[:] = 0.0
    head.bias.value.data[:] = bias
    return model


def _toy_teacher(seed: int = 2) -> Classifier:
    return Classifier(in_dim=4, base_classes=3, seed=seed, hidden=16,
                      feature_dim=8)


def _envelope(dim: int = 4):
    return np.full(dim, -1.0), np.full(dim, 1.0)


# -- ensemble logits ---------------------------------------------------------------

def _ensemble(x, teachers, session):
    return ModelStack(teachers, session).forward(x)[0].data


def test_teacher_logits_single_teacher_is_its_slice(rng):
    model = _toy_teacher()
    x = rng.standard_normal((5, 4))
    direct = model.forward(x, mode="eval").data[:, 0:3]
    assert np.array_equal(direct, _ensemble(x, [model], 0))


def test_teacher_logits_duplicated_teacher_changes_nothing(rng):
    model = _toy_teacher()
    x = rng.standard_normal((5, 4))
    one = _ensemble(x, [model], 0)
    two = _ensemble(x, [model, model.clone()], 0)
    assert np.allclose(one, two, atol=1e-12)


def test_teacher_logits_averages_disagreeing_teachers(rng):
    a = _bias_teacher([4.0, 0.0], seed=0)
    b = _bias_teacher([0.0, 4.0], seed=1)
    x = rng.standard_normal((6, 3))
    assert np.array_equal(_ensemble(x, [a, b], 0), np.full((6, 2), 2.0))


def test_teacher_logits_requires_a_teacher(rng):
    with pytest.raises(ContractError):
        _ensemble(rng.standard_normal((2, 4)), [], 0)


def test_teacher_logits_gradient_reaches_input(rng):
    model = _toy_teacher()
    x = Parameter("x", Tensor(rng.standard_normal((3, 4))), "backbone")
    ensemble, opponent, stats = ModelStack([model], 0).forward(x.value)
    assert opponent is None and stats is None
    grads = grad(ensemble.sum(), [x])
    assert float(np.abs(grads["x"]).sum()) > 0


def test_stack_reads_teachers_and_opponent_when_built_and_loaded(rng):
    teacher, student = _toy_teacher(), _toy_teacher(seed=3)
    x = rng.standard_normal((4, 4))
    stack = ModelStack([teacher], 0, opponent=student)
    as_built = teacher.clone()
    # the stack keeps copies: moving a teacher afterwards changes nothing,
    # moving the opponent shows once its slot is loaded again
    teacher.heads[0].bias.value.data += 1.0
    student.heads[0].bias.value.data += 1.0
    state = student.bn_layers()[0].state
    state.running_var = state.running_var * 2.0
    before = stack.forward(x)[1].data
    stack.load_opponent()
    ensemble, opponent, _ = stack.forward(x)
    assert np.array_equal(ensemble.data, as_built.forward(x).data)
    assert not np.array_equal(before, opponent.data)
    assert np.array_equal(opponent.data, student.forward(x).data)


# -- generator training -------------------------------------------------------------

def test_generator_session_is_deterministic():
    teacher = _toy_teacher()
    args = ([teacher], 0, (0, 3), _envelope(), quick_gen_config(),
            LossWeights(), 21)
    _, _, pool_a = train_generator_session(*args)
    _, _, pool_b = train_generator_session(*args)
    assert np.array_equal(pool_a.samples, pool_b.samples)
    assert np.array_equal(pool_a.condition, pool_b.condition)


def test_generator_session_leaves_teachers_untouched():
    teacher = _toy_teacher()
    before = {name: arr.copy() for name, arr, _ in teacher.state_entries()}
    train_generator_session([teacher], 0, (0, 3), _envelope(),
                            quick_gen_config(), LossWeights(), 21)
    for name, arr, _ in teacher.state_entries():
        assert np.array_equal(arr, before[name]), name


def test_generator_ignores_student_when_disagreement_is_off():
    teacher = _toy_teacher()
    weights = LossWeights(lambda4=0.0)
    pools = []
    for student_seed in (111, 222):
        student = make_student(4, 3, 0, seed=student_seed, hidden=16,
                               feature_dim=8)
        _, _, pool = train_generator_session([teacher], 0, (0, 3), _envelope(),
                                             quick_gen_config(), weights, 21,
                                             student=student)
        pools.append(pool)
    assert np.array_equal(pools[0].samples, pools[1].samples)


@pytest.mark.parametrize("weights, cfg, session", [
    ({}, {"gen_lr": 1e300}, 0),
    ({"lambda4": 0.0}, {"student_lr": 1e300}, 2),
])
def test_a_non_finite_loss_stops_the_session_at_the_end_of_its_epoch(
        weights, cfg, session, monkeypatch, recwarn):
    """The generator's loss and, with the disagreement term off, the
    student's alone: each diverges at once and is caught at the first
    epoch's end, before the epoch banks a batch."""
    teacher = _toy_teacher()
    teacher.expand_head(1, 3, seed=3)
    teacher.expand_head(2, 3, seed=4)
    gen = dataclasses.replace(quick_gen_config(), **cfg)
    calls = []
    forward = ConditionalGenerator.forward

    def counted(self, *args, **kwargs):
        calls.append(args[0].shape[0])
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(ConditionalGenerator, "forward", counted)
    with pytest.raises(NonFiniteError, match=f"^non-finite generator loss at "
                                             f"epoch 0 of session {session}$"):
        train_generator_session([teacher], session, (3 * session, 3 * session + 3),
                                _envelope(), gen, LossWeights(**weights), 21)
    assert gen.bank_per_epoch not in calls


def test_pool_labels_and_samples_respect_contract():
    teacher = _toy_teacher()
    low, high = _envelope()
    cfg = quick_gen_config()
    _, _, pool = train_generator_session([teacher], 0, (0, 3), (low, high),
                                         cfg, LossWeights(), 5)
    assert len(pool) == cfg.epochs * cfg.bank_per_epoch
    assert pool.class_lo == 0 and pool.class_hi == 3
    assert pool.condition.min() >= 0 and pool.condition.max() < 3
    assert np.all(pool.samples >= low - 1e-9)
    assert np.all(pool.samples <= high + 1e-9)
    assert pool.pseudo is None


def test_banking_the_pool_builds_no_graph(monkeypatch):
    """No node made by an epoch's banking forward keeps parents or saved
    arrays: the banked batch is read as data, never differentiated."""
    cfg = quick_gen_config()
    assert cfg.bank_per_epoch != cfg.batch_size  # tells banking calls apart
    built, banking = [], []
    apply, forward = autodiff._apply, ConditionalGenerator.forward

    def recording(*args):
        node = apply(*args)
        if banking:
            built.append(node)
        return node

    def tagged(self, z, *args, **kwargs):
        if len(z) != cfg.bank_per_epoch:
            return forward(self, z, *args, **kwargs)
        banking.append(True)
        try:
            return forward(self, z, *args, **kwargs)
        finally:
            banking.pop()

    monkeypatch.setattr(autodiff, "_apply", recording)
    monkeypatch.setattr(ConditionalGenerator, "forward", tagged)
    train_generator_session([_toy_teacher()], 0, (0, 3), _envelope(), cfg,
                            LossWeights(), 5)
    assert built
    assert all(node._saved is None and node._parents == () for node in built)


def test_generator_session_needs_a_class():
    with pytest.raises(ContractError):
        train_generator_session([_toy_teacher()], 0, (3, 3), _envelope(),
                                quick_gen_config(), LossWeights(), 5)


# -- relabeling ----------------------------------------------------------------------

def test_relabel_agrees_on_separable_data(desk_base):
    train0 = desk_base.sched.train_by_session[0]
    pool = SyntheticPool(0, 0, 12, train0.x, train0.y)
    labeled = relabel(pool, desk_base.base.model)
    assert np.array_equal(labeled.pseudo, labeled.condition)


def test_relabel_constant_model_picks_first_class(rng):
    model = _bias_teacher([0.0, 0.0])
    pool = SyntheticPool(0, 0, 2, rng.standard_normal((7, 3)),
                         rng.integers(0, 2, size=7))
    labeled = relabel(pool, model)
    assert np.array_equal(labeled.pseudo, np.zeros(7, dtype=np.int64))


def test_relabel_is_idempotent_and_preserves_data(rng):
    model = _toy_teacher()
    pool = SyntheticPool(0, 0, 3, rng.standard_normal((9, 4)),
                         rng.integers(0, 3, size=9))
    once = relabel(pool, model)
    twice = relabel(once, model)
    assert np.array_equal(once.pseudo, twice.pseudo)
    assert once.samples is pool.samples
    assert np.array_equal(once.condition, pool.condition)


# -- replay buffer --------------------------------------------------------------------

def _labeled_pool(samples, pseudo, lo=0, hi=3, session=0) -> SyntheticPool:
    samples = np.asarray(samples, dtype=np.float64)
    pseudo = np.asarray(pseudo, dtype=np.int64)
    return SyntheticPool(session, lo, hi, samples, pseudo.copy(), pseudo)


def test_buffer_rejects_unlabeled_pool(rng):
    pool = SyntheticPool(0, 0, 3, np.zeros((2, 4)), np.zeros(2, dtype=np.int64))
    with pytest.raises(ContractError):
        ReplayBuffer(10).add_pool(pool, rng)


def test_buffer_capacity_drops_oldest(rng):
    buffer = ReplayBuffer(capacity_per_class=2)
    pool = _labeled_pool([[0.0], [1.0], [2.0]], [1, 1, 1])
    buffer.add_pool(pool, rng)
    kept = sorted(float(row[0][0]) for row in buffer.export_rows())
    assert kept == [1.0, 2.0]
    assert len(buffer) == 2


def test_buffer_arrays_share_no_memory_with_the_pool(rng):
    """The buffer copies what it keeps, so a stored row never holds its
    session's whole pool alive; this holds with and without trimming."""
    pool = _labeled_pool(rng.standard_normal((12, 3)), np.arange(12) % 3)
    for capacity in (2, 10):
        buffer = ReplayBuffer(capacity)
        buffer.add_pool(pool, rng)
        rows = buffer.export_rows()
        assert len(rows) == min(capacity, 4) * 3
        assert not any(np.shares_memory(row[0], pool.samples) for row in rows)


def test_buffer_rejects_a_bad_pool_before_storing_any_row(rng):
    buffer = ReplayBuffer(10)
    with pytest.raises(ContractError):
        buffer.add_pool(_labeled_pool([[0.0], [1.0]], [0, 5]), rng)
    assert len(buffer) == 0


def test_buffer_require_names_missing_class(rng):
    buffer = ReplayBuffer(10)
    buffer.add_pool(_labeled_pool([[0.0]], [0]), rng)
    buffer.require(range(0, 1))
    with pytest.raises(BufferGapError, match="class 1"):
        buffer.require(range(0, 6))


def test_buffer_sample_empty_raises(rng):
    with pytest.raises(EmptyBufferError):
        ReplayBuffer(10).sample(4, rng)


def test_buffer_sample_is_class_balanced(rng):
    buffer = ReplayBuffer(50)
    samples = np.arange(30, dtype=np.float64).reshape(30, 1)
    buffer.add_pool(_labeled_pool(samples, np.repeat([0, 1, 2], 10)), rng)
    _, y = buffer.sample(60, rng)
    counts = np.bincount(y, minlength=3)
    assert counts.tolist() == [20, 20, 20]


def test_buffer_sample_single_class(rng):
    buffer = ReplayBuffer(10)
    buffer.add_pool(_labeled_pool([[1.0], [2.0]], [2, 2]), rng)
    x, y = buffer.sample(7, rng)
    assert x.shape == (7, 1)
    assert np.all(y == 2)


def test_buffer_uneven_draws_stay_near_uniform():
    # 1000 single-sample draws across 5 classes: each class near 1/5
    # (deterministic; observed worst deviation 0.030, ~2.4 sigma)
    buffer = ReplayBuffer(10)
    buffer.add_pool(_labeled_pool(np.zeros((5, 2)), [0, 1, 2, 3, 4], hi=5),
                    np.random.default_rng(0))
    rng = np.random.default_rng(42)
    hits = np.zeros(5)
    for _ in range(1000):
        _, y = buffer.sample(1, rng)
        hits[y[0]] += 1
    assert float(np.abs(hits / 1000.0 - 0.2).max()) < 0.05


def test_label_noise_flips_stay_in_session_span():
    buffer = ReplayBuffer(500, label_noise=0.5)
    pool = _labeled_pool(np.zeros((300, 2)), np.full(300, 1), lo=0, hi=3)
    buffer.add_pool(pool, np.random.default_rng(7))
    counts = buffer.per_class_counts()
    assert set(counts) <= {0, 1, 2}
    assert len(counts) >= 2          # some flips landed
    assert counts[1] > max(counts.get(0, 0), counts.get(2, 0))


def test_label_noise_single_class_span_never_flips():
    buffer = ReplayBuffer(500, label_noise=0.9)
    pool = _labeled_pool(np.zeros((50, 2)), np.zeros(50, dtype=int), lo=0, hi=1)
    buffer.add_pool(pool, np.random.default_rng(7))
    assert buffer.per_class_counts() == {0: 50}


def test_buffer_constructor_validation():
    with pytest.raises(ContractError):
        ReplayBuffer(0)
    with pytest.raises(ContractError):
        ReplayBuffer(10, label_noise=1.0)
    with pytest.raises(ContractError):
        ReplayBuffer(10, label_noise=-0.1)


def test_buffer_rejects_out_of_range_pseudo(rng):
    buffer = ReplayBuffer(10)
    pool = _labeled_pool([[0.0]], [5], lo=0, hi=3)
    with pytest.raises(ContractError):
        buffer.add_pool(pool, rng)


# -- export ---------------------------------------------------------------------------

def test_synthetics_csv_round_trip(tmp_path, rng):
    pool = SyntheticPool(1, 3, 5, rng.standard_normal((4, 3)),
                         np.array([3, 4, 3, 4]), np.array([4, 4, 3, 3]))
    path = tmp_path / "synthetics.csv"
    export_synthetics_csv(path, [
        (pool.samples[i], pool.condition[i], pool.pseudo[i], pool.session)
        for i in range(len(pool))])
    with open(path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert len(parsed) == 4
    for i, row in enumerate(parsed):
        assert np.array_equal(np.array([float(v) for v in row[:3]]),
                              pool.samples[i])
        assert int(row[3]) == pool.condition[i]
        assert int(row[4]) == pool.pseudo[i]
        assert int(row[5]) == 1


# -- configuration and pool diagnostics -------------------------------------------------

def test_gen_config_validation():
    with pytest.raises(ContractError):
        GenLabConfig(epochs=0).validate()
    with pytest.raises(ContractError):
        GenLabConfig(batch_size=1).validate()
    with pytest.raises(ContractError):
        GenLabConfig(bank_per_epoch=1).validate()
    with pytest.raises(ContractError):
        GenLabConfig(noise_dim=0).validate()
    with pytest.raises(ContractError):
        GenLabConfig(buffer_capacity=0).validate()
    with pytest.raises(ContractError):
        GenLabConfig(gen_lr=0.0).validate()
    quick_gen_config().validate()


def test_teacher_confidence_hand_value(rng):
    teacher = _bias_teacher([2.0, 0.0])
    pool = SyntheticPool(0, 0, 2, rng.standard_normal((6, 3)),
                         np.zeros(6, dtype=np.int64))
    expected = 1.0 / (1.0 + np.exp(-2.0))
    assert abs(teacher_confidence([teacher], 0, pool) - expected) <= 1e-12

    mixed = SyntheticPool(0, 0, 2, pool.samples,
                          np.array([0, 1, 0, 1, 0, 1]))
    assert abs(teacher_confidence([teacher], 0, mixed) - 0.5) <= 1e-12


def test_teacher_pool_entropy_hand_value(rng):
    teacher = _bias_teacher([2.0, 0.0])
    pool = SyntheticPool(0, 0, 2, rng.standard_normal((5, 3)),
                         np.zeros(5, dtype=np.int64))
    p = 1.0 / (1.0 + np.exp(-2.0))
    expected = -(p * np.log(p) + (1 - p) * np.log(1 - p)) / 2.0
    assert abs(teacher_pool_entropy([teacher], 0, pool) - expected) <= 1e-9
