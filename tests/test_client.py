"""Local client updates: configuration, rate groups, replay wiring."""
import numpy as np
import pytest

from conftest import desk_config
from fedscil import (Classifier, LossWeights, cross_entropy,
                     local_update_baseline_kd, local_update_nagr,
                     replay_loss_subset, student_loss)
from fedscil.autodiff import col_slice, grad, row_slice
from fedscil.config import ClientConfig
from fedscil.errors import ContractError
from fedscil.generation import ReplayBuffer, SyntheticPool
from fedscil.losses import distillation_loss_subset
from fedscil.orchestrator import evaluate


def _fast_cfg(**kw) -> ClientConfig:
    base = dict(epochs=2, batch_size_new=4, batch_size_replay=4,
                lr_backbone_and_old=0.01, lr_new_head=0.1)
    base.update(kw)
    return ClientConfig(**base)


def _expanded_model(seed: int = 0) -> Classifier:
    model = Classifier(in_dim=4, base_classes=4, seed=seed, hidden=16,
                       feature_dim=8)
    model.expand_head(1, 2, seed=seed + 1)
    return model


def _shard(rng, n: int = 8):
    return rng.standard_normal((n, 4)), rng.integers(4, 6, size=n)


def _params(model: Classifier) -> dict[str, np.ndarray]:
    return {p.name: p.value.data.copy() for p in model.parameters()}


def test_client_config_validation():
    with pytest.raises(ContractError):
        _fast_cfg(epochs=0).validate()
    with pytest.raises(ContractError):
        _fast_cfg(batch_size_new=0).validate()
    with pytest.raises(ContractError):
        _fast_cfg(batch_size_replay=0).validate()
    with pytest.raises(ContractError):
        _fast_cfg(lr_backbone_and_old=0.2, lr_new_head=0.1).validate()
    with pytest.raises(ContractError):
        _fast_cfg(lr_backbone_and_old=-0.01).validate()
    with pytest.raises(ContractError):
        _fast_cfg(replay_loss="full").validate()
    _fast_cfg().validate()


def test_zero_backbone_rate_freezes_old_groups(rng):
    model = _expanded_model()
    before = _params(model)
    x, y = _shard(rng)
    trained, n = local_update_nagr(model, x, y, None, LossWeights(k=0.0),
                                   _fast_cfg(lr_backbone_and_old=0.0), 4, seed=3)
    assert n == 8
    moved = set()
    for p in trained.parameters():
        same = p.value.data.tobytes() == before[p.name].tobytes()
        if p.group in ("backbone", "head_old"):
            assert same, f"{p.name} moved despite zero rate"
        elif not same:
            moved.add(p.group)
    assert moved == {"head_new"}


def test_input_model_is_never_mutated(rng):
    model = _expanded_model()
    before = {name: arr.copy() for name, arr, _ in model.state_entries()}
    x, y = _shard(rng)
    trained, _ = local_update_nagr(model, x, y, None, LossWeights(k=0.0),
                                   _fast_cfg(), 4, seed=3)
    assert trained is not model
    for name, arr, _ in model.state_entries():
        assert np.array_equal(arr, before[name]), name


def test_empty_shard_returns_unchanged_clone(rng):
    model = _expanded_model()
    trained, n = local_update_nagr(model, np.empty((0, 4)),
                                   np.empty(0, dtype=np.int64), None,
                                   LossWeights(k=0.0), _fast_cfg(), 4, seed=3)
    assert n == 0
    assert trained is not model
    assert _params(trained).keys() == _params(model).keys()
    for p, q in zip(model.parameters(), trained.parameters()):
        assert np.array_equal(p.value.data, q.value.data)


def test_singleton_shard_trains_without_degenerate_batch(rng):
    model = _expanded_model()
    x, y = _shard(rng, n=1)
    trained, n = local_update_nagr(model, x, y, None, LossWeights(k=0.0),
                                   _fast_cfg(), 4, seed=3)
    assert n == 1
    assert any(not np.array_equal(p.value.data, q.value.data)
               for p, q in zip(model.parameters(), trained.parameters()))


def test_trailing_singleton_batch_is_merged(rng):
    # 9 samples at batch size 4 leave a 1-sample tail; it must fold into the
    # previous batch instead of reaching train-mode batch norm alone
    model = _expanded_model()
    x, y = _shard(rng, n=9)
    trained, n = local_update_nagr(model, x, y, None, LossWeights(k=0.0),
                                   _fast_cfg(batch_size_new=4), 4, seed=3)
    assert n == 9


def test_same_seed_is_bit_identical(rng):
    model = _expanded_model()
    x, y = _shard(rng)
    a, _ = local_update_nagr(model, x, y, None, LossWeights(k=0.0),
                             _fast_cfg(), 4, seed=11)
    b, _ = local_update_nagr(model, x, y, None, LossWeights(k=0.0),
                             _fast_cfg(), 4, seed=11)
    c, _ = local_update_nagr(model, x, y, None, LossWeights(k=0.0),
                             _fast_cfg(), 4, seed=12)
    pa, pb, pc = _params(a), _params(b), _params(c)
    assert all(np.array_equal(pa[k], pb[k]) for k in pa)
    assert any(not np.array_equal(pa[k], pc[k]) for k in pa)


def test_k_zero_nagr_equals_baseline_kd(rng):
    # without replay both trainers reduce to plain CE on the session batch
    model = _expanded_model()
    prev = Classifier(in_dim=4, base_classes=4, seed=9, hidden=16,
                      feature_dim=8)
    x, y = _shard(rng)
    a, _ = local_update_nagr(model, x, y, None, LossWeights(k=0.0),
                             _fast_cfg(), 4, seed=5)
    b, _ = local_update_baseline_kd(model, prev, x, y, None,
                                    LossWeights(k=0.0), _fast_cfg(), 4, seed=5)
    pa, pb = _params(a), _params(b)
    assert all(np.array_equal(pa[k], pb[k]) for k in pa)


def test_baseline_kd_checks_previous_model_width(rng):
    model = _expanded_model()
    prev = Classifier(in_dim=4, base_classes=3, seed=9)
    x, y = _shard(rng)
    with pytest.raises(ContractError):
        local_update_baseline_kd(model, prev, x, y, None, LossWeights(k=0.0),
                                 _fast_cfg(), 4, seed=5)


@pytest.mark.parametrize("replay_loss", ["subset", "sliced"])
def test_baseline_kd_teacher_builds_no_graph_and_is_left_as_it_was(rng,
                                                                   replay_loss):
    model = _expanded_model()
    prev = Classifier(in_dim=4, base_classes=4, seed=9, hidden=16,
                      feature_dim=8)
    prev.parameters()[0].value.requires_grad = False
    flags = [p.value.requires_grad for p in prev.parameters()]
    values = _params(prev)
    buffer = _old_class_buffer(rng)
    outputs = []

    def spy(*args, **kwargs):
        out = Classifier.forward(prev, *args, **kwargs)
        outputs.append(out)
        return out

    prev.forward = spy
    x, y = _shard(rng)
    trained, _ = local_update_baseline_kd(
        model, prev, x, y, buffer, LossWeights(k=1.0),
        _fast_cfg(replay_loss=replay_loss), 4, seed=5)
    assert outputs and not any(out.requires_grad for out in outputs)
    assert [p.value.requires_grad for p in prev.parameters()] == flags
    after = _params(prev)
    assert all(np.array_equal(values[k], after[k]) for k in values)
    assert all(p.value.requires_grad for p in trained.parameters())


def _old_class_buffer(rng) -> ReplayBuffer:
    labels = np.tile(np.arange(4), 4)
    buffer = ReplayBuffer(10)
    buffer.add_pool(SyntheticPool(0, 0, 4, rng.standard_normal((16, 4)),
                                  labels, labels), rng)
    return buffer


def _one_step(model, x, y, buffer, cfg, weights, seed, replay_term):
    """The parameters after one local step (one epoch, one batch) computed by
    hand: the same draws, the forward pass over the union batch, the replay
    rows cut to the old-class columns in sliced mode, CE plus k times
    ``replay_term(replay_logits, replay_labels, replay_x)``, and a first
    momentum step, whose velocity is the gradient."""
    rng = np.random.default_rng(seed)
    batch = rng.permutation(y.shape[0])
    xb, yb = x[batch], y[batch]
    xr, yr = buffer.sample(cfg.batch_size_replay, rng)
    ref = model.clone()
    joint = ref.forward(np.concatenate([xb, xr]), mode="train")
    replay = row_slice(joint, xb.shape[0], joint.shape[0])
    if cfg.replay_loss == "sliced":
        replay = col_slice(replay, 0, 4)
    loss = (cross_entropy(row_slice(joint, 0, xb.shape[0]), yb)
            + weights.k * replay_term(replay, yr, xr))
    grads = grad(loss, ref.parameters())
    rates = {"backbone": cfg.lr_backbone_and_old,
             "head_old": cfg.lr_backbone_and_old, "head_new": cfg.lr_new_head}
    return {p.name: p.value.data - rates[p.group] * grads[p.name]
            for p in ref.parameters()}


@pytest.mark.parametrize("replay_loss", ["subset", "sliced"])
def test_replay_step_is_the_subset_objective_on_the_cut_logits(rng, replay_loss):
    """Sliced mode is replay_loss_subset on the old-class columns, value and
    gradient bit for bit."""
    model, buffer = _expanded_model(), _old_class_buffer(rng)
    x, y = _shard(rng)
    weights = LossWeights(alpha=0.7, beta=1.3, k=1.5)
    cfg = _fast_cfg(epochs=1, batch_size_new=8, replay_loss=replay_loss)
    trained, _ = local_update_nagr(model, x, y, buffer, weights, cfg, 4, seed=5)
    expected = _one_step(model, x, y, buffer, cfg, weights, 5,
                         lambda logits, yr, _xr: replay_loss_subset(
                             logits, yr, 4, 0.7, 1.3, weights.rce_log_zero))
    after = _params(trained)
    assert all(np.array_equal(after[k], expected[k]) for k in expected)


@pytest.mark.parametrize("replay_loss", ["subset", "sliced"])
def test_distillation_step_matches_the_kl_on_the_cut_logits(rng, replay_loss):
    """Sliced mode is student_loss on the old-class columns bit for bit,
    subset mode distillation_loss_subset on the full head."""
    model, buffer = _expanded_model(), _old_class_buffer(rng)
    prev = Classifier(in_dim=4, base_classes=4, seed=9, hidden=16,
                      feature_dim=8)
    x, y = _shard(rng)
    weights = LossWeights(k=1.5, kl_temperature=1.7)
    cfg = _fast_cfg(epochs=1, batch_size_new=8, replay_loss=replay_loss)
    trained, _ = local_update_baseline_kd(model, prev, x, y, buffer, weights,
                                          cfg, 4, seed=5)

    def kd(logits, _yr, xr):
        teacher = prev.forward(xr, mode="eval").detach()
        if replay_loss == "sliced":
            return student_loss(teacher, logits, 1.7)
        return distillation_loss_subset(teacher, logits, 4, 1.7)

    expected = _one_step(model, x, y, buffer, cfg, weights, 5, kd)
    after = _params(trained)
    assert all(np.array_equal(after[k], expected[k]) for k in expected)


def test_unknown_replay_loss_is_rejected_before_training(rng):
    model, buffer = _expanded_model(), _old_class_buffer(rng)
    prev = Classifier(in_dim=4, base_classes=4, seed=9, hidden=16,
                      feature_dim=8)
    x, y = _shard(rng)
    cfg = _fast_cfg(replay_loss="full")
    with pytest.raises(ContractError, match="client.replay_loss must be one of subset, sliced"):
        local_update_nagr(model, x, y, buffer, LossWeights(k=1.0), cfg, 4, seed=5)
    with pytest.raises(ContractError, match="client.replay_loss must be one of subset, sliced"):
        local_update_baseline_kd(model, prev, x, y, buffer, LossWeights(k=1.0),
                                 cfg, 4, seed=5)


def test_replay_without_buffer_is_rejected(rng):
    model = _expanded_model()
    x, y = _shard(rng)
    with pytest.raises(ContractError):
        local_update_nagr(model, x, y, None, LossWeights(k=1.0),
                          _fast_cfg(), 4, seed=5)
    with pytest.raises(ContractError):
        local_update_nagr(model, x, y, ReplayBuffer(10, 0.0),
                          LossWeights(k=1.0), _fast_cfg(), 4, seed=5)


def test_new_classes_are_learned_from_few_shots():
    # separable blobs, frozen backbone: the new head alone must fit the shard
    from fedscil.orchestrator import prepare_schedule, run_base_session
    cfg = desk_config("data.classes=6", "data.dim=4", "data.per_class_train=12",
                      "data.per_class_test=8", "data.spread=0.05",
                      "data.base_classes=4", "data.sessions=1",
                      "base.epochs=10", "client.epochs=20",
                      "client.lr_new_head=0.1", "client.lr_backbone_and_old=0.0",
                      method="finetune")
    sched = prepare_schedule(cfg)
    base = run_base_session(cfg, sched)
    model = base.model.clone()
    model.expand_head(1, 2, seed=5)
    shard = sched.train_by_session[1]
    trained, n = local_update_nagr(model, shard.x, shard.y, None,
                                   LossWeights(k=0.0), cfg.client, 4, seed=77)
    assert n == len(shard)
    preds = trained.forward(shard.x, mode="eval").data.argmax(axis=1)
    assert float((preds == shard.y).mean()) == 1.0


def test_replay_protects_old_classes(desk_base):
    # paired A/B on the desk base model: same shard, same seeds, replay on/off
    def old_acc(k: float, seed: int) -> float:
        model = desk_base.base.model.clone()
        model.expand_head(1, 2, seed=123)
        shard = desk_base.sched.train_by_session[1]
        weights = LossWeights(alpha=desk_base.cfg.weights.alpha,
                              beta=desk_base.cfg.weights.beta, k=k)
        trained, _ = local_update_nagr(model, shard.x, shard.y,
                                       desk_base.base.buffer, weights,
                                       desk_base.cfg.client, 12, seed)
        return evaluate(trained, desk_base.sched.eval_by_session[1], 12)[1]

    margins = [old_acc(1.0, s) - old_acc(0.0, s) for s in range(1000, 1005)]
    assert all(m > 0 for m in margins)
    assert float(np.mean(margins)) >= 0.5
