"""End-to-end session loop: composition, degeneracies, and metrics plumbing."""
import copy
import dataclasses
import json

import numpy as np
import pytest

from conftest import desk_config
from fedscil import (Classifier, ReplayBuffer, aggregation, orchestrator,
                     run_experiment)
from fedscil.cli import main
from fedscil.config import METHODS
from fedscil.data import LabeledDataset
from fedscil.errors import BufferGapError, ConfigError, NonFiniteError
from fedscil.orchestrator import (evaluate, inspect_partitions, prepare_data,
                                  prepare_partitions, prepare_schedule,
                                  run_base_session, run_incremental_session)

LIGHT = ("data.classes=6", "data.dim=4", "data.base_classes=4",
         "data.sessions=1", "data.way=2", "data.shot=4",
         "data.per_class_train=12", "data.per_class_test=8", "data.spread=0.1",
         "base.epochs=8", "client.epochs=3",
         "generator.epochs=4", "generator.rounds_per_epoch=4",
         "generator.batch_size=16", "generator.bank_per_epoch=24",
         "generator.noise_dim=6", "generator.buffer_capacity=60")


def light_config(*sets, method="sdd", seed=0):
    return desk_config(*LIGHT, *sets, method=method, seed=seed)


# -- degenerate schedules ------------------------------------------------------------

def test_zero_sessions_run_is_just_the_base():
    cfg = light_config("data.sessions=0", method="finetune")
    result = run_experiment(cfg)
    assert len(result.sessions) == 1
    assert result.final_accuracy == result.sessions[0].overall
    assert result.average_accuracy == result.sessions[0].overall
    assert len(result.run_id) == 12
    assert len(result.buffer) == 0


def test_light_replay_run_reaches_high_accuracy():
    cfg = light_config()
    result = run_experiment(cfg)
    assert [m.session for m in result.sessions] == [0, 1]
    assert result.sessions[0].overall >= 0.9
    assert result.sessions[1].old >= 0.9     # replay held the base classes
    assert result.sessions[1].overall >= 0.7
    rows = result.buffer.export_rows()
    assert rows
    sample, condition, pseudo, session = rows[0]
    assert sample.shape == (4,)
    assert {session for *_, session in rows} == {0, 1}


# -- single-client degeneracy ----------------------------------------------------------

def test_single_client_collapses_cswa_to_plain_averaging(desk_base):
    """With one client both aggregation rules copy that client's tensors, so
    sdd and its averaging-only ablation must produce identical sessions."""
    results = {}
    for method in ("sdd", "sdd_nagr_only"):
        cfg = dataclasses.replace(desk_base.cfg, clients=1, method=method)
        parts = prepare_partitions(cfg, desk_base.sched)
        buffer = copy.deepcopy(desk_base.base.buffer)
        results[method] = run_incremental_session(
            cfg, desk_base.sched, 1, desk_base.base.model, buffer, parts[1])
    a, b = results["sdd"], results["sdd_nagr_only"]
    for (name, arr_a, _), (_, arr_b, _) in zip(a.model.state_entries(),
                                               b.model.state_entries()):
        assert np.array_equal(arr_a, arr_b), name
    assert a.metrics.overall == b.metrics.overall

    # audit payloads reflect the aggregation rule actually used
    audit = a.metrics.audit
    assert audit["client_counts"] == [10]
    assert np.asarray(audit["accuracy_matrix"]).shape == (1, 2)
    assert np.asarray(audit["column_weights"]).shape == (1, 2)
    assert b.metrics.audit["accuracy_matrix"] is None
    assert b.metrics.audit["column_weights"] is None
    assert a.metrics.classes_seen == 14


@pytest.mark.parametrize("method", list(METHODS))
def test_a_round_calls_only_its_rules_functions(method, monkeypatch):
    """Each client update goes through its local rule's trainer, the
    generator runs once per round exactly when there is a local rule, and
    one ``fedavg_full`` call aggregates each round under either head rule:
    with ``cswa_weights`` (once per round) as its column weights under the
    accuracy rule, with none under the count rule."""
    cfg = light_config("clients=2", "rounds=2", method=method)
    sched = prepare_schedule(cfg)
    base = run_base_session(cfg, sched)
    calls = {name: [] for name in ("local_update_nagr", "local_update_baseline_kd",
                                   "train_generator_session", "fedavg_full",
                                   "cswa_weights")}

    def spy(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name].append(args)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for name in calls:
        spy(orchestrator, name)
    spy(aggregation, "cswa_weights")
    run_incremental_session(cfg, sched, 1, base.model, base.buffer,
                            prepare_partitions(cfg, sched)[1])

    local_rule, head_rule = METHODS[method]
    updates = cfg.clients * cfg.rounds
    assert {name: len(args) for name, args in calls.items()} == {
        "local_update_nagr": 0 if local_rule == "distill" else updates,
        "local_update_baseline_kd": updates if local_rule == "distill" else 0,
        "train_generator_session": cfg.rounds if local_rule else 0,
        "fedavg_full": cfg.rounds,
        "cswa_weights": cfg.rounds if head_rule == "cswa" else 0}
    column_weights = [args[2] for args in calls["fedavg_full"]]
    if head_rule == "cswa":
        assert all(w.shape == (cfg.clients, 2) for w in column_weights)
    else:
        assert column_weights == [None] * cfg.rounds
    if local_rule is None:  # the replay call with no replay term
        assert all(args[4].k == 0.0 for args in calls["local_update_nagr"])


def test_incremental_session_banks_the_new_classes(desk_base):
    cfg = dataclasses.replace(desk_base.cfg, clients=1)
    parts = prepare_partitions(cfg, desk_base.sched)
    buffer = copy.deepcopy(desk_base.base.buffer)
    run_incremental_session(cfg, desk_base.sched, 1, desk_base.base.model,
                            buffer, parts[1])
    assert buffer.classes() == list(range(14))


# -- determinism ------------------------------------------------------------------------

def test_run_experiment_is_deterministic():
    cfg = light_config("data.sessions=2", "data.classes=8", method="finetune")
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.run_id == b.run_id
    assert [m.overall for m in a.sessions] == [m.overall for m in b.sessions]
    assert [m.per_class for m in a.sessions] == [m.per_class for m in b.sessions]


@pytest.mark.parametrize("method", ["sdd", "finetune"])
def test_session_state_is_all_that_passes_between_sessions(method):
    """Sessions driven one by one, each from deep copies of the previous
    state's model and buffer, reproduce run_experiment bit for bit."""
    cfg = light_config("data.sessions=2", "data.classes=8", method=method)
    whole = []
    run_experiment(cfg, whole.append)

    sched = prepare_schedule(cfg)
    parts = prepare_partitions(cfg, sched)
    states = [run_base_session(cfg, sched)]
    for t in (1, 2):
        prev = states[-1]
        states.append(run_incremental_session(
            cfg, sched, t, copy.deepcopy(prev.model), copy.deepcopy(prev.buffer),
            parts[t]))
    assert [dataclasses.asdict(s.metrics) for s in states] == \
        [dataclasses.asdict(s.metrics) for s in whole]
    assert all(s.seconds > 0 for s in states)
    for (name, mine, _), (_, theirs, _) in zip(states[-1].model.state_entries(),
                                               whole[-1].model.state_entries(),
                                               strict=True):
        assert np.array_equal(mine, theirs), name
    mine, theirs = states[-1].buffer.export_rows(), whole[-1].buffer.export_rows()
    assert len(mine) == len(theirs)
    for (sample, *rest), (other, *expected) in zip(mine, theirs):
        assert np.array_equal(sample, other) and rest == expected


def test_prepare_data_is_deterministic():
    cfg = light_config()
    one, two = prepare_data(cfg), prepare_data(cfg)
    assert np.array_equal(one.train.x, two.train.x)
    assert np.array_equal(one.test.y, two.test.y)


# -- desk base session --------------------------------------------------------------------

def test_desk_base_session_learns_the_base_classes(desk_base):
    metrics = desk_base.base.metrics
    assert metrics.session == 0
    assert metrics.classes_seen == 12
    assert metrics.overall >= 0.95
    assert metrics.old is None
    assert metrics.new == metrics.overall
    assert len(metrics.per_class) == 12
    assert metrics.audit is None


def test_desk_base_buffer_covers_every_base_class(desk_base):
    assert desk_base.base.buffer.classes() == list(range(12))
    counts = desk_base.base.buffer.per_class_counts()
    assert all(n > 0 for n in counts.values())


# -- catastrophic forgetting without replay --------------------------------------------------

def test_finetune_collapses_on_old_classes():
    result = run_experiment(desk_config(method="finetune"))
    base = result.sessions[0].overall
    for metrics in result.sessions[1:]:
        assert metrics.overall < 0.5 * base
    assert result.sessions[-1].old < 0.5 * base
    audit = result.sessions[1].audit
    assert len(audit["client_counts"]) == 3
    assert audit["accuracy_matrix"] is None


# -- evaluation ---------------------------------------------------------------------------------

def test_evaluate_hand_check(rng):
    model = Classifier(in_dim=3, base_classes=2, seed=0, hidden=8,
                       feature_dim=4)
    head = model.heads[0]
    head.weight.value.data[:] = 0.0
    head.bias.value.data[:] = [1.0, 0.0]   # constant class-0 predictor
    ds = LabeledDataset(rng.standard_normal((6, 3)),
                        np.array([0, 0, 0, 1, 1, 0]), 2)
    overall, old, new, per_class = evaluate(model, ds, 1)
    assert abs(overall - 4.0 / 6.0) <= 1e-12
    assert old == 1.0
    assert new == 0.0
    assert per_class == [1.0, 0.0]


def test_evaluate_without_old_classes_mirrors_overall(rng):
    model = Classifier(in_dim=3, base_classes=2, seed=0)
    ds = LabeledDataset(rng.standard_normal((4, 3)), np.array([0, 1, 0, 1]), 2)
    overall, old, new, _ = evaluate(model, ds, 0)
    assert old is None
    assert new == overall


# -- partition inspection --------------------------------------------------------------------------

def test_inspect_partitions_is_json_ready():
    cfg = light_config("clients=2")
    view = inspect_partitions(cfg)
    json.dumps(view)
    assert view["clients"] == 2
    assert view["alpha"] == 1.0
    assert len(view["sessions"]) == 2
    base_entry, inc_entry = view["sessions"]
    assert "partition" not in base_entry
    assert base_entry["classes"] == [0, 1, 2, 3]
    part = inc_entry["partition"]
    assert part["total_samples"] == inc_entry["train_samples"] == 8
    assert sum(c["samples"] for c in part["clients"]) == 8
    per_class_total = sum(sum(c["per_class"].values()) for c in part["clients"])
    assert per_class_total == 8


# -- failure paths -----------------------------------------------------------------------------------

def test_csv_train_without_test_is_rejected():
    with pytest.raises(ConfigError, match="set together"):
        light_config("data.csv_train=somewhere.csv")


def test_replay_session_requires_a_seeded_buffer(desk_base):
    cfg = dataclasses.replace(desk_base.cfg, clients=1)
    parts = prepare_partitions(cfg, desk_base.sched)
    with pytest.raises(BufferGapError, match="^replay buffer has no samples "
                                             "for class 0 before session 1$"):
        run_incremental_session(cfg, desk_base.sched, 1, desk_base.base.model,
                                ReplayBuffer(10), parts[1])


@pytest.mark.parametrize("k", [0.0, 0.5])
def test_only_a_replay_weight_requires_buffer_coverage(desk_base, k):
    """The buffer check runs exactly when a client step reads the buffer."""
    cfg = dataclasses.replace(desk_base.cfg, clients=1, method="baseline_kd",
                              weights=dataclasses.replace(desk_base.cfg.weights, k=k))
    parts = prepare_partitions(cfg, desk_base.sched)
    if k > 0:
        with pytest.raises(BufferGapError, match="^replay buffer has no samples "
                                                 "for class 0 before session 1$"):
            run_incremental_session(cfg, desk_base.sched, 1, desk_base.base.model,
                                    ReplayBuffer(10), parts[1])
    else:
        state = run_incremental_session(cfg, desk_base.sched, 1,
                                        desk_base.base.model, ReplayBuffer(10),
                                        parts[1])
        assert state.metrics.classes_seen == 14


def test_distillation_without_a_replay_weight_runs_like_finetune(tmp_path):
    """Desk ``baseline_kd`` at ``weights.k=0`` never draws from the buffer,
    so a class missing from it is no error, and every session's accuracies
    are those of ``finetune``: its clients train on the session shots alone
    and the count rule aggregates both."""
    out = tmp_path / "k0"
    rc = main(["run", "--preset", "desk", "--method", "baseline_kd",
               "--set", "weights.k=0", "--out", str(out), "--quiet"])
    assert rc == 0
    records = [json.loads(line)
               for line in (out / "metrics.jsonl").read_text().splitlines()]
    finetune = run_experiment(desk_config(method="finetune"))
    fields = ("overall", "old", "new", "per_class")
    assert ([{f: r[f] for f in fields} for r in records]
            == [{f: getattr(m, f) for f in fields} for m in finetune.sessions])


def test_non_finite_base_training_stops_the_run_before_session_0(recwarn):
    sessions = []
    with pytest.raises(NonFiniteError, match="^non-finite model state after "
                                             "session 0, base training$"):
        run_experiment(light_config("base.lr=1e300", method="finetune"),
                       lambda state: sessions.append(state.metrics.session))
    assert sessions == []


def test_non_finite_client_update_stops_the_run_before_its_session(recwarn):
    cfg = light_config("client.lr_new_head=1e300",
                       "client.lr_backbone_and_old=1e300", method="finetune")
    sessions = []
    with pytest.raises(NonFiniteError) as exc:
        run_experiment(cfg,
                       lambda state: sessions.append(state.metrics.session))
    assert str(exc.value) == ("non-finite model state after session 1, round 0, "
                              "local update of client 0")
    assert sessions == [0]


def test_non_finite_generator_stops_the_run_before_its_session(recwarn):
    """A generator that diverges is caught by its loss at the end of its
    first epoch, before that epoch banks a batch."""
    sessions = []
    with pytest.raises(NonFiniteError, match="^non-finite generator loss at "
                                             "epoch 0 of session 0$"):
        run_experiment(light_config("generator.gen_lr=1e300"),
                       lambda state: sessions.append(state.metrics.session))
    assert sessions == []


def test_a_diverging_incremental_generator_names_its_round(monkeypatch, recwarn):
    train = orchestrator.train_generator_session

    def diverging(teachers, session, class_range, envelope, cfg, *args, **kwargs):
        if session == 1:
            cfg = dataclasses.replace(cfg, gen_lr=1e300)
        return train(teachers, session, class_range, envelope, cfg, *args, **kwargs)

    monkeypatch.setattr(orchestrator, "train_generator_session", diverging)
    sessions = []
    with pytest.raises(NonFiniteError, match="^non-finite generator loss at "
                                             "epoch 0 of session 1, round 0$"):
        run_experiment(light_config(),
                       lambda state: sessions.append(state.metrics.session))
    assert sessions == [0]


def test_non_finite_base_pool_names_the_generator(monkeypatch):
    """A pool is checked before it is relabeled (NaN rows would all go to
    column 0) or buffered."""
    train = orchestrator.train_generator_session

    def poisoned(teachers, session, *args, **kwargs):
        generator, student, pool = train(teachers, session, *args, **kwargs)
        pool.samples[0, -1] = np.nan
        return generator, student, pool

    monkeypatch.setattr(orchestrator, "train_generator_session", poisoned)
    with pytest.raises(NonFiniteError, match="^non-finite synthetic pool after "
                                             "session 0, generator$"):
        run_experiment(light_config())


def test_non_finite_incremental_pool_names_the_session_and_round(monkeypatch):
    train = orchestrator.train_generator_session

    def poisoned(teachers, session, *args, **kwargs):
        generator, student, pool = train(teachers, session, *args, **kwargs)
        if session == 1:
            pool.samples[-1, 0] = np.inf
        return generator, student, pool

    monkeypatch.setattr(orchestrator, "train_generator_session", poisoned)
    with pytest.raises(NonFiniteError, match="^non-finite synthetic pool after "
                                             "session 1, round 0, generator$"):
        run_experiment(light_config())


def test_non_finite_global_state_names_the_aggregation(monkeypatch):
    """The one aggregation call serves both head rules."""
    fedavg_full = orchestrator.fedavg_full

    def poisoned(models, counts, column_weights):
        model = fedavg_full(models, counts, column_weights)
        model.heads[1].bias.value.data[0] = np.nan
        return model

    monkeypatch.setattr(orchestrator, "fedavg_full", poisoned)
    for method in ("finetune", "sdd"):
        with pytest.raises(NonFiniteError, match="^non-finite model state after "
                                                 "session 1, round 0, aggregation$"):
            run_experiment(light_config(method=method))
