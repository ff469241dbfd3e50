"""Synthetic data, the session schedule, and the Dirichlet partitioner."""
import numpy as np
import pytest

from fedscil import (ConfigError, LabeledDataset, build_schedule,
                     dirichlet_partition, load_csv_dataset, make_blobs,
                     partition_summary)
from fedscil.data import DatasetSplits
from fedscil.errors import ContractError

from conftest import tiny_splits


# -- blobs -----------------------------------------------------------------------

def test_blobs_zero_spread_collapses_to_centers():
    splits = make_blobs(classes=2, dim=3, per_class_train=5, per_class_test=4,
                        spread=0.0, seed=11)
    for ds in (splits.train, splits.test):
        for c in range(2):
            pts = ds.x[ds.y == c]
            assert np.array_equal(pts, np.tile(pts[0], (len(pts), 1)))
    # the two class centers differ
    assert not np.array_equal(splits.train.x[splits.train.y == 0][0],
                              splits.train.x[splits.train.y == 1][0])


def test_blobs_same_seed_bit_identical():
    a = make_blobs(5, 4, 7, 3, 0.3, seed=42)
    b = make_blobs(5, 4, 7, 3, 0.3, seed=42)
    assert np.array_equal(a.train.x, b.train.x)
    assert np.array_equal(a.test.x, b.test.x)
    assert np.array_equal(a.train.y, b.train.y)
    c = make_blobs(5, 4, 7, 3, 0.3, seed=43)
    assert not np.array_equal(a.train.x, c.train.x)


def test_blobs_shapes_and_label_ranges():
    splits = make_blobs(4, 6, 9, 2, 0.2, seed=0)
    assert splits.train.x.shape == (36, 6)
    assert splits.test.x.shape == (8, 6)
    assert sorted(np.unique(splits.train.y)) == [0, 1, 2, 3]
    assert np.all(np.bincount(splits.train.y) == 9)


def test_blobs_argument_validation():
    with pytest.raises(ConfigError):
        make_blobs(0, 4, 5, 5, 0.1, seed=0)
    with pytest.raises(ConfigError):
        make_blobs(3, 4, 5, 5, -0.1, seed=0)


def test_labeled_dataset_validation():
    with pytest.raises(ContractError):
        LabeledDataset(np.ones((3, 2)), np.array([0, 1]), 2)
    with pytest.raises(ContractError):
        LabeledDataset(np.ones((2, 2)), np.array([0, 5]), 2)


# -- schedule ---------------------------------------------------------------------

def test_schedule_zero_sessions_degenerates_to_one_task():
    sched = build_schedule(tiny_splits(), base_classes=6, sessions=0,
                           way=0, shot=0, seed=1)
    assert len(sched.train_by_session) == 1
    assert sched.classes_through(0) == 6
    assert sched.session_range(0) == (0, 6)
    assert len(sched.eval_by_session[0]) == 6 * 8


def test_schedule_desk_shape_counts():
    splits = make_blobs(20, 16, 30, 20, 0.35, seed=3)
    sched = build_schedule(splits, base_classes=12, sessions=4, way=2,
                           shot=5, seed=7)
    assert len(sched.train_by_session[0]) == 12 * 30
    for t in range(1, 5):
        assert len(sched.train_by_session[t]) == 10  # 2-way 5-shot
        assert sched.session_range(t) == (12 + 2 * (t - 1), 12 + 2 * t)
        # session-t eval set covers every class seen so far
        assert len(sched.eval_by_session[t]) == (12 + 2 * t) * 20
        assert set(np.unique(sched.eval_by_session[t].y)) == set(range(12 + 2 * t))


def test_schedule_rejects_a_test_split_without_a_seen_class():
    splits = tiny_splits()
    order = build_schedule(splits, 4, 1, 2, 5, seed=3).class_order
    late = np.flatnonzero(splits.test.y == order[-1])  # remapped to class 5
    only_late = DatasetSplits(splits.train, splits.test.subset(late))
    with pytest.raises(ConfigError, match="^session 0: the test split holds "
                                          "no sample of the 4 classes"):
        build_schedule(only_late, 4, 1, 2, 5, seed=3)


def test_schedule_remaps_labels_to_column_order():
    sched = build_schedule(tiny_splits(), base_classes=4, sessions=1,
                           way=2, shot=5, seed=3)
    assert set(np.unique(sched.train_by_session[0].y)) == set(range(4))
    assert set(np.unique(sched.train_by_session[1].y)) == {4, 5}
    assert sorted(sched.class_order.tolist()) == list(range(6))


def test_schedule_shot_selection_is_deterministic():
    a = build_schedule(tiny_splits(), 4, 1, 2, 5, seed=3)
    b = build_schedule(tiny_splits(), 4, 1, 2, 5, seed=3)
    assert np.array_equal(a.train_by_session[1].x, b.train_by_session[1].x)
    assert np.array_equal(a.class_order, b.class_order)


def test_schedule_envelope_covers_training_range():
    splits = tiny_splits()
    sched = build_schedule(splits, 4, 1, 2, 5, seed=3)
    assert np.array_equal(sched.envelope_low, splits.train.x.min(axis=0))
    assert np.array_equal(sched.envelope_high, splits.train.x.max(axis=0))


def test_schedule_validation():
    splits = tiny_splits()  # 6 classes, 12 train samples per class
    with pytest.raises(ConfigError):
        build_schedule(splits, base_classes=4, sessions=2, way=2, shot=5, seed=0)
    with pytest.raises(ConfigError):
        build_schedule(splits, base_classes=4, sessions=1, way=2, shot=13, seed=0)
    with pytest.raises(ConfigError):
        build_schedule(splits, base_classes=0, sessions=0, way=0, shot=0, seed=0)
    sched = build_schedule(splits, 4, 1, 2, 5, seed=0)
    with pytest.raises(ContractError):
        sched.session_range(2)


# -- CSV ingestion ------------------------------------------------------------------

def test_csv_round_trip(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("0.5,-1.25,0\n0.125,2.0,1\n-3.0,0.75,1\n")
    ds = load_csv_dataset(path)
    assert ds.class_count == 2
    assert np.array_equal(ds.y, [0, 1, 1])
    assert np.array_equal(ds.x, [[0.5, -1.25], [0.125, 2.0], [-3.0, 0.75]])


def test_csv_rejects_fractional_labels(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.5,0.5\n")
    with pytest.raises(ConfigError):
        load_csv_dataset(path)


def test_csv_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ConfigError):
        load_csv_dataset(path)


# -- partitioner --------------------------------------------------------------------

def _flat_sorted(shards):
    parts = [s.indices for s in shards if s.count]
    return np.sort(np.concatenate(parts)) if parts else np.empty(0, np.int64)


def test_partition_single_client_gets_everything():
    data = tiny_splits().train
    shards = dirichlet_partition(data, clients=1, alpha=1.0, seed=0)
    assert len(shards) == 1
    assert np.array_equal(shards[0].indices, np.arange(len(data)))


def test_partition_is_exact_for_many_settings():
    data = tiny_splits().train
    for alpha in (0.05, 1.0, 1000.0):
        for clients in (2, 3, 5):
            for seed in range(3):
                shards = dirichlet_partition(data, clients, alpha, seed)
                assert sum(s.count for s in shards) == len(data)
                assert np.array_equal(_flat_sorted(shards), np.arange(len(data)))


def test_partition_determinism():
    data = tiny_splits().train
    a = dirichlet_partition(data, 3, 0.5, seed=4)
    b = dirichlet_partition(data, 3, 0.5, seed=4)
    assert all(np.array_equal(x.indices, y.indices) for x, y in zip(a, b))


def test_partition_rejects_bad_alpha():
    data = tiny_splits().train
    with pytest.raises(ConfigError, match="Dirichlet concentration must be > 0"):
        dirichlet_partition(data, 3, -1.0, seed=0)
    with pytest.raises(ConfigError):
        dirichlet_partition(data, 3, 0.0, seed=0)
    with pytest.raises(ConfigError):
        dirichlet_partition(data, 0, 1.0, seed=0)


def _five_class_data():
    return make_blobs(classes=5, dim=4, per_class_train=40, per_class_test=5,
                      spread=0.1, seed=7).train


def test_partition_high_alpha_approaches_uniform_proportions():
    data = _five_class_data()
    prior = np.bincount(data.y, minlength=5) / len(data)
    for seed in range(20):
        shards = dirichlet_partition(data, 5, 1000.0, seed)
        for s in shards:
            if s.count == 0:
                continue
            props = np.bincount(data.y[s.indices], minlength=5) / s.count
            assert np.max(np.abs(props - prior)) <= 0.10


def test_partition_low_alpha_concentrates_classes():
    # with alpha = 0.05 almost every client's samples come from 1-2 classes
    data = _five_class_data()
    concentrated = total = 0
    for seed in range(20):
        for s in dirichlet_partition(data, 5, 0.05, seed):
            total += 1
            if s.count == 0:
                concentrated += 1  # vacuously from <= 2 classes
                continue
            counts = np.sort(np.bincount(data.y[s.indices], minlength=5))[::-1]
            if counts[:2].sum() / s.count >= 0.7:
                concentrated += 1
    assert concentrated / total >= 0.8


def test_partition_summary_shape():
    data = tiny_splits().train
    shards = dirichlet_partition(data, 3, 1.0, seed=0)
    summary = partition_summary(data, shards)
    assert summary["total_samples"] == len(data)
    assert len(summary["clients"]) == 3
    assert sum(c["samples"] for c in summary["clients"]) == len(data)
    for entry in summary["clients"]:
        assert sum(entry["per_class"].values()) == entry["samples"]
