"""Synthetic vector datasets, the incremental session schedule, and the
non-IID client partitioner."""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError

Array = np.ndarray


@dataclass
class LabeledDataset:
    """A flat design matrix with integer labels in [0, class_count)."""

    x: Array
    y: Array
    class_count: int

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.ndim != 2 or self.y.ndim != 1 or self.x.shape[0] != self.y.shape[0]:
            raise ContractError("samples and labels do not line up")
        if self.y.size and (self.y.min() < 0 or self.y.max() >= self.class_count):
            raise ContractError("label outside [0, class_count)")

    def __len__(self) -> int:
        return self.y.shape[0]

    def subset(self, indices: Array) -> "LabeledDataset":
        return LabeledDataset(self.x[indices], self.y[indices], self.class_count)


@dataclass
class DatasetSplits:
    train: LabeledDataset
    test: LabeledDataset


def make_blobs(classes: int, dim: int, per_class_train: int, per_class_test: int,
               spread: float, seed: int) -> DatasetSplits:
    """Isotropic Gaussian clusters around per-class centers in [-1, 1]^dim.

    spread = 0 collapses every sample onto its center. Draw order is fixed
    (class by class), so the result is bit-identical for a given seed.
    """
    if classes < 1 or dim < 1 or per_class_train < 1 or per_class_test < 1:
        raise ConfigError("blobs need classes, dim and per-class counts >= 1")
    if not 0 <= spread < np.inf:
        raise ConfigError("spread must be finite and >= 0")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-1.0, 1.0, size=(classes, dim))
    n = per_class_train + per_class_test
    xs_tr, ys_tr, xs_te, ys_te = [], [], [], []
    for c in range(classes):
        pts = centers[c] + spread * rng.standard_normal((n, dim))
        xs_tr.append(pts[:per_class_train])
        ys_tr.append(np.full(per_class_train, c, dtype=np.int64))
        xs_te.append(pts[per_class_train:])
        ys_te.append(np.full(per_class_test, c, dtype=np.int64))
    train = LabeledDataset(np.concatenate(xs_tr), np.concatenate(ys_tr), classes)
    test = LabeledDataset(np.concatenate(xs_te), np.concatenate(ys_te), classes)
    return DatasetSplits(train, test)


def load_csv_dataset(path, class_count: int | None = None) -> LabeledDataset:
    """Reads rows of ``feature, ..., feature, label``."""
    rows, line_numbers = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for line in reader:
            if not line:
                continue
            try:
                values = [float(v) for v in line]
            except ValueError:
                raise ConfigError(f"{path}: row {reader.line_num}: "
                                  "non-numeric field") from None
            if not np.isfinite(values).all():
                raise ConfigError(f"{path}: row {reader.line_num}: non-finite field")
            if len(values) < 2:
                raise ConfigError(f"{path}: row {reader.line_num}: no feature field")
            if rows and len(values) != len(rows[0]):
                raise ConfigError(f"{path}: row {reader.line_num}: {len(values)} "
                                  f"fields, expected {len(rows[0])}")
            rows.append(values)
            line_numbers.append(reader.line_num)
    if not rows:
        raise ConfigError(f"{path}: empty dataset")
    arr = np.asarray(rows)
    x, y = arr[:, :-1], arr[:, -1].astype(np.int64)
    if np.any(arr[:, -1] != y):
        raise ConfigError(f"{path}: labels must be integers")
    count = class_count if class_count is not None else int(y.max()) + 1
    outside = np.flatnonzero((y < 0) | (y >= count))
    if outside.size:
        i = int(outside[0])
        raise ConfigError(f"{path}: row {line_numbers[i]}: label {y[i]} "
                          f"outside [0, {count})")
    return LabeledDataset(x, y, count)


@dataclass
class SessionSchedule:
    """Base session plus T incremental N-way K-shot sessions.

    Labels are remapped so column index equals class id: the base classes
    become 0..base-1 in class_order order, session t adds the next N ids.
    """

    base_classes: int
    sessions: int
    way: int
    shot: int
    class_order: Array
    train_by_session: list[LabeledDataset]
    eval_by_session: list[LabeledDataset]
    dim: int
    class_count: int
    envelope_low: Array
    envelope_high: Array

    def classes_through(self, t: int) -> int:
        """Number of classes seen once session t is done."""
        self._check_session(t)
        return self.base_classes + t * self.way

    def session_range(self, t: int) -> tuple[int, int]:
        """Half-open class-id range introduced by session t."""
        self._check_session(t)
        if t == 0:
            return 0, self.base_classes
        lo = self.base_classes + (t - 1) * self.way
        return lo, lo + self.way

    def _check_session(self, t: int) -> None:
        if not (0 <= t <= self.sessions):
            raise ContractError(f"session {t} outside 0..{self.sessions}")


def build_schedule(splits: DatasetSplits, base_classes: int, sessions: int,
                   way: int, shot: int, seed: int) -> SessionSchedule:
    classes = splits.train.class_count
    if base_classes < 1:
        raise ConfigError("base_classes must be >= 1")
    if sessions < 0:
        raise ConfigError("sessions must be >= 0")
    if sessions > 0 and (way < 1 or shot < 1):
        raise ConfigError("way and shot must be >= 1 when sessions > 0")
    if base_classes + sessions * way > classes:
        raise ConfigError(
            f"schedule needs {base_classes + sessions * way} classes, dataset has {classes}")

    rng = np.random.default_rng(seed)
    class_order = rng.permutation(classes)
    # original id -> remapped id; remapped id equals head column index
    remap = np.empty(classes, dtype=np.int64)
    remap[class_order] = np.arange(classes)

    def remapped(ds: LabeledDataset) -> LabeledDataset:
        return LabeledDataset(ds.x, remap[ds.y], classes)

    train = remapped(splits.train)
    test = remapped(splits.test)

    per_class_train: dict[int, Array] = {
        c: np.flatnonzero(train.y == c) for c in range(classes)}

    used = base_classes + sessions * way
    for c in range(used):
        have = per_class_train[c].shape[0]
        if c >= base_classes and have < shot:
            raise ConfigError(
                f"class {c} has {have} training samples, fewer than shot={shot}")
        if have < 1:
            raise ConfigError(f"class {c} has no training samples")

    train_by_session: list[LabeledDataset] = []
    eval_by_session: list[LabeledDataset] = []
    for t in range(sessions + 1):
        if t == 0:
            idx = np.concatenate([per_class_train[c] for c in range(base_classes)])
        else:
            lo = base_classes + (t - 1) * way
            idx = np.concatenate([rng.permutation(per_class_train[c])[:shot]
                                  for c in range(lo, lo + way)])
        if t == 0 and idx.shape[0] < 2:
            raise ConfigError("the base session has 1 training sample, fewer than 2")
        train_by_session.append(train.subset(idx))
        seen = base_classes + t * way
        rows = np.flatnonzero(test.y < seen)
        if rows.size == 0:
            raise ConfigError(f"session {t}: the test split holds no sample of "
                              f"the {seen} classes seen so far")
        eval_by_session.append(test.subset(rows))

    # value range of the training split; dataset-level metadata used to scale
    # the generator's bounded output
    low = splits.train.x.min(axis=0)
    high = splits.train.x.max(axis=0)

    return SessionSchedule(
        base_classes=base_classes, sessions=sessions, way=way, shot=shot,
        class_order=class_order, train_by_session=train_by_session,
        eval_by_session=eval_by_session, dim=splits.train.x.shape[1],
        class_count=classes, envelope_low=low, envelope_high=high)


def _largest_remainder(fractions: Array, total: int) -> Array:
    """Integer counts summing to total; ties go to the lower client id."""
    raw = fractions * total
    counts = np.floor(raw).astype(np.int64)
    short = total - int(counts.sum())
    if short > 0:
        remainders = raw - counts
        order = sorted(range(len(fractions)), key=lambda m: (-remainders[m], m))
        for m in order[:short]:
            counts[m] += 1
    return counts


def dirichlet_partition(data: LabeledDataset, clients: int, alpha: float,
                        seed: int) -> list[Array]:
    """Per-class Dirichlet split of a session's training data: one sorted
    array of row indices per client, the client id being its list index.

    For every class, client proportions are drawn from Dir(alpha * 1_M) and
    converted to integer counts by largest remainder, so the shards are an
    exact partition of the input. Small alpha concentrates each class on few
    clients; large alpha approaches a uniform split. Clients may end up with
    zero samples; they still participate in aggregation with weight 0.
    """
    if clients < 1:
        raise ConfigError("clients must be >= 1")
    if not (alpha > 0) or not np.isfinite(alpha):
        raise ConfigError("alpha: Dirichlet concentration must be > 0")
    rng = np.random.default_rng(seed)
    per_client: list[list[Array]] = [[] for _ in range(clients)]
    # bincount, not np.unique: np.unique imports numpy.ma, which no run needs
    for c in np.flatnonzero(np.bincount(data.y)):
        idx = rng.permutation(np.flatnonzero(data.y == c))
        props = rng.dirichlet(np.full(clients, alpha))
        if not np.isclose(props.sum(), 1.0):  # all zeros once gamma draws overflow
            raise ConfigError(f"alpha={alpha!r}: the Dirichlet draw is not a "
                              "distribution")
        counts = _largest_remainder(props, idx.shape[0])
        offsets = np.cumsum(counts)[:-1]
        for m, chunk in enumerate(np.split(idx, offsets)):
            per_client[m].append(chunk)
    return [np.sort(np.concatenate(chunks)) if chunks
            else np.empty(0, dtype=np.int64) for chunks in per_client]


def partition_summary(data: LabeledDataset, shards: list[Array]) -> dict:
    """JSON-ready view of one session's shard assignment."""
    out = {"total_samples": len(data), "clients": []}
    for m, shard in enumerate(shards):
        counts = np.bincount(data.y[shard])
        hist = {int(c): int(counts[c]) for c in np.flatnonzero(counts)}
        out["clients"].append(
            {"client": m, "samples": len(shard), "per_class": hist})
    return out
