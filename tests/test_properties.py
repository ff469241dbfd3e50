"""Property tests: invariants the code relies on, over generated inputs."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedscil import Classifier, Parameter, Tensor, dirichlet_partition
from fedscil.aggregation import (AccuracyMatrix, aggregate_old,
                                 cswa_aggregate_new, cswa_weights, fedavg_full)
from fedscil.autodiff import Optimizer
from fedscil.data import LabeledDataset
from fedscil.generation import ReplayBuffer, SyntheticPool, relabel

from oracles import LoopOptimizer, whole_model_fedavg, zero_counts_warning

GROUPS = ("backbone", "head_old", "head_new")


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape and bytes: unlike np.array_equal, 0.0 and -0.0 differ."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _draw(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal values with some exact zeros of either sign mixed in."""
    out = rng.standard_normal(shape)
    pick = rng.random(shape)
    return np.where(pick < 0.1, 0.0, np.where(pick < 0.2, -0.0, out))


def check_flat_step_against_loop(kind: str, shapes, groups, rates: dict,
                                 momentum: float, schedule, seed: int) -> None:
    """Runs ``autodiff.Optimizer`` and the per-parameter loop side by side.

    ``schedule`` holds one list of (group, rate) changes per step, applied
    with ``set_rate`` before it. After every step each parameter must have
    the loop's bits, and every array taken from a parameter before the step
    must still hold its old contents.
    """
    rng = np.random.default_rng(seed)
    values = [_draw(rng, shape) for shape in shapes]

    def make(opt_class):
        params = [Parameter(f"p{i}", value.copy(), group)
                  for i, (value, group) in enumerate(zip(values, groups))]
        return params, opt_class(params, kind, rates, momentum)

    flat_params, flat = make(Optimizer)
    loop_params, loop = make(LoopOptimizer)
    for changes in schedule:
        for group, rate in changes:
            flat.set_rate(group, rate)
            loop.set_rate(group, rate)
        for a, b in zip(flat_params, loop_params):
            a.grad = _draw(rng, a.shape)
            b.grad = a.grad.copy()
        taken = [p.data for p in flat_params]
        copies = [a.copy() for a in taken]
        flat.step()
        loop.step()
        for a, b in zip(flat_params, loop_params):
            assert _same_bits(a.data, b.data), a.name
        for a, b in zip(taken, copies):
            assert _same_bits(a, b)


RATE = st.sampled_from([0.0, 0.0, 0.1, 0.05, 1e-3, 0.3])


@st.composite
def _runs(draw):
    count = draw(st.integers(1, 12))
    shapes = [tuple(draw(st.lists(st.integers(1, 4), max_size=3)))
              for _ in range(count)]
    groups = [draw(st.sampled_from(GROUPS)) for _ in range(count)]
    rates = {group: draw(RATE) for group in GROUPS}
    changes = st.lists(st.tuples(st.sampled_from(GROUPS), RATE), max_size=2)
    schedule = draw(st.lists(changes, min_size=1, max_size=8))
    return (draw(st.sampled_from(["sgd_momentum", "adam"])), shapes, groups,
            rates, draw(st.sampled_from([0.0, 0.5, 0.9])), schedule,
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=300, deadline=None)
@given(_runs())
def test_flat_step_matches_the_per_parameter_loop(run):
    check_flat_step_against_loop(*run)


def test_flat_step_matches_the_loop_as_groups_switch_on_and_off():
    """A group going 0 -> live -> 0 and another going live -> 0 -> live,
    with every group at a rate of its own."""
    shapes = [(3, 2), (2,), (), (4, 1, 2), (5,)]
    groups = ["backbone", "head_old", "head_new", "head_old", "backbone"]
    rates = {"backbone": 0.1, "head_old": 0.0, "head_new": 0.05}
    schedule = [[], [("head_old", 0.2)], [], [("head_old", 0.0)],
                [("backbone", 0.0)], [], [("backbone", 0.3)], [],
                [("head_old", 0.2), ("head_new", 0.0)], []]
    for kind in ("sgd_momentum", "adam"):
        for seed in range(5):
            check_flat_step_against_loop(kind, shapes, groups, rates, 0.9,
                                         schedule, seed)


# -- aggregation ---------------------------------------------------------------


@st.composite
def _clients(draw):
    """Perturbed copies of one expanded classifier, a sample count and an
    accuracy row per client, and a reordering of the clients."""
    m = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    template = Classifier(in_dim=3, base_classes=2, seed=seed % 1000, hidden=4,
                          feature_dim=3)
    template.expand_head(1, 2, seed=seed % 997)
    clients = []
    for _ in range(m):
        client = template.clone()
        for _, arr, _ in client.state_entries():
            arr += rng.standard_normal(arr.shape)
        clients.append(client)
    counts = draw(st.lists(st.integers(0, 40), min_size=m, max_size=m))
    accuracy = draw(st.lists(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0]),
                                      min_size=2, max_size=2),
                             min_size=m, max_size=m))
    return clients, counts, np.array(accuracy), draw(st.permutations(range(m)))


def _states(model) -> dict:
    return {name: arr for name, arr, _ in model.state_entries()}


@settings(max_examples=60, deadline=None)
@given(_clients())
def test_aggregation_does_not_depend_on_client_order(case):
    clients, counts, accuracy, order = case
    moved = [clients[i] for i in order]
    moved_counts = [counts[i] for i in order]
    with zero_counts_warning(counts):
        pairs = ((aggregate_old(clients, counts), aggregate_old(moved, moved_counts)),
                 (_states(fedavg_full(clients, counts)),
                  _states(fedavg_full(moved, moved_counts))))
    for a, b in pairs:
        assert a.keys() == b.keys()
        for name in a:
            assert np.allclose(a[name], b[name], rtol=0, atol=1e-12), name
    blocks = [(c.heads[1].weight.data, c.heads[1].bias.data)
              for c in clients]
    for mode in ("normalized", "paper_exact"):
        w, b = cswa_aggregate_new(blocks, cswa_weights(AccuracyMatrix(accuracy), mode))
        w_m, b_m = cswa_aggregate_new(
            [blocks[i] for i in order],
            cswa_weights(AccuracyMatrix(accuracy[list(order)]), mode))
        assert np.allclose(w, w_m, rtol=0, atol=1e-12)
        assert np.allclose(b, b_m, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(_clients(), st.integers(-8, 8))
def test_aggregation_is_unchanged_when_counts_scale_by_a_power_of_two(case, power):
    clients, counts, _, _ = case
    scaled = [c * 2.0 ** power for c in counts]
    with zero_counts_warning(counts):
        old = aggregate_old(clients, counts), aggregate_old(clients, scaled)
        full = _states(fedavg_full(clients, counts)), _states(fedavg_full(clients, scaled))
    for a, b in (old, full):
        for name in a:
            assert _same_bits(a[name], b[name]), name


@st.composite
def _multi_block_clients(draw):
    """Perturbed copies of a classifier with 1-3 head blocks, and a sample
    count per client: zeros mixed in, or every count zero."""
    m = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    template = Classifier(in_dim=3, base_classes=draw(st.integers(1, 3)),
                          seed=seed % 1000, hidden=4, feature_dim=3)
    for session in range(1, draw(st.integers(1, 3))):
        template.expand_head(session, draw(st.integers(1, 3)), seed=seed % 997)
    clients = []
    for _ in range(m):
        client = template.clone()
        for _, arr, _ in client.state_entries():
            arr += rng.standard_normal(arr.shape)
        clients.append(client)
    counts = draw(st.just([0] * m)
                  | st.lists(st.integers(0, 6), min_size=m, max_size=m))
    return clients, counts


@settings(max_examples=100, deadline=None)
@given(_multi_block_clients())
def test_count_rule_column_path_equals_the_whole_model_average(case):
    """The count rule's shares repeated over the new columns give the whole
    model average exactly, and all-zero counts warn once."""
    clients, counts = case
    with zero_counts_warning(counts) as caught:
        got = _states(fedavg_full(clients, counts))
    if caught is not None:
        assert len(caught) == 1
    want = _states(whole_model_fedavg(clients, counts))
    assert got.keys() == want.keys()
    for name in want:
        assert np.array_equal(got[name], want[name]), name


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda m: st.lists(
    st.lists(st.sampled_from([0.0, 0.0, 1e-3, 0.3, 0.5, 1.0]) | st.floats(0, 1),
             min_size=m, max_size=m), min_size=1, max_size=5)))
def test_normalized_cswa_weights_are_convex_per_class(columns):
    matrix = AccuracyMatrix(np.array(columns).T)
    weights = cswa_weights(matrix, "normalized")
    assert weights.shape == matrix.values.shape
    assert np.all(weights >= 0)
    assert np.allclose(weights.sum(axis=0), 1.0, rtol=0, atol=1e-12)


# -- partitioning ----------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 5), max_size=60), st.integers(1, 8),
       st.floats(0.05, 100.0), st.integers(0, 2**32 - 1))
def test_dirichlet_partition_is_an_exact_partition(labels, clients, alpha, seed):
    y = np.array(labels, dtype=np.int64)
    data = LabeledDataset(np.zeros((y.shape[0], 2)), y, 6)
    shards = dirichlet_partition(data, clients, alpha, seed)
    assert len(shards) == clients
    for shard in shards:
        assert shard.dtype == np.int64
        assert np.array_equal(shard, np.unique(shard))
    merged = np.concatenate(shards)
    assert np.array_equal(np.sort(merged), np.arange(y.shape[0]))
    assert sum(len(s) for s in shards) == y.shape[0]


# -- replay buffer ----------------------------------------------------------------


@st.composite
def _pools(draw):
    """Pools of one two-class session each; sample i of the whole stream
    carries i in its first coordinate."""
    pools, serial = [], 0
    for session in range(draw(st.integers(1, 3))):
        lo = 2 * session
        for _ in range(draw(st.integers(1, 3))):
            n = draw(st.integers(1, 12))
            pseudo = np.array(draw(st.lists(st.integers(lo, lo + 1),
                                            min_size=n, max_size=n)))
            samples = np.column_stack([np.arange(serial, serial + n),
                                       np.zeros(n)]).astype(np.float64)
            serial += n
            pools.append(SyntheticPool(session, lo, lo + 2, samples,
                                       pseudo.copy(), pseudo))
    return pools


@settings(max_examples=150, deadline=None)
@given(_pools(), st.integers(1, 6), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_buffer_keeps_the_newest_per_class_and_samples_balanced(pools, capacity,
                                                                count, seed):
    rng = np.random.default_rng(seed)
    buffer = ReplayBuffer(capacity)
    added: dict[int, list[float]] = {}
    for pool in pools:
        buffer.add_pool(pool, rng)
        for sample, label in zip(pool.samples, pool.pseudo):
            added.setdefault(int(label), []).append(sample[0])
        assert all(n <= capacity for n in buffer.per_class_counts().values())
        stored: dict[int, list[float]] = {}
        for sample, _, label, _ in buffer.export_rows():
            stored.setdefault(label, []).append(sample[0])
        assert stored == {c: ids[-capacity:] for c, ids in added.items()}

    x, y = buffer.sample(count, rng)
    assert x.shape[0] == y.shape[0] == count
    drawn = {c: int((y == c).sum()) for c in buffer.classes()}
    assert set(np.unique(y)) <= set(drawn)
    assert max(drawn.values()) - min(drawn.values()) <= 1
    for sample, label in zip(x, y):
        assert sample[0] in stored[int(label)]


@st.composite
def _noisy_pools(draw):
    """Pools of sessions of one to three classes. Sample i of the stream
    carries i, its condition and its session in its coordinates."""
    pools, serial, lo = [], 0, 0
    for session in range(draw(st.integers(1, 3))):
        span = draw(st.integers(1, 3))
        for _ in range(draw(st.integers(1, 3))):
            n = draw(st.integers(1, 12))
            labels = st.lists(st.integers(lo, lo + span - 1), min_size=n, max_size=n)
            pseudo, condition = np.array(draw(labels)), np.array(draw(labels))
            samples = np.column_stack([np.arange(serial, serial + n), condition,
                                       np.full(n, session)]).astype(np.float64)
            serial += n
            pools.append(SyntheticPool(session, lo, lo + span, samples, condition,
                                       pseudo))
        lo += span
    return pools


@settings(max_examples=150, deadline=None)
@given(_noisy_pools(), st.integers(1, 6), st.floats(0.05, 0.95),
       st.integers(0, 2**32 - 1))
def test_noisy_buffer_keeps_labels_in_their_session(pools, capacity, noise, seed):
    rng = np.random.default_rng(seed)
    buffer = ReplayBuffer(capacity, label_noise=noise)
    spans = {pool.session: (pool.class_lo, pool.class_hi) for pool in pools}
    pseudo = {}
    for pool in pools:
        buffer.add_pool(pool, rng)
        pseudo.update(zip(pool.samples[:, 0], pool.pseudo))
        assert all(n <= capacity for n in buffer.per_class_counts().values())
    for sample, condition, label, session in buffer.export_rows():
        lo, hi = spans[session]
        assert lo <= label < hi
        # the condition and session ride along with their sample
        assert (condition, session) == (sample[1], sample[2])
        if hi - lo == 1:
            assert label == pseudo[sample[0]]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 30))
def test_relabel_is_idempotent_and_keeps_samples_and_conditions(seed, new, n):
    rng = np.random.default_rng(seed)
    model = Classifier(in_dim=3, base_classes=2, seed=seed % 997, hidden=5,
                       feature_dim=4)
    model.expand_head(1, new, seed=seed % 991)
    for p in model.parameters():
        p.data = p.data + rng.standard_normal(p.shape)
    samples = rng.standard_normal((n, 3)) * 3.0
    condition = rng.integers(2, 2 + new, size=n)
    pool = SyntheticPool(1, 2, 2 + new, samples.copy(), condition.copy())
    once = relabel(pool, model)
    twice = relabel(once, model)
    assert np.array_equal(once.pseudo, twice.pseudo)
    assert np.all((once.pseudo >= 2) & (once.pseudo < 2 + new))
    for labeled in (pool, once, twice):
        assert _same_bits(labeled.samples, samples)
        assert np.array_equal(labeled.condition, condition)
