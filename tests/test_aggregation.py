"""Server aggregation: count-weighted averages and per-class column blending."""
import numpy as np
import pytest

from fedscil import Classifier
from fedscil.aggregation import (OLD_GROUPS, AccuracyMatrix, aggregate_old,
                                 assemble_global, build_accuracy_matrix,
                                 cswa_aggregate_new, cswa_weights,
                                 eval_class_accuracy, fedavg_full)
from fedscil.errors import ContractError
from fedscil.generation import SyntheticPool
from oracles import check_aggregation_against_dense


def _expanded(seed: int = 0) -> Classifier:
    model = Classifier(in_dim=3, base_classes=2, seed=seed, hidden=8,
                       feature_dim=4)
    model.expand_head(1, 1, seed=seed + 1)
    return model


def _fill(model: Classifier, value: float, groups=None) -> None:
    for _, arr, group in model.state_entries():
        if groups is None or group in groups:
            arr[:] = value


class _FixedLogits:
    """Stand-in model whose predictions are the argmax of canned logits."""

    def __init__(self, logits):
        self.logits = np.asarray(logits, dtype=np.float64)

    def predict(self, x, session=None):
        return self.logits[:x.shape[0]].argmax(axis=1)


# -- inherited-tensor averaging -------------------------------------------------------

def test_aggregate_old_hand_weighted_average():
    a, b = _expanded(), _expanded()
    _fill(a, 1.0, OLD_GROUPS)
    _fill(b, 2.0, OLD_GROUPS)
    merged = aggregate_old([a, b], [2, 3])
    expected_names = {name for name, _, g in a.state_entries()
                      if g in OLD_GROUPS}
    assert set(merged) == expected_names
    for name, arr in merged.items():
        assert np.allclose(arr, 1.6, atol=1e-12), name


def test_aggregate_old_single_holder_wins(rng):
    a, b = _expanded(1), _expanded(2)
    for _, arr, _ in b.state_entries():
        arr += rng.standard_normal(arr.shape)
    merged = aggregate_old([a, b], [5, 0])
    state_a = {name: arr for name, arr, _ in a.state_entries()}
    for name, arr in merged.items():
        assert np.array_equal(arr, state_a[name]), name


def test_aggregate_old_identical_clients_fixed_point():
    a = _expanded(3)
    merged = aggregate_old([a, a.clone(), a.clone()], [1, 2, 4])
    state_a = {name: arr for name, arr, _ in a.state_entries()}
    for name, arr in merged.items():
        assert np.allclose(arr, state_a[name], atol=1e-12), name


def test_aggregate_old_count_validation():
    a, b = _expanded(), _expanded()
    with pytest.raises(ContractError):
        aggregate_old([a, b], [1])
    with pytest.raises(ContractError):
        aggregate_old([a, b], [1, -1])
    with pytest.raises(ContractError):
        aggregate_old([], [])


def test_aggregate_old_shape_mismatch():
    a = _expanded()
    b = Classifier(in_dim=3, base_classes=2, seed=9, hidden=8, feature_dim=4)
    b.expand_head(1, 2, seed=1)  # wider new block
    with pytest.raises(ContractError):
        fedavg_full([a, b], [1, 1])


def test_client_models_with_different_tensors_are_refused():
    """Heads for sessions 0, 1 and 2 on one client and for 0 and 2 on the
    other: the refusal names the missing tensor and the client that lacks
    it, whichever client comes first."""
    a = _expanded()
    a.expand_head(2, 1, seed=3)
    b = Classifier(in_dim=3, base_classes=2, seed=0, hidden=8, feature_dim=4)
    b.expand_head(2, 1, seed=3)
    with pytest.raises(ContractError, match="^client 1 has no tensor "
                                            "head.s1.bias, client 0 has$"):
        fedavg_full([a, b], [1, 1])
    with pytest.raises(ContractError, match="^client 0 has no tensor "
                                            "head.s1.bias, client 1 has$"):
        aggregate_old([b, a], [1, 1])


# -- plain full average -----------------------------------------------------------------

def test_fedavg_single_client_identity():
    a = _expanded(4)
    merged = fedavg_full([a], [7])
    state_a = {name: arr for name, arr, _ in a.state_entries()}
    for name, arr, _ in merged.state_entries():
        assert np.array_equal(arr, state_a[name]), name


def test_fedavg_opposite_states_cancel(rng):
    a, b = _expanded(5), _expanded(5)
    for (_, arr_a, _), (_, arr_b, _) in zip(a.state_entries(),
                                            b.state_entries()):
        arr_a[:] = rng.standard_normal(arr_a.shape)
        arr_b[:] = -arr_a
    merged = fedavg_full([a, b], [3, 3])
    for name, arr, _ in merged.state_entries():
        assert np.array_equal(arr, np.zeros_like(arr)), name


def test_fedavg_hand_scalar_value():
    a, b = _expanded(), _expanded()
    _fill(a, 2.0)
    _fill(b, 6.0)
    merged = fedavg_full([a, b], [1, 3])
    for name, arr, _ in merged.state_entries():
        assert np.allclose(arr, 5.0, atol=1e-12), name


def test_fedavg_all_zero_counts_fall_back_to_uniform():
    a, b = _expanded(), _expanded()
    _fill(a, 2.0)
    _fill(b, 6.0)
    with pytest.warns(UserWarning, match="all client sample counts are zero"):
        merged = fedavg_full([a, b], [0, 0])
    for name, arr, _ in merged.state_entries():
        assert np.allclose(arr, 4.0, atol=1e-12), name


# -- per-class accuracy on synthetic pools -----------------------------------------------

def test_eval_class_accuracy_constant_predictor(rng):
    stub = _FixedLogits(np.tile([1.0, 0.0], (4, 1)))
    pool = SyntheticPool(0, 0, 2, rng.standard_normal((4, 3)),
                         np.array([0, 0, 1, 1]))
    row = eval_class_accuracy(stub, pool)
    assert row.tolist() == [1.0, 0.0]


def test_eval_class_accuracy_fractional(rng):
    logits = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    pool = SyntheticPool(0, 0, 2, rng.standard_normal((4, 3)),
                         np.array([0, 0, 0, 1]))
    row = eval_class_accuracy(_FixedLogits(logits), pool)
    assert np.allclose(row, [2.0 / 3.0, 0.0], atol=1e-12)


def test_eval_class_accuracy_validation(rng):
    stub = _FixedLogits(np.zeros((4, 2)))
    with pytest.raises(ContractError):
        eval_class_accuracy(stub, SyntheticPool(0, 0, 2, np.zeros((0, 3)),
                                                np.zeros(0, dtype=np.int64)))
    with pytest.raises(ContractError):
        eval_class_accuracy(stub, SyntheticPool(0, 0, 2,
                                                rng.standard_normal((3, 3)),
                                                np.zeros(3, dtype=np.int64)))


def test_build_accuracy_matrix_stacks_rows(rng):
    pool = SyntheticPool(0, 0, 2, rng.standard_normal((4, 3)),
                         np.array([0, 0, 1, 1]))
    right = _FixedLogits(np.array([[1.0, 0], [1, 0], [0, 1], [0, 1]]))
    wrong = _FixedLogits(np.array([[0.0, 1], [0, 1], [1, 0], [1, 0]]))
    matrix = build_accuracy_matrix([right, wrong], pool)
    assert matrix.values.tolist() == [[1.0, 1.0], [0.0, 0.0]]


def test_accuracy_matrix_validation():
    with pytest.raises(ContractError):
        AccuracyMatrix(np.array([0.5, 0.5]))
    with pytest.raises(ContractError):
        AccuracyMatrix(np.array([[1.5, 0.0]]))
    with pytest.raises(ContractError):
        AccuracyMatrix(np.array([[-0.1, 0.0]]))


# -- column weighting ----------------------------------------------------------------------

def test_cswa_weights_equal_rows_become_uniform():
    matrix = AccuracyMatrix(np.array([[0.5, 0.8], [0.5, 0.8]]))
    assert np.allclose(cswa_weights(matrix), np.full((2, 2), 0.5), atol=1e-12)


def test_cswa_weights_zero_column_uniform_fallback():
    matrix = AccuracyMatrix(np.array([[0.4, 0.0], [0.6, 0.0]]))
    out = cswa_weights(matrix)
    assert np.allclose(out[:, 0], [0.4, 0.6], atol=1e-12)
    assert np.allclose(out[:, 1], [0.5, 0.5], atol=1e-12)


def test_cswa_weights_paper_exact_is_raw_copy():
    values = np.array([[0.4, 0.9], [0.6, 0.1]])
    matrix = AccuracyMatrix(values)
    out = cswa_weights(matrix, "paper_exact")
    assert np.array_equal(out, values)
    assert out is not matrix.values


def test_cswa_weights_unknown_mode():
    with pytest.raises(ContractError):
        cswa_weights(AccuracyMatrix(np.array([[0.5]])), "softmax")


# -- new-block combination -------------------------------------------------------------------

def test_cswa_aggregate_single_client_identity(rng):
    block = (rng.standard_normal((4, 2)), rng.standard_normal(2))
    matrix = AccuracyMatrix(np.array([[0.7, 0.3]]))
    w, b = cswa_aggregate_new([block], cswa_weights(matrix))
    assert np.array_equal(w, block[0])
    assert np.array_equal(b, block[1])


def test_cswa_aggregate_equal_accuracy_is_mean(rng):
    blocks = [(rng.standard_normal((4, 2)), rng.standard_normal(2))
              for _ in range(3)]
    matrix = AccuracyMatrix(np.full((3, 2), 0.6))
    w, b = cswa_aggregate_new(blocks, cswa_weights(matrix))
    assert np.allclose(w, np.mean([w_ for w_, _ in blocks], axis=0), atol=1e-12)
    assert np.allclose(b, np.mean([b_ for _, b_ in blocks], axis=0), atol=1e-12)


def test_cswa_aggregate_disjoint_experts_pick_columns(rng):
    blocks = [(rng.standard_normal((4, 2)), rng.standard_normal(2))
              for _ in range(2)]
    matrix = AccuracyMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
    w, b = cswa_aggregate_new(blocks, cswa_weights(matrix))
    assert np.array_equal(w[:, 0], blocks[0][0][:, 0])
    assert np.array_equal(w[:, 1], blocks[1][0][:, 1])
    assert b[0] == blocks[0][1][0] and b[1] == blocks[1][1][1]


def test_cswa_aggregate_shape_validation(rng):
    block = (rng.standard_normal((4, 2)), rng.standard_normal(2))
    with pytest.raises(ContractError):
        cswa_aggregate_new([block], cswa_weights(AccuracyMatrix(np.full((2, 2), 0.5))))
    with pytest.raises(ContractError):
        cswa_aggregate_new([block],
                           cswa_weights(AccuracyMatrix(np.array([[0.5, 0.5, 0.5]]))))
    other = (rng.standard_normal((5, 2)), rng.standard_normal(2))
    with pytest.raises(ContractError):
        cswa_aggregate_new([block, other],
                           cswa_weights(AccuracyMatrix(np.full((2, 2), 0.5))))


# -- assembly -----------------------------------------------------------------------------------

def _own_parts(model: Classifier):
    head = model.heads[1]
    new_names = {head.weight.name, head.bias.name}
    old = {name: arr.copy() for name, arr, _ in model.state_entries()
           if name not in new_names}
    return old, (head.weight.value.data.copy(), head.bias.value.data.copy())


def test_assemble_global_round_trips_own_parts():
    model = _expanded(6)
    old, block = _own_parts(model)
    rebuilt = assemble_global(model, old, block)
    state = {name: arr for name, arr, _ in model.state_entries()}
    for name, arr, _ in rebuilt.state_entries():
        assert np.array_equal(arr, state[name]), name


def test_assemble_global_key_validation():
    model = _expanded(6)
    old, block = _own_parts(model)
    missing = dict(old)
    missing.pop(sorted(old)[0])
    with pytest.raises(ContractError, match="missing"):
        assemble_global(model, missing, block)
    extra = dict(old)
    extra["bogus"] = np.zeros(1)
    with pytest.raises(ContractError, match="extra"):
        assemble_global(model, extra, block)
    holds_new = dict(old, **{"head.s1.bias": block[1]})
    with pytest.raises(ContractError,
                       match="^old state holds a new head tensor: head.s1.bias$"):
        assemble_global(model, holds_new, block)


def test_assemble_global_block_shape_validation():
    model = _expanded(6)
    old, (w, b) = _own_parts(model)
    with pytest.raises(ContractError):
        assemble_global(model, old, (w[:, :0], b))


def test_a_model_without_a_head_block_is_refused():
    with pytest.raises(ContractError, match="^model has no head block to aggregate$"):
        assemble_global(Classifier(4, 0, seed=0), {}, (np.zeros((64, 0)), np.zeros(0)))
    headless = Classifier(in_dim=3, base_classes=0, seed=0, hidden=8, feature_dim=4)
    for models in ([headless], [_expanded(), headless]):
        with pytest.raises(ContractError, match="no head block"):
            fedavg_full(models, [1] * len(models))


def test_assemble_global_new_block_cannot_touch_old_logits(rng):
    model = _expanded(7)
    old, (w, b) = _own_parts(model)
    x = rng.standard_normal((5, 3))
    one = assemble_global(model, old, (w, b)).forward(x, mode="eval").data
    two = assemble_global(model, old,
                          (w + 1.0, b - 2.0)).forward(x, mode="eval").data
    assert np.array_equal(one[:, :2], two[:, :2])
    assert not np.allclose(one[:, 2], two[:, 2])


# -- randomized dense oracle ----------------------------------------------------------------------

def test_aggregation_matches_dense_reference():
    checked = check_aggregation_against_dense(np.random.default_rng(271), 30,
                                              atol=1e-12)
    assert checked == 30
