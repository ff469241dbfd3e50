"""Gradient engine, batch norm, optimizers."""
import re

import numpy as np
import pytest

from fedscil import (Classifier, Parameter, Tensor, autodiff, backprop, grad,
                     losses)
from fedscil.autodiff import (Optimizer, batch_statistics, batchnorm_forward, col_slice,
                              concat, gather_rows, linear, one_hot, row_slice)
from fedscil.errors import ContractError, DegenerateBatchError

from gradcheck import CASES, TOL, case_rng, run_suite
from oracles import captured_forward, l2_norm


def _p(data, name="p"):
    return Parameter(name, np.asarray(data, dtype=np.float64), "backbone")


# -- backward-pass basics ------------------------------------------------------

def test_grad_of_sum_is_ones():
    p = _p([1.0, -2.0, 3.0])
    g = grad(p.sum(), [p])
    assert np.array_equal(g["p"], np.ones(3))


def test_grad_of_self_dot():
    p = _p([1.0, 2.0])
    g = grad((p * p).sum(), [p])
    assert np.allclose(g["p"], [2.0, 4.0], atol=1e-12)


def test_disconnected_parameter_gets_zero_gradient():
    p = _p([1.0, 2.0], "used")
    q = _p([[3.0]], "unused")
    g = grad(p.sum(), [p, q])
    assert np.array_equal(g["unused"], np.zeros((1, 1)))


def test_backward_rejects_nonscalar_loss():
    p = _p([1.0, 2.0])
    with pytest.raises(ContractError):
        grad(p * 2.0, [p])


def test_backprop_stores_gradients_on_params():
    p = _p([1.0, 2.0])
    backprop((p * p).sum(), [p])
    assert np.allclose(p.grad, [2.0, 4.0])


def test_reused_node_accumulates_gradient():
    p = _p([2.0])
    y = p * p + p * 3.0  # dy/dp = 2p + 3 = 7
    g = grad(y.sum(), [p])
    assert np.allclose(g["p"], [7.0], atol=1e-12)


def test_broadcast_gradient_shapes():
    a = _p(np.ones((3, 4)), "a")
    b = _p(np.ones((1, 4)), "b")
    g = grad((a * b).sum(), [a, b])
    assert g["a"].shape == (3, 4)
    assert g["b"].shape == (1, 4)
    assert np.array_equal(g["b"], np.full((1, 4), 3.0))


def test_structural_ops_route_gradients_exactly():
    a = _p(np.arange(6, dtype=np.float64).reshape(2, 3), "a")
    b = _p(np.arange(4, dtype=np.float64).reshape(2, 2), "b")
    joined = concat([a, b], axis=1)
    g = grad(col_slice(joined, 2, 4).sum(), [a, b])
    assert np.array_equal(g["a"], [[0, 0, 1], [0, 0, 1]])
    assert np.array_equal(g["b"], [[1, 0], [1, 0]])

    g = grad(row_slice(a, 1, 2).sum(), [a])
    assert np.array_equal(g["a"], [[0, 0, 0], [1, 1, 1]])

    # gather_rows picks one column per row: entry i is t[i, idx[i]]
    idx = np.array([2, 0])
    picked = gather_rows(a, idx)
    assert np.array_equal(picked.data, [2.0, 3.0])
    g = grad((picked + gather_rows(a, np.array([2, 2]))).sum(), [a])
    assert np.array_equal(g["a"], [[0, 0, 2], [1, 0, 1]])


def test_one_hot_is_constant():
    hot = one_hot(np.array([0, 2]), 3)
    assert np.array_equal(hot.data, [[1, 0, 0], [0, 0, 1]])
    assert not hot.requires_grad


def test_l2_norm_value():
    p = _p([3.0, 4.0])
    assert abs(float(l2_norm(p).data) - 5.0) < 1e-12


# -- the finite-difference sweep ------------------------------------------------

def test_every_op_and_loss_matches_finite_differences():
    worst = run_suite(instances=20, tol=TOL)
    assert len(worst) >= 20
    assert max(worst.values()) <= TOL


def test_every_op_forward_and_backward_runs_in_a_gradient_case(monkeypatch):
    """An op is the forward and backward it passes to ``_apply``, so the
    module-level ``_*_fw`` and ``_*_bw`` functions of ``autodiff`` and
    ``losses`` list every op. Each must run in some case of the gradient
    suite. ``losses`` imports ``_apply`` by name, so both copies are patched."""
    ran, apply = set(), autodiff._apply

    def counted(fn):
        def call(*args):
            ran.add(f"{fn.__module__}.{fn.__name__}")
            return fn(*args)
        return None if fn is None else call

    def counting_apply(fw, bw, parents, *static):
        return apply(counted(fw), counted(bw), parents, *static)

    for module in (autodiff, losses):
        monkeypatch.setattr(module, "_apply", counting_apply)
    for name, make in CASES:
        build_loss, params = make(case_rng(name, 0))
        grad(build_loss(), params)
    ops = {f"{module.__name__}.{name}" for module in (autodiff, losses)
           for name, fn in vars(module).items()
           if re.fullmatch(r"_\w+_[fb]w", name) and fn.__module__ == module.__name__}
    assert len(ops) > 30 and sorted(ops - ran) == []


# -- batch normalization --------------------------------------------------------

def _bn_identity_inputs(rng):
    x = rng.standard_normal((8, 3))
    x = (x - x.mean(axis=0)) / np.sqrt(x.var(axis=0))
    return x


def test_batchnorm_identity_on_standardized_input(rng):
    x = _bn_identity_inputs(rng)
    state = (Tensor(np.zeros(3)), Tensor(np.ones(3)))
    y = batchnorm_forward(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                          state, "train")
    assert np.max(np.abs(y.data - x)) <= 1e-5 * np.max(np.abs(x)) + 1e-6


def test_batchnorm_train_output_is_standardized(rng):
    x = rng.standard_normal((16, 4)) * 3.0 + 2.0
    state = (Tensor(np.zeros(4)), Tensor(np.ones(4)))
    y = batchnorm_forward(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)),
                          state, "train")
    mu, var = batch_statistics(Tensor(x))
    assert np.max(np.abs(y.data.mean(axis=0))) <= 1e-6
    assert np.max(np.abs(y.data.var(axis=0) - 1.0)) <= 1e-5
    assert np.allclose(mu.data, x.mean(axis=0))
    assert np.allclose(var.data, x.var(axis=0))


def test_batchnorm_running_stats_ema(rng):
    x = rng.standard_normal((8, 3))
    old_mean = np.array([0.5, -0.5, 1.0])
    old_var = np.array([2.0, 1.0, 0.5])
    state = (Tensor(old_mean.copy()), Tensor(old_var.copy()))
    batchnorm_forward(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                      state, "train")
    assert np.allclose(state[0].data, 0.9 * old_mean + 0.1 * x.mean(axis=0),
                       atol=1e-12)
    assert np.allclose(state[1].data, 0.9 * old_var + 0.1 * x.var(axis=0),
                       atol=1e-12)


def test_batchnorm_eval_uses_running_stats(rng):
    x = rng.standard_normal((4, 2))
    state = (Tensor(np.array([1.0, -1.0])), Tensor(np.array([4.0, 0.25])))
    y = batchnorm_forward(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                          state, "eval")
    expected = (x - state[0].data) / np.sqrt(state[1].data + 1e-5)
    assert np.allclose(y.data, expected, atol=1e-12)


def test_batchnorm_rejects_singleton_train_batch():
    state = (Tensor(np.zeros(2)), Tensor(np.ones(2)))
    with pytest.raises(DegenerateBatchError):
        batchnorm_forward(Tensor(np.ones((1, 2))), Tensor(np.ones(2)),
                          Tensor(np.zeros(2)), state, "train")


def test_batchnorm_rejects_unknown_mode():
    state = (Tensor(np.zeros(2)), Tensor(np.ones(2)))
    with pytest.raises(ContractError):
        batchnorm_forward(Tensor(np.ones((3, 2))), Tensor(np.ones(2)),
                          Tensor(np.zeros(2)), state, "test")


def _count_nodes(monkeypatch) -> list:
    """Every graph node built from here on, as (shape, parent count)."""
    built = []
    make = autodiff._apply

    def counting(fw, bw, parents, *static):
        node = make(fw, bw, parents, *static)
        built.append((node.shape, len(parents)))
        return node

    monkeypatch.setattr(autodiff, "_apply", counting)
    return built


def test_eval_forward_without_capture_builds_no_statistics(rng, monkeypatch):
    model = Classifier(in_dim=4, base_classes=3, seed=1, hidden=6, feature_dim=5)
    x = _p(rng.standard_normal((7, 4)), "x")
    captured = captured_forward(model, x)[0]
    built = _count_nodes(monkeypatch)
    plain = model.forward(x, mode="eval")
    # two linear, batch-norm and relu nodes each, then the head: no mean or
    # variance node (the only nodes of their (channels,) shape)
    assert len(built) == 7
    assert not any(shape in ((6,), (5,)) for shape, _ in built)
    assert np.array_equal(plain.data, captured.data)
    assert np.array_equal(grad((plain * plain).sum(), [x])["x"],
                          grad((captured * captured).sum(), [x])["x"])

    built.clear()
    batchnorm_forward(x, Tensor(np.ones(4)), Tensor(np.zeros(4)),
                      (Tensor(np.zeros(4)), Tensor(np.ones(4))), "eval")
    assert built == [((7, 4), 3)]


@pytest.mark.parametrize("shape", [(7, 4), (3, 7, 4)])
def test_eval_batchnorm_builds_one_node_and_statistics_two(rng, monkeypatch,
                                                          shape):
    stacked = len(shape) == 3
    width = (shape[0], 1, 4) if stacked else (4,)
    x = _p(rng.standard_normal(shape), "x")
    state = (Tensor(np.zeros(width)), Tensor(np.ones(width)))
    built = _count_nodes(monkeypatch)
    y = batchnorm_forward(x, Tensor(np.ones(width)), Tensor(np.zeros(width)),
                          state, "eval")
    assert isinstance(y, Tensor) and built == [(shape, 3)]
    built.clear()
    mu, var = batch_statistics(x)
    stat_shape = width if stacked else (4,)
    assert built == [(stat_shape, 1), (stat_shape, 2)]
    assert var._parents == (x, mu)


def test_batchnorm_with_a_model_axis_normalizes_each_model_alone(rng):
    x = rng.standard_normal((3, 6, 4)) * 2.0 + 1.0
    gamma, beta = rng.uniform(0.5, 1.5, (3, 1, 4)), rng.uniform(-0.5, 0.5, (3, 1, 4))
    means, variances = rng.uniform(-0.5, 0.5, (3, 1, 4)), rng.uniform(0.5, 1.5, (3, 1, 4))
    for mode in ("train", "eval"):
        state = (Tensor(means.copy()), Tensor(variances.copy()))
        y = batchnorm_forward(Tensor(x), Tensor(gamma), Tensor(beta), state, mode)
        mu, var = batch_statistics(Tensor(x))
        for m in range(3):
            alone = (Tensor(means[m, 0].copy()), Tensor(variances[m, 0].copy()))
            y_m = batchnorm_forward(Tensor(x[m]), Tensor(gamma[m, 0]),
                                    Tensor(beta[m, 0]), alone, mode)
            mu_m, var_m = batch_statistics(Tensor(x[m]))
            assert np.array_equal(y.data[m], y_m.data)
            assert np.array_equal(mu.data[m, 0], mu_m.data)
            assert np.array_equal(var.data[m, 0], var_m.data)
            assert np.array_equal(state[0].data[m, 0], alone[0].data)
            assert np.array_equal(state[1].data[m, 0], alone[1].data)


def test_linear_rejects_mismatched_model_axes():
    w, b = Tensor(np.ones((3, 2, 4))), Tensor(np.ones((3, 1, 4)))
    with pytest.raises(ContractError):
        linear(Tensor(np.ones((2, 5, 2))), w, b)
    with pytest.raises(ContractError):
        linear(Tensor(np.ones((3, 5, 2))), Tensor(np.ones((2, 4))), Tensor(np.ones(4)))
    with pytest.raises(ContractError):
        linear(Tensor(np.ones((5, 3))), w, b)


# -- optimizers ------------------------------------------------------------------

def test_sgd_zero_rate_group_is_bit_identical(rng):
    p_frozen = _p(rng.standard_normal((3, 2)), "frozen")
    p_live = Parameter("live", rng.standard_normal(4), "head_new")
    before = p_frozen.data.copy()
    opt = Optimizer([p_frozen, p_live], "sgd_momentum",
                    {"backbone": 0.0, "head_new": 0.1}, momentum=0.9)
    for _ in range(5):
        p_frozen.grad = rng.standard_normal((3, 2))
        p_live.grad = rng.standard_normal(4)
        opt.step()
    assert np.array_equal(p_frozen.data, before)
    assert not np.array_equal(p_live.data, np.zeros(4))


@pytest.mark.parametrize("kind", ["sgd_momentum", "adam"])
def test_all_groups_at_zero_rate_keep_their_bytes(rng, kind):
    params = [_p(rng.standard_normal((3, 2))),
              Parameter("old", rng.standard_normal(4), "head_old")]
    before = [p.data.tobytes() for p in params]
    opt = Optimizer(params, kind, {"backbone": 0.0, "head_old": 0.0}, momentum=0.9)
    for _ in range(5):
        for p in params:
            p.grad = rng.standard_normal(p.shape)
        opt.step()
    assert [p.data.tobytes() for p in params] == before


def test_sgd_plain_step_definition():
    p = _p([1.0])
    opt = Optimizer([p], "sgd_momentum", {"backbone": 0.1}, momentum=0.0)
    p.grad = np.array([0.5])
    opt.step()
    assert abs(float(p.data[0]) - 0.95) < 1e-15


def test_sgd_momentum_matches_scripted_recurrence(rng):
    p = _p(rng.standard_normal(3))
    start = p.data.copy()
    grads = [rng.standard_normal(3) for _ in range(6)]
    opt = Optimizer([p], "sgd_momentum", {"backbone": 0.05}, momentum=0.9)
    ref, vel = start.copy(), np.zeros(3)
    for g in grads:
        p.grad = g
        opt.step()
        vel = 0.9 * vel + g
        ref = ref - 0.05 * vel
    assert np.allclose(p.data, ref, atol=1e-12)


def test_adam_matches_scripted_recurrence(rng):
    p = _p(rng.standard_normal(4))
    start = p.data.copy()
    grads = [rng.standard_normal(4) for _ in range(7)]
    opt = Optimizer([p], "adam", {"backbone": 0.01})
    ref = start.copy()
    m = np.zeros(4)
    v = np.zeros(4)
    for t, g in enumerate(grads, start=1):
        p.grad = g
        opt.step()
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1 - 0.9 ** t)
        v_hat = v / (1 - 0.999 ** t)
        ref = ref - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.allclose(p.data, ref, atol=1e-12)


def test_optimizer_requires_rate_for_every_group():
    p = Parameter("q", np.ones(2), "head_old")
    with pytest.raises(ContractError, match="no learning rate for group 'head_old'"):
        Optimizer([p], "sgd_momentum", {"backbone": 0.1})


def test_optimizer_rejects_missing_gradient():
    p = _p([1.0])
    opt = Optimizer([p], "sgd_momentum", {"backbone": 0.1})
    with pytest.raises(ContractError):
        opt.step()
    # nothing is updated when a later parameter lacks its gradient
    q = _p([2.0], "q")
    p.grad = np.array([0.5])
    opt = Optimizer([p, q], "sgd_momentum", {"backbone": 0.1})
    with pytest.raises(ContractError, match="parameter q has no gradient"):
        opt.step()
    assert np.array_equal(p.data, [1.0])


def test_optimizer_config_validation():
    with pytest.raises(ContractError, match="unknown optimizer kind 'rmsprop'"):
        Optimizer([_p([1.0])], "rmsprop", {"backbone": 0.1})
    for rate in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ContractError, match="non-finite rate for group 'backbone'"):
            Optimizer([_p([1.0])], "sgd_momentum", {"backbone": rate})


def test_optimizer_keeps_its_own_rates():
    p = _p([1.0])
    rates = {"backbone": 0.1}
    opt = Optimizer([p], "sgd_momentum", rates)
    rates["backbone"] = 0.5
    opt.set_rate("head_new", 0.2)
    assert rates == {"backbone": 0.5}
    p.grad = np.array([1.0])
    opt.step()
    assert float(p.data[0]) == 0.9


@pytest.mark.parametrize("rate", [-0.5, float("nan"), float("inf")])
def test_set_rate_rejects_what_the_config_rejects(rate):
    p = _p([1.0])
    opt = Optimizer([p], "sgd_momentum", {"backbone": 0.1})
    with pytest.raises(ContractError, match="negative or non-finite rate"):
        opt.set_rate("backbone", rate)
    p.grad = np.array([1.0])
    opt.step()
    assert float(p.data[0]) == 0.9


def test_optimizer_trajectory_is_deterministic():
    def run():
        rng = np.random.default_rng(5)
        p = _p(rng.standard_normal(6))
        opt = Optimizer([p], "adam", {"backbone": 0.02})
        for _ in range(10):
            p.grad = rng.standard_normal(6)
            opt.step()
        return p.data

    assert np.array_equal(run(), run())
