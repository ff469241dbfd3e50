"""Closed-form values and identities for every loss."""
import numpy as np
import pytest

from fedscil import (LossWeights, Tensor, bn_stat_loss, client_loss,
                     cross_entropy, generator_entropy_loss,
                     generator_fidelity_loss, generator_total_loss,
                     info_entropy, noise_robust_loss, replay_loss_subset,
                     reverse_cross_entropy, student_loss,
                     transferability_loss)
from fedscil.autodiff import Parameter, col_slice, grad
from fedscil.errors import ContractError
from fedscil.losses import distillation_loss_subset
from oracles import composed_kl_rows

# scripted oracle values (natural log throughout)
NEG_LN_075 = 0.2876820724517809          # -ln 0.75
NEG_LN_07 = 0.35667494393873245          # -ln 0.7
THIRD_LN_3 = 0.3662040962227033          # (1/3) ln 3
HALF_LN_2 = 0.34657359027997264          # (1/2) ln 2
KL_08_05 = 0.19274475702175747           # KL([.8,.2] || [.5,.5])
KL_08_03 = 0.5341108087103075            # KL([.8,.2] || [.3,.7])


def _logits_for(p):
    """Logits whose softmax reproduces the given rows of probabilities."""
    return Tensor(np.log(np.asarray(p, dtype=np.float64)))


# -- cross entropy -----------------------------------------------------------------

def test_cross_entropy_confident_prediction_is_zero():
    logits = Tensor(np.array([[60.0, 0.0], [0.0, 60.0]]))
    assert float(cross_entropy(logits, np.array([0, 1])).data) <= 1e-9


def test_cross_entropy_uniform_two_classes():
    value = cross_entropy(_logits_for([[0.5, 0.5]]), np.array([0]))
    assert abs(float(value.data) - np.log(2.0)) <= 1e-9


def test_cross_entropy_three_quarters():
    value = cross_entropy(_logits_for([[0.75, 0.25]]), np.array([0]))
    assert abs(float(value.data) - NEG_LN_075) <= 1e-9


def test_cross_entropy_batch_mean():
    logits = _logits_for([[0.75, 0.25], [0.5, 0.5]])
    value = float(cross_entropy(logits, np.array([0, 1])).data)
    assert abs(value - (NEG_LN_075 + np.log(2.0)) / 2.0) <= 1e-9


def test_cross_entropy_validation():
    with pytest.raises(ContractError):
        cross_entropy(Tensor(np.ones((0, 2))), np.array([], dtype=np.int64))
    with pytest.raises(ContractError):
        cross_entropy(Tensor(np.ones((2, 2))), np.array([0]))


# -- reverse cross entropy -----------------------------------------------------------

def test_rce_one_hot_is_zero():
    probs = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert abs(float(reverse_cross_entropy(probs, np.array([0, 1])).data)) <= 1e-12


def test_rce_point_seven():
    value = reverse_cross_entropy(Tensor(np.array([[0.7, 0.3]])), np.array([0]))
    assert abs(float(value.data) - 1.2) <= 1e-12


def test_rce_uniform_two_classes():
    value = reverse_cross_entropy(Tensor(np.array([[0.5, 0.5]])), np.array([0]))
    assert abs(float(value.data) - 2.0) <= 1e-12


def test_rce_custom_floor():
    value = reverse_cross_entropy(Tensor(np.array([[0.7, 0.3]])), np.array([0]),
                                  log_zero=-2.0)
    assert abs(float(value.data) - 0.6) <= 1e-12


# -- combined noise-robust loss -------------------------------------------------------

def test_noise_robust_beta_zero_equals_cross_entropy(rng):
    logits = Tensor(rng.standard_normal((6, 4)))
    y = rng.integers(0, 4, size=6)
    a = float(noise_robust_loss(logits, y, alpha=1.0, beta=0.0).data)
    b = float(cross_entropy(logits, y).data)
    assert abs(a - b) <= 1e-12


def test_noise_robust_alpha_zero_perfect_prediction():
    logits = Tensor(np.array([[80.0, 0.0]]))
    value = noise_robust_loss(logits, np.array([0]), alpha=0.0, beta=1.0)
    assert abs(float(value.data)) <= 1e-9


def test_noise_robust_hand_value():
    value = noise_robust_loss(_logits_for([[0.7, 0.3]]), np.array([0]),
                              alpha=1.0, beta=1.0)
    assert abs(float(value.data) - (NEG_LN_07 + 1.2)) <= 1e-9


# -- replay loss over the full head ---------------------------------------------------

def test_replay_subset_equals_sliced_without_new_columns(rng):
    logits = Tensor(rng.standard_normal((5, 4)))
    y = rng.integers(0, 4, size=5)
    subset = float(replay_loss_subset(logits, y, 4, 0.5, 2.0).data)
    sliced = float(noise_robust_loss(col_slice(logits, 0, 4), y, 0.5, 2.0).data)
    assert abs(subset - sliced) <= 1e-12


def test_replay_subset_penalizes_new_column_mass():
    # adding a hot new column must raise the loss on an old-class sample
    y = np.array([0])
    calm = Tensor(np.array([[2.0, 0.0, -5.0]]))
    hot = Tensor(np.array([[2.0, 0.0, 4.0]]))
    lo = float(replay_loss_subset(calm, y, 2, 1.0, 1.0).data)
    hi = float(replay_loss_subset(hot, y, 2, 1.0, 1.0).data)
    assert hi > lo


def test_replay_subset_validation(rng):
    logits = Tensor(rng.standard_normal((3, 4)))
    with pytest.raises(ContractError):
        replay_loss_subset(logits, np.array([0, 1, 2]), 0, 1.0, 1.0)
    with pytest.raises(ContractError):
        replay_loss_subset(logits, np.array([0, 1, 2]), 5, 1.0, 1.0)
    with pytest.raises(ContractError):
        replay_loss_subset(logits, np.array([0, 3, 1]), 2, 1.0, 1.0)


# -- client objective ------------------------------------------------------------------

def test_client_loss_k_zero_is_new_term_alone(rng):
    logits = Tensor(rng.standard_normal((4, 3)))
    y = rng.integers(0, 3, size=4)
    weights = LossWeights(k=0.0)
    a = float(client_loss(logits, y, None, None, weights).data)
    assert abs(a - float(cross_entropy(logits, y).data)) <= 1e-12


def test_client_loss_components_add_up(rng):
    new_logits = Tensor(rng.standard_normal((4, 5)))
    replay_logits = Tensor(rng.standard_normal((6, 5)))
    y_new = rng.integers(3, 5, size=4)
    y_old = rng.integers(0, 3, size=6)
    weights = LossWeights(alpha=0.5, beta=2.0, k=1.5)
    total = float(client_loss(new_logits, y_new, replay_logits, y_old,
                              weights, old_count=3).data)
    parts = float(cross_entropy(new_logits, y_new).data) \
        + 1.5 * float(replay_loss_subset(replay_logits, y_old, 3, 0.5, 2.0).data)
    assert abs(total - parts) <= 1e-12


def test_client_loss_sliced_mode(rng):
    """Given only the old-class columns, the replay term is the noise-robust
    loss over their renormalized softmax."""
    replay_logits = Tensor(rng.standard_normal((6, 5)))
    new_logits = Tensor(rng.standard_normal((4, 5)))
    y_new = rng.integers(3, 5, size=4)
    y_old = rng.integers(0, 3, size=6)
    weights = LossWeights(alpha=1.0, beta=1.0, k=2.0)
    total = float(client_loss(new_logits, y_new, col_slice(replay_logits, 0, 3),
                              y_old, weights, old_count=3).data)
    probs = replay_logits.data[:, :3]
    probs = np.exp(probs) / np.exp(probs).sum(axis=1, keepdims=True)
    p_y = probs[np.arange(6), y_old]
    parts = float(cross_entropy(new_logits, y_new).data) + 2.0 * float(
        np.mean(-np.log(p_y)) + np.mean(4.0 * (1.0 - p_y)))
    assert abs(total - parts) <= 1e-12


def test_noise_robust_loss_is_the_replay_objective_over_every_column(rng):
    logits = Parameter("l", rng.standard_normal((7, 4)), "backbone")
    y = rng.integers(0, 4, size=7)
    a = noise_robust_loss(logits, y, 0.6, 1.7, -3.0)
    b = replay_loss_subset(logits, y, 4, 0.6, 1.7, -3.0)
    assert np.array_equal(a.data, b.data)
    assert np.array_equal(grad(a, [logits])["l"], grad(b, [logits])["l"])


def test_client_loss_requires_replay_when_k_positive(rng):
    logits = Tensor(rng.standard_normal((4, 3)))
    y = rng.integers(0, 3, size=4)
    with pytest.raises(ContractError):
        client_loss(logits, y, None, None, LossWeights(k=1.0))


def test_client_loss_gradient_reaches_both_head_groups(rng):
    from fedscil import Classifier, grad
    model = Classifier(in_dim=3, base_classes=2, seed=0)
    model.expand_head(1, 2, seed=1)
    x_new = rng.standard_normal((4, 3))
    x_replay = rng.standard_normal((4, 3))
    y_new = rng.integers(2, 4, size=4)
    y_old = rng.integers(0, 2, size=4)
    loss = client_loss(model.forward(x_new, mode="eval"), y_new,
                       model.forward(x_replay, mode="eval"), y_old,
                       LossWeights(k=1.0), old_count=2)
    grads = grad(loss, model.parameters())
    by_group = {"head_old": 0.0, "head_new": 0.0}
    for p in model.parameters():
        if p.group in by_group:
            by_group[p.group] += float(np.abs(grads[p.name]).sum())
    assert by_group["head_old"] > 0
    assert by_group["head_new"] > 0


# -- entropy terms -----------------------------------------------------------------------

def test_info_entropy_near_one_hot_is_zero():
    probs = Tensor(np.array([[60.0, 0.0]])).softmax()
    assert abs(float(info_entropy(probs).data)) <= 1e-9


def test_info_entropy_uniform_values():
    two = Tensor(np.full((3, 2), 0.5))
    three = Tensor(np.full((2, 3), 1.0 / 3.0))
    assert abs(float(info_entropy(two).data) - HALF_LN_2) <= 1e-9
    assert abs(float(info_entropy(three).data) - THIRD_LN_3) <= 1e-9


def test_generator_entropy_loss_negates_entropy():
    probs = Tensor(np.full((1, 2), 0.5))
    logits = _logits_for([[0.5, 0.5]])
    assert abs(float(generator_entropy_loss(logits).data)
               + float(info_entropy(probs).data)) <= 1e-9


def test_generator_entropy_loss_names_itself_on_a_bad_shape():
    for logits in (Tensor(np.zeros((0, 2))), Tensor(np.zeros(2))):
        with pytest.raises(ContractError, match="generator_entropy_loss"):
            generator_entropy_loss(logits)


def test_generator_entropy_loss_prefers_flat_distributions():
    values = [float(generator_entropy_loss(_logits_for([[p, 1 - p]])).data)
              for p in (0.9, 0.8, 0.7, 0.6)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_generator_fidelity_is_cross_entropy_on_condition():
    logits = _logits_for([[0.75, 0.25]])
    assert abs(float(generator_fidelity_loss(logits, np.array([0])).data)
               - NEG_LN_075) <= 1e-9


# -- batch-norm statistics loss ---------------------------------------------------------

def test_bn_stat_loss_zero_when_stats_match(rng):
    mu = rng.standard_normal((1, 3))
    var = rng.uniform(0.5, 1.5, (1, 3))
    stats = [(Tensor(mu), Tensor(var))]
    running = [(mu.copy(), var.copy())]
    assert abs(float(bn_stat_loss(stats, running).data)) <= 1e-12


def test_bn_stat_loss_scalar_mean_shift():
    stats = [(Tensor(np.array([[1.0]])), Tensor(np.array([[2.0]])))]
    running = [(np.array([[0.5]]), np.array([[2.0]]))]
    assert abs(float(bn_stat_loss(stats, running).data) - 0.5) <= 1e-12


def test_bn_stat_loss_invariant_to_duplicated_teachers(rng):
    mu, var = rng.standard_normal((1, 4)), rng.uniform(0.5, 1.5, (1, 4))
    r_mu, r_var = rng.standard_normal((1, 4)), rng.uniform(0.5, 1.5, (1, 4))
    one = bn_stat_loss([(Tensor(mu), Tensor(var))], [(r_mu, r_var)])
    two = bn_stat_loss([(Tensor(np.concatenate([mu, mu])),
                         Tensor(np.concatenate([var, var])))],
                       [(np.concatenate([r_mu, r_mu]),
                         np.concatenate([r_var, r_var]))])
    assert abs(float(one.data) - float(two.data)) <= 1e-12


def test_bn_stat_loss_rejects_models_past_the_running_statistics(rng):
    mu, var = Tensor(rng.standard_normal((3, 1, 4))), Tensor(np.ones((3, 1, 4)))
    r_mu, r_var = rng.standard_normal((2, 1, 4)), rng.uniform(0.5, 1.5, (2, 1, 4))
    with pytest.raises(ContractError, match="do not match"):
        bn_stat_loss([(mu, var)], [(r_mu, r_var)])


def test_bn_stat_loss_validation():
    with pytest.raises(ContractError):
        bn_stat_loss([], [])
    with pytest.raises(ContractError):
        bn_stat_loss([(Tensor(np.ones((1, 2))), Tensor(np.ones((1, 2))))], [])
    with pytest.raises(ContractError):
        # fewer batch statistics than models with running statistics
        bn_stat_loss([(Tensor(np.ones((1, 2))), Tensor(np.ones((1, 2))))],
                     [(np.ones((2, 2)), np.ones((2, 2)))])
    with pytest.raises(ContractError):
        bn_stat_loss([(Tensor(np.ones((1, 3))), Tensor(np.ones((1, 3))))],
                     [(np.ones((1, 2)), np.ones((1, 2)))])


# -- distillation KL terms ----------------------------------------------------------------

def test_student_loss_identical_logits_is_zero(rng):
    logits = Tensor(rng.standard_normal((4, 3)))
    assert abs(float(student_loss(logits, logits).data)) <= 1e-12


def test_student_loss_shift_invariance(rng):
    logits = rng.standard_normal((4, 3))
    shifted = logits + rng.standard_normal((4, 1))
    assert abs(float(student_loss(Tensor(logits), Tensor(shifted)).data)) <= 1e-9


def test_student_loss_hand_value():
    value = student_loss(_logits_for([[0.8, 0.2]]), _logits_for([[0.5, 0.5]]))
    assert abs(float(value.data) - KL_08_05) <= 1e-9


def test_student_loss_temperature(rng):
    t = rng.standard_normal((5, 4))
    s = rng.standard_normal((5, 4))
    direct = float(student_loss(Tensor(t), Tensor(s), temperature=2.0).data)
    manual = float(composed_kl_rows(Tensor(t), Tensor(s), 2.0).mean().data)
    assert abs(direct - manual) <= 1e-12


def test_distillation_subset_equals_student_loss_without_new_columns(rng):
    t = rng.standard_normal((5, 4))
    s = rng.standard_normal((5, 4))
    a = float(distillation_loss_subset(Tensor(t), Tensor(s), 4, 1.5).data)
    b = float(student_loss(Tensor(t), Tensor(s), 1.5).data)
    assert abs(a - b) <= 1e-12


def test_distillation_subset_penalizes_new_column_mass():
    teacher = _logits_for([[0.8, 0.2]])
    calm = Tensor(np.array([[2.0, 0.5, -6.0]]))
    hot = Tensor(np.array([[2.0, 0.5, 3.0]]))
    lo = float(distillation_loss_subset(teacher, calm, 2).data)
    hi = float(distillation_loss_subset(teacher, hot, 2).data)
    assert hi > lo


def test_distillation_subset_validation(rng):
    t = Tensor(rng.standard_normal((3, 2)))
    s = Tensor(rng.standard_normal((3, 4)))
    with pytest.raises(ContractError):
        distillation_loss_subset(t, s, 3)  # teacher narrower than old count
    with pytest.raises(ContractError):
        distillation_loss_subset(t, s, 5)


# -- transferability --------------------------------------------------------------------

def test_transferability_zero_on_agreement(rng):
    logits = Tensor(rng.standard_normal((4, 3)))
    assert abs(float(transferability_loss(logits, logits).data)) <= 1e-12


def test_transferability_hand_value():
    value = transferability_loss(_logits_for([[0.8, 0.2]]),
                                 _logits_for([[0.3, 0.7]]))
    assert abs(float(value.data) + KL_08_03) <= 1e-9


def test_transferability_gates_agreeing_samples():
    # two samples; only the second disagrees, so the mean halves its KL
    t = _logits_for([[0.8, 0.2], [0.8, 0.2]])
    s = _logits_for([[0.6, 0.4], [0.3, 0.7]])
    value = float(transferability_loss(t, s).data)
    assert abs(value + KL_08_03 / 2.0) <= 1e-9


def test_transferability_equals_negated_gated_kl(rng):
    t = rng.standard_normal((6, 4))
    s = rng.standard_normal((6, 4))
    direct = float(transferability_loss(Tensor(t), Tensor(s), 1.3).data)
    gate = (t.argmax(axis=1) != s.argmax(axis=1)).astype(np.float64)
    kl = composed_kl_rows(Tensor(t), Tensor(s), 1.3).data
    assert abs(direct + float((gate * kl).mean())) <= 1e-12


# -- combined generator objective --------------------------------------------------------

def test_generator_total_all_zero_weights():
    weights = LossWeights(lambda1=0, lambda2=0, lambda3=0, lambda4=0)
    value = generator_total_loss(1.0, 2.0, 3.0, 4.0, weights)
    assert float(value.data) == 0.0


def test_generator_total_unit_weights_plain_sum(rng):
    weights = LossWeights(lambda1=1, lambda2=1, lambda3=1, lambda4=1)
    parts = rng.standard_normal(4)
    value = generator_total_loss(*[Tensor(np.array(p)) for p in parts], weights)
    assert abs(float(value.data) - parts.sum()) <= 1e-12


def test_generator_total_reference_weighting(rng):
    weights = LossWeights(lambda1=10.0, lambda2=0.1, lambda3=1.0, lambda4=1.0)
    parts = rng.standard_normal(4)
    value = generator_total_loss(*[Tensor(np.array(p)) for p in parts], weights)
    expected = 10.0 * parts[0] + 0.1 * parts[1] + parts[2] + parts[3]
    assert abs(float(value.data) - expected) <= 1e-12


# -- weight validation --------------------------------------------------------------------

def test_loss_weights_validation():
    with pytest.raises(ContractError):
        LossWeights(k=-1.0).validate()
    with pytest.raises(ContractError):
        LossWeights(rce_log_zero=0.0).validate()
    for temperature in (0.0, np.inf, np.nan):
        with pytest.raises(ContractError, match="weights.kl_temperature"):
            LossWeights(kl_temperature=temperature).validate()
    LossWeights().validate()
