"""Property tests: invariants the code relies on, over generated inputs."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedscil import Parameter, Tensor
from fedscil.autodiff import Optimizer, OptimizerConfig

from oracles import LoopOptimizer

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
        params = [Parameter(f"p{i}", Tensor(value.copy()), group)
                  for i, (value, group) in enumerate(zip(values, groups))]
        cfg = OptimizerConfig(kind, dict(rates), momentum=momentum)
        return params, opt_class(params, cfg)

    flat_params, flat = make(Optimizer)
    loop_params, loop = make(LoopOptimizer)
    for changes in schedule:
        for group, rate in changes:
            flat.set_rate(group, rate)
            loop.set_rate(group, rate)
        for a, b in zip(flat_params, loop_params):
            a.grad = _draw(rng, a.value.shape)
            b.grad = a.grad.copy()
        taken = [p.value.data for p in flat_params]
        copies = [a.copy() for a in taken]
        flat.step()
        loop.step()
        for a, b in zip(flat_params, loop_params):
            assert _same_bits(a.value.data, b.value.data), a.name
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
