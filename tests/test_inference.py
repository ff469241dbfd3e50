"""The inference path: Classifier.predict and the eval-only passes built on it
(evaluation, pool relabeling, the per-class accuracy matrix)."""
import tracemalloc

import numpy as np
import pytest

from fedscil import Classifier, autodiff
from fedscil.aggregation import build_accuracy_matrix
from fedscil.data import LabeledDataset
from fedscil.generation import SyntheticPool, relabel
from fedscil.models import PREDICT_CHUNK
from fedscil.orchestrator import evaluate

IN_DIM = 16


def _expanded_model() -> Classifier:
    """A 12-class base model grown by a 2-class session 1 block."""
    model = Classifier(in_dim=IN_DIM, base_classes=12, seed=0)
    model.expand_head(1, 2, seed=1)
    return model


def _pool(rows: int, seed: int = 0) -> SyntheticPool:
    rng = np.random.default_rng(seed)
    return SyntheticPool(1, 12, 14, rng.standard_normal((rows, IN_DIM)),
                         np.arange(rows, dtype=np.int64) % 2 + 12)


# Row counts at the first chunk boundary and, as fixed literals, at 511-513
# (the four-chunk boundary for 128-row chunks).
@pytest.mark.parametrize("rows", [1, PREDICT_CHUNK - 1, PREDICT_CHUNK,
                                  PREDICT_CHUNK + 1, 511, 512, 513, 1280])
@pytest.mark.parametrize("session", [None, 1])
def test_predict_is_the_argmax_of_one_unchunked_forward(rng, rows, session):
    model = _expanded_model()
    x = rng.standard_normal((rows, IN_DIM))
    expected = model.forward(x, mode="eval", session=session).data.argmax(axis=1)
    assert np.array_equal(model.predict(x, session=session), expected)


def test_predict_restores_every_trainability_flag(rng):
    model = _expanded_model()
    model.heads[0].weight.value.requires_grad = False
    before = [p.value.requires_grad for p in model.parameters()]
    model.predict(rng.standard_normal((PREDICT_CHUNK + 3, IN_DIM)))
    assert [p.value.requires_grad for p in model.parameters()] == before
    assert before.count(False) == 1


def test_eval_only_passes_build_no_graph(monkeypatch, rng):
    """No node made during evaluation, relabeling or the accuracy matrix
    keeps parents or saved arrays: nothing is held for a backward walk."""
    built = []
    apply = autodiff._apply

    def recording(*args):
        node = apply(*args)
        built.append(node)
        return node

    model = _expanded_model()
    ds = LabeledDataset(rng.standard_normal((600, IN_DIM)),
                        np.arange(600) % 14, 14)
    monkeypatch.setattr(autodiff, "_apply", recording)
    evaluate(model, ds, 12)
    relabel(_pool(600), model)
    build_accuracy_matrix([model, _expanded_model()], _pool(600))
    assert built
    assert all(node._saved is None and node._parents == () for node in built)


def _relabel_peak(model: Classifier, pool: SyntheticPool) -> int:
    relabel(pool, model)  # warm-up: first-call allocations are not the pass's
    tracemalloc.start()
    try:
        relabel(pool, model)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_relabel_memory_grows_only_by_its_pool_sized_outputs():
    """A pool eight times the chunk costs no more than its int64 outputs per
    extra row (the chunk predictions, their concatenation, the shifted and
    the cast pseudo-labels): the activations stay one chunk's."""
    model = _expanded_model()
    small, large = _pool(PREDICT_CHUNK), _pool(8 * PREDICT_CHUNK)
    extra_rows = len(large) - len(small)
    growth = _relabel_peak(model, large) - _relabel_peak(model, small)
    assert growth <= 4 * 8 * extra_rows
