"""Dense float64 tensors with reverse-mode automatic differentiation.

The networks simulated in this package are small fully connected stacks, so
the engine favors determinism and a low per-node cost: every value is a
float64 numpy array, every differentiable operation records a backward
closure over its parents, and gradients are resolved by one depth-first
topological walk from a scalar loss. A node's gradient is the sum of its
consumers' contributions, added in the order the walk visits those
consumers; float addition is not associative, so that order is part of the
result. The walk keys its visited set and its gradients on the tensors
themselves, which compare and hash by identity (``Tensor`` must not define
``__eq__`` or ``__hash__``). The op set is deliberately small; anything not
listed here does not exist.

What the generator step runs many times is built from fused nodes:
``linear`` and ``batchnorm_forward`` here, and the cross-entropy, entropy,
KL and batch-norm statistics losses. A fused node repeats, in the same
order, the numpy arithmetic of the primitive ops it replaces, and inside
itself sums gradients in the order the walk would have summed them over
those ops, so every float matches the composed graph bit for bit. The
batch statistics that the statistics loss reads are an op of their own,
``batch_statistics``: two nodes (mean, then variance) beside the
normalization, whose gradients the walk orders as over the composed graph.
The generator's output, ``tanh(pre) * half + mid``, is one node
(``scaled_tanh``). The composed graphs live on in the tests as references.

``linear``, ``batchnorm_forward`` and ``batch_statistics`` also take a
leading model axis, so several models of one architecture run as one chain
of nodes (the generator step's teachers and its opponent student). Stacking
keeps every float of the per-model graphs under two rules. Backward
multiplies by transposed views (``swapaxes``), never by contiguous copies,
which BLAS may sum in another order. A shared input's gradient is
``np.add.reduce`` over the model axis, ((g0 + g1) + g2) + ..., the order in
which the walk summed the per-model graphs of the generator objective:
teachers in list order, then the opponent. What differs is the sign of a
zero at most: the reduction starts from 0.0, and a model slot's gradient
arrives zero-padded to the stack.

Numerical conventions, all of which tests rely on:
- ``log`` clamps its argument to >= 1e-12 and passes zero gradient below the
  clamp point.
- softmax is row-wise and max-stabilized.
- batch normalization in train mode normalizes by the batch mean and
  biased variance and always updates the running statistics, plain arrays,
  by EMA with ``running = (1 - momentum) * running + momentum * batch``;
  eval mode reads them and updates nothing.

An optimizer step is one elementwise update of a flat vector: the live
parameters' values and gradients are concatenated, the update rule runs
once over them, and each parameter's value is rebound to a view of the
fresh result. Values are never updated in place, so an array taken from a
parameter before a step keeps its contents. The rule's operations are
elementwise and in the per-parameter order, so every float is what a loop
over the parameters gives.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DegenerateBatchError

Array = np.ndarray

LOG_CLAMP = 1e-12

# Parameter group tags. bn_stats labels running statistics in checkpoints and
# aggregation; no trainable parameter carries it.
PARAM_GROUPS = ("backbone", "head_old", "head_new", "bn_stats")


def _as_f64(values) -> Array:
    return np.asarray(values, dtype=np.float64)


class Tensor:
    """A float64 array plus the bookkeeping needed for backprop."""

    __slots__ = ("data", "requires_grad", "_parents", "_bw")

    def __init__(self, data, requires_grad: bool = False,
                 parents: tuple["Tensor", ...] = (),
                 bw: Callable[[Array], tuple] | None = None):
        # every op output is already a float64 ndarray; asarray would return
        # the same object, so skip the call on the hot path
        self.data = (data if type(data) is np.ndarray and data.dtype == np.float64
                     else _as_f64(data))
        self.requires_grad = bool(requires_grad)
        self._parents = parents
        self._bw = bw

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return _add(self, _wrap(other))

    def __radd__(self, other):
        return _add(_wrap(other), self)

    def __sub__(self, other):
        return _add(self, _neg(_wrap(other)))

    def __rsub__(self, other):
        return _add(_wrap(other), _neg(self))

    def __neg__(self):
        return _neg(self)

    def __mul__(self, other):
        return _mul(self, _wrap(other))

    def __rmul__(self, other):
        return _mul(_wrap(other), self)

    def __truediv__(self, other):
        return _div(self, _wrap(other))

    def __rtruediv__(self, other):
        return _div(_wrap(other), self)

    # -- unary / reductions -------------------------------------------------

    def relu(self) -> "Tensor":
        mask = self.data > 0.0
        return _node(self.data * mask, (self,), lambda g: (g * mask,))

    def log(self) -> "Tensor":
        """Natural log with the argument clamped to >= LOG_CLAMP.

        Below the clamp the forward value is constant, so the gradient there
        is exactly zero.
        """
        out, above, clamped = _clamped_log(self.data)
        return _node(out, (self,), lambda g: (g * above / clamped,))

    def sum(self, axis: int | None = None) -> "Tensor":
        shape = self.data.shape
        out = self.data.sum(axis=axis)

        def bw(g: Array):
            if axis is None:
                return (np.broadcast_to(g, shape).copy(),)
            return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

        return _node(out, (self,), bw)

    def mean(self, axis: int | None = None) -> "Tensor":
        shape = self.data.shape
        count = self.data.size if axis is None else shape[axis]
        # what ndarray.mean computes, without its Python-level wrapper
        out = np.add.reduce(self.data, axis=axis) / count

        def bw(g: Array):
            if axis is None:
                return (np.broadcast_to(g / count, shape).copy(),)
            return (np.broadcast_to(np.expand_dims(g / count, axis), shape).copy(),)

        return _node(out, (self,), bw)

    def softmax(self) -> "Tensor":
        """Row-wise softmax of a (b, c) tensor."""
        if self.ndim != 2:
            raise ContractError("softmax expects a 2-d (batch, classes) tensor")
        p = _softmax_rows(self.data)
        return _node(p, (self,), lambda g: (_softmax_rows_bw(p, g),))


# Array-level forms of log and softmax, shared with the fused loss nodes.

def _clamped_log(a: Array) -> tuple[Array, Array, Array]:
    """(log of a clamped to >= LOG_CLAMP, mask above the clamp, clamped a)."""
    clamped = np.maximum(a, LOG_CLAMP)
    return np.log(clamped), a > LOG_CLAMP, clamped


def _softmax_rows(a: Array) -> Array:
    e = np.exp(a - a.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _softmax_rows_bw(p: Array, g: Array) -> Array:
    """Input gradient of a row-wise softmax with output p."""
    return p * (g - (g * p).sum(axis=1, keepdims=True))


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _node(data: Array, parents: tuple[Tensor, ...], bw) -> Tensor:
    for p in parents:
        if p.requires_grad:
            return Tensor(data, True, parents, bw)
    return Tensor(data)


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum a gradient back down to the shape it was broadcast from."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, n in enumerate(shape):
        if n == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# The binary ops compute no gradient for a parent that does not need one
# (a constant, or a parameter frozen for the call).

def _add(a: Tensor, b: Tensor) -> Tensor:
    return _node(a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.shape) if a.requires_grad else None,
                            _unbroadcast(g, b.shape) if b.requires_grad else None))


def _neg(a: Tensor) -> Tensor:
    return _node(-a.data, (a,), lambda g: (-g,))


def _mul(a: Tensor, b: Tensor) -> Tensor:
    return _node(a.data * b.data, (a, b),
                 lambda g: (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                            _unbroadcast(g * a.data, b.shape) if b.requires_grad else None))


def _div(a: Tensor, b: Tensor) -> Tensor:
    return _node(a.data / b.data, (a, b),
                 lambda g: (_unbroadcast(g / b.data, a.shape) if a.requires_grad else None,
                            _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
                            if b.requires_grad else None))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one node: matmul, then the broadcast bias add.

    With stacked weights, ``w`` (models, d, h) and ``b`` (models, 1, h), every
    model reads either one shared (batch, d) input or its own slice of a
    stacked (models, batch, d) one; the output is (models, batch, h), and a
    shared input's gradient is the sum over models in model order.
    """
    if (not 2 <= x.ndim <= w.ndim <= 3 or x.shape[-1] != w.shape[-2]
            or x.shape[:-2] not in ((), w.shape[:-2])):
        raise ContractError(f"linear shape mismatch {x.shape} @ {w.shape}")
    shared = x.ndim < w.ndim

    def bw(g: Array):
        g_x = g_w = None
        if x.requires_grad:
            # a transposed view, not a copy: BLAS then takes the same path
            # for each model as for a single weight matrix
            g_x = g @ w.data.swapaxes(-1, -2)
            if shared:
                g_x = np.add.reduce(g_x, axis=0)
        if w.requires_grad:
            g_w = x.data.swapaxes(-1, -2) @ g
        return (g_x, g_w, _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _node(x.data @ w.data + b.data, (x, w, b), bw)


def model_mean(t: Tensor, count: int) -> Tensor:
    """Mean of the first ``count`` models of a stacked tensor: their sum in
    model order, then times ``1 / count``, as an add chain over the models
    followed by one scaling computes it."""
    if not 1 <= count <= t.shape[0]:
        raise ContractError(f"cannot average {count} of {t.shape[0]} models")
    scale = 1.0 / count

    def bw(g: Array):
        full = np.zeros_like(t.data)
        full[:count] = g * scale
        return (full,)

    return _node(np.add.reduce(t.data[:count], axis=0) * scale, (t,), bw)


def model_slot(t: Tensor, index: int) -> Tensor:
    """Model ``index`` of a stacked tensor."""
    if not 0 <= index < t.shape[0]:
        raise ContractError(f"model {index} outside a stack of {t.shape[0]}")

    def bw(g: Array):
        full = np.zeros_like(t.data)
        full[index] = g
        return (full,)

    return _node(t.data[index], (t,), bw)


def concat(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ContractError("concat of an empty sequence")
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def bw(g: Array):
        return tuple(np.split(g, offsets, axis=axis))

    return _node(np.concatenate([t.data for t in tensors], axis=axis),
                 tuple(tensors), bw)


def col_slice(t: Tensor, start: int, stop: int) -> Tensor:
    """Columns [start, stop) of a 2-d tensor."""
    if t.ndim != 2:
        raise ContractError("col_slice expects a 2-d tensor")
    if not (0 <= start <= stop <= t.shape[1]):
        raise ContractError(f"column range [{start}, {stop}) outside width {t.shape[1]}")

    def bw(g: Array):
        full = np.zeros_like(t.data)
        full[:, start:stop] = g
        return (full,)

    return _node(t.data[:, start:stop].copy(), (t,), bw)


def row_slice(t: Tensor, start: int, stop: int) -> Tensor:
    """Rows [start, stop) of a 2-d tensor."""
    if t.ndim != 2:
        raise ContractError("row_slice expects a 2-d tensor")
    if not (0 <= start <= stop <= t.shape[0]):
        raise ContractError(f"row range [{start}, {stop}) outside height {t.shape[0]}")

    def bw(g: Array):
        full = np.zeros_like(t.data)
        full[start:stop] = g
        return (full,)

    return _node(t.data[start:stop].copy(), (t,), bw)


def gather_rows(t: Tensor, index: Array) -> Tensor:
    """Picks t[i, index[i]] for each row i; the one-hot lookup primitive."""
    if t.ndim != 2:
        raise ContractError("gather_rows expects a 2-d tensor")
    idx = np.asarray(index, dtype=np.int64)
    if idx.ndim != 1 or idx.shape[0] != t.shape[0]:
        raise ContractError("index must be 1-d with one entry per row")
    if idx.size and (idx.min() < 0 or idx.max() >= t.shape[1]):
        raise ContractError("gather index out of range")
    rows = np.arange(t.shape[0])

    def bw(g: Array):
        full = np.zeros_like(t.data)
        np.add.at(full, (rows, idx), g)
        return (full,)

    return _node(t.data[rows, idx], (t,), bw)


def one_hot(labels: Array, classes: int) -> Tensor:
    """Constant one-hot encoding of integer labels, shape (b, classes)."""
    idx = np.asarray(labels, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= classes):
        raise ContractError(f"label outside [0, {classes})")
    out = np.zeros((idx.shape[0], classes))
    out[np.arange(idx.shape[0]), idx] = 1.0
    return Tensor(out)


def scaled_tanh(t: Tensor, half: Array, mid: Array) -> Tensor:
    """``tanh(t) * half + mid`` as one node; ``half`` and ``mid`` are
    constants broadcast along the last axis."""
    out = np.tanh(t.data)
    return _node(out * half + mid, (t,),
                 lambda g: ((g * half) * (1.0 - out * out),))


# -- backward pass -----------------------------------------------------------


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[Tensor] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and p not in seen:
                stack.append((p, False))
    return order


def _compute_grads(loss: Tensor) -> dict[Tensor, Array]:
    if loss.size != 1:
        raise ContractError("backward requires a scalar loss")
    grads: dict[Tensor, Array] = {loss: np.ones_like(loss.data)}
    for node in reversed(_toposort(loss)):
        if node._bw is None:
            continue
        g = grads[node]
        for parent, pg in zip(node._parents, node._bw(g)):
            if pg is None or not parent.requires_grad:
                continue
            if parent in grads:
                grads[parent] = grads[parent] + pg
            else:
                grads[parent] = pg
    return grads


@dataclass
class Parameter:
    """A named trainable tensor tagged with its aggregation group."""

    name: str
    value: Tensor
    group: str
    grad: Array | None = None

    def __post_init__(self):
        if self.group not in PARAM_GROUPS:
            raise ContractError(f"unknown parameter group {self.group!r}")
        self.value.requires_grad = True


def grad(loss: Tensor, params: Sequence[Parameter]) -> dict[str, Array]:
    """d loss / d p for every parameter; zeros where the graph never saw p.

    Parameter values are left untouched.
    """
    grads = _compute_grads(loss)
    out: dict[str, Array] = {}
    for p in params:
        g = grads.get(p.value)
        out[p.name] = np.zeros_like(p.value.data) if g is None else g
    return out


def backprop(loss: Tensor, params: Sequence[Parameter]) -> None:
    """Convenience wrapper: compute gradients and store them on the params."""
    grads = grad(loss, params)
    for p in params:
        p.grad = grads[p.name]


@contextmanager
def frozen(params: Iterable[Parameter]):
    """Parameters that need no gradient inside the block.

    Graphs built and differentiated inside the block treat the parameters as
    constants, so no gradient is computed for them. Each parameter's
    trainability is restored on exit, whatever it was before.
    """
    saved = [(p.value, p.value.requires_grad) for p in params]
    for value, _ in saved:
        value.requires_grad = False
    try:
        yield
    finally:
        # reversed, so a parameter listed twice gets its first saved flag
        for value, flag in reversed(saved):
            value.requires_grad = flag


# -- batch normalization ------------------------------------------------------


@dataclass
class BatchNormState:
    """Running statistics of one batch-norm layer."""

    running_mean: Array
    running_var: Array
    momentum: float = 0.1
    epsilon: float = 1e-5


def _batch_sum(a: Array, stacked: bool) -> Array:
    """Sum over the batch axis; per model, what ndarray.sum(axis=0) gives."""
    return np.add.reduce(a, axis=1 if stacked else 0, keepdims=stacked)


def _moments(x: Array, stacked: bool) -> tuple[Array, Array, Array]:
    """(batch mean, x - mean, biased batch variance); add.reduce / count is
    what ndarray.mean computes."""
    count = x.shape[-2]
    mu = _batch_sum(x, stacked) / count
    centered = x - mu
    return mu, centered, _batch_sum(centered * centered, stacked) / count


def batch_statistics(x: Tensor) -> tuple[Tensor, Tensor]:
    """The batch mean and biased variance of a batch-norm input, as nodes.

    What the statistics-matching loss reads: the mean is a node over x, the
    variance a node over x and the mean, so the walk sums their gradients
    into x in the same order as over the composed graph ``mu = x.mean(0);
    c = x - mu; var = (c * c).mean(0)``. With a leading model axis, x is
    (models, batch, channels) and the statistics (models, 1, channels).
    """
    if x.ndim not in (2, 3):
        raise ContractError("batch statistics need a (batch, channels) or "
                            "(models, batch, channels) tensor")
    stacked, count = x.ndim == 3, x.shape[-2]
    mu_data, centered, var_data = _moments(x.data, stacked)
    mu = _node(mu_data, (x,),
               lambda g: (np.broadcast_to(g / count, x.shape).copy(),))

    def var_bw(g: Array):
        g_c = g / count * centered
        g_c = g_c + g_c  # c * c sends one share per operand
        return (g_c, -_batch_sum(g_c, stacked))

    return mu, _node(var_data, (x, mu), var_bw)


def batchnorm_forward(x: Tensor, gamma: Tensor, beta: Tensor,
                      state: BatchNormState, mode: str) -> Tensor:
    """Batch normalization as one fused node over x, gamma and beta.

    Train mode normalizes by the batch statistics, carries the gradient
    through them, and EMA-updates the running statistics; eval mode
    normalizes by the running statistics and computes no batch statistics
    (a loss that reads them takes them from :func:`batch_statistics`).

    With a leading model axis, x is (models, batch, channels), gamma, beta
    and the running statistics are (models, 1, channels), and each model
    normalizes its own slice.
    """
    if mode not in ("train", "eval"):
        raise ContractError(f"unknown batchnorm mode {mode!r}")
    if x.ndim not in (2, 3):
        raise ContractError("batchnorm expects a (batch, channels) or "
                            "(models, batch, channels) tensor")
    if x.shape[-1] != state.running_mean.shape[-1]:
        raise ContractError("channel count does not match running statistics")
    if mode == "train" and x.shape[-2] < 2:
        raise DegenerateBatchError("batch statistics need at least 2 samples")

    stacked, count = x.ndim == 3, x.shape[-2]
    g_data, b_data = gamma.data, beta.data
    if mode == "train":
        mu_data, centered, var_data = _moments(x.data, stacked)
        std = np.sqrt(var_data + state.epsilon)
        normed = centered / std

        def bw(g: Array):
            g_n = g * g_data
            g_std = _batch_sum(-g_n * centered / (std * std), stacked)
            g_sq = g_std * 0.5 / np.maximum(std, 1e-150) / count * centered
            # into c: the normalization's share first, then c * c's two;
            # into x: c's gradient, then the mean's share through c = x - mu
            g_c = g_n / std + g_sq + g_sq
            return (g_c + -_batch_sum(g_c, stacked) / count,
                    _batch_sum(g * normed, stacked) if gamma.requires_grad else None,
                    _batch_sum(g, stacked) if beta.requires_grad else None)

        m = state.momentum
        state.running_mean = (1.0 - m) * state.running_mean + m * mu_data
        state.running_var = (1.0 - m) * state.running_var + m * var_data
    else:
        inv = 1.0 / np.sqrt(state.running_var + state.epsilon)
        normed = (x.data - state.running_mean) * inv

        def bw(g: Array):
            return (g * g_data * inv if x.requires_grad else None,
                    _batch_sum(g * normed, stacked) if gamma.requires_grad else None,
                    _batch_sum(g, stacked) if beta.requires_grad else None)

    return _node(g_data * normed + b_data, (x, gamma, beta), bw)


# -- optimizers ---------------------------------------------------------------


@dataclass
class OptimizerConfig:
    """Per-group learning rates plus the update rule's own constants."""

    kind: str = "sgd_momentum"  # sgd_momentum | adam
    rates: dict[str, float] = field(default_factory=dict)
    momentum: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if self.kind not in ("sgd_momentum", "adam"):
            raise ContractError(f"unknown optimizer kind {self.kind!r}")
        for group, rate in self.rates.items():
            if rate < 0 or not np.isfinite(rate):
                raise ContractError(f"negative or non-finite rate for group {group!r}")


class Optimizer:
    """Stateful SGD-with-momentum or Adam over named parameters.

    Each step is one flat update that rebinds the values (see the module
    docstring). The state (the SGD velocity, Adam's m and v) is one flat
    array over every parameter.

    Groups with rate exactly 0 are skipped entirely: neither their values nor
    their state change, so their parameters are bit-identical after any
    number of steps, and a group switched back on resumes its state. A
    velocity starts as the parameter's first live gradient, Adam's moments
    start at zero, and Adam's step count is shared by all parameters. Which
    parameters are live, and at what rate (one scalar, or one rate per
    element when live groups differ), is read from the groups and rates at
    the first step and again whenever ``set_rate`` changes a rate.
    """

    def __init__(self, params: Sequence[Parameter], cfg: OptimizerConfig):
        self.params = list(params)
        self.cfg = cfg
        for p in self.params:
            if p.group not in cfg.rates:
                raise ContractError(f"no learning rate for group {p.group!r}")
        self._bounds = [0]
        for p in self.params:
            self._bounds.append(self._bounds[-1] + p.value.data.size)
        if cfg.kind == "sgd_momentum":
            self._vel = np.zeros(self._bounds[-1])
            self._fresh = [True] * len(self.params)  # no velocity yet
        else:
            self._m = np.zeros(self._bounds[-1])
            self._v = np.zeros(self._bounds[-1])
        self._t = 0
        self._plan: tuple | None = None

    def set_rate(self, group: str, rate: float) -> None:
        rate = float(rate)
        if self.cfg.rates.get(group) != rate:
            self._plan = None
        self.cfg.rates[group] = rate

    def _make_plan(self) -> tuple:
        """(live parameters, their (start, stop, shape) in the step's vector,
        the rate, their positions in the state (None when all are live), and
        the (parameter, start, stop) of velocities not started yet)."""
        live, spans, rates, index, fresh = [], [], [], [], []
        size = 0
        for i, p in enumerate(self.params):
            rate = self.cfg.rates[p.group]
            if rate == 0.0:
                continue
            lo, hi = self._bounds[i], self._bounds[i + 1]
            live.append(p)
            spans.append((size, size + hi - lo, p.value.data.shape))
            rates.append((rate, hi - lo))
            index.append(np.arange(lo, hi))
            if self.cfg.kind == "sgd_momentum" and self._fresh[i]:
                fresh.append((i, size, size + hi - lo))
            size += hi - lo
        if len({rate for rate, _ in rates}) == 1:
            rate = rates[0][0]
        else:
            rate = np.repeat([r for r, _ in rates], [n for _, n in rates])
        state_index = (None if len(live) == len(self.params)
                       else np.concatenate(index) if index else None)
        return live, spans, rate, state_index, fresh

    def step(self) -> None:
        cfg = self.cfg
        if self._plan is None:
            self._plan = self._make_plan()
        live, spans, rate, index, fresh = self._plan
        grads = [p.grad for p in live]
        for p, g in zip(live, grads):
            if g is None:
                raise ContractError(f"parameter {p.name} has no gradient")
        self._t += 1
        if not live:
            return
        g = np.concatenate(grads, axis=None)
        x = np.concatenate([p.value.data for p in live], axis=None)
        if g.size != x.size:
            raise ContractError("gradients do not match their parameters' sizes")
        if cfg.kind == "sgd_momentum":
            v = cfg.momentum * (self._vel if index is None else self._vel[index]) + g
            for i, lo, hi in fresh:
                v[lo:hi] = g[lo:hi]
                self._fresh[i] = False
            if fresh:
                self._plan = None
            if index is None:
                self._vel = v
            else:
                self._vel[index] = v
            new = x - rate * v
        else:
            m = (self._m if index is None else self._m[index]) * cfg.beta1 \
                + (1 - cfg.beta1) * g
            v = (self._v if index is None else self._v[index]) * cfg.beta2 \
                + (1 - cfg.beta2) * g * g
            if index is None:
                self._m, self._v = m, v
            else:
                self._m[index], self._v[index] = m, v
            m_hat = m / (1 - cfg.beta1 ** self._t)
            v_hat = v / (1 - cfg.beta2 ** self._t)
            new = x - rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
        for p, (lo, hi, shape) in zip(live, spans):
            p.value.data = new[lo:hi].reshape(shape)
