"""Dense float64 tensors with reverse-mode automatic differentiation.

The networks simulated in this package are small fully connected stacks, so
the engine favors determinism and a low per-node cost: every value is a
float64 numpy array, and gradients are resolved by one depth-first
topological walk from a scalar loss. A node's gradient is the sum of its
consumers' contributions, added in the order the walk visits those
consumers; float addition is not associative, so that order is part of the
result. The walk keys its visited set and its gradients on the tensors
themselves, which compare and hash by identity (``Tensor`` must not define
``__eq__`` or ``__hash__``). The op set is deliberately small; anything not
listed here does not exist.

Every op is a pair of module-level array functions: a forward ``fw(inputs,
*args) -> (out, saved)`` over the parents' values and other arguments, and
a backward ``bw(g, saved, needs)`` giving one gradient per parent, None
where ``needs`` (the parents' trainability) asks for none, or ``(index,
part)`` for ``parent[index]`` alone. ``_apply`` is the one node
constructor: a node keeps its parents, its op's backward and the forward's
saved arrays. ``_backward`` is the one backward walk, and both the graph
(``grad``, ``backprop``) and :class:`Replay` run it. The generator step's
ops are fused: ``linear``, ``batchnorm_forward``, ``batch_statistics``
(two nodes, mean then variance) and the cross-entropy, entropy, KL and
statistics losses repeat, in order, the numpy arithmetic of the primitive
ops they replace and sum gradients in the order the walk would have, so
every float matches the composed graph (kept in the tests) bit for bit.

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
arrives as a slice of the stack.

:class:`Replay` runs every training step: per tuple of input shapes it
records a step's op calls once and replays the step as flat array code over
numbered value slots, forwards in creation order, then per loss the recorded
walk's schedule through ``_backward`` with slots in place of tensors, so the
floats are the graph's and a choice made from the shapes (the batch-norm
mode) is fixed per record. A replay reads every leaf's ``data`` afresh and the
step's own arrays, found by identity; an array made from them outside an op
replays stale, so an input no op reads is refused. An op checks labels in its
forward, which a replay runs too, and shapes in its wrapper (a record fixes them).

Numerical conventions, all of which tests rely on:
- ``log`` clamps its argument to >= 1e-12 and passes zero gradient below the
  clamp point.
- softmax is row-wise and max-stabilized.
- batch normalization in train mode normalizes by the batch mean and
  biased variance and always updates the running statistics, rebinding
  their tensors' data to the EMA ``running = (1 - m) * running + m * batch``,
  m = BN_MOMENTUM; eval mode reads them and updates nothing.
"""
from __future__ import annotations

from contextlib import contextmanager
from operator import attrgetter
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DegenerateBatchError

Array = np.ndarray

LOG_CLAMP = 1e-12

# Adam's decay rates and denominator guard (Kingma & Ba), and batch norm's
# running-statistics momentum and variance guard (PyTorch's defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8
BN_MOMENTUM, BN_EPSILON = 0.1, 1e-5

# Parameter group tags. bn_stats labels running statistics, the parameters
# that need no gradient; no trainable parameter carries it.
PARAM_GROUPS = ("backbone", "head_old", "head_new", "bn_stats")

# the op calls of a step being recorded by Replay; None outside
_tape: list | None = None
# ((running mean, running var), their data) before each train-mode batch norm
# of a Replay call, restored if the call raises; None outside
_undo: list | None = None


class Tensor:
    """A float64 array plus the bookkeeping needed for backprop."""

    __slots__ = ("data", "requires_grad", "_parents", "_bw", "_saved")

    def __init__(self, data, requires_grad: bool = False):
        # every op output is already a float64 ndarray; asarray would return
        # the same object, so skip the call on the hot path
        self.data = (data if type(data) is np.ndarray and data.dtype == np.float64
                     else np.asarray(data, dtype=np.float64))
        self.requires_grad = bool(requires_grad)
        # a node's parents, its op's backward and the forward's saved arrays,
        # set by _apply
        self._parents, self._bw, self._saved = (), None, None

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
        return _apply(_ufunc_fw, _add_bw, (self, _wrap(other)), np.add)

    def __radd__(self, other):
        return _apply(_ufunc_fw, _add_bw, (_wrap(other), self), np.add)

    def __sub__(self, other):
        return self + -_wrap(other)

    def __rsub__(self, other):
        return _wrap(other) + -self

    def __neg__(self):
        return _apply(_ufunc_fw, _neg_bw, (self,), np.negative)

    def __mul__(self, other):
        return _apply(_ufunc_fw, _mul_bw, (self, _wrap(other)), np.multiply)

    def __rmul__(self, other):
        return _apply(_ufunc_fw, _mul_bw, (_wrap(other), self), np.multiply)

    # -- unary / reductions -------------------------------------------------

    def relu(self) -> "Tensor":
        return _apply(_relu_fw, _relu_bw, (self,))

    def log(self) -> "Tensor":
        """Natural log of the argument clamped to >= LOG_CLAMP, below which
        the value is constant and the gradient exactly zero."""
        return _apply(_log_fw, _log_bw, (self,))

    def sum(self, axis: int | None = None) -> "Tensor":
        return _apply(_reduce_fw, _reduce_bw, (self,), axis, False)

    def mean(self, axis: int | None = None) -> "Tensor":
        return _apply(_reduce_fw, _reduce_bw, (self,), axis, True)

    def softmax(self) -> "Tensor":
        """Row-wise softmax of a (b, c) tensor."""
        if self.ndim != 2:
            raise ContractError("softmax expects a 2-d (batch, classes) tensor")
        return _apply(_softmax_fw, _softmax_bw, (self,))


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _apply(fw, bw, parents: tuple[Tensor, ...], *static) -> Tensor:
    """The one node constructor: runs the op's forward now and, if a parent
    needs a gradient, keeps the backward and the saved arrays for the walk."""
    out, saved = fw([p.data for p in parents], *static)
    node = Tensor(out)
    for p in parents:
        if p.requires_grad:
            node.requires_grad = True
            node._parents, node._bw, node._saved = parents, bw, saved
            break
    if _tape is not None:
        _tape.append((fw, parents, static, node))
    return node


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


# The elementwise arithmetic shares one forward, the ufunc over the
# operands, which it saves. The binary ops compute no gradient for a parent
# that does not need one (a constant, or a parameter frozen for the call).

def _ufunc_fw(ins, op):
    return op(*ins), ins


def _add_bw(g, ins, needs):
    return tuple(_unbroadcast(g, a.shape) if need else None
                 for a, need in zip(ins, needs))


def _neg_bw(g, ins, needs):
    return (-g,)


def _mul_bw(g, ins, needs):
    a, b = ins
    return (_unbroadcast(g * b, a.shape) if needs[0] else None,
            _unbroadcast(g * a, b.shape) if needs[1] else None)


def _relu_fw(ins):
    mask = ins[0] > 0.0
    return ins[0] * mask, mask


def _relu_bw(g, mask, needs):
    return (g * mask,)


def _log_fw(ins):
    """(log of the clamped input, (mask above the clamp, clamped input))."""
    clamped = np.maximum(ins[0], LOG_CLAMP)
    return np.log(clamped), (ins[0] > LOG_CLAMP, clamped)


def _log_bw(g, s, needs):
    return (g * s[0] / s[1],)


def _reduce_fw(ins, axis, mean):
    # add.reduce (/ count) is ndarray.sum (mean) without its Python wrapper
    a = ins[0]
    count = (a.size if axis is None else a.shape[axis]) if mean else None
    out = np.add.reduce(a, axis=axis)
    return out if count is None else out / count, (a.shape, axis, count)


def _reduce_bw(g, s, needs):
    shape, axis, count = s
    if count is not None:
        g = g / count
    if axis is not None:
        g = np.expand_dims(g, axis)
    return (np.broadcast_to(g, shape).copy(),)


def _softmax_fw(ins):
    """Row-wise, max-stabilized softmax p of ins[0], saved as it is."""
    e = np.exp(ins[0] - ins[0].max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    return p, p


def _softmax_bw(g, p, needs):
    return (p * (g - (g * p).sum(axis=1, keepdims=True)),)


def _linear_fw(ins):
    return ins[0] @ ins[1] + ins[2], ins


def _linear_bw(g, ins, needs):
    x, w, b = ins
    g_x = g_w = None
    if needs[0]:
        # a transposed view, not a copy: BLAS then takes the same path for
        # each model as for a single weight matrix
        g_x = g @ w.swapaxes(-1, -2)
        if x.ndim < w.ndim:
            g_x = np.add.reduce(g_x, axis=0)
    if needs[1]:
        g_w = x.swapaxes(-1, -2) @ g
    return g_x, g_w, _unbroadcast(g, b.shape) if needs[2] else None


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
    return _apply(_linear_fw, _linear_bw, (x, w, b))


def _model_mean_fw(ins, count):
    return np.add.reduce(ins[0][:count], axis=0) * (1.0 / count), count


def _model_mean_bw(g, count, needs):
    return ((slice(count), g * (1.0 / count)),)


def model_mean(t: Tensor, count: int) -> Tensor:
    """Mean of the first ``count`` models of a stacked tensor: their sum in
    model order, then times ``1 / count``, as an add chain over the models
    followed by one scaling computes it."""
    if not 1 <= count <= t.shape[0]:
        raise ContractError(f"cannot average {count} of {t.shape[0]} models")
    return _apply(_model_mean_fw, _model_mean_bw, (t,), count)


def _slice_fw(ins, index):
    return ins[0][index].copy(), index


def _slice_bw(g, index, needs):
    return ((index, g),)


def model_slot(t: Tensor, index: int) -> Tensor:
    """Model ``index`` of a stacked tensor."""
    if not 0 <= index < t.shape[0]:
        raise ContractError(f"model {index} outside a stack of {t.shape[0]}")
    return _apply(_slice_fw, _slice_bw, (t,), index)


def _concat_fw(ins, axis):
    offsets = np.cumsum([a.shape[axis] for a in ins])[:-1]
    return np.concatenate(ins, axis=axis), (offsets, axis)


def _concat_bw(g, s, needs):
    return tuple(np.split(g, s[0], axis=s[1]))


def concat(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    tensors = tuple(tensors)
    if not tensors:
        raise ContractError("concat of an empty sequence")
    return _apply(_concat_fw, _concat_bw, tensors, axis)


def col_slice(t: Tensor, start: int, stop: int) -> Tensor:
    """Columns [start, stop) of a 2-d tensor."""
    if t.ndim != 2:
        raise ContractError("col_slice expects a 2-d tensor")
    if not (0 <= start <= stop <= t.shape[1]):
        raise ContractError(f"column range [{start}, {stop}) outside width {t.shape[1]}")
    return _apply(_slice_fw, _slice_bw, (t,), (slice(None), slice(start, stop)))


def row_slice(t: Tensor, start: int, stop: int) -> Tensor:
    """Rows [start, stop) of a 2-d tensor."""
    if t.ndim != 2:
        raise ContractError("row_slice expects a 2-d tensor")
    if not (0 <= start <= stop <= t.shape[0]):
        raise ContractError(f"row range [{start}, {stop}) outside height {t.shape[0]}")
    return _apply(_slice_fw, _slice_bw, (t,), slice(start, stop))


def _check_range(index: Array, width: int, what: str) -> None:
    """The value check of every forward that indexes by labels."""
    if index.size and (index.min() < 0 or index.max() >= width):
        raise ContractError(f"{what} outside [0, {width})")


def _gather_fw(ins, rows, index):
    _check_range(index, ins[0].shape[1], "gather index")
    return ins[0][rows, index], (ins[0], rows, index)


def _gather_bw(g, s, needs):
    t, rows, index = s
    full = np.zeros_like(t)
    np.add.at(full, (rows, index), g)
    return (full,)


def gather_rows(t: Tensor, index: Array) -> Tensor:
    """Picks t[i, index[i]] for each row i; the one-hot lookup primitive."""
    if t.ndim != 2:
        raise ContractError("gather_rows expects a 2-d tensor")
    idx = np.asarray(index, dtype=np.int64)
    if idx.ndim != 1 or idx.shape[0] != t.shape[0]:
        raise ContractError("index must be 1-d with one entry per row")
    return _apply(_gather_fw, _gather_bw, (t,), np.arange(t.shape[0]), idx)


def _one_hot_fw(ins, labels, classes):
    _check_range(labels, classes, "label")
    out = np.zeros((labels.shape[0], classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out, None


def one_hot(labels: Array, classes: int) -> Tensor:
    """Constant one-hot encoding of integer labels, shape (b, classes)."""
    return _apply(_one_hot_fw, None, (), np.asarray(labels, dtype=np.int64), classes)


def _scaled_tanh_fw(ins, half, mid):
    out = np.tanh(ins[0])
    return out * half + mid, (out, half)


def _scaled_tanh_bw(g, s, needs):
    return ((g * s[1]) * (1.0 - s[0] * s[0]),)


def scaled_tanh(t: Tensor, half: Array, mid: Array) -> Tensor:
    """``tanh(t) * half + mid`` as one node; ``half`` and ``mid`` are
    constants broadcast along the last axis."""
    return _apply(_scaled_tanh_fw, _scaled_tanh_bw, (t,), half, mid)


# -- backward pass -----------------------------------------------------------


def _schedule(loss: Tensor) -> list[tuple]:
    """The backward schedule of a scalar loss: per op node in reverse
    topological order of a depth-first walk, (node, backward, saved arrays,
    needs, parents)."""
    if loss.size != 1:
        raise ContractError("backward requires a scalar loss")
    schedule, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            if node._bw is not None:
                schedule.append((node, node._bw, node._saved,
                                 [p.requires_grad for p in node._parents],
                                 node._parents))
        elif node not in seen:
            seen.add(node)
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and p not in seen:
                    stack.append((p, False))
    schedule.reverse()
    return schedule


def _accumulate(total: Array | None, pg, value: Array) -> Array:
    """``total + pg``; pg may be an ``(index, part)`` for ``value[index]``."""
    if type(pg) is not tuple:
        return pg if total is None else total + pg
    index, part = pg
    if total is None:
        total = np.zeros_like(value)
        total[index] = part
    else:
        total = total.copy()
        total[index] += part
    return total


def _backward(schedule: list, grads: dict, value: Callable) -> dict:
    """The one backward walk. ``grads`` holds the loss's seed gradient, keyed
    by its slot; each schedule entry's backward runs on its node's gradient,
    and each share a parent needs is summed into the parent's slot, in
    schedule order, so that order fixes every float. Slots are tensors on
    the graph and value indices in a replay; ``value(slot)`` is its array.
    Once a node's backward has run, its schedule entry and its gradient are
    dropped, so the walk holds only what the entries still to run need; the
    returned gradients are the leaves'."""
    for i, (node, bw, saved, needs, parents) in enumerate(schedule):
        schedule[i] = None
        for slot, need, pg in zip(parents, needs, bw(grads.pop(node), saved, needs)):
            if need and pg is not None:
                grads[slot] = _accumulate(grads.get(slot), pg, value(slot))
    return grads


class Parameter(Tensor):
    """A named model tensor tagged with its aggregation group; it needs a
    gradient unless it is a running statistic (group bn_stats)."""

    __slots__ = ("name", "group", "grad")

    def __init__(self, name: str, array, group: str):
        if group not in PARAM_GROUPS:
            raise ContractError(f"unknown parameter group {group!r}")
        super().__init__(array, group != "bn_stats")
        self.name, self.group, self.grad = name, group, None


def grad(loss: Tensor, params: Sequence[Parameter]) -> dict[str, Array]:
    """d loss / d p for every parameter, zeros where the graph never saw p;
    parameter values are left untouched."""
    grads = _backward(_schedule(loss), {loss: np.ones_like(loss.data)},
                      attrgetter("data"))
    return {p.name: grads[p] if p in grads else np.zeros_like(p.data)
            for p in params}


def backprop(loss: Tensor, params: Sequence[Parameter]) -> None:
    """Gradients stored on the params; a training step calls it via Replay."""
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
    saved = [(p, p.requires_grad) for p in params]
    for p, _ in saved:
        p.requires_grad = False
    try:
        yield
    finally:
        # reversed, so a parameter listed twice gets its first saved flag
        for p, flag in reversed(saved):
            p.requires_grad = flag


# -- recording and replay -------------------------------------------------------


class Replay:
    """A training step run per batch (see the module docstring): ``step(*inputs)``
    builds its graphs and returns (loss, optimizer) roots; the first call
    with a tuple of input shapes records it, backprops each loss into its
    optimizer's parameters and steps it, and later calls with those shapes
    replay the record. Each call returns the roots' loss values, in root
    order. A call whose forwards raise, or that is refused, changes no
    state: no optimizer has stepped yet, and the running statistics its
    forwards moved are put back."""

    def __init__(self, step: Callable):
        self.step, self.records = step, {}   # input shapes -> record

    def __call__(self, *inputs: Array) -> list[Array]:
        global _undo
        _undo = undo = []
        try:
            shapes = tuple(a.shape for a in inputs)
            if shapes not in self.records:
                return self._record(shapes, inputs)
            return self._replay(self.records[shapes], inputs)
        except BaseException:
            for (mean, var), data in reversed(undo):
                mean.data, var.data = data
            raise
        finally:
            _undo = None

    @staticmethod
    def _replay(record: tuple, inputs: tuple) -> list[Array]:
        values, leaves, forward, roots = record
        vals = [*inputs, *values[len(inputs):]]
        for slot, leaf in leaves:
            vals[slot] = leaf.data
        saved = [None] * len(vals)
        for fw, args, statics, out in forward:
            vals[out], saved[out] = fw([vals[i] for i in args],
                                       *[vals[i] for i in statics])
        # each walk drops a node's saved arrays once its backward has run
        walks = [[(node, bw, saved[node], needs, parents)
                  for node, bw, needs, parents in schedule]
                 for _, schedule, _, _ in roots]
        del saved
        for (loss, _, opt, slots), walk in zip(roots, walks):
            grads = _backward(walk, {loss: np.ones_like(vals[loss])}, vals.__getitem__)
            for p, slot in zip(opt.params, slots):
                p.grad = grads[slot] if slot in grads else np.zeros_like(p.data)
            opt.step()
        return [vals[loss] for loss, _, _, _ in roots]

    def _record(self, shapes: tuple, inputs: tuple) -> list[Array]:
        """Record the step on inputs as the (values, leaves, forward, roots)
        of their shapes; returns the roots' loss values."""
        global _tape
        _tape = tape = []
        try:
            roots = self.step(*inputs)
        finally:
            _tape = None
        values = list(inputs)                   # a constant, or None for a slot
        slots = {id(a): i for i, a in enumerate(inputs)}   # object id -> slot
        leaves, forward = [], []
        for fw, parents, static, node in tape:
            for t in parents:
                if id(t) not in slots:  # a leaf, or made from a node or input
                    slots[id(t)] = slots.get(id(t.data), len(values))
                    if slots[id(t)] == len(values):
                        leaves.append((len(values), t))
                        values.append(None)
            for value in static:
                if id(value) not in slots:
                    slots[id(value)] = len(values)
                    values.append(value)
            out = slots[id(node)] = slots[id(node.data)] = len(values)
            values.append(None)
            forward.append((fw, [slots[id(t)] for t in parents],
                            [slots[id(v)] for v in static], out))
        read = {i for _, args, statics, _ in forward for i in args + statics}
        if not read.issuperset(range(len(inputs))):
            raise ContractError("a replay input reaches none of the recorded ops")
        record = values, leaves, forward, [
            (slots[id(loss)],
             [(slots[id(node)], bw, needs, [slots[id(p)] for p in parents])
              for node, bw, _, needs, parents in _schedule(loss)],
             opt, [slots.get(id(p)) for p in opt.params])
            for loss, opt in roots]
        for loss, opt in roots:
            backprop(loss, opt.params)
            opt.step()
        self.records[shapes] = record
        return [loss.data for loss, _ in roots]


# -- batch normalization ------------------------------------------------------


def _batch_sum(a: Array, stacked: bool) -> Array:
    """Sum over the batch axis; per model, what ndarray.sum(axis=0) gives."""
    return np.add.reduce(a, axis=1 if stacked else 0, keepdims=stacked)


def _stat_mean_fw(ins, index):
    # add.reduce / count is what ndarray.mean computes
    x = ins[0][index]
    return _batch_sum(x, x.ndim == 3) / x.shape[-2], (index, x.shape[-2])


def _stat_mean_bw(g, s, needs):
    return ((s[0], g / s[1]),)


def _stat_var_fw(ins, index):
    centered = ins[0][index] - ins[1]
    stacked = centered.ndim == 3
    return (_batch_sum(centered * centered, stacked) / centered.shape[-2],
            (index, centered, stacked))


def _stat_var_bw(g, s, needs):
    index, centered, stacked = s
    g_c = g / centered.shape[-2] * centered
    g_c = g_c + g_c  # c * c sends one share per operand
    return (index, g_c), -_batch_sum(g_c, stacked)


def batch_statistics(x: Tensor, models: int | None = None) -> tuple[Tensor, Tensor]:
    """The batch mean and biased variance of a batch-norm input, as nodes.

    What the statistics-matching loss reads: the mean is a node over x, the
    variance a node over x and the mean, so the walk sums their gradients
    into x in the same order as over the composed graph ``mu = x.mean(0);
    c = x - mu; var = (c * c).mean(0)``. With a leading model axis, x is
    (models, batch, channels) and the statistics (models, 1, channels), of
    the first ``models`` models when a count is given.
    """
    if x.ndim not in (2, 3):
        raise ContractError("batch statistics need a (batch, channels) or "
                            "(models, batch, channels) tensor")
    mu = _apply(_stat_mean_fw, _stat_mean_bw, (x,), slice(models))
    return mu, _apply(_stat_var_fw, _stat_var_bw, (x, mu), slice(models))


def _bn_train_fw(ins, state):
    x, gamma, beta = ins
    mu = _stat_mean_fw(ins, ...)[0]
    var, (_, centered, stacked) = _stat_var_fw((x, mu), ...)
    std = np.sqrt(var + BN_EPSILON)
    normed = centered / std
    m = BN_MOMENTUM
    running_mean, running_var = state
    if _undo is not None:
        _undo.append((state, (running_mean.data, running_var.data)))
    running_mean.data = (1.0 - m) * running_mean.data + m * mu
    running_var.data = (1.0 - m) * running_var.data + m * var
    return gamma * normed + beta, (gamma, centered, std, normed, stacked)


def _bn_train_bw(g, s, needs):
    gamma, centered, std, normed, stacked = s
    count = centered.shape[-2]
    g_n = g * gamma
    g_std = _batch_sum(-g_n * centered / (std * std), stacked)
    g_sq = g_std * 0.5 / np.maximum(std, 1e-150) / count * centered
    # into c: the normalization's share first, then c * c's two;
    # into x: c's gradient, then the mean's share through c = x - mu
    g_c = g_n / std + g_sq + g_sq
    return (g_c + -_batch_sum(g_c, stacked) / count,
            _batch_sum(g * normed, stacked) if needs[1] else None,
            _batch_sum(g, stacked) if needs[2] else None)


def _bn_eval_fw(ins, state):
    x, gamma, beta = ins
    inv = 1.0 / np.sqrt(state[1].data + BN_EPSILON)
    normed = (x - state[0].data) * inv
    return gamma * normed + beta, (gamma, inv, normed, x.ndim == 3)


def _bn_eval_bw(g, s, needs):
    gamma, inv, normed, stacked = s
    return (g * gamma * inv if needs[0] else None,
            _batch_sum(g * normed, stacked) if needs[1] else None,
            _batch_sum(g, stacked) if needs[2] else None)


_BN = {"train": (_bn_train_fw, _bn_train_bw), "eval": (_bn_eval_fw, _bn_eval_bw)}


def batchnorm_forward(x: Tensor, gamma: Tensor, beta: Tensor,
                      state: tuple[Tensor, Tensor], mode: str) -> Tensor:
    """Batch normalization as one fused node over x, gamma and beta.

    ``state`` is the (running mean, running variance) pair. Train mode
    normalizes by the batch statistics, carries the gradient through them,
    and EMA-updates the running statistics; eval mode
    normalizes by the running statistics and computes no batch statistics
    (a loss that reads them takes them from :func:`batch_statistics`).

    With a leading model axis, x is (models, batch, channels), gamma, beta
    and the running statistics are (models, 1, channels), and each model
    normalizes its own slice.
    """
    if mode not in _BN:
        raise ContractError(f"unknown batchnorm mode {mode!r}")
    if x.ndim not in (2, 3):
        raise ContractError("batchnorm expects a (batch, channels) or "
                            "(models, batch, channels) tensor")
    if x.shape[-1] != state[0].shape[-1]:
        raise ContractError("channel count does not match running statistics")
    if mode == "train" and x.shape[-2] < 2:
        raise DegenerateBatchError("batch statistics need at least 2 samples")
    return _apply(*_BN[mode], (x, gamma, beta), state)


# -- optimizers ---------------------------------------------------------------


class Optimizer:
    """Stateful SGD-with-momentum or Adam over named parameters.

    A step is one elementwise update of a flat vector: every parameter's
    values and gradients are concatenated, the rule runs once over them in
    per-parameter order, so every float is what a loop over the parameters
    gives, and each value is rebound to a view of the fresh result. Values
    are never updated in place, so an array taken from a parameter before a
    step keeps its contents. The state (the SGD velocity, Adam's m and v) is
    one flat array over every parameter.

    Every parameter takes every step at its group's rate. The velocity is
    the first gradient at step 1, Adam's moments start at zero, and Adam's
    step count is shared by all parameters. A group at rate 0 moves by 0
    times its update, the rule of PyTorch's SGD and Adam at lr=0: its
    velocity or moments keep accumulating, and it resumes from them when
    its rate is raised again. Its values keep their bits, except that a
    non-finite update reaches them and a -0.0 may come back as +0.0. The
    rate (one scalar, or one per element when groups differ) is read at the
    first step and again after ``set_rate`` changes a rate. ``kind`` is
    ``"sgd_momentum"`` or ``"adam"``; Adam's constants are ``ADAM_*``.
    """

    def __init__(self, params: Sequence[Parameter], kind: str,
                 rates: dict[str, float], momentum: float = 0.0):
        if kind not in ("sgd_momentum", "adam"):
            raise ContractError(f"unknown optimizer kind {kind!r}")
        self.params, self.kind, self.momentum = list(params), kind, momentum
        self.rates, self._rate = {}, None
        for group, rate in rates.items():
            self.set_rate(group, rate)
        self._spans = []  # (start, stop, shape) of each parameter in the vector
        size = 0
        for p in self.params:
            if p.group not in self.rates:
                raise ContractError(f"no learning rate for group {p.group!r}")
            self._spans.append((size, size + p.size, p.shape))
            size += p.size
        if kind == "sgd_momentum":
            self._vel = np.zeros(size)
        else:
            self._m = np.zeros(size)
            self._v = np.zeros(size)
        self._t = 0

    def set_rate(self, group: str, rate: float) -> None:
        rate = float(rate)
        if rate < 0 or not np.isfinite(rate):
            raise ContractError(f"negative or non-finite rate for group {group!r}")
        if self.rates.get(group) != rate:
            self._rate = None
        self.rates[group] = rate

    def step(self) -> None:
        for p in self.params:
            if p.grad is None:
                raise ContractError(f"parameter {p.name} has no gradient")
        if self._rate is None:
            rates = [self.rates[p.group] for p in self.params]
            self._rate = (rates[0] if len(set(rates)) == 1 else
                          np.repeat(rates, [hi - lo for lo, hi, _ in self._spans]))
        self._t += 1
        g = np.concatenate([p.grad for p in self.params], axis=None)
        x = np.concatenate([p.data for p in self.params], axis=None)
        if g.size != x.size:
            raise ContractError("gradients do not match their parameters' sizes")
        if self.kind == "sgd_momentum":
            self._vel = g if self._t == 1 else self.momentum * self._vel + g
            new = x - self._rate * self._vel
        else:
            self._m = self._m * ADAM_BETA1 + (1 - ADAM_BETA1) * g
            self._v = self._v * ADAM_BETA2 + (1 - ADAM_BETA2) * g * g
            m_hat = self._m / (1 - ADAM_BETA1 ** self._t)
            v_hat = self._v / (1 - ADAM_BETA2 ** self._t)
            new = x - self._rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
        for p, (lo, hi, shape) in zip(self.params, self._spans):
            p.data = new[lo:hi].reshape(shape)
