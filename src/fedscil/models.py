"""Small fully connected models: a classifier whose final layer grows by
session, a label-conditioned generator, and the student used during
generator training."""
from __future__ import annotations

import copy

import numpy as np

from .autodiff import (Array, BatchNormState, Parameter, Tensor, _wrap,
                       batch_statistics, batchnorm_forward, concat, frozen,
                       linear, model_mean, model_slot, one_hot, scaled_tanh)
from .errors import ContractError

# rows per forward in Classifier.predict
PREDICT_CHUNK = 128


def _uniform_init(rng: np.random.Generator, fan_in: int, shape) -> Array:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Linear:
    def __init__(self, prefix: str, in_dim: int, out_dim: int,
                 rng: np.random.Generator, group: str = "backbone"):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.weight = Parameter(f"{prefix}.weight",
                                Tensor(_uniform_init(rng, in_dim, (in_dim, out_dim))),
                                group)
        self.bias = Parameter(f"{prefix}.bias",
                              Tensor(_uniform_init(rng, in_dim, (out_dim,))),
                              group)

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight.value, self.bias.value)

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]


class BatchNorm:
    def __init__(self, prefix: str, channels: int):
        self.prefix = prefix
        self.gamma = Parameter(f"{prefix}.gamma", Tensor(np.ones(channels)), "backbone")
        self.beta = Parameter(f"{prefix}.beta", Tensor(np.zeros(channels)), "backbone")
        self.state = BatchNormState(np.zeros(channels), np.ones(channels))

    def __call__(self, x: Tensor, mode: str) -> Tensor:
        return batchnorm_forward(x, self.gamma.value, self.beta.value,
                                 self.state, mode)

    def parameters(self) -> list[Parameter]:
        return [self.gamma, self.beta]

    def stat_entries(self) -> list[tuple[str, Array, str]]:
        return [(f"{self.prefix}.running_mean", self.state.running_mean, "bn_stats"),
                (f"{self.prefix}.running_var", self.state.running_var, "bn_stats")]


class _Backbone:
    """fc -> bn -> relu, twice: the classifier's backbone, the generator's body."""

    def __init__(self, in_dim: int, hidden: int, feature_dim: int,
                 rng: np.random.Generator, prefix: str = "backbone"):
        self.in_dim = in_dim
        self.feature_dim = feature_dim
        self.fc1 = Linear(f"{prefix}.fc1", in_dim, hidden, rng)
        self.bn1 = BatchNorm(f"{prefix}.bn1", hidden)
        self.fc2 = Linear(f"{prefix}.fc2", hidden, feature_dim, rng)
        self.bn2 = BatchNorm(f"{prefix}.bn2", feature_dim)

    def blocks(self) -> tuple[tuple[Linear, BatchNorm], ...]:
        """The (fc, bn) pairs in forward order; each is followed by a relu."""
        return (self.fc1, self.bn1), (self.fc2, self.bn2)

    def forward(self, x: Tensor, mode: str) -> Tensor:
        h = x
        for fc, bn in self.blocks():
            h = bn(fc(h), mode).relu()
        return h

    def bn_layers(self) -> list[BatchNorm]:
        return [bn for _, bn in self.blocks()]

    def parameters(self) -> list[Parameter]:
        return [p for fc, bn in self.blocks()
                for p in fc.parameters() + bn.parameters()]


class Classifier:
    """Backbone plus a final layer whose columns are grouped by session.

    ``heads`` maps each session to its block of columns, in session order.
    Inherited blocks carry the ``head_old`` group tag, the last block
    ``head_new``; ``append_head_block`` states both. Column index equals
    class id under the schedule's remapping.
    """

    def __init__(self, in_dim: int, base_classes: int, seed: int,
                 hidden: int = 64, feature_dim: int = 64):
        rng = np.random.default_rng(seed)
        self.hidden = hidden
        self.backbone = _Backbone(in_dim, hidden, feature_dim, rng)
        self.heads: dict[int, Linear] = {}
        if base_classes > 0:
            self.append_head_block(0, base_classes, rng)

    @property
    def in_dim(self) -> int:
        return self.backbone.in_dim

    @property
    def feature_dim(self) -> int:
        return self.backbone.feature_dim

    @property
    def classes_seen(self) -> int:
        return sum(head.out_dim for head in self.heads.values())

    @property
    def session_map(self) -> dict[int, tuple[int, int]]:
        out, lo = {}, 0
        for session, head in self.heads.items():
            out[session] = (lo, lo + head.out_dim)
            lo += head.out_dim
        return out

    def forward(self, x: Tensor | Array, mode: str = "eval",
                session: int | None = None) -> Tensor:
        """Logits over every class seen, or only over the columns added in
        ``session`` when one is given."""
        x = _wrap(x)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ContractError(
                f"expected input of shape (batch, {self.in_dim}), got {x.shape}")
        heads = (self.heads.values() if session is None
                 else [self.session_block(session)])
        h = self.backbone.forward(x, mode)
        parts = [head(h) for head in heads]
        return parts[0] if len(parts) == 1 else concat(parts, axis=1)

    def predict(self, x: Array, session: int | None = None) -> Array:
        """Argmax column of the eval-mode forward (see :meth:`forward`).

        The forward runs in PREDICT_CHUNK-row chunks with every parameter
        frozen, so no node keeps saved arrays and at most one chunk's
        activations are alive at a time.
        """
        with frozen(self.parameters()):
            preds = [self.forward(x[lo:lo + PREDICT_CHUNK], mode="eval",
                                  session=session).data.argmax(axis=1)
                     for lo in range(0, len(x), PREDICT_CHUNK)]
        return np.concatenate(preds) if preds else np.empty(0, dtype=np.int64)

    def session_block(self, session: int) -> Linear:
        if session not in self.heads:
            raise ContractError(f"model has no head block for session {session}")
        return self.heads[session]

    def expand_head(self, session: int, classes: int, seed: int) -> None:
        """Append a block of freshly initialized columns for a new session
        (see :meth:`append_head_block`). Expanding by zero classes leaves
        the model unchanged.
        """
        if classes < 0:
            raise ContractError("cannot expand by a negative class count")
        if classes > 0:
            self.append_head_block(session, classes, np.random.default_rng(seed))

    def append_head_block(self, session: int, classes: int,
                          rng: np.random.Generator) -> None:
        """Append session's block of ``classes`` columns, tagged head_new,
        and retag every earlier block head_old. A session that does not come
        after the last block's is refused before anything changes."""
        if self.heads and session <= (last := list(self.heads)[-1]):
            raise ContractError(f"session {session} does not follow session {last}")
        for head in self.heads.values():
            head.weight.group = head.bias.group = "head_old"
        self.heads[session] = Linear(f"head.s{session}", self.feature_dim,
                                     classes, rng, "head_new")

    def parameters(self) -> list[Parameter]:
        out = self.backbone.parameters()
        for head in self.heads.values():
            out.extend(head.parameters())
        return out

    def bn_layers(self) -> list[BatchNorm]:
        return self.backbone.bn_layers()

    def state_entries(self) -> list[tuple[str, Array, str]]:
        entries = [(p.name, p.value.data, p.group) for p in self.parameters()]
        for bn in self.bn_layers():
            entries.extend(bn.stat_entries())
        return entries

    def load_state(self, arrays: dict[str, Array]) -> None:
        """Install copies of a state naming exactly this model's tensors, each
        of its own shape; a refused state changes nothing."""
        own = {name: arr.shape for name, arr, _ in self.state_entries()}
        if own.keys() != arrays.keys():
            missing = sorted(own.keys() - arrays.keys())
            extra = sorted(arrays.keys() - own.keys())
            raise ContractError(f"state mismatch; missing={missing} extra={extra}")
        for name, shape in own.items():
            if np.shape(arrays[name]) != shape:
                raise ContractError(f"shape mismatch for {name}: "
                                    f"{np.shape(arrays[name])}, expected {shape}")
        for p in self.parameters():
            p.value.data = arrays[p.name].copy()
        for bn in self.bn_layers():
            bn.state.running_mean = arrays[f"{bn.prefix}.running_mean"].copy()
            bn.state.running_var = arrays[f"{bn.prefix}.running_var"].copy()

    def arch(self) -> dict:
        return {
            "kind": "classifier",
            "in_dim": self.in_dim,
            "hidden": self.hidden,
            "feature_dim": self.feature_dim,
            "head": [[s, head.out_dim] for s, head in self.heads.items()],
            "groups": {p.name: p.group for p in self.parameters()},
            "session_map": {str(s): list(v) for s, v in self.session_map.items()},
        }

    @classmethod
    def from_arch(cls, arch: dict) -> "Classifier":
        model = cls(arch["in_dim"], 0, seed=0, hidden=arch["hidden"],
                    feature_dim=arch["feature_dim"])
        rng = np.random.default_rng(0)
        for session, width in arch["head"]:
            model.append_head_block(session, width, rng)
        return model

    def clone(self) -> "Classifier":
        """Independent deep copy; training the copy never touches the original."""
        return copy.deepcopy(self)


def _session_arrays(model: Classifier, session: int) -> list[tuple[str, Array]]:
    """Everything an eval-mode forward over one session's head reads, in
    stack order: per backbone layer the weight, bias, gamma, beta and running
    statistics, then the session block's weight and bias."""
    out = []
    for fc, bn in model.backbone.blocks():
        out += [(p.name, p.value.data) for p in fc.parameters() + bn.parameters()]
        out += [(name, arr) for name, arr, _ in bn.stat_entries()]
    out += [(p.name, p.value.data)
            for p in model.session_block(session).parameters()]
    return out


class ModelStack:
    """Classifiers of one architecture evaluated as one model.

    Each layer's weights are stacked along a leading model axis as (models,
    fan_in, fan_out), its bias, batch-norm affine and running statistics as
    (models, 1, width); the head is every model's block for one session. The
    teachers fill the first slots and an optional opponent the last one. The
    stack holds copies, constants to autodiff: ``load_opponent`` refreshes
    the opponent's slot after it trained.
    """

    def __init__(self, teachers: list[Classifier], session: int,
                 opponent: Classifier | None = None):
        if not teachers:
            raise ContractError("need at least one teacher")
        self.teachers = list(teachers)
        self.session = session
        self.opponent = opponent
        models = self.teachers + ([] if opponent is None else [opponent])
        arrays = [_session_arrays(model, session) for model in models]
        for i, model_arrays in enumerate(arrays):
            for (name, arr), (_, ref) in zip(model_arrays, arrays[0]):
                if arr.shape != ref.shape:
                    who = f"teacher {i}" if i < len(teachers) else "the opponent"
                    raise ContractError(f"{who}: {name} has shape {arr.shape}, "
                                        f"teacher 0 has {ref.shape}")
        self._slots = [np.stack([np.atleast_2d(arr) for _, arr in column])
                       for column in zip(*arrays)]
        self._layers = []
        for k in range(0, len(self._slots) - 2, 6):
            w, b, gamma, beta, mean, var = self._slots[k:k + 6]
            self._layers.append((Tensor(w), Tensor(b), Tensor(gamma), Tensor(beta),
                                 BatchNormState(mean, var)))
        self._head = (Tensor(self._slots[-2]), Tensor(self._slots[-1]))

    def load_opponent(self) -> None:
        """Copy the opponent's current parameters and running statistics
        into its slot; a stack without an opponent has nothing to copy."""
        if self.opponent is not None:
            for slot, (_, arr) in zip(self._slots,
                                      _session_arrays(self.opponent, self.session)):
                slot[-1] = arr

    def running_stats(self) -> list[tuple[Array, Array]]:
        """Per layer, the teachers' running mean and variance."""
        m = len(self.teachers)
        return [(state.running_mean[:m], state.running_var[:m])
                for *_, state in self._layers]

    def forward(self, x: Tensor | Array, capture_bn: bool = False):
        """One eval-mode pass of every slot: (ensemble, opponent, stats).

        ``ensemble`` is the mean of the teachers' session logits, ``opponent``
        the opponent slot's, None without one; with capture_bn, ``stats`` is
        each batch-norm input's statistics over the teachers, else None.
        Gradients flow through to x; the stack's arrays are constants."""
        teachers = len(self.teachers)
        stats: list | None = [] if capture_bn else None
        h = _wrap(x)
        for w, b, gamma, beta, state in self._layers:
            h = linear(h, w, b)
            if capture_bn:
                stats.append(batch_statistics(h, teachers))
            h = batchnorm_forward(h, gamma, beta, state, "eval").relu()
        logits = linear(h, *self._head)
        ensemble = model_mean(logits, teachers)
        opponent = None if self.opponent is None else model_slot(logits, teachers)
        return ensemble, opponent, stats


class ConditionalGenerator:
    """Maps (noise, one-hot label) to a sample inside the data envelope.

    The output activation is tanh rescaled per dimension to [low, high], so
    synthetic samples always live in the training data's value range.
    """

    def __init__(self, noise_dim: int, classes: int, out_low: Array,
                 out_high: Array, seed: int, hidden: int = 64):
        if classes < 1:
            raise ContractError("generator needs at least one class")
        rng = np.random.default_rng(seed)
        out_low = np.asarray(out_low, dtype=np.float64)
        out_high = np.asarray(out_high, dtype=np.float64)
        if out_low.shape != out_high.shape or np.any(out_high < out_low):
            raise ContractError("invalid output envelope")
        self.noise_dim = noise_dim
        self.classes = classes
        self.out_dim = out_low.shape[0]
        self.hidden = hidden
        self._mid = (out_high + out_low) / 2.0
        self._half = (out_high - out_low) / 2.0
        self.body = _Backbone(noise_dim + classes, hidden, hidden, rng, "gen")
        self.out = Linear("gen.out", hidden, self.out_dim, rng)

    def forward(self, z: Tensor | Array, labels: Array, mode: str = "train") -> Tensor:
        z = _wrap(z)
        if z.ndim != 2 or z.shape[1] != self.noise_dim:
            raise ContractError(f"expected noise of shape (batch, {self.noise_dim})")
        h = self.body.forward(concat([z, one_hot(labels, self.classes)], axis=1),
                              mode)
        return scaled_tanh(self.out(h), self._half, self._mid)

    def parameters(self) -> list[Parameter]:
        return self.body.parameters() + self.out.parameters()


def make_student(in_dim: int, classes: int, session: int, seed: int,
                 hidden: int = 64, feature_dim: int = 64) -> Classifier:
    """Fresh classifier of the same family, head sized to one session."""
    student = Classifier(in_dim, 0, seed=seed, hidden=hidden, feature_dim=feature_dim)
    rng = np.random.default_rng(np.random.default_rng(seed).integers(2**63))
    student.append_head_block(session, classes, rng)
    return student
