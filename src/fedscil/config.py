"""Experiment configuration: dataclasses, presets, and the config file format.

Every config key is declared here, with its default and its allowed values
(``ranged(default, allowed)``): interval text such as ``"[1, inf)"`` or
``"(0, 1]"``, or a tuple of choices. An open ``inf)`` end refuses infinities,
NaN fails every comparison, so every interval refuses it, and a tuple value
is checked element by element. This module imports no training module.

Config files are plain text, one ``dotted.key = value`` per line, ``#``
comments allowed. Values are coerced to the type of the field they target;
tuples are comma-separated. Precedence, lowest to highest: dataclass
defaults, preset, config file, command-line overrides.

A run has one master seed (``seed``); every component stream is derived from
it by a stable path, and ``seeding.seed_streams`` lists every path a run draws.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass

from .errors import ConfigError, ContractError


def ranged(default, allowed):
    """A dataclass field with a default and its allowed values."""
    return field(default=default, metadata={"allowed": allowed})


def leaves(obj, prefix: str = "") -> dict:
    """Each dotted leaf key of a config tree -> (owner object, field)."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            out.update(leaves(value, f"{prefix}{f.name}."))
        else:
            out[prefix + f.name] = (obj, f)
    return out


def _inside(value, allowed) -> bool:
    if isinstance(allowed, tuple):
        return value in allowed
    if isinstance(value, tuple):
        return all(_inside(v, allowed) for v in value)
    lo, hi = map(float, allowed[1:-1].split(","))
    return ((value > lo if allowed[0] == "(" else value >= lo)
            and (value < hi if allowed[-1] == ")" else value <= hi))


def check_fields(obj, prefix: str = "") -> None:
    """ContractError, naming the dotted key, for the first leaf outside its
    allowed values."""
    for key, (owner, f) in leaves(obj, prefix).items():
        allowed = f.metadata.get("allowed")
        if allowed is not None and not _inside(getattr(owner, f.name), allowed):
            raise ContractError(f"{key} must be one of {', '.join(allowed)}"
                                if isinstance(allowed, tuple)
                                else f"{key} must be in {allowed}")


# method -> (local rule, head rule). The local rule adds a replay term to the
# clients' cross-entropy: None (session data only), "replay" (noise-aware
# replay of pseudo-labeled synthetic samples) or "distill" (distillation of
# the previous global model on them); the generator and the replay buffer run
# exactly when it is not None. The head rule combines the session's new head
# columns by client sample count ("count") or by per-class accuracy on the
# synthetic pool ("cswa"); inherited parameters are always count-weighted.
METHODS = {
    "finetune": (None, "count"),
    "baseline_kd": ("distill", "count"),
    "sdd": ("replay", "cswa"),
    "sdd_nagr_only": ("replay", "count"),
    "sdd_cswa_only": ("distill", "cswa"),
}


@dataclass
class DataConfig:
    classes: int = ranged(20, "[1, inf)")
    dim: int = ranged(16, "[1, inf)")
    per_class_train: int = ranged(30, "[1, inf)")
    per_class_test: int = ranged(20, "[1, inf)")
    spread: float = ranged(0.15, "[0, inf)")
    base_classes: int = ranged(12, "[1, inf)")
    sessions: int = ranged(4, "[0, inf)")
    way: int = 2
    shot: int = 5
    csv_train: str = ""   # optional pair: load both splits from CSV, not blobs
    csv_test: str = ""


@dataclass
class BaseTrainConfig:
    epochs: int = ranged(30, "[1, inf)")
    batch_size: int = ranged(64, "[2, inf)")
    lr: float = ranged(0.1, "(0, inf)")
    momentum: float = ranged(0.9, "[0, 1)")
    decay_milestones: tuple = ranged((0.6, 0.7), "[0, 1]")  # fractions of total epochs
    decay_factor: float = ranged(0.1, "[0, inf)")


@dataclass
class ModelConfig:
    hidden: int = ranged(64, "[1, inf)")
    feature_dim: int = ranged(64, "[1, inf)")


@dataclass
class AggregationConfig:
    cswa_mode: str = ranged("normalized", ("normalized", "paper_exact"))


@dataclass
class ClientConfig:
    epochs: int = ranged(15, "[1, inf)")
    batch_size_new: int = ranged(8, "[1, inf)")
    batch_size_replay: int = ranged(8, "[1, inf)")
    lr_backbone_and_old: float = ranged(1e-4, "[0, inf)")
    lr_new_head: float = ranged(0.1, "[0, inf)")
    momentum: float = ranged(0.9, "[0, 1)")
    replay_loss: str = ranged("subset", ("subset", "sliced"))

    def validate(self) -> None:
        check_fields(self, "client.")
        if self.lr_backbone_and_old > self.lr_new_head:
            raise ContractError("client.lr_backbone_and_old must be <= "
                                "client.lr_new_head")


@dataclass
class LossWeights:
    """Scalar knobs shared by client training and generator training."""

    alpha: float = ranged(1.0, "[0, inf)")    # forward CE weight on replay data
    beta: float = ranged(1.0, "[0, inf)")     # reverse CE weight on replay data
    k: float = ranged(1.0, "[0, inf)")        # replay weight in the client objective
    lambda1: float = ranged(1.0, "[0, inf)")  # generator: fidelity
    lambda2: float = ranged(1.0, "[0, inf)")  # generator: prediction entropy
    lambda3: float = ranged(1.0, "[0, inf)")  # generator: batch-norm statistics
    lambda4: float = ranged(1.0, "[0, inf)")  # generator: teacher-student disagreement
    rce_log_zero: float = ranged(-4.0, "(-inf, 0)")
    kl_temperature: float = ranged(1.0, "(0, inf)")

    def validate(self) -> None:
        check_fields(self, "weights.")


@dataclass
class GenLabConfig:
    epochs: int = ranged(100, "[1, inf)")
    rounds_per_epoch: int = ranged(50, "[1, inf)")
    batch_size: int = ranged(64, "[2, inf)")  # batch norm needs two samples
    noise_dim: int = ranged(16, "[1, inf)")
    hidden: int = ranged(64, "[1, inf)")
    gen_lr: float = ranged(1e-3, "(0, inf)")
    student_lr: float = ranged(0.2, "[0, inf)")
    student_momentum: float = ranged(0.9, "[0, 1)")
    bank_per_epoch: int = ranged(64, "[2, inf)")
    buffer_capacity: int = ranged(200, "[1, inf)")

    def validate(self) -> None:
        check_fields(self, "generator.")


@dataclass
class ExperimentConfig:
    method: str = ranged("sdd", tuple(METHODS))
    clients: int = ranged(3, "[1, inf)")
    alpha: float = ranged(1.0, "(0, inf)")  # Dirichlet concentration
    rounds: int = ranged(1, "[1, inf)")
    seed: int = 0
    replay_label_noise: float = ranged(0.0, "[0, 1)")
    data: DataConfig = field(default_factory=DataConfig)
    base: BaseTrainConfig = field(default_factory=BaseTrainConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    client: ClientConfig = field(default_factory=ClientConfig)
    weights: LossWeights = field(default_factory=LossWeights)
    generator: GenLabConfig = field(default_factory=GenLabConfig)
    aggregation: AggregationConfig = field(default_factory=AggregationConfig)


# The desk preset is the calibrated default for fast single-core experiments;
# the hparams presets carry the reference hyperparameter sets for the two
# benchmark regimes and touch only loss weights and schedule-free knobs.
PRESETS: dict[str, dict[str, str]] = {
    "desk": {
        "data.spread": "0.35",
        "base.epochs": "30",
        "client.epochs": "25",
        "client.batch_size_new": "8",
        "client.batch_size_replay": "16",
        "client.lr_backbone_and_old": "0.003",
        "client.lr_new_head": "0.05",
        "generator.epochs": "20",
        "generator.rounds_per_epoch": "24",
        "generator.batch_size": "32",
        "generator.bank_per_epoch": "64",
        "generator.noise_dim": "8",
        "weights.k": "2.0",
        "weights.alpha": "0.5",
        "weights.beta": "2.0",
        "weights.lambda1": "2.0",
    },
    "cifar100-hparams": {
        "weights.lambda1": "1", "weights.lambda2": "1",
        "weights.lambda3": "1", "weights.lambda4": "1",
        "weights.alpha": "1", "weights.beta": "1", "weights.k": "1",
    },
    "miniimagenet-hparams": {
        "weights.lambda1": "10", "weights.lambda2": "0.1",
        "weights.lambda3": "1", "weights.lambda4": "1",
        "weights.alpha": "1", "weights.beta": "1", "weights.k": "0.5",
    },
}


def _assign(table: dict, dotted: str, value, convert) -> None:
    """Set the leaf ``dotted`` of a ``leaves`` table to
    ``convert(dotted, value, current value)``. Raises on unknown keys."""
    if dotted not in table:
        raise ConfigError(f"unknown config key: {dotted}")
    obj, f = table[dotted]
    setattr(obj, f.name, convert(dotted, value, getattr(obj, f.name)))


def _coerce(dotted: str, raw: str, current):
    raw = raw.strip()
    try:
        if isinstance(current, int):
            return int(raw)
        if isinstance(current, float):
            return float(raw)
        if isinstance(current, tuple):
            return tuple(float(v) for v in raw.split(",") if v.strip())
        return raw
    except ValueError:
        raise ConfigError(f"{dotted}: cannot parse {raw!r}") from None


def read_config_file(path) -> dict[str, str]:
    """Parse a dotted key=value file into an ordered mapping; a key may
    appear once."""
    out: dict[str, str] = {}
    first: dict[str, int] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in stripped.split("=", 1))
            if key in first:
                raise ConfigError(f"{path}:{lineno}: {key} already set on line "
                                  f"{first[key]}")
            first[key], out[key] = lineno, value
    return out


def build_config(file_path=None, preset: str | None = None,
                 overrides: list[str] | None = None) -> ExperimentConfig:
    """Assemble a validated config from defaults, preset, file, and overrides."""
    file_items = read_config_file(file_path) if file_path else {}
    file_preset = file_items.pop("preset", None)
    preset_name = preset or file_preset
    cfg = ExperimentConfig()
    table = leaves(cfg)
    if preset_name:
        if preset_name not in PRESETS:
            raise ConfigError(f"unknown preset: {preset_name}"
                              f" (have {', '.join(sorted(PRESETS))})")
        for key, value in PRESETS[preset_name].items():
            _assign(table, key, value, _coerce)
    for key, value in file_items.items():
        _assign(table, key, value, _coerce)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, value = item.split("=", 1)
        _assign(table, key.strip(), value, _coerce)
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    """Every key in its allowed values, then the rules that span keys."""
    try:
        check_fields(cfg)
        cfg.client.validate()
    except ContractError as exc:
        raise ConfigError(str(exc)) from None
    d = cfg.data
    if d.sessions > 0 and (d.way < 1 or d.shot < 1):
        raise ConfigError("data.way and data.shot must be >= 1")
    if d.base_classes + d.sessions * d.way > d.classes:
        raise ConfigError(
            f"schedule needs {d.base_classes + d.sessions * d.way} classes,"
            f" data.classes is only {d.classes}")
    if bool(d.csv_train) != bool(d.csv_test):
        raise ConfigError("data.csv_train and data.csv_test must be set together")
    if not d.csv_train and d.shot > d.per_class_train:
        raise ConfigError("data.shot exceeds data.per_class_train")


def to_flat_dict(cfg: ExperimentConfig) -> dict[str, object]:
    """Dotted-key snapshot of every field, suitable for manifests."""
    out: dict[str, object] = {}
    for key, (obj, f) in leaves(cfg).items():
        value = getattr(obj, f.name)
        out[key] = list(value) if isinstance(value, tuple) else value
    return out


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _typed(key: str, value, current):
    """A manifest value as its field's type; ConfigError, naming the key,
    when the JSON type does not fit the field."""
    if isinstance(current, int):
        fits, kind = _is_number(value) and isinstance(value, int), "an integer"
    elif isinstance(current, float):
        fits, kind = _is_number(value), "a number"
    elif isinstance(current, tuple):
        fits = isinstance(value, list) and all(map(_is_number, value))
        kind = "a list of numbers"
    else:
        fits, kind = isinstance(value, str), "a string"
    if not fits:
        raise ConfigError(f"{key}: expected {kind}, got {json.dumps(value)}")
    if isinstance(current, float):
        return float(value)
    return tuple(map(float, value)) if isinstance(current, tuple) else value


def from_flat_dict(items: dict[str, object]) -> ExperimentConfig:
    cfg = ExperimentConfig()
    table = leaves(cfg)
    for key, value in items.items():
        _assign(table, key, value, _typed)
    validate_config(cfg)
    return cfg


def run_id(cfg: ExperimentConfig) -> str:
    """Deterministic id of the experiment: a digest of its flat config,
    which holds no output switch."""
    import hashlib  # here, so that cli.main can keep OpenSSL out first
    blob = json.dumps(to_flat_dict(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]
