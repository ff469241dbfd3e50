"""Experiment configuration: dataclasses, presets, and the config file format.

Config files are plain text, one ``dotted.key = value`` per line, ``#``
comments allowed. Values are coerced to the type of the field they target;
tuples are comma-separated. Precedence, lowest to highest: dataclass
defaults, preset, config file, command-line overrides.

A run has one master seed (``seed``); every component stream is derived from
it by a stable path, and ``seeding.seed_streams`` lists every path a run draws.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .client import ClientConfig
from .errors import ConfigError
from .generation import GenLabConfig
from .losses import LossWeights

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

CSWA_MODES = ("normalized", "paper_exact")


@dataclass
class DataConfig:
    classes: int = 20
    dim: int = 16
    per_class_train: int = 30
    per_class_test: int = 20
    spread: float = 0.15
    base_classes: int = 12
    sessions: int = 4
    way: int = 2
    shot: int = 5
    csv_train: str = ""   # optional pair: load both splits from CSV, not blobs
    csv_test: str = ""


@dataclass
class BaseTrainConfig:
    epochs: int = 30
    batch_size: int = 64
    lr: float = 0.1
    momentum: float = 0.9
    decay_milestones: tuple = (0.6, 0.7)  # fractions of total epochs
    decay_factor: float = 0.1


@dataclass
class ModelConfig:
    hidden: int = 64
    feature_dim: int = 64


@dataclass
class AggregationConfig:
    cswa_mode: str = "normalized"


@dataclass
class ExperimentConfig:
    method: str = "sdd"
    clients: int = 3
    alpha: float = 1.0
    rounds: int = 1
    seed: int = 0
    replay_label_noise: float = 0.0
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


def _lookup(cfg: ExperimentConfig, dotted: str):
    """Resolve a dotted key to (owner object, field). Raises on unknown keys."""
    parts = dotted.split(".")
    obj = cfg
    for part in parts[:-1]:
        fields = {f.name: f for f in dataclasses.fields(obj)}
        if part not in fields or not dataclasses.is_dataclass(getattr(obj, part)):
            raise ConfigError(f"unknown config key: {dotted}")
        obj = getattr(obj, part)
    fields = {f.name: f for f in dataclasses.fields(obj)}
    name = parts[-1]
    if name not in fields or dataclasses.is_dataclass(getattr(obj, name)):
        raise ConfigError(f"unknown config key: {dotted}")
    return obj, name


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


def set_key(cfg: ExperimentConfig, dotted: str, raw: str) -> None:
    obj, name = _lookup(cfg, dotted)
    setattr(obj, name, _coerce(dotted, raw, getattr(obj, name)))


def read_config_file(path) -> dict[str, str]:
    """Parse a dotted key=value file into an ordered mapping."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = stripped.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def build_config(file_path=None, preset: str | None = None,
                 overrides: list[str] | None = None) -> ExperimentConfig:
    """Assemble a validated config from defaults, preset, file, and overrides."""
    file_items = read_config_file(file_path) if file_path else {}
    file_preset = file_items.pop("preset", None)
    preset_name = preset or file_preset
    cfg = ExperimentConfig()
    if preset_name:
        if preset_name not in PRESETS:
            raise ConfigError(f"unknown preset: {preset_name}"
                              f" (have {', '.join(sorted(PRESETS))})")
        for key, value in PRESETS[preset_name].items():
            set_key(cfg, key, value)
    for key, value in file_items.items():
        set_key(cfg, key, value)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, value = item.split("=", 1)
        set_key(cfg, key.strip(), value)
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.method not in METHODS:
        raise ConfigError(f"method must be one of {', '.join(METHODS)}")
    if cfg.clients < 1:
        raise ConfigError("clients must be >= 1")
    if cfg.rounds < 1:
        raise ConfigError("rounds must be >= 1")
    if not (cfg.alpha > 0) or not np.isfinite(cfg.alpha):
        raise ConfigError("alpha: Dirichlet concentration must be > 0")
    if not (0.0 <= cfg.replay_label_noise < 1.0):
        raise ConfigError("replay_label_noise must be in [0, 1)")
    d = cfg.data
    if d.classes < 1 or d.dim < 1:
        raise ConfigError("data.classes and data.dim must be >= 1")
    if d.base_classes < 1:
        raise ConfigError("data.base_classes must be >= 1")
    if d.sessions < 0:
        raise ConfigError("data.sessions must be >= 0")
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
    if cfg.base.epochs < 1 or cfg.base.batch_size < 2:
        raise ConfigError("base.epochs >= 1 and base.batch_size >= 2 required")
    b = cfg.base
    if not 0 < b.lr < np.inf:
        raise ConfigError("base.lr must be finite and > 0")
    if not 0 <= b.decay_factor < np.inf:
        raise ConfigError("base.decay_factor must be finite and >= 0")
    if not all(0 <= f <= 1 for f in b.decay_milestones):
        raise ConfigError("base.decay_milestones must each be in [0, 1]")
    if not 0 <= b.momentum < 1:
        raise ConfigError("base.momentum must be in [0, 1)")
    if cfg.model.hidden < 1 or cfg.model.feature_dim < 1:
        raise ConfigError("model sizes must be >= 1")
    if cfg.aggregation.cswa_mode not in CSWA_MODES:
        raise ConfigError(f"aggregation.cswa_mode must be one of {', '.join(CSWA_MODES)}")
    try:
        cfg.client.validate()
        cfg.weights.validate()
        cfg.generator.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def to_flat_dict(cfg: ExperimentConfig) -> dict[str, object]:
    """Dotted-key snapshot of every field, suitable for manifests."""
    out: dict[str, object] = {}

    def walk(obj, prefix: str):
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            key = f"{prefix}{f.name}"
            if dataclasses.is_dataclass(value):
                walk(value, key + ".")
            elif isinstance(value, tuple):
                out[key] = list(value)
            else:
                out[key] = value

    walk(cfg, "")
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
    for key, value in items.items():
        obj, name = _lookup(cfg, key)
        setattr(obj, name, _typed(key, value, getattr(obj, name)))
    validate_config(cfg)
    return cfg


def run_id(cfg: ExperimentConfig) -> str:
    """Deterministic id of the experiment: a digest of its flat config,
    which holds no output switch."""
    blob = json.dumps(to_flat_dict(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]
