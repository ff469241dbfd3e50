"""Deterministic simulator for federated few-shot class-incremental learning
with synthetic-data replay, noise-aware local training, and class-specific
weighted head aggregation.

The package root re-exports the names the tests, the README and the
benchmark import; everything else imports from its submodule.
"""

__version__ = "0.1.0"

from .autodiff import Parameter, Tensor, backprop, grad
from .client import local_update_baseline_kd, local_update_nagr
from .config import ExperimentConfig, GenLabConfig, LossWeights, build_config
from .data import (LabeledDataset, build_schedule, dirichlet_partition,
                   load_csv_dataset, make_blobs, partition_summary)
from .errors import ConfigError
from .generation import ReplayBuffer, train_generator_session
from .losses import (bn_stat_loss, client_loss, cross_entropy,
                     generator_entropy_loss, generator_fidelity_loss,
                     generator_total_loss, info_entropy, noise_robust_loss,
                     replay_loss_subset, reverse_cross_entropy, student_loss,
                     transferability_loss)
from .models import Classifier, ConditionalGenerator, make_student
from .orchestrator import run_experiment

__all__ = [
    "Parameter", "Tensor", "backprop", "grad",
    "local_update_baseline_kd", "local_update_nagr",
    "ExperimentConfig", "GenLabConfig", "LossWeights", "build_config",
    "LabeledDataset", "build_schedule", "dirichlet_partition",
    "load_csv_dataset", "make_blobs", "partition_summary",
    "ConfigError",
    "ReplayBuffer", "train_generator_session",
    "bn_stat_loss", "client_loss", "cross_entropy",
    "generator_entropy_loss", "generator_fidelity_loss",
    "generator_total_loss", "info_entropy", "noise_robust_loss",
    "replay_loss_subset", "reverse_cross_entropy", "student_loss",
    "transferability_loss",
    "Classifier", "ConditionalGenerator", "make_student",
    "run_experiment",
    "__version__",
]
