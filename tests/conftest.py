"""Shared fixtures.

The desk-scale base session (30 epochs of centralized training plus the
session-0 generator run) takes a few seconds, so it is built once per pytest
session. Tests must treat the fixture's model and buffer as read-only and
deep-copy before mutating.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from fedscil import ExperimentConfig, GenLabConfig, build_config, make_blobs
from fedscil.data import SessionSchedule
from fedscil.orchestrator import (SessionState, prepare_partitions,
                                  prepare_schedule, run_base_session)


def desk_config(*sets: str, method: str = "sdd", seed: int = 0) -> ExperimentConfig:
    """The calibrated desk preset with optional dotted-key overrides."""
    overrides = [f"method={method}", f"seed={seed}", *sets]
    return build_config(preset="desk", overrides=overrides)


def quick_gen_config() -> GenLabConfig:
    """A cut-down generator budget for tests that only need the mechanics."""
    return GenLabConfig(epochs=3, rounds_per_epoch=4, batch_size=16,
                        noise_dim=6, hidden=32, bank_per_epoch=24,
                        buffer_capacity=60)


def tiny_splits(classes: int = 6, dim: int = 4, seed: int = 9):
    return make_blobs(classes=classes, dim=dim, per_class_train=12,
                      per_class_test=8, spread=0.05, seed=seed)


@dataclass
class DeskBase:
    cfg: ExperimentConfig
    sched: SessionSchedule
    base: SessionState
    partitions: list


@pytest.fixture(scope="session")
def desk_base() -> DeskBase:
    """Trained desk-scale base model, seeded buffer, and session shards.

    Read-only: deep-copy the model or buffer before training or adding pools.
    """
    cfg = desk_config()
    sched = prepare_schedule(cfg)
    base = run_base_session(cfg, sched)
    return DeskBase(cfg, sched, base, prepare_partitions(cfg, sched))


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
