"""Contracts that tools and the engine's internals rely on.

The benchmark's tracer patches fedscil functions by module and name; a name
it cannot resolve crashes a traced benchmark run at install time. The
backward walk keys its visited set and its gradients on the tensors
themselves, which holds only while tensors compare and hash by identity."""
import importlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))

from tracer import TARGETS  # noqa: E402

from fedscil import Tensor  # noqa: E402


def test_every_tracer_target_resolves():
    missing = []
    for name, module_name, attr in TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(name)
    assert missing == []


def test_tensors_compare_and_hash_by_identity():
    assert "__eq__" not in vars(Tensor) and "__hash__" not in vars(Tensor)
    assert Tensor.__eq__ is object.__eq__ and Tensor.__hash__ is object.__hash__
