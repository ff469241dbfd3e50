"""The benchmark's tracer patches fedscil functions by module and name; a
name it cannot resolve crashes a traced benchmark run at install time."""
import importlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))

from tracer import TARGETS  # noqa: E402


def test_every_tracer_target_resolves():
    missing = []
    for name, module_name, attr in TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(name)
    assert missing == []
