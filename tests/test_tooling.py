"""Contracts that tools and the engine's internals rely on.

The benchmark's tracer patches fedscil functions by module and name; a name
it cannot resolve crashes a traced benchmark run at install time, and a
patched function whose signature changed crashes it mid-run. The backward
walk keys its visited set and its gradients on the tensors themselves, which
holds only while tensors compare and hash by identity. The tracer's
per-backprop node counts are benchmark metrics, so a change to how the
engine builds nodes must not move them silently."""
import importlib
import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import numpy as np  # noqa: E402
from tracer import TARGETS, graph_nodes  # noqa: E402

from fedscil import Classifier, Tensor, build_config  # noqa: E402
from fedscil.generation import generator_loss  # noqa: E402
from fedscil.losses import student_loss  # noqa: E402
from fedscil.models import ConditionalGenerator, ModelStack, make_student  # noqa: E402


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


def test_tracer_node_counts_of_a_desk_generator_and_student_loss():
    """What ``graph_nodes`` reports for one generator loss and one student
    loss of a desk session-1 step: the figures behind
    ``autodiff.nodes_per_backprop_generator`` and ``_student``."""
    cfg = build_config(preset="desk")
    data, model, gen = cfg.data, cfg.model, cfg.generator
    teachers = []
    for m in range(cfg.clients):
        teacher = Classifier(data.dim, data.base_classes, seed=m,
                             hidden=model.hidden, feature_dim=model.feature_dim)
        teacher.expand_head(1, data.way, seed=10 + m)
        teachers.append(teacher)
    generator = ConditionalGenerator(gen.noise_dim, data.way, -np.ones(data.dim),
                                     np.ones(data.dim), seed=20, hidden=gen.hidden)
    student = make_student(data.dim, data.way, 1, seed=21, hidden=model.hidden,
                           feature_dim=model.feature_dim)
    rng = np.random.default_rng(0)
    z = rng.standard_normal((gen.batch_size, gen.noise_dim))
    labels = rng.integers(0, data.way, size=gen.batch_size)
    loss, fake, ensemble = generator_loss(generator, ModelStack(teachers, 1, student),
                                          z, labels, cfg.weights)
    kl = student_loss(ensemble.detach(), student.forward(fake.data, mode="train"),
                      cfg.weights.kl_temperature)
    assert (graph_nodes(loss), graph_nodes(kl)) == (36, 18)


def test_traced_benchmark_run_reports_every_layer_metric(tmp_path):
    """One traced ``perfbench/child.py run`` of a cut-down desk sdd run (one
    incremental session, one generator epoch) exits 0 and reports every
    per-layer metric the benchmark declares, bar the two overhead figures
    that the parent process computes."""
    run_dir = tmp_path / "run"
    argv = ["run", "--preset", "desk", "--method", "sdd", "--seed", "0"]
    for item in ("data.sessions=1", "generator.epochs=1", "client.epochs=2"):
        argv += ["--set", item]
    spec = {"argv": argv + ["--quiet", "--out", str(run_dir)], "trace": True,
            "run_id": "smoke", "run_dir": str(run_dir)}
    result_path = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "child.py"),
                           "run", json.dumps(spec), str(result_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(result_path.read_text())
    assert result["rc"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    expected = [name for name in declared if not name.startswith("trace.overhead")]
    assert [name for name in expected if name not in result["layers"]] == []
    assert result["layers"]["generation.steps"] > 0
    assert result["layers"]["autodiff.nodes_per_backprop_generator"] > 0


def test_a_desk_run_loads_neither_masked_arrays_nor_logging(tmp_path):
    """A cut-down desk sdd run in a fresh process imports no module it does
    not use: ``numpy.ma`` (pulled in by ``np.unique``) and ``logging`` each
    add resident memory that counts toward the benchmark's peak RSS."""
    argv = ["run", "--preset", "desk", "--method", "sdd", "--seed", "0",
            "--quiet", "--out", str(tmp_path / "run")]
    for item in ("data.sessions=1", "generator.epochs=1", "client.epochs=2"):
        argv += ["--set", item]
    script = ("import sys\nfrom fedscil.cli import main\n"
              f"assert main({argv!r}) == 0\n"
              "print(sorted({'numpy.ma', 'logging'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
