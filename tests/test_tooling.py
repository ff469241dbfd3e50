"""Contracts that tools and the engine's internals rely on.

The benchmark's tracer patches fedscil functions by module and name; a name
it cannot resolve crashes a traced benchmark run at install time, and a
patched function whose signature changed crashes it mid-run. The backward
walk keys its visited set and its gradients on the tensors themselves, which
holds only while tensors compare and hash by identity. The tracer's
per-backprop node counts are benchmark metrics, so a change to how the
engine builds nodes must not move them silently. Every training step runs
through ``autodiff.Replay``, so no other module steps a model itself, and
every run stream is drawn from the seed table of ``seeding``. The README's
Quick-start table names its runs by run id, which must stay the digest of
each desk config, its Configuration table gives each key's default and
allowed values as the config dataclasses declare them, and its Layout block
names every module of the package and no other. ``config.py`` declares
the config schema and imports no training module. A method is its two
rules, so only the orchestrator looks them up, and the README's Methods
table lists every method. The client step states the local objective and
one method builds a head block, each once, and no module imports a name it
never reads; the package root re-exports only the names imported from it.
``tests/same_outputs.py`` compares two source trees' outputs byte for byte,
and must tell a changed tree from an unchanged one; each mutation in
``tests/mutants.py`` must apply to exactly one place."""
import ast
import glob
import importlib
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import numpy as np  # noqa: E402
from tracer import TARGETS, graph_nodes  # noqa: E402

from fedscil import Classifier, Tensor, build_config  # noqa: E402
from fedscil.config import ExperimentConfig, leaves, run_id  # noqa: E402
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


def test_readme_run_ids_are_the_desk_config_digests():
    """Each ``method-seedN-<id>`` row of the README's Quick-start table names
    the run id of that method and seed on the desk preset."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    quick = text[text.index("## Quick start"):text.index("## Methods")]
    rows = re.findall(r"^(\w+)-seed(\d+)-([0-9a-f]{12}) ", quick, re.M)
    assert rows
    for method, seed, rid in rows:
        cfg = build_config(preset="desk", overrides=[f"method={method}",
                                                     f"seed={seed}"])
        assert rid == run_id(cfg), (method, seed)


# keys without allowed values of their own: free, or checked against other keys
UNRANGED = ["seed", "data.way", "data.shot", "data.csv_train", "data.csv_test"]


def test_every_config_key_declares_its_allowed_values():
    """Every leaf of the config tree is declared with ``ranged`` or is on
    the explicit list above, so a new key cannot skip its range."""
    bare = [key for key, (_, f) in leaves(ExperimentConfig()).items()
            if "allowed" not in f.metadata]
    assert bare == UNRANGED


def test_readme_configuration_table_is_the_schema():
    """The README's Configuration table lists every config key in schema
    order, with its default as JSON and, for a ranged key, its allowed
    values."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("## Configuration"):text.index("## Run artifacts")]
    rows = re.findall(r"^\| `([\w.]+)` \| `(.*?)` \| (.*?) \|", section, re.M)
    schema = leaves(ExperimentConfig())
    assert [key for key, _, _ in rows] == list(schema)
    for key, default, allowed in rows:
        owner, f = schema[key]
        value, spec = getattr(owner, f.name), f.metadata.get("allowed")
        assert default == json.dumps(value), key
        if isinstance(spec, tuple):
            assert allowed == ", ".join(f"`{choice}`" for choice in spec), key
        elif spec is not None:
            each = " each" if isinstance(value, tuple) else ""
            assert allowed == f"`{spec}`{each}", key


def test_readme_layout_lists_every_module():
    """The README's Layout block has a line for every module of the package
    but ``__init__.py``, and for no module that does not exist."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    layout = re.findall(r"^  (\w+\.py) ", text[text.index("## Layout"):], re.M)
    modules = {os.path.basename(path) for path in
               glob.glob(os.path.join(ROOT, "src", "fedscil", "*.py"))}
    assert sorted(layout) == sorted(modules - {"__init__.py"})


def test_config_imports_no_package_module_but_errors():
    """``config.py`` declares every config key and imports no training
    module: of the package, it reads only ``errors``."""
    path = os.path.join(ROOT, "src", "fedscil", "config.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module] if node.module else [a.name for a in node.names]
            imported += [("fedscil." if node.level else "") + n for n in names]
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
    assert [m for m in imported if m.split(".")[0] == "fedscil"] == ["fedscil.errors"]


def test_only_autodiff_calls_backprop_or_an_optimizer_step():
    """``backprop(`` and ``.step()`` are called nowhere in the package but in
    ``autodiff.py``, where :class:`Replay` records and replays each step."""
    calls = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "fedscil", "*.py"))):
        if os.path.basename(path) == "autodiff.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if (name == "backprop" or name == "step"
                        and isinstance(node.func, ast.Attribute) and not node.args):
                    calls.append(f"{os.path.basename(path)}:{node.lineno}")
    assert calls == []


def test_only_seeding_derives_a_run_stream():
    """Neither ``orchestrator.py`` nor ``cli.py`` calls ``derive_seed`` or
    ``rng_for``: the orchestrator draws every run stream through
    ``seeding.stream_seed`` and the manifest reads ``seeding.seed_table``,
    so ``seeding.seed_streams`` stays the one list of stream paths."""
    calls = []
    for name in ("orchestrator.py", "cli.py"):
        path = os.path.join(ROOT, "src", "fedscil", name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                called = getattr(node.func, "id", getattr(node.func, "attr", None))
                if called in ("derive_seed", "rng_for"):
                    calls.append(f"{name}:{node.lineno}")
    assert calls == []


def test_no_module_imports_a_name_it_never_reads():
    """Every name a package module imports is read somewhere in it, or, in
    ``__init__.py``, listed in ``__all__``."""
    unread = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "fedscil", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        imported, read = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.split(".")[0], node.lineno)
                                for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["__all__"]):
                read.update(ast.literal_eval(node.value))
        unread += [f"{os.path.basename(path)}:{line} {name}"
                   for name, line in imported.items() if name not in read]
    assert unread == []


def test_the_package_root_reexports_only_what_is_imported_from_it():
    """Every name in ``fedscil.__all__`` but ``__version__`` is imported from
    the package root by a test, a benchmark module or a README
    ``from fedscil import`` line; any other name imports from its submodule."""
    import fedscil
    imported = set()
    for path in (glob.glob(os.path.join(ROOT, "tests", "*.py"))
                 + glob.glob(os.path.join(ROOT, "perfbench", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        imported.update(a.name for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom)
                        and node.module == "fedscil" and not node.level
                        for a in node.names)
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        for names in re.findall(r"^from fedscil import (\([^)]*\)|.*)$", fh.read(), re.M):
            imported.update(re.findall(r"\w+", names))
    assert sorted(set(fedscil.__all__) - {"__version__"} - imported) == []


class _CallSites(ast.NodeVisitor):
    """The qualified function (``Class.method``, ``outer.inner``, or
    ``<module>``) around each call, keyed by the called name; a ``Linear``
    named ``head.*`` is keyed ``Linear(head.*)``, a store into a ``.heads``
    map ``heads[]=``, a store to a ``.group`` attribute ``.group=``."""

    def __init__(self):
        self.scope: list[str] = []
        self.sites: dict[str, set[str]] = {}

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def visit_Call(self, node):
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name == "Linear" and node.args and _names_a_head(node.args[0]):
            name = "Linear(head.*)"
        self._record(name, node)

    def visit_Subscript(self, node):
        if (isinstance(node.ctx, ast.Store)
                and getattr(node.value, "attr", None) == "heads"):
            self._record("heads[]=", node)
        else:
            self.generic_visit(node)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Store) and node.attr == "group":
            self._record(".group=", node)
        else:
            self.generic_visit(node)

    def _record(self, name, node):
        self.sites.setdefault(name, set()).add(".".join(self.scope) or "<module>")
        self.generic_visit(node)


def _names_a_head(node) -> bool:
    """Whether a parameter prefix, a plain or f-string, starts ``head.``."""
    if isinstance(node, ast.JoinedStr) and node.values:
        node = node.values[0]
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.startswith("head."))


def test_one_method_builds_a_head_block_and_no_module_calls_client_loss():
    """Every head grows through ``Classifier.append_head_block``, the one
    function that builds a ``Linear`` named ``head.*``, the one that stores
    into a ``heads`` map, and the one that stores a parameter's group tag, so
    a head's order and tags are stated once. No module calls
    ``client_loss``: the local objective is stated once, in
    ``client._local_step``, and ``losses.client_loss`` is the tests' second
    statement of it."""
    found = {"Linear(head.*)": [], "heads[]=": [], ".group=": [],
             "client_loss": []}
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "fedscil", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            sites = _CallSites()
            sites.visit(ast.parse(fh.read(), path))
        module = os.path.basename(path)
        for name, where in found.items():
            where += [f"{module}:{f}" for f in sorted(sites.sites.get(name, ()))]
    builder = ["models.py:Classifier.append_head_block"]
    assert found == {"Linear(head.*)": builder, "heads[]=": builder,
                     ".group=": builder, "client_loss": []}


def _is_string_or_strings(node) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return bool(node.elts) and all(map(_is_string_or_strings, node.elts))
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def test_the_methods_table_is_read_in_one_place():
    """No module compares a ``.method`` attribute with a method name or a
    tuple of them, and no module but ``config.py``, which defines the table,
    and ``orchestrator.py`` names ``METHODS``: a method is its two rules,
    looked up once per session."""
    found = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "fedscil", "*.py"))):
        module = os.path.basename(path)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if (any(isinstance(o, ast.Attribute) and o.attr == "method"
                        for o in operands)
                        and any(map(_is_string_or_strings, operands))):
                    found.append(f"{module}:{node.lineno}")
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.ImportFrom) else
                     [node.id] if isinstance(node, ast.Name) else
                     [node.attr] if isinstance(node, ast.Attribute) else [])
            if "METHODS" in names and module not in ("config.py",
                                                     "orchestrator.py"):
                found.append(f"{module}:{node.lineno}")
    assert found == []


def test_readme_methods_table_lists_every_method():
    from fedscil.config import METHODS
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("## Methods"):text.index("## Configuration")]
    assert re.findall(r"^\| `(\w+)` +\|", section, re.M) == list(METHODS)


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


def test_same_outputs_matches_a_tree_and_names_the_files_a_change_moves(tmp_path):
    """``tests/same_outputs.py`` finds a tree's quick finetune run the same as
    itself, with as many source lines, and names the checkpoints of a copy
    whose batch-norm epsilon moved, each file with its kind; the manifest and
    the empty synthetics stay the same."""
    script = os.path.join(ROOT, "tests", "same_outputs.py")

    def check(change) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, script, ROOT, str(change), "--quick",
                               "--only", "finetune-seed0"],
                              capture_output=True, text=True, timeout=300)

    same = check(ROOT)
    assert same.returncode == 0, same.stdout + same.stderr
    assert same.stdout.startswith("same  finetune-seed0: exit 0, ")
    assert re.fullmatch(r"src lines: (\d+) -> \1", same.stdout.splitlines()[-1])
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    autodiff = tmp_path / "src" / "fedscil" / "autodiff.py"
    text = autodiff.read_text(encoding="utf-8")
    assert text.count("BN_EPSILON = 0.1, 1e-5\n") == 1
    autodiff.write_text(text.replace("BN_EPSILON = 0.1, 1e-5\n",
                                     "BN_EPSILON = 0.1, 2e-5\n"), encoding="utf-8")
    moved = check(tmp_path)
    assert moved.returncode == 1, moved.stdout + moved.stderr
    line = moved.stdout.splitlines()[0]
    assert line.startswith("DIFF  finetune-seed0: ")
    named = dict(item[:-1].split(" (") for item in line.split(": ", 1)[1].split(", "))
    assert named["checkpoints/session_0.ckpt"] == "kernel-bound"
    assert "manifest.json" not in named and "synthetics.csv" not in named
    assert set(named.values()) <= {"portable", "kernel-bound"}


def test_every_mutant_edits_one_place_and_names_tests_that_exist():
    """Each entry of ``tests/mutants.py`` finds its old text exactly once in
    its file, leaves a file that still parses, and names tests defined in
    their files; running the mutants themselves stays outside Tier-1."""
    spec = importlib.util.spec_from_file_location(
        "mutants", os.path.join(ROOT, "tests", "mutants.py"))
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for mutant in mutants.MUTANTS:
        # raises unless the old text occurs exactly once
        ast.parse(mutants.mutated_source(mutant), mutant.path)
        for node_id in mutant.tests:
            path, name = node_id.split("::")
            with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
                defined = re.search(rf"^def {name.split('[')[0]}\(", fh.read(), re.M)
            assert defined, f"{mutant.name}: {node_id}"


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
