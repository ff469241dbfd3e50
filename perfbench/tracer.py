"""Benchmark-side tracing of fedscil's layers.

The program itself records no spans, so this module wraps the public
functions of each fedscil module from the outside: every wrapped call opens a
span (name, start, end, parent span, run id) in an in-memory list and updates
a few counters. ``Tracer.install`` patches the wrappers into every fedscil
module that imported the original function by name, so a call lands in the
wrapper whichever module makes it.

Span names are ``<layer>.<function>``. The layers follow the modules, except
that the file writers of ``checkpoint``, ``reporting`` and ``generation`` are
grouped as ``io``. Tensor operations are not wrapped (a desk ``sdd`` run makes
several hundred thousand of them), so building a forward graph is charged to
the layer that calls the operations; the ``autodiff`` layer covers
``backprop`` and ``Optimizer.step``.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
import time

# (span name, module, attribute); "Class.method" attributes patch the class
TARGETS = (
    ("config.build_config", "fedscil.config", "build_config"),
    ("config.run_id", "fedscil.config", "run_id"),
    ("config.to_flat_dict", "fedscil.config", "to_flat_dict"),
    ("orchestrator.run_experiment", "fedscil.orchestrator", "run_experiment"),
    ("orchestrator.prepare_schedule", "fedscil.orchestrator", "prepare_schedule"),
    ("orchestrator.prepare_partitions", "fedscil.orchestrator",
     "prepare_partitions"),
    ("orchestrator.run_base_session", "fedscil.orchestrator", "run_base_session"),
    ("orchestrator.run_incremental_session", "fedscil.orchestrator",
     "run_incremental_session"),
    ("orchestrator.evaluate", "fedscil.orchestrator", "evaluate"),
    ("data.make_blobs", "fedscil.data", "make_blobs"),
    ("data.load_csv_dataset", "fedscil.data", "load_csv_dataset"),
    ("data.build_schedule", "fedscil.data", "build_schedule"),
    ("data.dirichlet_partition", "fedscil.data", "dirichlet_partition"),
    ("client.local_update_nagr", "fedscil.client", "local_update_nagr"),
    ("client.local_update_baseline_kd", "fedscil.client",
     "local_update_baseline_kd"),
    ("generation.train_generator_session", "fedscil.generation",
     "train_generator_session"),
    ("generation.relabel", "fedscil.generation", "relabel"),
    ("generation.buffer_sample", "fedscil.generation", "ReplayBuffer.sample"),
    ("generation.buffer_add_pool", "fedscil.generation", "ReplayBuffer.add_pool"),
    ("models.forward", "fedscil.models", "Classifier.forward"),
    ("models.generator_forward", "fedscil.models", "ConditionalGenerator.forward"),
    ("models.clone", "fedscil.models", "Classifier.clone"),
    ("models.make_student", "fedscil.models", "make_student"),
    ("models.expand_head", "fedscil.models", "Classifier.expand_head"),
    ("autodiff.backprop", "fedscil.autodiff", "backprop"),
    ("autodiff.opt_step", "fedscil.autodiff", "Optimizer.step"),
    ("aggregation.aggregate_old", "fedscil.aggregation", "aggregate_old"),
    ("aggregation.build_accuracy_matrix", "fedscil.aggregation",
     "build_accuracy_matrix"),
    ("aggregation.eval_class_accuracy", "fedscil.aggregation",
     "eval_class_accuracy"),
    ("aggregation.cswa_weights", "fedscil.aggregation", "cswa_weights"),
    ("aggregation.cswa_aggregate_new", "fedscil.aggregation",
     "cswa_aggregate_new"),
    ("aggregation.assemble_global", "fedscil.aggregation", "assemble_global"),
    ("aggregation.fedavg_full", "fedscil.aggregation", "fedavg_full"),
    ("io.save_state", "fedscil.checkpoint", "save_state"),
    ("io.export_synthetics_csv", "fedscil.generation", "export_synthetics_csv"),
    ("io.write_summary_csv", "fedscil.reporting", "write_summary_csv"),
    ("reporting.report_table", "fedscil.reporting", "report_table"),
    ("reporting.render_text", "fedscil.reporting", "render_text"),
    ("reporting.summary_row", "fedscil.reporting", "summary_row"),
) + tuple(
    (f"losses.{name}", "fedscil.losses", name)
    for name in ("cross_entropy", "reverse_cross_entropy", "noise_robust_loss",
                 "replay_loss_subset", "client_loss", "info_entropy",
                 "generator_fidelity_loss", "generator_entropy_loss",
                 "bn_stat_loss", "student_loss", "distillation_loss_subset",
                 "transferability_loss", "generator_total_loss"))

LAYERS = ("config", "orchestrator", "data", "client", "generation", "models",
          "autodiff", "losses", "aggregation", "io", "reporting")

# span record fields
NAME, START, END, PARENT, CHILD_S = range(5)


def graph_nodes(root) -> int:
    """Nodes that backprop will visit: the loss and every ancestor that
    requires a gradient, each counted once."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """In-memory span recorder plus the counters measured at the same
    boundaries. One tracer serves one ``fedscil run`` call."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.origin = time.perf_counter()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.in_generation = 0     # depth of open train_generator_session spans
        self.in_client = 0         # depth of open local update spans
        self.backprops: list[tuple[str, int, int]] = []   # kind, nodes, span
        self.client_opt_steps = 0
        self.client_updates = 0
        self.empty_updates = 0
        self.banked = 0
        self.banked_agree = 0

    # -- recording --------------------------------------------------------

    def _span(self, name: str, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, parent, 0.0]
        self.spans.append(record)
        self.stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record[END] = time.perf_counter()
            self.stack.pop()
            if parent >= 0:
                self.spans[parent][CHILD_S] += record[END] - record[START]

    def _wrapper(self, name: str, fn):
        tracer = self
        if name == "models.forward":
            @functools.wraps(fn)
            def forward(model, *args, **kwargs):
                label = ("models.teacher_forward" if kwargs.get("capture_bn")
                         else name)
                return tracer._span(label, fn, (model,) + args, kwargs)
            return forward
        if name == "autodiff.backprop":
            @functools.wraps(fn)
            def backprop(loss, params):
                # counted before the span opens, so the walk is not
                # charged to autodiff
                if params and params[0].name.startswith("gen."):
                    kind = "generator"
                elif tracer.in_generation:
                    kind = "student"
                else:
                    kind = "classifier"
                tracer.backprops.append((kind, graph_nodes(loss),
                                         len(tracer.spans)))
                return tracer._span(name, fn, (loss, params), {})
            return backprop
        if name == "autodiff.opt_step":
            @functools.wraps(fn)
            def step(opt):
                if tracer.in_client:
                    tracer.client_opt_steps += 1
                return tracer._span(name, fn, (opt,), {})
            return step
        if name == "generation.train_generator_session":
            @functools.wraps(fn)
            def train(*args, **kwargs):
                tracer.in_generation += 1
                try:
                    return tracer._span(name, fn, args, kwargs)
                finally:
                    tracer.in_generation -= 1
            return train
        if name.startswith("client.local_update"):
            @functools.wraps(fn)
            def local_update(*args, **kwargs):
                tracer.in_client += 1
                try:
                    model, count = tracer._span(name, fn, args, kwargs)
                finally:
                    tracer.in_client -= 1
                tracer.client_updates += 1
                tracer.empty_updates += count == 0
                return model, count
            return local_update
        if name == "generation.buffer_add_pool":
            @functools.wraps(fn)
            def add_pool(buffer, pool, rng):
                tracer.banked += len(pool)
                tracer.banked_agree += int((pool.pseudo == pool.condition).sum())
                return tracer._span(name, fn, (buffer, pool, rng), {})
            return add_pool

        @functools.wraps(fn)
        def plain(*args, **kwargs):
            return tracer._span(name, fn, args, kwargs)
        return plain

    def install(self) -> None:
        """Patch every target in its own module and in every fedscil module
        that imported it by name."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "fedscil" or key.startswith("fedscil.")]
        for name, module_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self._wrapper(name, getattr(cls, method)))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrapper(name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapped)

    # -- reporting --------------------------------------------------------

    def span_rows(self) -> list[dict]:
        return [{"name": s[NAME], "start": s[START] - self.origin,
                 "end": s[END] - self.origin, "parent": s[PARENT],
                 "run_id": self.run_id} for s in self.spans]

    def metrics(self, run_s: float, bytes_written: int) -> dict[str, float]:
        total: dict[str, float] = {}     # inclusive seconds per span name
        calls: dict[str, int] = {}
        self_s = {layer: 0.0 for layer in LAYERS}
        top_level = 0.0
        for s in self.spans:
            name, dur = s[NAME], s[END] - s[START]
            total[name] = total.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            self_s[name.split(".")[0]] += dur - s[CHILD_S]
            if s[PARENT] < 0:
                top_level += dur

        def t(name: str) -> float:
            return total.get(name, 0.0)

        def n(name: str) -> int:
            return calls.get(name, 0)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def mean_nodes(kind: str) -> float:
            counts = [nodes for k, nodes, _ in self.backprops if k == kind]
            return sum(counts) / len(counts) if counts else 0.0

        train_s = t("generation.train_generator_session")
        steps = sum(1 for k, _, _ in self.backprops if k == "generator")
        gen_backprop = sum(self.spans[i][END] - self.spans[i][START]
                           for k, _, i in self.backprops if k != "classifier")
        teacher_s = t("models.teacher_forward")
        client_s = t("client.local_update_nagr") + t("client.local_update_baseline_kd")
        out = {
            "generation.train_s": train_s,
            "generation.run_share": ratio(train_s, run_s),
            "generation.steps": steps,
            "generation.ms_per_step": 1000.0 * ratio(train_s, steps),
            "generation.teacher_forward_s": teacher_s,
            "generation.teacher_forward_share": ratio(teacher_s, train_s),
            "generation.backprop_share": ratio(gen_backprop, train_s),
            "generation.relabel_s": t("generation.relabel"),
            "generation.buffer_sample_s": t("generation.buffer_sample"),
            "generation.buffer_sample_calls": n("generation.buffer_sample"),
            "generation.pseudo_agree_ratio": ratio(self.banked_agree, self.banked),
            "autodiff.backprop_calls": n("autodiff.backprop"),
            "autodiff.backprop_s": t("autodiff.backprop"),
            "autodiff.nodes_per_backprop_generator": mean_nodes("generator"),
            "autodiff.nodes_per_backprop_student": mean_nodes("student"),
            "autodiff.nodes_per_backprop_classifier": mean_nodes("classifier"),
            "autodiff.opt_steps": n("autodiff.opt_step"),
            "autodiff.opt_step_s": t("autodiff.opt_step"),
            "models.forward_calls": (n("models.forward") + n("models.teacher_forward")
                                     + n("models.generator_forward")),
            "models.forward_s": sum(
                s[END] - s[START] - s[CHILD_S] for s in self.spans
                if s[NAME] in ("models.forward", "models.teacher_forward",
                               "models.generator_forward")),
            "models.clone_calls": n("models.clone"),
            "losses.bn_stat_s": t("losses.bn_stat_loss"),
            "client.local_update_s": client_s,
            "client.updates": self.client_updates,
            "client.ms_per_opt_step": 1000.0 * ratio(client_s, self.client_opt_steps),
            "client.empty_shard_ratio": ratio(self.empty_updates, self.client_updates),
            "orchestrator.base_session_s": t("orchestrator.run_base_session"),
            "orchestrator.incremental_session_s":
                t("orchestrator.run_incremental_session"),
            "orchestrator.evaluate_s": t("orchestrator.evaluate"),
            "aggregation.accuracy_matrix_s": t("aggregation.build_accuracy_matrix"),
            "data.prepare_s": sum(t(k) for k in total if k.startswith("data.")),
            "io.write_s": sum(t(k) for k in total if k.startswith("io.")),
            "io.bytes_written": bytes_written,
            "trace.coverage": ratio(top_level, run_s),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        return out


def tree_bytes(path: str) -> int:
    """Total size of the regular files under path."""
    size = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            size += os.path.getsize(os.path.join(dirpath, name))
    return size
