"""Mutations of ``src/fedscil`` that named tests must catch.

    python tests/mutants.py [NAME ...]

Each entry of ``MUTANTS`` is one edit of one source file: an exact old text,
which must occur there exactly once, its replacement, and the pytest node ids
that must fail once the edit is made. For each entry named (every entry by
default) the runner copies the tree to a temporary directory, applies the
edit to the copy, and runs the entry's tests from the copy. It prints
``caught`` when every listed test fails or errors and ``survived`` otherwise,
with the seconds taken (a survivor also gets the tail of pytest's output),
and exits 1 when a mutant survives.

The tests run from the copy, not with the copy's ``src/`` on PYTHONPATH:
``pyproject.toml`` sets pytest's ``pythonpath = ["src"]``, which puts the
checkout's own ``src/`` first, so such a run would test the unmutated tree
and report every mutant survived. Pytest does not collect this file; the
tests import it.
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# what the listed tests read: the package, the tests, pytest's config, and
# the benchmark tracer and README that test modules import or read
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "README.md")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]


MODELS = "src/fedscil/models.py"
CHECKPOINT = "src/fedscil/checkpoint.py"
AUTODIFF = "src/fedscil/autodiff.py"
GENERATION = "src/fedscil/generation.py"
T_MODELS = "tests/test_models.py::"
T_CLI = "tests/test_config_cli.py::"
T_FUSED = "tests/test_fused.py::"
T_REPLAY = "tests/test_replay.py::"
T_PROPERTIES = "tests/test_properties.py::"

MUTANTS = [
    Mutant("head-order-check-dropped", MODELS,
           "        if self.heads and session <= (last := list(self.heads)[-1]):\n"
           "            raise ContractError(f\"session {session} does not follow "
           "session {last}\")\n", "",
           (T_MODELS + "test_append_head_block_refuses_a_session_before_the_last",
            T_MODELS + "test_append_head_block_refuses_a_session_that_has_one",
            T_MODELS + "test_from_arch_refuses_an_out_of_order_head",
            T_MODELS + "test_expand_head_rejects_duplicate_session")),
    Mutant("earlier-blocks-keep-head-new", MODELS,
           '            head.weight.group = head.bias.group = "head_old"\n',
           "            pass\n",
           (T_MODELS + "test_expand_head_retags_groups",)),
    Mutant("groups-restored-from-arch", MODELS,
           "            model.append_head_block(session, width, rng)\n"
           "        return model\n",
           "            model.append_head_block(session, width, rng)\n"
           "        for p in model.parameters():\n"
           "            p.group = arch[\"groups\"].get(p.name, p.group)\n"
           "        return model\n",
           (T_MODELS + "test_from_arch_takes_tags_from_block_position"
            "[old block tagged new]",
            T_MODELS + "test_from_arch_takes_tags_from_block_position[unknown tag]")),
    Mutant("load-state-compares-sizes", MODELS,
           "if np.shape(arrays[name]) != shape:",
           "if np.size(arrays[name]) != np.prod(shape):",
           (T_MODELS + "test_a_refused_state_is_named_and_changes_nothing"
            "[running statistic shape]",)),
    Mutant("load-state-installs-parameters-only", MODELS,
           "        for t in tensors:\n            t.data = arrays[t.name].copy()\n",
           "        for t in self.parameters():\n"
           "            t.data = arrays[t.name].copy()\n",
           ("tests/test_aggregation.py::test_fedavg_opposite_states_cancel",
            T_MODELS + "test_state_round_trip_is_exact")),
    Mutant("statistics-before-parameters", MODELS,
           "        return self.parameters() + [t for bn in self.bn_layers()\n"
           "                                    for t in (bn.running_mean, "
           "bn.running_var)]\n",
           "        return [t for bn in self.bn_layers()\n"
           "                for t in (bn.running_mean, bn.running_var)] "
           "+ self.parameters()\n",
           (T_MODELS + "test_checkpoint_reader_refuses_a_damaged_archive[missing blob]",
            T_MODELS + "test_checkpoint_reader_refuses_a_damaged_archive"
            "[repeated name]")),
    Mutant("checkpoint-repeat-check-dropped", CHECKPOINT,
           "            if name in arrays:\n", "            if False:\n",
           (T_MODELS + "test_checkpoint_reader_refuses_a_damaged_archive"
            "[repeated name]",)),
    Mutant("checkpoint-member-check-dropped", CHECKPOINT,
           "            if member not in zf.namelist():\n", "            if False:\n",
           (T_MODELS + "test_checkpoint_reader_refuses_a_damaged_archive"
            "[missing blob]",)),
    Mutant("checkpoint-size-check-dropped", CHECKPOINT,
           "            if len(raw) != 8 * int(np.prod(shape)):\n",
           "            if False:\n",
           (T_MODELS + "test_checkpoint_reader_refuses_a_damaged_archive"
            "[blob cut by 8 bytes]",
            T_MODELS + "test_checkpoint_reader_refuses_a_damaged_archive"
            "[blob cut by 3 bytes]")),
    Mutant("metrics-gap-accepted", "src/fedscil/reporting.py",
           "if session != expected:", "if session < expected:",
           (T_CLI + "test_a_truncated_metrics_file_names_its_path_and_line"
            "[session gap-report]",
            T_CLI + "test_a_truncated_metrics_file_names_its_path_and_line"
            "[session gap-compare]")),
    Mutant("from-manifest-takes-no-run-dir", "src/fedscil/cli.py",
           "    if os.path.isdir(path):\n"
           "        path = os.path.join(path, MANIFEST_FILENAME)\n"
           "    with open(path", "    with open(path",
           (T_CLI + "test_from_manifest_reproduces_metrics_bytes",)),
    Mutant("out-file-check-dropped", "src/fedscil/cli.py",
           "        if os.path.exists(out) and not os.path.isdir(out):\n",
           "        if False:\n",
           (T_CLI + "test_out_naming_a_file_is_a_configuration_error",)),
    Mutant("opponent-slot-not-loaded", GENERATION,
           "            stack.load_opponent()\n", "            pass\n",
           (T_FUSED + "test_generator_session_matches_composed_graph[0.2-0.7]",
            T_REPLAY + "test_replayed_session_matches_the_graph_at_every_step"
            "[3 teachers]")),
    Mutant("model-mean-reversed", AUTODIFF,
           "np.add.reduce(ins[0][:count], axis=0)",
           "np.add.reduce(ins[0][:count][::-1], axis=0)",
           (T_FUSED + "test_generator_step_matches_composed_graph[0.0]",)),
    Mutant("optimizer-updates-in-place", AUTODIFF,
           "            p.data = new[lo:hi].reshape(shape)\n",
           "            p.data[...] = new[lo:hi].reshape(shape)\n",
           (T_PROPERTIES + "test_flat_step_matches_the_per_parameter_loop",
            T_PROPERTIES + "test_flat_step_matches_the_loop_as_groups_switch_"
            "on_and_off")),
    Mutant("schedule-parents-reversed", AUTODIFF,
           "            for p in node._parents:\n"
           "                if p.requires_grad and p not in seen:\n",
           "            for p in reversed(node._parents):\n"
           "                if p.requires_grad and p not in seen:\n",
           (T_FUSED + "test_generator_step_matches_composed_graph[0.7]",)),
    Mutant("replay-keyed-on-row-count", AUTODIFF,
           "            shapes = tuple(a.shape for a in inputs)\n",
           "            shapes = inputs[0].shape[:1]\n",
           (T_REPLAY + "test_a_second_shape_records_its_own_schedule_and_both_replay_"
            "like_the_graph",)),
    Mutant("replay-undo-dropped", AUTODIFF,
           "                mean.data, var.data = data\n",
           "                pass\n",
           (T_REPLAY + "test_a_step_that_raises_changes_no_state[recording-base]",
            T_REPLAY + "test_a_step_that_raises_changes_no_state"
            "[replayed-client, subset]")),
    Mutant("count-shares-by-reciprocal", "src/fedscil/aggregation.py",
           "counts / counts.sum() if", "counts * (1 / counts.sum()) if",
           (T_PROPERTIES + "test_count_rule_column_path_equals_the_whole_"
            "model_average",)),
    Mutant("noisy-flip-leaves-its-span", GENERATION,
           "labels[i] = lo + (labels[i] - lo + shift) % span",
           "labels[i] = labels[i] + shift",
           (T_PROPERTIES + "test_noisy_buffer_keeps_labels_in_their_session",)),
    Mutant("repeated-config-key-accepted", "src/fedscil/config.py",
           "        if key in first:\n", "        if False:\n",
           (T_CLI + "test_config_file_parsing",)),
    Mutant("csv-feature-counts-unchecked", "src/fedscil/orchestrator.py",
           "        if train.x.shape[1] != test.x.shape[1]:\n", "        if False:\n",
           (T_CLI + "test_csv_dataset_faults_exit_one[feature counts differ]",)),
    Mutant("label-only-csv-rows-accepted", "src/fedscil/data.py",
           "            if len(values) < 2:\n", "            if False:\n",
           (T_CLI + "test_label_only_csv_rows_exit_one",)),
    Mutant("config-file-bytes-replaced", "src/fedscil/config.py",
           'with open(path, encoding="utf-8") as fh:',
           'with open(path, encoding="utf-8", errors="replace") as fh:',
           (T_CLI + "test_config_file_parsing",)),
]


def mutated_source(mutant: Mutant) -> str:
    """The file's text with the edit made; the old text must occur once."""
    with open(os.path.join(ROOT, mutant.path), encoding="utf-8") as fh:
        text = fh.read()
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: old text occurs {count} times "
                         f"in {mutant.path}")
    return text.replace(mutant.old, mutant.new)


def _failed(output: str) -> set[str]:
    """Node ids pytest's short summary (-rfE) reports as failed or errored."""
    out = set()
    for line in output.splitlines():
        for tag in ("FAILED ", "ERROR "):
            if line.startswith(tag):
                out.add(line[len(tag):].split(" - ")[0])
    return out


def run_mutant(mutant: Mutant) -> tuple[bool, float, str]:
    """(caught, seconds, pytest output) of one mutant run in a copy."""
    start = time.perf_counter()
    source = mutated_source(mutant)
    with tempfile.TemporaryDirectory(prefix="fedscil-mutant-") as copy:
        for name in COPIED:
            src, dst = os.path.join(ROOT, name), os.path.join(copy, name)
            if os.path.isdir(src):
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", "out"))  # out: benchmark results
            else:
                shutil.copy2(src, dst)
        with open(os.path.join(copy, mutant.path), "w", encoding="utf-8") as fh:
            fh.write(source)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env["FEDSCIL_RUN_ROOT"] = os.path.join(copy, "runs")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             *mutant.tests], cwd=copy, env=env, capture_output=True, text=True)
    output = proc.stdout + proc.stderr
    caught = set(mutant.tests) <= _failed(output)
    return caught, time.perf_counter() - start, output


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help="mutants to run (default: every one)")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"no mutant named {', '.join(map(repr, unknown))}")
    chosen = [known[name] for name in args.names] or MUTANTS
    survivors = 0
    for mutant in chosen:
        caught, seconds, output = run_mutant(mutant)
        print(f"{'caught' if caught else 'survived':8} {seconds:6.1f}s  "
              f"{mutant.name}", flush=True)
        if not caught:  # pytest's summary says which listed test passed
            survivors += 1
            print("\n".join(output.splitlines()[-15:]))
    print(f"{len(chosen) - survivors} of {len(chosen)} caught")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
