"""fedscil benchmark: end-to-end experiment time, and a traced per-layer split.

    python3 perfbench/run.py --workload sdd_desk --seed 0 --seconds 50 --trace 0

Run from the root of a source checkout (the directory that holds ``src/``).
Every experiment is one ``fedscil.cli.main(["run", ...])`` call in a fresh
process, one at a time, with BLAS pinned to one thread; the program sees only
the config built from the workload and ``--seed``.

``--trace 0`` measures the end-to-end metrics: set-up time (median of
SETUP_REPEATS fresh processes after one warm-up), then repeated experiments
for ``--seconds`` (at least one), reporting the fastest run time, the median
peak RSS and the run's average accuracy. ``--trace 1`` alternates untraced
and traced experiments for ``--seconds`` (at least one pair) and reports the
per-layer metrics of the traced ones, plus the tracing overhead; tracing
never touches the end-to-end numbers.

Every experiment is checked: exit code 0, every accuracy in metrics.jsonl
finite and in [0, 1], summary.csv consistent with it, the workload's
artifacts present, and one metrics.jsonl digest across all experiments of a
workload and seed (the manifest determinism contract). A failed check counts
the experiment as failed. Details of each run go to perfbench/out/; the last
line of stdout is the JSON result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# The default seed is the one changes are developed against; a speed claim
# must also hold on the held-out seed.
DEFAULT_SEED = 0
HELD_OUT_SEED = 7
SETUP_REPEATS = 9
DEADLINE_S = 170.0          # the whole invocation ends well within 180 s
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    method: str
    sessions: int
    clients: int
    sets: tuple = ()
    flags: tuple = ()

    def overrides(self, seed: int) -> list[str]:
        return [f"method={self.method}", f"seed={seed}", *self.sets]

    def argv(self, seed: int, run_dir: str) -> list[str]:
        argv = ["run", "--preset", "desk", "--method", self.method,
                "--seed", str(seed)]
        for item in self.sets:
            argv += ["--set", item]
        return argv + list(self.flags) + ["--quiet", "--out", run_dir]


WORKLOADS = {
    # the paper's method: generator training is ~94% of the run
    "sdd_desk": Workload("sdd", sessions=4, clients=3),
    # no generator: base training, plain client SGD and fedavg; the
    # checkpoint writes keep the checkpoint layer in the measured set
    "finetune_desk": Workload("finetune", sessions=4, clients=3,
                              flags=("--save-checkpoints",)),
    # 8-teacher ensemble, distillation clients, skewed (some empty) shards,
    # an 8-row accuracy matrix, checkpoint and synthetics writes. Not listed
    # in BENCHMARK.json: a third 20 s workload does not fit the run budget
    # at a run length long enough to be steady. Run it by hand with
    # --trace 1 for the 8-teacher per-layer split.
    "cswa_kd_8clients": Workload(
        "sdd_cswa_only", sessions=2, clients=8,
        sets=("clients=8", "alpha=0.3", "data.sessions=2"),
        flags=("--save-checkpoints", "--export-synthetics")),
}

E2E_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "avg_accuracy": "%"}


def layer_unit(name: str) -> str:
    leaf = name.split(".", 1)[1]
    if leaf.startswith("ms_"):
        return "ms"
    if leaf.endswith("_s"):
        return "s"
    if leaf.startswith("nodes_"):
        return "nodes"
    if leaf.startswith("bytes_"):
        return "bytes"
    if leaf.endswith(("ratio", "share", "coverage")):
        return "ratio"
    return "count"


# -- child processes -----------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ, **BLAS_THREADS)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(mode: str, spec: dict, deadline: float) -> tuple[dict | None, str]:
    """Run child.py once; (result, "") or (None, reason)."""
    result_path = os.path.join(OUT, f"child-{mode}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    timeout = deadline - time.monotonic()
    if timeout <= 1.0:
        return None, "no time left before the deadline"
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode,
           json.dumps(spec), result_path]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"{mode} process timed out"
    if proc.returncode != 0 or not os.path.exists(result_path):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return None, f"{mode} process exited {proc.returncode}: {tail[0]}"
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(result_path)
    return result, ""


# -- correctness -----------------------------------------------------------


def _is_accuracy(value) -> bool:
    return (isinstance(value, (int, float)) and math.isfinite(value)
            and 0.0 <= value <= 1.0)


def check_run(run_dir: str, work: Workload) -> tuple[str, str, float]:
    """(error or "", metrics.jsonl digest, average accuracy in percent)."""
    metrics_path = os.path.join(run_dir, "metrics.jsonl")
    if not os.path.isfile(metrics_path):
        return "metrics.jsonl missing", "", 0.0
    with open(metrics_path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    records = [json.loads(line) for line in raw.decode().splitlines()]
    if [r["session"] for r in records] != list(range(work.sessions + 1)):
        return "metrics.jsonl does not hold one record per session", digest, 0.0
    for r in records:
        values = [r["overall"], r["new"], *r["per_class"]]
        if r["old"] is not None:
            values.append(r["old"])
        if not all(_is_accuracy(v) for v in values):
            return f"session {r['session']}: accuracy not finite in [0, 1]", digest, 0.0
        matrix = (r["audit"] or {}).get("accuracy_matrix")
        if matrix is not None and len(matrix) != work.clients:
            return f"session {r['session']}: accuracy matrix rows != clients", digest, 0.0
    with open(os.path.join(run_dir, "summary.csv"), encoding="utf-8") as fh:
        header, row = fh.read().splitlines()[:2]
    average = float(dict(zip(header.split(","), row.split(",")))["average_accuracy"])
    mean = sum(r["overall"] for r in records) / len(records)
    if not abs(average - mean) <= 1e-12:
        return "summary.csv average disagrees with metrics.jsonl", digest, 0.0
    if "--save-checkpoints" in work.flags:
        for t in range(work.sessions + 1):
            if not os.path.isfile(os.path.join(run_dir, "checkpoints",
                                               f"session_{t}.ckpt")):
                return f"checkpoint for session {t} missing", digest, 0.0
    if "--export-synthetics" in work.flags:
        path = os.path.join(run_dir, "synthetics.csv")
        if not os.path.isfile(path) or os.path.getsize(path) == 0:
            return "synthetics.csv missing or empty", digest, 0.0
    return "", digest, 100.0 * average


@dataclass
class Experiment:
    traced: bool
    wall_s: float
    error: str = ""
    run_s: float = 0.0
    peak_rss_mb: float = 0.0
    digest: str = ""
    avg_accuracy: float = 0.0
    layers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


def run_experiment(name: str, work: Workload, seed: int, index: int,
                   traced: bool, deadline: float) -> Experiment:
    run_dir = os.path.join(OUT, "runs", f"{name}-seed{seed}-{index}")
    shutil.rmtree(run_dir, ignore_errors=True)
    spec = {"argv": work.argv(seed, run_dir), "trace": traced,
            "run_id": f"{name}-seed{seed}-{index}", "run_dir": run_dir}
    started = time.monotonic()
    result, error = spawn("run", spec, deadline)
    exp = Experiment(traced, time.monotonic() - started, error)
    if result is not None:
        if result["rc"] != 0:
            exp.error = f"fedscil run exited {result['rc']}"
        else:
            exp.error, exp.digest, exp.avg_accuracy = check_run(run_dir, work)
            exp.run_s = result["run_s"]
            exp.peak_rss_mb = result["peak_rss_mb"]
            exp.layers = result.get("layers", {})
            exp.spans = result.get("spans", [])
    shutil.rmtree(run_dir, ignore_errors=True)
    return exp


def mark_digest_mismatches(experiments: list[Experiment]) -> None:
    """Every experiment of one workload and seed must write the same
    metrics.jsonl; later ones that differ from the first good one fail."""
    good = [e for e in experiments if not e.error]
    for e in good[1:]:
        if e.digest != good[0].digest:
            e.error = "metrics.jsonl digest differs between repetitions"


# -- summaries ---------------------------------------------------------------


def timing_summary(values: list[float]) -> str:
    """Fastest, median, and the highest percentile with at least ten
    samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"fastest {ordered[0]:.6g}, median {statistics.median(ordered):.6g}"
    for pct in (99, 95, 90, 75, 50):
        if n * (100 - pct) / 100 >= 10:
            rank = math.ceil(pct / 100 * n)
            text += f", p{pct} {ordered[rank - 1]:.6g}"
            break
    else:
        text += ", no percentile has 10 samples beyond it"
    return text + f" (n={n})"


def environment(load_before: tuple, load_after: tuple) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_in_workload": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
    }


def measure_untraced(name, work, seed, seconds, deadline):
    setups, errors = [], []
    spec = {"preset": "desk", "overrides": work.overrides(seed)}

    def measure_setup(count: int) -> None:
        for _ in range(count):
            result, error = spawn("setup", spec, deadline)
            if result is None:
                errors.append(error)
            else:
                setups.append(result["setup_s"])

    spawn("setup", spec, deadline)      # warm-up: bytecode and page cache
    # half the set-up samples before the experiments and half after, so the
    # median spans two stretches of the machine's drifting speed
    measure_setup(SETUP_REPEATS - SETUP_REPEATS // 2)
    experiments: list[Experiment] = []
    started = time.monotonic()
    while True:
        experiments.append(run_experiment(name, work, seed, len(experiments),
                                           False, deadline))
        per_run = statistics.median(e.wall_s for e in experiments)
        now = time.monotonic()
        if now - started + per_run > seconds or now + per_run > deadline:
            break
    measure_setup(SETUP_REPEATS // 2)
    mark_digest_mismatches(experiments)
    ok = [e for e in experiments if not e.error]
    metrics, lines = {}, []
    if ok and setups:
        run_s = [e.run_s for e in ok]
        metrics = {
            # The fastest experiment: on a shared VM the speed switches
            # between phases ~1.8x apart that last tens of seconds, so the
            # median of a run follows the phase mix; the minimum does not.
            "run_s": min(run_s),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(e.peak_rss_mb for e in ok),
            "avg_accuracy": ok[0].avg_accuracy,
        }
        lines = [f"run_s (s): {timing_summary(run_s)}",
                 f"setup_s (s): {timing_summary(setups)}",
                 f"peak_rss_mb (MB): {metrics['peak_rss_mb']:.6g}",
                 f"avg_accuracy (%): {metrics['avg_accuracy']:.6g}"]
    return len(experiments) + SETUP_REPEATS, experiments, errors, metrics, lines


def measure_traced(name, work, seed, seconds, deadline):
    experiments: list[Experiment] = []
    started = time.monotonic()
    while True:
        # alternate which side of the pair goes first
        first = len(experiments) // 2 % 2 == 1
        for traced in (first, not first):
            experiments.append(run_experiment(name, work, seed, len(experiments),
                                              traced, deadline))
        per_pair = 2 * statistics.median(e.wall_s for e in experiments)
        now = time.monotonic()
        if now - started + per_pair > seconds or now + per_pair > deadline:
            break
    mark_digest_mismatches(experiments)
    traced = [e for e in experiments if e.traced and not e.error]
    plain = [e for e in experiments if not e.traced and not e.error]
    metrics, lines = {}, []
    if traced and plain:
        for key in traced[0].layers:
            metrics[key] = statistics.median(e.layers[key] for e in traced)
        traced_s = min(e.run_s for e in traced)
        plain_s = min(e.run_s for e in plain)
        metrics["trace.overhead_s"] = traced_s - plain_s
        metrics["trace.overhead_ratio"] = traced_s / plain_s
        lines = [f"traced run_s (s): {timing_summary([e.run_s for e in traced])}",
                 f"untraced run_s (s): {timing_summary([e.run_s for e in plain])}"]
        lines += [f"{key} ({layer_unit(key)}): {value:.6g}"
                  for key, value in metrics.items()]
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        with open(os.path.join(OUT, "spans", f"{name}-seed{seed}.jsonl"), "w",
                  encoding="utf-8") as fh:
            for e in traced:
                for span in e.spans:
                    fh.write(json.dumps(span) + "\n")
    return len(experiments), experiments, [], metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "fedscil", "cli.py")):
        print(f"fedscil sources not found under {ROOT}/src; run from a "
              "source checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    work = WORKLOADS[args.workload]
    load_before = os.getloadavg()
    measure = measure_traced if args.trace else measure_untraced
    attempted, experiments, errors, metrics, lines = measure(
        args.workload, work, args.seed, args.seconds, deadline)
    env = environment(load_before, os.getloadavg())

    failures = errors + [e.error for e in experiments if e.error]
    if not metrics:
        print(f"no successful measurement: {failures}", file=sys.stderr)
        return 1
    units = E2E_UNITS if not args.trace else {k: layer_unit(k) for k in metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env, "failures": failures,
        "experiments": [{k: v for k, v in vars(e).items() if k != "spans"}
                        for e in experiments],
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    for line in lines:
        print(line)
    for failure in failures:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
