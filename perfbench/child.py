"""One measured process of the benchmark.

    python3 perfbench/child.py setup SPEC_JSON RESULT_PATH
    python3 perfbench/child.py run SPEC_JSON RESULT_PATH

``setup`` times, from a cold interpreter, the import of fedscil and the
``build_config``, ``prepare_schedule`` and ``prepare_partitions`` calls for
the workload's config. ``run`` makes one ``fedscil.cli.main(["run", ...])``
call, under the benchmark's tracer when the spec asks for it, and times it.
Either mode writes one JSON object to RESULT_PATH; the CLI's own output goes
to stdout.
"""
import json
import resource
import sys
import time


def setup(spec: dict) -> dict:
    started = time.perf_counter()
    from fedscil.config import build_config
    from fedscil.orchestrator import prepare_partitions, prepare_schedule
    cfg = build_config(preset=spec["preset"], overrides=spec["overrides"])
    prepare_partitions(cfg, prepare_schedule(cfg))
    return {"setup_s": time.perf_counter() - started}


def run(spec: dict) -> dict:
    from fedscil.cli import main
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer(spec["run_id"])
        tracer.install()
    started = time.perf_counter()
    rc = main(spec["argv"])
    run_s = time.perf_counter() - started
    # ru_maxrss is in KiB on Linux
    out = {"rc": rc, "run_s": run_s,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        from tracer import tree_bytes
        out["layers"] = tracer.metrics(run_s, tree_bytes(spec["run_dir"]))
        out["spans"] = tracer.span_rows()
    return out


if __name__ == "__main__":
    mode, spec_json, result_path = sys.argv[1:4]
    result = {"setup": setup, "run": run}[mode](json.loads(spec_json))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
