"""Command line entry point.

Subcommands:
  run                train and evaluate one experiment, writing a run directory
  partition-inspect  dump the schedule and client shard statistics as JSON
  report             render a session-by-session accuracy table for runs
  compare            join runs into one table with deltas against the first

Run directories live under $FEDSCIL_RUN_ROOT (default ./runs) and contain
exactly one manifest.json (config snapshot, resolved seed streams, artifact
paths), metrics.jsonl (one deterministic JSON record per session), a
timings.jsonl side stream, and summary.csv. Rerunning from a manifest
reproduces metrics.jsonl byte for byte.

Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .checkpoint import save_state
from .config import (ExperimentConfig, build_config, from_flat_dict, run_id,
                     to_flat_dict)
from .errors import ConfigError
from .generation import export_synthetics_csv
from .orchestrator import inspect_partitions, run_experiment
from .reporting import (MANIFEST_FILENAME, METRICS_FILENAME, SUMMARY_FILENAME,
                        TIMINGS_FILENAME, compare_table, load_run_metrics,
                        render_text, report_table, run_label, summary_row,
                        write_summary_csv, write_table_csv)
from .seeding import derive_seed

MANIFEST_FORMAT = 1


def _config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--preset", help="named preset applied before the file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
    parser.add_argument("--method", help="shortcut for --set method=...")
    parser.add_argument("--seed", type=int, help="shortcut for --set seed=...")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedscil",
        description="Federated few-shot class-incremental learning simulator.")
    parser.add_argument("--version", action="version",
                        version=f"fedscil {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    _config_flags(p_run)
    p_run.add_argument("--from-manifest", metavar="PATH",
                       help="rerun exactly the config recorded in a manifest")
    p_run.add_argument("--out", help="run directory (default derived from the "
                                     "config under the run root)")
    p_run.add_argument("--save-checkpoints", action="store_true",
                       help="write a model checkpoint per session")
    p_run.add_argument("--export-synthetics", action="store_true",
                       help="dump the final replay buffer to synthetics.csv")
    p_run.add_argument("--quiet", action="store_true",
                       help="suppress per-session progress lines")

    p_part = sub.add_parser("partition-inspect",
                            help="dump schedule and shard statistics")
    _config_flags(p_part)
    p_part.add_argument("--out", help="also write the JSON to this file")

    p_rep = sub.add_parser("report", help="render an accuracy table")
    p_rep.add_argument("paths", nargs="+",
                       help="run directories or metrics.jsonl files")
    p_rep.add_argument("--csv", help="also write the table to this CSV file")

    p_cmp = sub.add_parser("compare",
                           help="join runs, deltas against the first")
    p_cmp.add_argument("paths", nargs="+",
                       help="run directories or metrics.jsonl files")
    p_cmp.add_argument("--csv", help="also write the table to this CSV file")
    return parser


def _load_config(args) -> ExperimentConfig:
    overrides = list(args.set)
    if args.method is not None:
        overrides.append(f"method={args.method}")
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    return build_config(args.config, args.preset, overrides)


def _claim_run_dir(cfg: ExperimentConfig, out: str | None) -> str:
    """Pick a directory that does not already hold a manifest."""
    if out:
        if os.path.isfile(os.path.join(out, MANIFEST_FILENAME)):
            raise ConfigError(f"{out} already contains a manifest; "
                              "a run directory holds exactly one run")
        os.makedirs(out, exist_ok=True)
        return out
    root = os.environ.get("FEDSCIL_RUN_ROOT", os.path.join(".", "runs"))
    base = os.path.join(root, f"{cfg.method}-seed{cfg.seed}-{run_id(cfg)}")
    candidate = base
    attempt = 1
    while os.path.isfile(os.path.join(candidate, MANIFEST_FILENAME)):
        attempt += 1
        candidate = f"{base}-rerun{attempt - 1}"
        if attempt > 1000:
            raise ConfigError(f"cannot find a free run directory near {base}")
    os.makedirs(candidate, exist_ok=True)
    return candidate


def _resolved_seeds(cfg: ExperimentConfig) -> dict:
    """Every stream seed derived from the master seed, keyed by path; the one
    list of those paths, for audit and component replay.

    ``("genlab", t)`` is keyed by session, not by round: each round of a
    session continues training the same generator and student, so every
    round restarts their noise stream from the same seed.
    """
    seeds: dict = {
        "data": derive_seed(cfg.seed, "data"),
        "schedule": derive_seed(cfg.seed, "schedule"),
        "init": derive_seed(cfg.seed, "init"),
        "base": derive_seed(cfg.seed, "base"),
        "genlab": {"0": derive_seed(cfg.seed, "genlab", 0)},
        "buffer": {"0": derive_seed(cfg.seed, "buffer", 0)},
        "partition": {},
        "head": {},
        "client": {},
    }
    for t in range(1, cfg.data.sessions + 1):
        key = str(t)
        seeds["partition"][key] = derive_seed(cfg.seed, "partition", t)
        seeds["head"][key] = derive_seed(cfg.seed, "head", t)
        seeds["genlab"][key] = derive_seed(cfg.seed, "genlab", t)
        seeds["buffer"][key] = derive_seed(cfg.seed, "buffer", t)
        for r in range(cfg.rounds):
            for m in range(cfg.clients):
                seeds["client"][f"{t},{r},{m}"] = derive_seed(
                    cfg.seed, "client", t, r, m)
    return seeds


def _metrics_record(rid: str, cfg: ExperimentConfig, sm) -> dict:
    return {
        "run_id": rid,
        "method": cfg.method,
        "seed": cfg.seed,
        "alpha": cfg.alpha,
        "session": sm.session,
        "classes_seen": sm.classes_seen,
        "overall": sm.overall,
        "old": sm.old,
        "new": sm.new,
        "per_class": sm.per_class,
        "audit": sm.audit,
    }


def _manifest_config(path: str) -> ExperimentConfig:
    """The config a run manifest records; a file that is not a manifest of
    this format is a configuration error that names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError:  # not JSON, or not UTF-8 text
            raise ConfigError(f"{path}: not a JSON manifest") from None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("config"), dict):
        raise ConfigError(f"{path}: no config object in the manifest")
    if manifest.get("format") != MANIFEST_FORMAT:
        raise ConfigError(f"{path}: manifest format {manifest.get('format')!r}, "
                          f"expected {MANIFEST_FORMAT}")
    try:
        return from_flat_dict(manifest["config"])
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _cmd_run(args) -> int:
    if args.from_manifest:
        if args.config or args.preset or args.set or args.method is not None \
                or args.seed is not None:
            raise ConfigError("--from-manifest cannot be combined with other "
                              "config flags; the manifest is the full config")
        cfg = _manifest_config(args.from_manifest)
    else:
        cfg = _load_config(args)
    if args.save_checkpoints:
        cfg.save_checkpoints = True
    if args.export_synthetics:
        cfg.export_synthetics = True

    rid = run_id(cfg)
    run_dir = _claim_run_dir(cfg, args.out)
    artifacts = {"metrics": METRICS_FILENAME, "timings": TIMINGS_FILENAME,
                 "summary": SUMMARY_FILENAME}
    if cfg.save_checkpoints:
        artifacts["checkpoints"] = "checkpoints"
        os.makedirs(os.path.join(run_dir, "checkpoints"), exist_ok=True)
    if cfg.export_synthetics:
        artifacts["synthetics"] = "synthetics.csv"
    manifest = {
        "format": MANIFEST_FORMAT,
        "tool": f"fedscil {__version__}",
        "run_id": rid,
        "config": to_flat_dict(cfg),
        "seeds": _resolved_seeds(cfg),
        "artifacts": artifacts,
    }
    with open(os.path.join(run_dir, MANIFEST_FILENAME), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    metrics_records: list[dict] = []
    metrics_fh = open(os.path.join(run_dir, METRICS_FILENAME), "w",
                      encoding="utf-8")
    timings_fh = open(os.path.join(run_dir, TIMINGS_FILENAME), "w",
                      encoding="utf-8")

    def on_session(sm, model) -> None:
        record = _metrics_record(rid, cfg, sm)
        metrics_records.append(record)
        metrics_fh.write(json.dumps(record, sort_keys=True) + "\n")
        metrics_fh.flush()
        timings_fh.write(json.dumps(
            {"run_id": rid, "session": sm.session, "seconds": sm.seconds},
            sort_keys=True) + "\n")
        timings_fh.flush()
        if cfg.save_checkpoints:
            save_state(os.path.join(run_dir, "checkpoints",
                                    f"session_{sm.session}.ckpt"),
                       model.state_entries(), extra={"arch": model.arch()})
        if not args.quiet:
            old = "-" if sm.old is None else f"{100 * sm.old:.2f}"
            print(f"session {sm.session}: overall {100 * sm.overall:.2f}%  "
                  f"old {old}  new {100 * sm.new:.2f}  "
                  f"({sm.classes_seen} classes, {sm.seconds:.1f}s)")

    try:
        result = run_experiment(cfg, on_session=on_session)
    finally:
        # keep whatever sessions completed on disk
        metrics_fh.close()
        timings_fh.close()

    write_summary_csv(os.path.join(run_dir, SUMMARY_FILENAME),
                      [summary_row(result)])
    if cfg.export_synthetics and result.buffer_rows is not None:
        export_synthetics_csv(os.path.join(run_dir, "synthetics.csv"),
                              result.buffer_rows)

    label = os.path.basename(run_dir)
    header, rows = report_table([(label, metrics_records)])
    print(render_text(header, rows))
    print(f"final {100 * result.final_accuracy:.2f}%  "
          f"average {100 * result.average_accuracy:.2f}%")
    print(f"run directory: {run_dir}")
    return 0


def _cmd_partition_inspect(args) -> int:
    cfg = _load_config(args)
    payload = inspect_partitions(cfg)
    payload["config"] = to_flat_dict(cfg)
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def _load_runs(paths: list[str]) -> list[tuple[str, list[dict]]]:
    runs = []
    for path in paths:
        records = load_run_metrics(path)
        runs.append((run_label(path, records), records))
    return runs


def _cmd_report(args) -> int:
    header, rows = report_table(_load_runs(args.paths))
    print(render_text(header, rows))
    if args.csv:
        write_table_csv(header, rows, args.csv)
    return 0


def _cmd_compare(args) -> int:
    header, rows = compare_table(_load_runs(args.paths))
    print(render_text(header, rows))
    if args.csv:
        write_table_csv(header, rows, args.csv)
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "partition-inspect": _cmd_partition_inspect,
    "report": _cmd_report,
    "compare": _cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
