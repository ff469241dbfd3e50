"""Plain-text and CSV rendering of run metrics.

Renderers only load metrics records and arrange them; the only arithmetic
performed here is the mean over sessions and differences between averages,
so every printed number traces back to a metrics-file field.

Accuracies are stored as fractions and rendered as percent with two
decimals. The compare layout treats the first run as the showcase: every
other row gets an Improvement entry equal to the first run's average minus
that row's average, plus a per-session delta sub-row with the same
orientation.
"""
from __future__ import annotations

import csv
import json
import os

from .errors import ContractError

METRICS_FILENAME = "metrics.jsonl"
TIMINGS_FILENAME = "timings.jsonl"
SUMMARY_FILENAME = "summary.csv"
MANIFEST_FILENAME = "manifest.json"

SUMMARY_FIELDS = ("run_id", "method", "seed", "alpha", "sessions",
                  "final_accuracy", "average_accuracy")


def load_run_metrics(path: str) -> list[dict]:
    """Records of sessions 0..T from a metrics file or a run directory holding one."""
    if os.path.isdir(path):
        path = os.path.join(path, METRICS_FILENAME)
    if not os.path.isfile(path):
        raise ContractError(f"no metrics file at {path}")
    numbered = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            where = f"{path}: line {number}"
            try:
                record = json.loads(line)
            except ValueError:  # a partial last line of an interrupted run
                raise ContractError(f"{where}: not a JSON record") from None
            if not isinstance(record, dict) or "session" not in record:
                raise ContractError(f"{where}: no session field")
            if type(record["session"]) is not int:
                raise ContractError(f"{where}: session is not an integer")
            if type(acc := record.get("overall")) not in (int, float) or not 0 <= acc <= 1:
                raise ContractError(f"{where}: overall is not a number in [0, 1]")
            numbered.append((record["session"], where, record))
    if not numbered:
        raise ContractError(f"metrics file {path} is empty")
    numbered.sort(key=lambda item: item[0])  # stable: repeats keep file order
    for expected, (session, where, _) in enumerate(numbered):
        if session != expected:  # a gap or a repeat
            raise ContractError(f"{where}: session {session}, expected {expected}")
    return [record for _, _, record in numbered]


def run_label(path: str, records: list[dict]) -> str:
    base = os.path.basename(os.path.normpath(path))
    if base and base != METRICS_FILENAME:
        return base
    return f"{records[0].get('method', 'run')}-seed{records[0].get('seed', '?')}"


def _pct(value) -> str:
    return "-" if value is None else f"{100.0 * value:.2f}"


def _check_alignment(runs: list[tuple[str, list[dict]]]) -> int:
    sessions = {len(records) for _, records in runs}
    if len(sessions) != 1:
        raise ContractError("runs cover different session counts; "
                            f"got {sorted(sessions)}")
    return sessions.pop() - 1


def _accuracy_row(label: str, records: list[dict]) -> tuple[list[str], float]:
    accs = [r["overall"] for r in records]
    average = sum(accs) / len(accs)
    return [label] + [_pct(a) for a in accs] + [_pct(average)], average


def report_table(runs: list[tuple[str, list[dict]]]) -> tuple[list[str], list[list[str]]]:
    """One row per run, columns session 0..T plus Average."""
    if not runs:
        raise ContractError("nothing to report")
    top = _check_alignment(runs)
    header = ["run"] + [str(t) for t in range(top + 1)] + ["Average"]
    rows = [_accuracy_row(label, records)[0] for label, records in runs]
    return header, rows


def compare_table(runs: list[tuple[str, list[dict]]]) -> tuple[list[str], list[list[str]]]:
    """Joined table; rows after the first get first-minus-row deltas."""
    if len(runs) < 2:
        raise ContractError("compare needs at least two runs")
    top = _check_alignment(runs)
    header = ["run"] + [str(t) for t in range(top + 1)] + ["Average", "Improvement"]
    ref_label, ref_records = runs[0]
    ref_accs = [r["overall"] for r in ref_records]
    ref_row, ref_avg = _accuracy_row(ref_label, ref_records)
    rows = [ref_row + ["-"]]
    for label, records in runs[1:]:
        accs = [r["overall"] for r in records]
        row, avg = _accuracy_row(label, records)
        rows.append(row + [f"{100.0 * (ref_avg - avg):+.2f}"])
        deltas = [f"{100.0 * (ra - a):+.2f}" for ra, a in zip(ref_accs, accs)]
        rows.append(["  delta"] + deltas + [f"{100.0 * (ref_avg - avg):+.2f}", ""])
    return header, rows


def render_text(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows
              else len(header[i]) for i in range(len(header))]

    def line(cells):
        return "  ".join(c.ljust(widths[i]) for i, c in enumerate(cells)).rstrip()

    rule = "  ".join("-" * w for w in widths)
    return "\n".join([line(header), rule] + [line(r) for r in rows])


def write_table_csv(header: list[str], rows: list[list[str]], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell.strip() for cell in row])


def summary_row(result) -> dict:
    return {
        "run_id": result.run_id,
        "method": result.method,
        "seed": result.seed,
        "alpha": result.alpha,
        "sessions": len(result.sessions) - 1,
        "final_accuracy": repr(result.final_accuracy),
        "average_accuracy": repr(result.average_accuracy),
    }


def write_summary_csv(path: str, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
