"""Run records, the five sequence metrics, and machine-readable export.

metrics.jsonl holds one JSON object per line: per-epoch records
(task, epoch, loss, test_acc, wall_ms, steps) and task-boundary records
(the accuracy of every seen task under the model at that boundary).
summary.csv holds one row per task: its peak-phase accuracy (PPA), the
average and forgetting-ratio metrics at its boundary (APA, CFR), epochs
to reach 98% of its peak (SC), and optimizer steps spent (tt_steps).

Wall-clock stays in the jsonl only; every summary.csv column is a
deterministic function of the run so re-runs compare byte-for-byte.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import astuple, dataclass, field
from pathlib import Path
from typing import Sequence

from .errors import DataError


@dataclass(frozen=True)
class EpochRecord:
    task_id: int
    epoch: int
    train_loss: float
    test_acc: float
    wall_ms: float
    steps: int


@dataclass(frozen=True)
class BoundaryRecord:
    after_task: int
    task_id: int
    test_acc: float


@dataclass
class RunLog:
    epochs: list[EpochRecord] = field(default_factory=list)
    boundaries: list[BoundaryRecord] = field(default_factory=list)

    def task_ids(self) -> list[int]:
        seen: dict[int, None] = {}
        for r in self.epochs:
            seen.setdefault(r.task_id, None)
        return list(seen)

    def trace(self, task_id: int) -> list[float]:
        return [r.test_acc for r in self.epochs if r.task_id == task_id]

    def boundary_accuracies(self, after_task: int) -> dict[int, float]:
        return {r.task_id: r.test_acc for r in self.boundaries if r.after_task == after_task}

    def peaks(self) -> dict[int, float]:
        """Reference accuracy per task: its value at its own boundary."""
        return {r.task_id: r.test_acc for r in self.boundaries if r.after_task == r.task_id}

    def fingerprint(self) -> str:
        """Digest of every deterministic field (wall-clock excluded)."""
        h = hashlib.sha256()
        for r in self.epochs:
            h.update(f"e|{r.task_id}|{r.epoch}|{r.train_loss!r}|{r.test_acc!r}|{r.steps}\n".encode())
        for b in self.boundaries:
            h.update(f"b|{b.after_task}|{b.task_id}|{b.test_acc!r}\n".encode())
        return h.hexdigest()


def ppa(trace: Sequence[float], top_frac: float = 0.05) -> float:
    """Mean of the top ceil(top_frac * epochs) accuracies of a task's own
    training phase."""
    if not trace:
        raise DataError("ppa: empty accuracy trace")
    k = math.ceil(top_frac * len(trace))
    top = sorted(trace, reverse=True)[:k]
    return sum(top) / len(top)


def apa(seen_task_accuracies: Sequence[float]) -> float:
    if not seen_task_accuracies:
        raise DataError("apa: no task accuracies")
    return sum(seen_task_accuracies) / len(seen_task_accuracies)


def cfr(current_accuracies: Sequence[float], peak_accuracies: Sequence[float]) -> float:
    """Mean over seen tasks of current/peak; zero-peak tasks are skipped."""
    if len(current_accuracies) != len(peak_accuracies):
        raise DataError(f"cfr: {len(current_accuracies)} current vs {len(peak_accuracies)} peaks")
    ratios = []
    for cur, peak in zip(current_accuracies, peak_accuracies):
        if peak <= 0.0:
            continue
        ratios.append(cur / peak)
    return sum(ratios) / len(ratios) if ratios else float("nan")


def cfr_skipped_tasks(log: RunLog) -> list[int]:
    """Tasks whose zero peak accuracy makes cfr skip them at every boundary."""
    return [t for t, peak in log.peaks().items() if peak <= 0.0]


def sc(trace: Sequence[float]) -> int:
    """First 1-based epoch whose accuracy reaches 98% of the trace's peak."""
    if not trace:
        raise DataError("sc: empty accuracy trace")
    threshold = 0.98 * max(trace)
    for i, acc in enumerate(trace, start=1):
        if acc >= threshold:
            return i
    return len(trace)


# ------------------------------------------------------------------ export

# Per record kind, in writing order: its type, the RunLog list holding it,
# and each field's JSON key and type, in the type's argument order.  Writer
# and parser both read it.
_RECORDS = {
    "epoch": (EpochRecord, "epochs", {"task": int, "epoch": int, "loss": float,
                                      "test_acc": float, "wall_ms": float, "steps": int}),
    "boundary": (BoundaryRecord, "boundaries", {"after_task": int, "task": int, "test_acc": float}),
}


def jsonl_lines(log: RunLog) -> list[str]:
    lines = []
    for kind, (_, records, keys) in _RECORDS.items():
        for r in getattr(log, records):
            lines.append(json.dumps({"kind": kind, **dict(zip(keys, astuple(r)))},
                                    sort_keys=True, separators=(",", ":")))
    return lines


def _field(rec: dict, key: str, kind: type, where: str):
    value = rec[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)) or \
            (kind is int and not isinstance(value, int)):
        raise DataError(f"{where}: {key} must be {'an integer' if kind is int else 'a number'}, "
                        f"got {value!r:.40}")
    try:
        return kind(value)
    except OverflowError:
        raise DataError(f"{where}: {key} out of range") from None


def parse_jsonl(data: str | bytes) -> RunLog:
    """Read metrics.jsonl text or bytes.  A line that is not UTF-8, not a
    JSON object, of no known kind, or short of a field of the right type
    raises DataError naming the line."""
    log = RunLog()
    for i, line in enumerate(data.splitlines(), start=1):
        where = f"metrics.jsonl line {i}"
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError:
                raise DataError(f"{where}: not UTF-8 text") from None
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except (json.JSONDecodeError, RecursionError):
            raise DataError(f"{where}: not valid JSON") from None
        if not isinstance(rec, dict):
            raise DataError(f"{where}: expected a JSON object, got {type(rec).__name__}")
        kind = rec.get("kind")
        if not isinstance(kind, str) or kind not in _RECORDS:
            raise DataError(f"{where}: unknown record kind {kind!r:.40}")
        record, records, fields = _RECORDS[kind]
        missing = [key for key in fields if key not in rec]
        if missing:
            raise DataError(f"{where}: {kind} record lacks {missing}")
        values = [_field(rec, key, t, where) for key, t in fields.items()]
        getattr(log, records).append(record(*values))
    return log


def summary_rows(log: RunLog) -> list[dict]:
    rows = []
    peaks = log.peaks()
    ids = log.task_ids()
    unknown = sorted({r.after_task for r in log.boundaries}.difference(ids))
    if unknown:
        raise DataError(f"boundary after task {unknown[0]}: the log holds no epoch of that task")
    for t in ids:
        trace = log.trace(t)
        at_boundary = log.boundary_accuracies(t)
        seen = sorted(at_boundary)
        if not peaks.keys() >= set(seen):
            raise DataError(f"boundary after task {t}: a seen task has no boundary of its own")
        rows.append({
            "task": t,
            "ppa": ppa(trace),
            "apa": apa([at_boundary[i] for i in seen]),
            "cfr": cfr([at_boundary[i] for i in seen], [peaks[i] for i in seen]),
            "sc": sc(trace),
            "tt_steps": sum(r.steps for r in log.epochs if r.task_id == t),
        })
    return rows


def summary_csv_bytes(rows: Sequence[dict]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["task", "ppa", "apa", "cfr", "sc", "tt_steps"])
    for row in rows:
        writer.writerow([row["task"], repr(float(row["ppa"])), repr(float(row["apa"])),
                         repr(float(row["cfr"])), row["sc"], row["tt_steps"]])
    return buf.getvalue().encode("utf-8")


def export(log: RunLog, out_dir: Path) -> dict[str, Path]:
    """Write metrics.jsonl and summary.csv; re-export is byte-identical."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    jsonl_path = out_dir / "metrics.jsonl"
    jsonl_path.write_bytes(("\n".join(jsonl_lines(log)) + "\n").encode("utf-8")
                           if log.epochs or log.boundaries else b"")
    csv_path = out_dir / "summary.csv"
    csv_path.write_bytes(summary_csv_bytes(summary_rows(log)))
    return {"jsonl": jsonl_path, "csv": csv_path}
