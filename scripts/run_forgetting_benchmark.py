"""Desk-scale forgetting comparison: full method vs fine-tuning vs per-task models.

Runs the experiment of desk_config.json next to this script (five 3-class
tasks drawn from six synthetic primitives) under each mode, repeated over
seeds.  Prints each run's APA / CFR / PPA with its run fingerprint
(``RunLog.fingerprint()``, the refactor proof of ROADMAP.md), the per-task
accuracy matrices for diagnosis, and per-mode means.  Every other setting
comes from the JSON file.

Usage: python scripts/run_forgetting_benchmark.py [--seeds 0 1 2] [--epochs N]
                                                  [--modes l3doc finetune stl]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from l3doc.cli import build_tasks, experiment_from_resolved, resolve_config
from l3doc.metrics import summary_rows
from l3doc.trainer import MODES, run_sequence

DESK_CONFIG = Path(__file__).resolve().parent / "desk_config.json"


def desk_experiment(mode: str, seed: int, epochs: int | None = None):
    """The desk config and its tasks for one mode and seed; epochs=None
    keeps the file's epoch count."""
    raw = json.loads(DESK_CONFIG.read_text(encoding="utf-8"))
    resolved = resolve_config(raw, {"seed": seed, "mode": mode, "epochs": epochs})
    return experiment_from_resolved(resolved), build_tasks(resolved)


def run_mode(mode: str, seed: int, epochs: int | None) -> dict:
    cfg, tasks = desk_experiment(mode, seed, epochs)
    num_tasks = len(tasks)
    t0 = time.perf_counter()
    _, log = run_sequence(cfg, tasks)
    elapsed = time.perf_counter() - t0
    rows = summary_rows(log)  # summary.csv's rows: the last one is the final boundary
    matrix = {after: log.boundary_accuracies(after) for after in range(1, num_tasks + 1)}
    return {
        "apa": rows[-1]["apa"],
        "cfr": rows[-1]["cfr"],
        "ppa": sum(row["ppa"] for row in rows) / len(rows),
        "matrix": matrix,
        "fingerprint": log.fingerprint(),
        "elapsed": elapsed,
    }


def print_matrix(matrix: dict) -> None:
    num_tasks = len(matrix)
    print("      " + "".join(f"T{t:<7}" for t in range(1, num_tasks + 1)))
    for after in range(1, num_tasks + 1):
        row = matrix[after]
        cells = "".join(f"{row.get(t, float('nan')):<8.3f}" if t in row else " " * 8
                        for t in range(1, num_tasks + 1))
        print(f"after {after}: {cells}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--epochs", type=int, default=None,
                        help="override the epoch count of desk_config.json")
    parser.add_argument("--modes", nargs="+", choices=MODES, default=["l3doc", "finetune", "stl"])
    args = parser.parse_args()

    summary: dict[str, dict[str, list[float]]] = {m: {"apa": [], "cfr": [], "ppa": []}
                                                  for m in args.modes}
    for mode in args.modes:
        for seed in args.seeds:
            res = run_mode(mode, seed, args.epochs)
            for key in ("apa", "cfr", "ppa"):
                summary[mode][key].append(res[key])
            print(f"\n[{mode} seed={seed}] APA={res['apa']:.3f} CFR={res['cfr']:.3f} "
                  f"PPA={res['ppa']:.3f} fingerprint={res['fingerprint']}  ({res['elapsed']:.1f}s)")
            print_matrix(res["matrix"])
    print("\n=== means over seeds ===")
    for mode in args.modes:
        vals = summary[mode]
        print(f"{mode:10s} APA={sum(vals['apa']) / len(vals['apa']):.3f} "
              f"CFR={sum(vals['cfr']) / len(vals['cfr']):.3f} "
              f"PPA={sum(vals['ppa']) / len(vals['ppa']):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
