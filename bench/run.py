"""l3doc benchmark: end-to-end metrics per workload, per-layer metrics when traced.

One workload:

    python3 bench/run.py --workload desk --seed 0 --seconds 45 --trace 0

Every workload, one after another, with a table of every end-to-end metric
(add ``--trace 1`` for the per-layer table):

    python3 bench/run.py

A workload run builds its inputs from ``--seed`` (synthetic clouds, or OFF
meshes written before timing starts), sets up several times, then trains
the whole task sequence again and again, one at a time, until
``--seconds`` is spent.  Each repeat goes through the public path
``l3doc run`` takes: ``cli.resolve_config`` -> ``experiment_from_resolved``
-> ``build_tasks`` -> ``trainer.run_sequence`` -> ``metrics.export``.
Every repeat is checked (summary.csv against metrics.jsonl, and one run
fingerprint across repeats); a numeric failure or a failed check counts
as a failed attempt and the run goes on.  The last line of standard output
is the JSON result.  With ``--trace 1`` untraced and traced repeats
alternate, and the traced ones give the per-layer metrics; spans are
written to ``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread, set before numpy loads; an explicit setting wins.  On a
# two-core VM, numpy's default of two threads made pointnet_off steps 10-20%
# faster on a quiet machine but 40-55% slower with one core kept busy.  In
# two of three sets of ten runs (seeds 0-9), the interquartile range of its
# step_ms_p50 or step_ms_tail reached 28-32% of the median, past the largest
# bound the benchmark may set (README.md).  With one thread its steps do
# not slow down when another process holds the other core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
from workloads import WORKLOADS, Workload, generate_meshes, raw_config  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
MIN_REPEATS = 2
# A set-up round repeats the set-up until the repeats add up to this long,
# and gives their mean; setup_s is the median over rounds.  Single set-ups
# of desk (0.1-0.2 s) flip between two speeds about 2x apart every second
# or two on a shared VM, so their median jumps between the two from run to
# run; a round averages over the flips.
SETUP_ROUND_S = 2.0
TAIL_BEYOND = 10

UNITS = {
    "setup_s": "s",
    "sequence_s": "s",
    "train_samples_per_s": "objects/s",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "eval_objects_per_s": "objects/s",
    "peak_rss_mb": "MB",
    "final_apa": "fraction",
    "final_cfr": "fraction",
}


class CheckFailed(Exception):
    """An output of the program did not pass one of the benchmark's checks."""


def import_l3doc():
    """Import l3doc from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import l3doc

    if Path(l3doc.__file__).resolve().parent != (src / "l3doc").resolve():
        raise ImportError(f"l3doc imported from {l3doc.__file__}, not from {src}")


# ------------------------------------------------------------ provenance

def provenance() -> dict:
    import numpy as np

    env = {"GIT_CEILING_DIRECTORIES": str(ROOT.parent), **os.environ}
    commit, dirty = None, None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
        if commit:
            status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                                    env=env, capture_output=True, text=True, timeout=30).stdout
            dirty = bool(status.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit,
        "dirty": dirty,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "env": {k: os.environ.get(k) for k in
                ("L3DOC_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ------------------------------------------------------------ one workload

@dataclass
class Repeat:
    sequence_s: float
    wall_ms: list[float]
    steps: list[int]
    train_objects: int
    eval_objects: int
    fingerprint: str
    final_apa: float
    final_cfr: float


@dataclass
class Outcome:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    repeats: list[Repeat] = field(default_factory=list)
    traced: list[Repeat] = field(default_factory=list)


def tasks_digest(tasks) -> str:
    h = hashlib.sha256()
    for task in tasks:
        h.update(repr((task.task_id, task.class_names)).encode())
        for cloud, label in [*task.train, *task.test]:
            h.update(cloud.points.tobytes())
            h.update(str(label).encode())
    return h.hexdigest()


def set_up(raw: dict, seed: int):
    from l3doc import cli

    resolved = cli.resolve_config(raw, {"seed": seed})
    return cli.experiment_from_resolved(resolved), cli.build_tasks(resolved)


def run_once(cfg, tasks, out_dir: Path, min_apa: float) -> Repeat:
    """Train the sequence once, export it, and check the exported files
    and that the model learned."""
    from l3doc import metrics, trainer

    t0 = time.perf_counter()
    _, log = trainer.run_sequence(cfg, tasks)
    sequence_s = time.perf_counter() - t0
    paths = metrics.export(log, out_dir)
    parsed = metrics.parse_jsonl(paths["jsonl"].read_text(encoding="utf-8"))
    rows = metrics.summary_rows(parsed)
    if paths["csv"].read_bytes() != metrics.summary_csv_bytes(rows):
        raise CheckFailed("summary.csv does not match metrics.jsonl")
    if parsed.fingerprint() != log.fingerprint():
        raise CheckFailed("metrics.jsonl does not round-trip the run log")
    n_train = {t.task_id: len(t.train) for t in tasks}
    n_test = {t.task_id: len(t.test) for t in tasks}
    if sorted(n_train) != parsed.task_ids():
        raise CheckFailed(f"run logged tasks {parsed.task_ids()}, expected {sorted(n_train)}")
    for r in parsed.epochs:
        if not 0.0 <= r.test_acc <= 1.0 or r.steps < 1 or r.wall_ms <= 0.0:
            raise CheckFailed(f"implausible epoch record {r}")
    if rows[-1]["apa"] < min_apa:
        raise CheckFailed(f"final APA {rows[-1]['apa']:.4f} is below {min_apa}: the model did not learn")
    # Test objects classified: every epoch's evaluation, each task's peak
    # evaluation, and every re-evaluation at the task boundaries.
    eval_objects = (sum(n_test[r.task_id] for r in parsed.epochs) + sum(n_test.values())
                    + sum(n_test[b.task_id] for b in parsed.boundaries))
    return Repeat(sequence_s=sequence_s,
                  wall_ms=[r.wall_ms for r in parsed.epochs],
                  steps=[r.steps for r in parsed.epochs],
                  train_objects=sum(n_train[r.task_id] for r in parsed.epochs),
                  eval_objects=eval_objects,
                  fingerprint=log.fingerprint(),
                  final_apa=rows[-1]["apa"],
                  final_cfr=rows[-1]["cfr"])


def attempt(outcome: Outcome, cfg, tasks, out_dir: Path, min_apa: float, tracer=None) -> None:
    """One checked repeat, traced when given a tracer; failures are
    recorded, not raised."""
    from l3doc.errors import NumericError

    outcome.attempted += 1
    try:
        if tracer is not None:
            with tracer:
                rep = run_once(cfg, tasks, out_dir, min_apa)
        else:
            rep = run_once(cfg, tasks, out_dir, min_apa)
        reference = (outcome.repeats or outcome.traced or [rep])[0].fingerprint
        if rep.fingerprint != reference:
            raise CheckFailed("run fingerprint differs between repeats at one seed")
        (outcome.repeats if tracer is None else outcome.traced).append(rep)
    except (NumericError, CheckFailed) as e:
        outcome.failures.append(f"{type(e).__name__}: {e}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples above it,
    as (value, percentile); the maximum when that percentile would fall
    below the median."""
    xs = sorted(samples)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def epoch_step_ms(reps: list[Repeat]) -> list[float]:
    """Step time of each epoch of the sequence, the median over repeats.

    Every repeat runs the same epochs (one fingerprint), so epoch i costs
    the same work in each.  Its median over repeats keeps what the epoch
    costs (later tasks carry a larger archive) and drops moments of
    contention on a shared machine, which set a tail pooled over every
    repeat's epochs more than the program did."""
    per_repeat = [[w / s for w, s in zip(r.wall_ms, r.steps)] for r in reps]
    return [statistics.median(epoch) for epoch in zip(*per_repeat)]


def end_to_end(outcome: Outcome, setup_times: list[float]) -> tuple[dict, dict]:
    reps = outcome.repeats
    step_ms = [w / s for r in reps for w, s in zip(r.wall_ms, r.steps)]
    per_epoch = epoch_step_ms(reps)
    tail_ms, tail_pct = tail(per_epoch)
    values = {
        "setup_s": statistics.median(setup_times),
        "sequence_s": statistics.median(r.sequence_s for r in reps),
        "train_samples_per_s": statistics.median(r.train_objects / (sum(r.wall_ms) / 1e3) for r in reps),
        "step_ms_p50": statistics.median(step_ms),
        "step_ms_tail": tail_ms,
        "eval_objects_per_s": statistics.median(
            r.eval_objects / (r.sequence_s - sum(r.wall_ms) / 1e3) for r in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final_apa": reps[0].final_apa,
        "final_cfr": reps[0].final_cfr,
    }
    details = {
        "repeats": len(reps),
        "setup_rounds": len(setup_times),
        "epoch_samples": len(step_ms),
        "step_ms_tail_percentile": tail_pct,
        "step_ms_tail_samples": len(per_epoch),
        "sequence_s_all": [r.sequence_s for r in reps],
        "eval_s_all": [r.sequence_s - sum(r.wall_ms) / 1e3 for r in reps],
        "setup_s_all": setup_times,
        "train_objects_per_sequence": reps[0].train_objects,
        "eval_objects_per_sequence": reps[0].eval_objects,
        "fingerprint": reps[0].fingerprint,
    }
    return values, details


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the contract's result and a longer report."""
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{workload.name}-", dir=OUT_DIR))
    report: dict = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
                    "provenance": provenance()}
    # Archive evaluation stays serial: the benchmark measures the default path.
    os.environ.pop("L3DOC_THREADS", None)
    outcome = Outcome()
    try:
        data_dir = None
        if workload.meshes is not None:
            data_dir = work / "meshes"
            report["meshes"] = generate_meshes(workload.meshes, seed, data_dir)
        raw = raw_config(workload, data_dir)

        setup_times, digests = [], set()
        for _ in range(workload.setup_rounds):
            round_times = []
            while not round_times or sum(round_times) < SETUP_ROUND_S:
                t0 = time.perf_counter()
                cfg, tasks = set_up(raw, seed)
                round_times.append(time.perf_counter() - t0)
                digests.add(tasks_digest(tasks))
            setup_times.append(statistics.fmean(round_times))
        if len(digests) != 1:
            outcome.attempted += 1
            outcome.failures.append("CheckFailed: set-up built different inputs on repeat")

        if trace:
            setup_tracer = tracing.Tracer()
            with setup_tracer:
                set_up(raw, seed)
            tracer = tracing.Tracer()

        # Untimed warm-up, one epoch of the first task.  The first training
        # step in a process is the slowest of the run (pointnet_off: 3.2-3.9
        # s, against 1.9-2.8 s for the same epoch in later repeats), and a
        # per-epoch median over two repeats kept half of it.
        from l3doc import trainer

        trainer.run_sequence(dataclasses.replace(cfg, epochs=1), tasks[:1])

        # Closed loop: one sequence at a time.  Traced runs alternate with
        # untraced ones, so the pair shares whatever the machine is doing.
        start, longest, k = time.perf_counter(), 0.0, 0
        while True:
            t0 = time.perf_counter()
            attempt(outcome, cfg, tasks, work / f"run-{k}", workload.min_final_apa)
            if trace:
                attempt(outcome, cfg, tasks, work / f"traced-{k}", workload.min_final_apa, tracer)
            longest = max(longest, time.perf_counter() - t0)
            k += 1
            if k >= (1 if trace else MIN_REPEATS) and time.perf_counter() - start + longest > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report["failures"] = outcome.failures
    report["attempted"] = outcome.attempted
    report["error_rate"] = len(outcome.failures) / outcome.attempted
    if not outcome.repeats or (trace and not outcome.traced):
        raise SystemExit(f"error: no checked repeat of workload {workload.name}: {outcome.failures}")
    values, details = end_to_end(outcome, setup_times)
    report.update(details, end_to_end=values)
    result = {"correct": not outcome.failures, "attempted": outcome.attempted,
              "failed": len(outcome.failures)}
    if not trace:
        result["metrics"] = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
        return {"result": result, "report": report}

    layers = tracing.layer_metrics(tracer.spans, len(outcome.traced), tracer.archive_sizes,
                                   tracer.entries_evaluated)
    layers.update(tracing.setup_metrics(setup_tracer.spans))
    layers["datasets.unique_file_ratio"] = unique_file_ratio(tasks)
    layers["trace.overhead_s"] = (statistics.median(r.sequence_s for r in outcome.traced)
                                  - values["sequence_s"])
    report["step_wall_ms_logged"] = statistics.mean(sum(r.wall_ms) for r in outcome.traced)
    report["trace_file"] = str(write_spans(workload.name, seed, tracer.spans).relative_to(ROOT))
    result["metrics"] = {name: {"value": v, "unit": layer_unit(name)} for name, v in layers.items()}
    return {"result": result, "report": report}


def unique_file_ratio(tasks) -> float:
    """Distinct files over files ingested; 0 when no task came from files."""
    sources = [cloud.source for t in tasks for cloud, _ in [*t.train, *t.test]
               if cloud.source and cloud.source.endswith((".off", ".pts"))]
    return len(set(sources)) / len(sources) if sources else 0.0


def layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "fraction" if name.endswith("ratio") else "count"


def write_spans(workload: str, seed: int, spans: list[list]) -> Path:
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed,
                                "fields": ["name", "start_s", "end_s", "parent", "tag"],
                                "spans": spans}, separators=(",", ":")), encoding="utf-8")
    return path


# ------------------------------------------------------------ all workloads

def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run every workload BENCHMARK.json lists, each in its own process,
    and print one table."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows, status = [], 0
    for name in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", "1" if trace else "0"],
                              capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed with exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        report = json.loads(next(l for l in lines if l.startswith("report: "))[len("report: "):])
        # error_rate is printed but is no BENCHMARK.json metric (README.md).
        rows.append((name, "error_rate", report["error_rate"], "fraction"))
        rows += [(name, metric, m["value"], m["unit"]) for metric, m in result["metrics"].items()]
    for name, metric, value, unit in rows:
        print(f"{name:<14} {metric:<40} {value:>14.6g} {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_l3doc()
    except ImportError as e:
        print(f"error: cannot import l3doc from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    out = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    report, result = out["report"], out["result"]
    print("report: " + json.dumps(report, sort_keys=True))
    print(f"{args.workload}: error_rate {report['error_rate']:.6g} fraction")
    for name, m in result["metrics"].items():
        print(f"{args.workload}: {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
