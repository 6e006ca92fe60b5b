"""Experiment runner CLI.

Subcommands:
  run           execute a task sequence from a JSON config, export metrics
  count-params  parameter accounting for the three model families
  gen-synth     write a synthetic PTS dataset in the directory layout
  eval          recompute summary.csv from metrics.jsonl, verify it, and
                print the run fingerprint (a digest of every deterministic
                field of metrics.jsonl) and the accuracy matrix: one row per
                task boundary, one column per task (blank where the log
                holds no record)

Exit codes: 0 ok, 2 config error, 3 data error, 4 numeric failure,
5 eval mismatch.  A config file that is not UTF-8 and an output path that
cannot be written (--out or out_dir, gen-synth --out) are config errors.
A ShapeError (operands that do not fit the model) exits 3 too, as a data
error; point clouds of different shapes within one task, a point file
that cannot be read, parsed or sampled (the error names the file) and a
task whose point dimension is not the backbone's input width are rejected
as data errors before any output is written.

The config schema, its defaults and value ranges are documented once, in
README.md under "Config file"; resolved-config.json lists every key of a
run with its value.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import json
import sys
from pathlib import Path

from .autodiff import ShapeError
from .backbone import BackboneConfig
from .datasets import (DIRECTORY_DEFAULTS, SYNTHETIC_DEFAULTS, gen_synthetic, load_task_from_dir,
                       make_split_plan, write_dataset_dir)
from .errors import ConfigError, DataError, NumericError
from .factorization import FactorSpec, count_dfcnn, count_l3doc, count_stl, l3doc_layer_counts
from .mam import MamConfig
from .metrics import cfr_skipped_tasks, export, parse_jsonl, summary_csv_bytes, summary_rows
from .trainer import MODES, ExperimentConfig, check_tasks, run_sequence

SCHEMA_VERSION = 1

# Published end-to-end totals quoted for the two presets at 10 tasks over the
# PointNet widths, together with the reduction claim made for them.
REFERENCE_TOTALS = {FactorSpec.group1(): 950664, FactorSpec.group2(): 475332}
REFERENCE_CLAIM = "1.68x~3.36x fewer parameters than independent per-task models"

# Every config key but the dataset, with its default: the experiment
# dataclasses' own, less the factor widths (they are the backbone's).
_DEFAULTS = {**dataclasses.asdict(ExperimentConfig()), "out_dir": None}
del _DEFAULTS["spec"]["widths"]

# Per dataset type: the optional keys' defaults, a typed example of each key
# with no default, and the sets of those keys that are enough on their own.
_DATASET_SOURCES = {
    "synthetic": (SYNTHETIC_DEFAULTS, {"num_tasks": 1, "classes_per_task": 1, "tasks": [[""]]},
                  ({"tasks"}, {"num_tasks", "classes_per_task"})),
    "directory": (DIRECTORY_DEFAULTS, {"root": "", "tasks": [[""]]}, ({"root", "tasks"},)),
}


def _check_keys(d: dict, allowed, where: str) -> None:
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _matches(value, default) -> bool:
    """Whether a scalar has its default's type.  A bool is not a number, an
    int is a float, and a key whose default is None takes a string."""
    if isinstance(value, bool) or isinstance(default, bool):
        return isinstance(value, bool) and isinstance(default, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if default is None:
        return value is None or isinstance(value, str)
    return type(value) is type(default)


def _check_value(value, default, where: str) -> None:
    """Reject a supplied value whose type differs from its default's: a
    section takes an object, a list default a list whose every element
    matches the default's first."""
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be an object, got {value!r}")
        _check_keys(value, default, where)
        for key, v in value.items():
            _check_value(v, default[key], f"{where}.{key}")
    elif isinstance(default, (tuple, list)):
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        for i, v in enumerate(value):
            _check_value(v, default[0], f"{where}[{i}]")
    elif not _matches(value, default):
        kind = "str" if default is None else type(default).__name__
        raise ConfigError(f"{where} must be of type {kind}, got {value!r}")


def _resolve_dataset(dataset) -> dict:
    """The dataset section with its type's defaults filled in."""
    if not isinstance(dataset, dict):
        raise ConfigError(f"config.dataset must be an object, got {dataset!r}")
    kind = dataset.get("type")
    if not isinstance(kind, str) or kind not in _DATASET_SOURCES:
        raise ConfigError(f"dataset.type must be one of {sorted(_DATASET_SOURCES)}, got {kind!r}")
    defaults, examples, enough = _DATASET_SOURCES[kind]
    _check_value(dataset, {"type": kind, **defaults, **examples}, "config.dataset")
    if not any(keys <= dataset.keys() for keys in enough):
        raise ConfigError(f"a {kind} dataset needs " + " or ".join(str(sorted(k)) for k in enough))
    return {**copy.deepcopy(defaults), **copy.deepcopy(dataset)}


def resolve_config(raw: dict, overrides: dict) -> dict:
    """Fill defaults, apply CLI overrides, reject unknown keys and values
    of the wrong type."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(raw, set(_DEFAULTS) | {"schema_version", "dataset"}, "config")
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}, got {raw.get('schema_version')!r}")
    if "dataset" not in raw:
        raise ConfigError("config needs a 'dataset' section")
    resolved = copy.deepcopy(_DEFAULTS)
    resolved.update(schema_version=SCHEMA_VERSION, dataset=_resolve_dataset(raw["dataset"]))
    supplied = {k: v for k, v in raw.items() if k not in ("schema_version", "dataset")}
    supplied.update((k, v) for k, v in overrides.items() if v is not None)
    for key, value in supplied.items():
        _check_value(value, _DEFAULTS[key], f"config.{key}")
        if isinstance(value, dict):
            resolved[key].update(copy.deepcopy(value))
        else:
            resolved[key] = copy.deepcopy(value)
    return resolved


def experiment_from_resolved(resolved: dict) -> ExperimentConfig:
    return ExperimentConfig(
        spec=FactorSpec(widths=resolved["backbone"]["widths"], **resolved["spec"]),
        backbone=BackboneConfig(**resolved["backbone"]),
        mam=MamConfig(**resolved["mam"]),
        mode=resolved["mode"],
        epochs=resolved["epochs"],
        batch_size=resolved["batch_size"],
        lr=resolved["lr"],
        seed=resolved["seed"],
    )


def build_tasks(resolved: dict) -> list:
    seed, d = resolved["seed"], resolved["dataset"]
    if "tasks" in d:
        plans = d["tasks"]
    else:
        plans = make_split_plan(d["class_pool"], d["num_tasks"], d["classes_per_task"],
                                seed=[seed, 101]).tasks
    if not plans:
        raise ConfigError("config.dataset.tasks must name at least one task")
    if d["type"] == "directory":
        return [load_task_from_dir(Path(d["root"]), classes, task_id=i + 1, n_pts=d["points"],
                                   seed=[seed, 301, i], normalize=d["normalize"])
                for i, classes in enumerate(plans)]
    return [gen_synthetic(classes, d["per_class"], d["points"], d["noise_sigma"],
                          seed=[seed, 201, i], task_id=i + 1)
            for i, classes in enumerate(plans)]


@contextlib.contextmanager
def _writing(where: Path):
    """Report an OS error while writing under ``where`` as a config error:
    the output path comes from the config or the command line."""
    try:
        yield
    except OSError as e:
        raise ConfigError(f"cannot write {e.filename or where}: {e.strerror or e}") from None


def _note_cfr_skips(log) -> None:
    skipped = cfr_skipped_tasks(log)
    if skipped:
        print(f"note: cfr skips task(s) {', '.join(map(str, skipped))}: zero peak accuracy",
              file=sys.stderr)


def cmd_run(args) -> int:
    path = Path(args.config)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as e:
        raise ConfigError(f"config is not UTF-8: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    except RecursionError:
        raise ConfigError("config is not valid JSON: nested too deeply") from None
    resolved = resolve_config(raw, {"seed": args.seed, "mode": args.mode, "out_dir": args.out})
    if not resolved.get("out_dir"):
        raise ConfigError("no output directory: set out_dir in the config or pass --out")
    cfg = experiment_from_resolved(resolved)
    tasks = build_tasks(resolved)
    check_tasks(cfg, tasks)
    out_dir = Path(resolved["out_dir"])
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "resolved-config.json").write_text(
            json.dumps(resolved, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _, log = run_sequence(cfg, tasks)
    with _writing(out_dir):
        paths = export(log, out_dir)
    _note_cfr_skips(log)
    print(f"run complete: {len(tasks)} task(s), outputs in {out_dir}")
    for name in ("jsonl", "csv"):
        print(f"  wrote {paths[name]}")
    return 0


def cmd_count_params(args) -> int:
    try:
        widths = tuple(int(w) for w in args.widths.split(","))
    except ValueError:
        raise ConfigError(f"--widths must be comma-separated integers, got {args.widths!r}") from None
    if args.family == "stl":
        print(count_stl(widths, args.tasks))
        return 0
    if args.family == "dfcnn":
        print(count_dfcnn(widths, args.u, args.vh, args.vw, args.lh, args.lw, args.lc, args.tasks))
        return 0
    spec = FactorSpec(widths=widths, n_hat=args.nhat, l_hat=args.lhat, s=args.s)
    total = count_l3doc(spec, args.tasks)
    print(total)
    for row in l3doc_layer_counts(spec, args.tasks):
        print(f"  layer {row['layer']} ({row['w_in']}->{row['w_out']}): "
              f"per-task {row['per_task']} x {args.tasks} + shared {row['shared']} = {row['total']}")
    baseline = count_stl(widths, args.tasks)
    print(f"  baseline (independent per-task models): {baseline} -> ratio {baseline / total:.2f}x")
    ref = REFERENCE_TOTALS.get(spec)
    if ref is not None and args.tasks == 10:
        print(f"  published reference total for this preset at 10 tasks: {ref} ({REFERENCE_CLAIM})")
        if ref != total:
            print(f"  NOTE: formula total {total} differs from the published {ref}; "
                  f"the formula is evaluated verbatim and the discrepancy is reported, not hidden")
    return 0


def cmd_gen_synth(args) -> int:
    classes = [c.strip() for c in args.classes.split(",") if c.strip()]
    data = gen_synthetic(classes, args.per_class, args.points, args.noise, seed=args.seed)
    with _writing(Path(args.out)):
        files = write_dataset_dir(Path(args.out), data)
    print(f"wrote {len(files)} PTS files under {args.out}")
    return 0


def cmd_eval(args) -> int:
    run_dir = Path(args.run)
    jsonl_path = run_dir / "metrics.jsonl"
    csv_path = run_dir / "summary.csv"
    if not jsonl_path.is_file() or not csv_path.is_file():
        raise DataError(f"run directory {run_dir} lacks metrics.jsonl/summary.csv")
    log = parse_jsonl(jsonl_path.read_bytes())
    recomputed = summary_csv_bytes(summary_rows(log))
    _note_cfr_skips(log)
    if recomputed != csv_path.read_bytes():
        print(f"error: eval-mismatch: summary.csv does not match metrics.jsonl in {run_dir}",
              file=sys.stderr)
        return 5
    print(f"summary.csv verified against metrics.jsonl in {run_dir}")
    print(f"fingerprint {log.fingerprint()}")
    ids = log.task_ids()
    print(("accuracy " + "".join(f"T{t}".rjust(8) for t in ids)).rstrip())
    for after in ids:
        row = log.boundary_accuracies(after)
        cells = "".join(f"{row[t]:8.3f}" if t in row else " " * 8 for t in ids)
        print(f"after {after:<3}{cells}".rstrip())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="l3doc",
                                     description="lifelong point-cloud classification experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train a task sequence from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--mode", choices=MODES, default=None)
    p_run.add_argument("--out", default=None, help="output directory (overrides out_dir)")
    p_run.set_defaults(func=cmd_run)

    p_count = sub.add_parser("count-params", help="parameter accounting")
    p_count.add_argument("--widths", default=",".join(str(w) for w in FactorSpec.widths))
    p_count.add_argument("--nhat", type=int, default=FactorSpec.n_hat)
    p_count.add_argument("--lhat", type=int, default=FactorSpec.l_hat)
    p_count.add_argument("--s", type=int, default=FactorSpec.s)
    p_count.add_argument("--tasks", type=int, default=1)
    p_count.add_argument("--family", choices=("stl", "dfcnn", "l3doc"), default="l3doc")
    p_count.add_argument("--u", type=int, default=1)
    p_count.add_argument("--vh", type=int, default=1)
    p_count.add_argument("--vw", type=int, default=1)
    p_count.add_argument("--lh", type=int, default=1)
    p_count.add_argument("--lw", type=int, default=1)
    p_count.add_argument("--lc", type=int, default=1)
    p_count.set_defaults(func=cmd_count_params)

    p_gen = sub.add_parser("gen-synth", help="generate a synthetic PTS dataset")
    p_gen.add_argument("--classes", required=True, help="comma-separated primitive names")
    p_gen.add_argument("--per-class", dest="per_class", type=int,
                       default=SYNTHETIC_DEFAULTS["per_class"])
    p_gen.add_argument("--points", type=int, default=SYNTHETIC_DEFAULTS["points"])
    p_gen.add_argument("--noise", type=float, default=SYNTHETIC_DEFAULTS["noise_sigma"])
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen_synth)

    p_eval = sub.add_parser("eval", help="verify summary.csv against metrics.jsonl")
    p_eval.add_argument("--run", required=True)
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: config: {e}", file=sys.stderr)
        return 2
    except (DataError, ShapeError) as e:
        print(f"error: data: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"error: numeric: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
