import copy
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l3doc import cli
from l3doc.datasets import DIRECTORY_DEFAULTS, SYNTHETIC_DEFAULTS, gen_synthetic, write_dataset_dir
from l3doc.errors import ConfigError, DataError
from l3doc.metrics import parse_jsonl, summary_csv_bytes, summary_rows
from l3doc.trainer import MODES, ExperimentConfig, run_sequence
from test_acceptance import DESK_SEEDS, _desk_config, _desk_tasks

ROOT = Path(__file__).resolve().parent.parent
DESK_CONFIG = ROOT / "scripts" / "desk_config.json"

_JSON_VALUES = st.one_of(st.integers(-2, 3), st.integers(10 ** 300, 10 ** 400), st.floats(), st.booleans(),
                         st.none(), st.text(max_size=3), st.lists(st.integers(0, 2), max_size=2))
_IDS, _ACC = st.integers(1, 3), st.floats(0, 1)
# Well-formed records, which may still make an inconsistent run.
JSONL_RECORDS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("epoch"), "task": _IDS, "epoch": _IDS, "loss": _ACC,
                           "test_acc": _ACC, "wall_ms": _ACC, "steps": _IDS}),
    st.fixed_dictionaries({"kind": st.just("boundary"), "after_task": _IDS, "task": _IDS, "test_acc": _ACC}),
).map(json.dumps)
JSONL_LINES = st.one_of(
    JSONL_RECORDS,
    st.fixed_dictionaries({}, optional={
        "kind": st.one_of(st.sampled_from(["epoch", "boundary", "other"]), _JSON_VALUES),
        **{key: st.one_of(_IDS, _ACC, _JSON_VALUES)
           for key in ("task", "epoch", "loss", "test_acc", "wall_ms", "steps", "after_task")}}
    ).map(json.dumps),
    _JSON_VALUES.map(json.dumps),
    st.text(max_size=12))


def write_config(tmp_path, **extra):
    cfg = {
        "schema_version": 1,
        "mode": "l3doc",
        "seed": 3,
        "epochs": 2,
        "batch_size": 8,
        "lr": 0.002,
        "spec": {"n_hat": 4, "l_hat": 4, "s": 2},
        "backbone": {"widths": [3, 8, 8], "head_widths": [8], "loss_kind": "squared"},
        "mam": {"lambda_l": 1.0, "detach_attention": True},
        "dataset": {"type": "synthetic", "class_pool": ["sphere", "cube", "plane"],
                    "num_tasks": 2, "classes_per_task": 2,
                    "per_class": 5, "points": 12, "noise_sigma": 0.02},
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def read_desk_config() -> dict:
    return json.loads(DESK_CONFIG.read_text(encoding="utf-8"))


def assert_one_error_line(capsys, kind, *words):
    err = capsys.readouterr().err
    assert err.startswith(f"error: {kind}: ") and err.count("\n") == 1, err
    for word in words:
        assert word in err


def refuse_training(*args, **kwargs):
    raise AssertionError("a task was trained")


class TestRun:
    def test_missing_config_exits_2(self, capsys):
        assert cli.main(["run", "--config", "/nonexistent.json", "--out", "/tmp/x"]) == 2
        assert "error: config" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, replay_buffer=True)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "replay_buffer" in capsys.readouterr().err

    def test_missing_schema_version_exits_2(self, tmp_path):
        cfg = json.loads(write_config(tmp_path).read_text())
        del cfg["schema_version"]
        path = tmp_path / "no_schema.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2

    def test_run_writes_outputs_and_echoes_overrides(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out), "--seed", "99"]) == 0
        resolved = json.loads((out / "resolved-config.json").read_text())
        assert resolved["seed"] == 99
        assert (out / "metrics.jsonl").is_file()
        assert (out / "summary.csv").is_file()
        log = parse_jsonl((out / "metrics.jsonl").read_text())
        assert log.task_ids() == [1, 2]

    def test_mode_override_echoed(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out), "--mode", "stl"]) == 0
        resolved = json.loads((out / "resolved-config.json").read_text())
        assert resolved["mode"] == "stl"

    def test_rerun_same_config_byte_identical_summary(self, tmp_path):
        path = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "--config", str(path), "--out", str(out_a)]) == 0
        assert cli.main(["run", "--config", str(path), "--out", str(out_b)]) == 0
        assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"schema_version": 1, "mode": "\xff"}')
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert_one_error_line(capsys, "config", "not UTF-8")

    def test_config_nested_too_deeply_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[" * 200000 + "]" * 200000)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert_one_error_line(capsys, "config", "not valid JSON: nested too deeply")

    def test_out_under_a_regular_file_exits_2_before_training(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_sequence", refuse_training)
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        assert cli.main(["run", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 2
        assert_one_error_line(capsys, "config", str(out))

    def test_metrics_jsonl_that_is_a_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "metrics.jsonl").mkdir(parents=True)
        assert cli.main(["run", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 2
        assert_one_error_line(capsys, "config", str(out / "metrics.jsonl"))

    def test_no_out_dir_exits_2(self, tmp_path):
        path = write_config(tmp_path)
        assert cli.main(["run", "--config", str(path)]) == 2

    def test_diverged_training_exits_4(self, tmp_path, capsys):
        path = write_config(tmp_path, lr=1e200)
        with np.errstate(all="ignore"):
            code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 4
        assert "non-finite loss" in capsys.readouterr().err

    def test_non_finite_off_vertex_exits_3(self, tmp_path, capsys):
        for split in ("train", "test"):
            (tmp_path / "data" / "tetra" / split).mkdir(parents=True)
            (tmp_path / "data" / "tetra" / split / "a.off").write_text(
                "OFF\n4 1 0\nnan 0.0 0.0\n1 0 0\n0 1 0\n0 0 1\n3 0 1 2\n")
        path = write_config(tmp_path, dataset={
            "type": "directory", "root": str(tmp_path / "data"), "tasks": [["tetra"]], "points": 8})
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
        assert "a.off: line 3: non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("name, content, where", [
        ("a.pts", b"4 3\n0 0 0\n1 0 0\n0 1 \xff\n0 0 1\n", "a.pts: line 4: not UTF-8"),
        ("a.off", b"OFF\n3 1 0\n0 0 0\n\xc3 0 0\n0 1 0\n3 0 1 2\n", "a.off: line 4: not UTF-8"),
        ("a.off", b"OFF \n 0", "a.off: line 2: expected vertex, face and edge counts"),
    ], ids=["pts-not-utf8", "off-not-utf8", "off-short-counts"])
    def test_bad_point_file_exits_3(self, tmp_path, capsys, name, content, where):
        for split in ("train", "test"):
            (tmp_path / "data" / "tetra" / split).mkdir(parents=True)
            (tmp_path / "data" / "tetra" / split / name).write_bytes(content)
        path = write_config(tmp_path, dataset={
            "type": "directory", "root": str(tmp_path / "data"), "tasks": [["tetra"]], "points": 3})
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize("name, content, message", [
        ("a.off", b"OFF\n3 1 0\n0 0 0\n1 0 0\n2 0 0\n3 0 1 2\n", "mesh surface area is 0.0"),
        ("a.pts", b"4 3\n1 2 3\n1 2 3\n1 2 3\n1 2 3\n", "degenerate cloud: zero radius"),
    ], ids=["zero-area-off", "zero-radius-pts"])
    def test_degenerate_point_file_exits_3_naming_it_once(self, tmp_path, capsys, monkeypatch,
                                                          name, content, message):
        monkeypatch.setattr(cli, "run_sequence", refuse_training)
        for split in ("train", "test"):
            (tmp_path / "data" / "tetra" / split).mkdir(parents=True)
            (tmp_path / "data" / "tetra" / split / name).write_bytes(content)
        path = write_config(tmp_path, dataset={
            "type": "directory", "root": str(tmp_path / "data"), "tasks": [["tetra"]], "points": 3})
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
        bad = tmp_path / "data" / "tetra" / "train" / name
        err = capsys.readouterr().err
        assert err.startswith(f"error: data: {bad}: ") and err.count("\n") == 1
        assert err.count(str(bad)) == 1 and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, content", [
        ("a.off", b"OFF\n3 1 0\n0 0 0\n1e200 0 0\n0 1e200 0\n3 0 1 2\n"),
        ("a.pts", b"3 3\n1e308 0 0\n-1e308 0 0\n1e308 1 0\n"),
    ], ids=["huge-off", "huge-pts"])
    def test_overflowing_point_file_prints_one_stderr_line(self, tmp_path, name, content):
        # numpy warnings go to the real stderr, which capsys does not see.
        for split in ("train", "test"):
            (tmp_path / "data" / "tetra" / split).mkdir(parents=True)
            (tmp_path / "data" / "tetra" / split / name).write_bytes(content)
        path = write_config(tmp_path, dataset={
            "type": "directory", "root": str(tmp_path / "data"), "tasks": [["tetra"]], "points": 2})
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
        done = subprocess.run([sys.executable, "-m", "l3doc.cli", "run", "--config", str(path),
                               "--out", str(tmp_path / "out")],
                              capture_output=True, text=True, env=env, timeout=120)
        bad = tmp_path / "data" / "tetra" / "train" / name
        assert done.returncode == 3
        assert done.stderr.startswith(f"error: data: {bad}: ") and done.stderr.count("\n") == 1, done.stderr

    def test_directory_dataset_without_root_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, dataset={"type": "directory", "tasks": [["sphere"]]})
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "'root'" in capsys.readouterr().err

    def test_missing_data_directory_exits_3(self, tmp_path, capsys):
        path = write_config(tmp_path, dataset={
            "type": "directory", "root": str(tmp_path / "nowhere"),
            "tasks": [["sphere"]], "points": 8})
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
        assert "error: data" in capsys.readouterr().err


class TestConfigTypes:
    @pytest.mark.parametrize("change", [
        {"epochs": "ten"},
        {"batch_size": 2.5},
        {"spec": 3},
        {"seed": True},
        {"lr": "fast"},
        {"backbone": {"widths": [3, "32", 32, 64]}},
        {"mam": {"detach_attention": 1}},
        {"dataset": ["sphere"]},
        {"dataset": {"type": "synthetic", "num_tasks": 5, "classes_per_task": 3,
                     "per_class": 2.5}},
        {"dataset": {"type": "directory", "root": "data", "tasks": [["cube"]],
                     "normalize": "yes"}},
        {"dataset": {"type": "synthetic", "num_tasks": "five", "classes_per_task": 3}},
        {"dataset": {"type": "synthetic", "num_tasks": 5, "classes_per_task": -1}},
        {"dataset": {"type": "synthetic", "tasks": 3}},
        {"dataset": {"type": "synthetic", "tasks": [["cube"], []]}},
        {"dataset": {"type": "directory", "root": 5, "tasks": [["cube"]]}},
        {"beta1": 0.9},
        {"backbone": {"widths": [3, 32, 32, 64], "loss_kind": "cross_entropy"}},
        {"mam": {"detach_attention": False}},
    ], ids=repr)
    def test_wrong_type_in_desk_config_exits_2(self, tmp_path, capsys, change):
        self._assert_exits_2(tmp_path, capsys, change)

    @pytest.mark.parametrize("change", [
        {"lr": float("nan")},
        {"lr": -1.0},
        {"lr": float("inf")},
        {"mam": {"lambda_l": float("nan")}},
        {"dataset": {"type": "synthetic", "num_tasks": 5, "classes_per_task": 3,
                     "noise_sigma": float("nan")}},
        {"dataset": {"type": "synthetic", "num_tasks": 5, "classes_per_task": 3,
                     "noise_sigma": -0.1}},
        {"seed": -1},
        {"backbone": {"widths": [3, 32, 32, 64], "head_widths": [0]}},
        {"backbone": {"widths": [3, 32, 32, 64], "head_widths": [-1]}},
        {"dataset": {"type": "synthetic", "num_tasks": 5, "classes_per_task": 3, "points": -5}},
        {"dataset": {"type": "synthetic", "num_tasks": 5, "classes_per_task": 3, "points": 0}},
        {"dataset": {"type": "directory", "root": "data", "tasks": [["cube"]], "points": -5}},
        {"dataset": {"type": "directory", "root": "data", "tasks": [["cube"]], "points": 0}},
        {"dataset": {"type": "synthetic", "tasks": [["cube", "cube"]]}},
        {"dataset": {"type": "synthetic", "tasks": []}},
        {"dataset": {"type": "synthetic", "class_pool": ["cube", "sphere", "cube"],
                     "num_tasks": 2, "classes_per_task": 2}},
    ], ids=repr)
    def test_out_of_range_value_in_desk_config_exits_2(self, tmp_path, capsys, change):
        self._assert_exits_2(tmp_path, capsys, change)

    @staticmethod
    def _assert_exits_2(tmp_path, capsys, change):
        raw = read_desk_config()
        raw.update(change)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "error: config" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_int_accepted_where_default_is_float(self):
        raw = {"schema_version": 1, "lr": 1, "mam": {"lambda_l": 10},
               "dataset": {"type": "synthetic", "tasks": [["cube", "cone"]], "noise_sigma": 0}}
        resolved = cli.resolve_config(raw, {})
        assert resolved["lr"] == 1 and resolved["mam"]["lambda_l"] == 10


class TestSingleDefinitions:
    MINIMAL = {"schema_version": 1,
               "dataset": {"type": "synthetic", "num_tasks": 2, "classes_per_task": 2}}

    def test_minimal_config_resolves_to_dataclass_defaults(self):
        resolved = cli.resolve_config(self.MINIMAL, {})
        assert cli.experiment_from_resolved(resolved) == ExperimentConfig()

    @pytest.mark.parametrize("dataset, defaults", [
        ({"type": "synthetic", "num_tasks": 2, "classes_per_task": 2}, SYNTHETIC_DEFAULTS),
        ({"type": "directory", "root": "data", "tasks": [["cube"]]}, DIRECTORY_DEFAULTS),
    ], ids=["synthetic", "directory"])
    def test_minimal_dataset_resolves_with_every_default(self, dataset, defaults):
        resolved = cli.resolve_config({"schema_version": 1, "dataset": dataset}, {})
        assert resolved["dataset"] == {**defaults, **dataset}

    @pytest.mark.parametrize("seed", DESK_SEEDS)
    def test_shipped_desk_config_is_the_acceptance_desk_experiment(self, seed):
        # scripts/desk_config.json is the experiment acceptance criterion 7 gates.
        raw = read_desk_config()
        want_tasks = _desk_tasks(seed)
        for mode in MODES:
            resolved = cli.resolve_config(raw, {"mode": mode, "seed": seed})
            assert cli.experiment_from_resolved(resolved) == _desk_config(mode, seed)
            tasks = cli.build_tasks(resolved)
            assert len(tasks) == len(want_tasks)
            for got, want in zip(tasks, want_tasks):
                assert (got.task_id, got.class_names) == (want.task_id, want.class_names)
                for split_got, split_want in ((got.train, want.train), (got.test, want.test)):
                    assert [label for _, label in split_got] == [label for _, label in split_want]
                    for (a, _), (b, _) in zip(split_got, split_want):
                        assert (a.points.shape, a.points.tobytes()) == (b.points.shape, b.points.tobytes())

    def test_readme_config_blocks_show_the_real_defaults(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", readme, re.S)]
        config = next(b for b in blocks if "schema_version" in b)
        resolved = cli.resolve_config(self.MINIMAL, {})
        shown = set(config) - {"schema_version", "dataset", "out_dir"}
        assert shown == set(resolved) - {"schema_version", "dataset", "out_dir"}
        for key in shown:
            assert config[key] == json.loads(json.dumps(resolved[key])), key
        datasets = [config["dataset"], *(b for b in blocks if "type" in b)]
        assert {d["type"] for d in datasets} == {"synthetic", "directory"}
        for dataset in datasets:
            cli.resolve_config({"schema_version": 1, "dataset": dataset}, {})
            defaults = SYNTHETIC_DEFAULTS if dataset["type"] == "synthetic" else DIRECTORY_DEFAULTS
            assert set(defaults) <= set(dataset), dataset["type"]
            for key, default in defaults.items():
                assert dataset[key] == json.loads(json.dumps(default)), key


TINY = {"schema_version": 1, "epochs": 1, "batch_size": 4,
        "spec": {"n_hat": 4, "l_hat": 4, "s": 2},
        "backbone": {"widths": [3, 8, 8], "head_widths": [8]}}
TINY_DATASETS = {
    "synthetic": {"type": "synthetic", "class_pool": ["sphere", "cube", "plane"],
                  "num_tasks": 2, "classes_per_task": 2,
                  "per_class": 3, "points": 8, "noise_sigma": 0.01},
    "directory": {"type": "directory", "tasks": [["cube", "sphere"]], "points": 8},
}

# One key of a tiny config, by path, and a value of the wrong type or out of range.
_KEYS = [("mode",), ("seed",), ("epochs",), ("batch_size",), ("lr",), ("spec", "n_hat"),
         ("spec", "l_hat"), ("spec", "s"), ("backbone", "widths"), ("backbone", "head_widths"),
         ("mam", "lambda_l"), ("dataset", "type"), ("dataset", "class_pool"),
         ("dataset", "num_tasks"), ("dataset", "classes_per_task"), ("dataset", "tasks"),
         ("dataset", "per_class"), ("dataset", "points"), ("dataset", "noise_sigma"),
         ("dataset", "root"), ("dataset", "normalize")]
_SMALL = st.integers(min_value=-3, max_value=4)
_VALUES = st.one_of(_SMALL, st.floats(allow_nan=True, allow_infinity=True), st.booleans(),
                    st.none(), st.sampled_from(["", "cube", "directory", "synthetic"]),
                    st.lists(_SMALL, max_size=3), st.lists(st.lists(st.text(max_size=4), max_size=2),
                                                           max_size=2))


@pytest.fixture(scope="module")
def tiny_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny_dir")
    write_dataset_dir(root, gen_synthetic(["cube", "sphere"], 3, 8, 0.01, seed=0))
    return str(root)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(TINY_DATASETS)), key=st.sampled_from(_KEYS), value=_VALUES)
def test_one_bad_value_ends_in_config_or_data_error(tiny_dir, kind, key, value):
    raw = {**copy.deepcopy(TINY), "dataset": copy.deepcopy(TINY_DATASETS[kind])}
    if kind == "directory":
        raw["dataset"]["root"] = tiny_dir
    section = raw
    for part in key[:-1]:
        section = section.setdefault(part, {})
    section[key[-1]] = value
    try:
        resolved = cli.resolve_config(raw, {})
        cli.experiment_from_resolved(resolved)
        cli.build_tasks(resolved)
    except (ConfigError, DataError):
        pass


class TestCountParams:
    def test_stl_reference(self, capsys):
        assert cli.main(["count-params", "--family", "stl", "--tasks", "1"]) == 0
        assert capsys.readouterr().out.strip() == "159936"

    def test_l3doc_prints_breakdown_and_reference(self, capsys):
        assert cli.main(["count-params", "--family", "l3doc", "--tasks", "10",
                         "--nhat", "16", "--lhat", "32", "--s", "2"]) == 0
        out = capsys.readouterr().out
        assert "layer 1" in out and "layer 5" in out
        assert "950664" in out
        assert "NOTE" in out  # computed formula value differs from the published total

    def test_group2_reference(self, capsys):
        assert cli.main(["count-params", "--family", "l3doc", "--tasks", "10",
                         "--nhat", "32", "--lhat", "32", "--s", "2"]) == 0
        assert "475332" in capsys.readouterr().out

    def test_preset_divisors_over_other_widths_print_no_reference(self, capsys):
        # The published totals describe the PointNet widths only.
        assert cli.main(["count-params", "--family", "l3doc", "--tasks", "10", "--nhat", "16",
                         "--lhat", "32", "--s", "2", "--widths", "3,32,64"]) == 0
        out = capsys.readouterr().out
        assert "layer 2" in out and "published" not in out and "NOTE" not in out
        assert "950664" not in out

    def test_invalid_divisibility_exits_2(self, capsys):
        assert cli.main(["count-params", "--family", "l3doc", "--widths", "3,100"]) == 2

    def test_dfcnn_formula(self, capsys):
        assert cli.main(["count-params", "--family", "dfcnn", "--tasks", "1"]) == 0
        assert capsys.readouterr().out.strip() == "159938"

    @pytest.mark.parametrize("argv", [
        ["--widths", "3,x"],
        ["--widths", ""],
        ["--family", "stl", "--tasks", "-2"],
        ["--family", "dfcnn", "--u", "-1"],
    ], ids=repr)
    def test_bad_input_exits_2(self, capsys, argv):
        assert cli.main(["count-params", *argv]) == 2
        captured = capsys.readouterr()
        assert "error: config" in captured.err and captured.out == ""


class TestGenSynth:
    def test_writes_layout(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert cli.main(["gen-synth", "--classes", "sphere,cube", "--per-class", "10",
                         "--points", "16", "--noise", "0.01", "--seed", "4",
                         "--out", str(out)]) == 0
        files = sorted(out.rglob("*.pts"))
        assert len(files) == 20
        assert (out / "sphere" / "train").is_dir() and (out / "cube" / "test").is_dir()

    def test_same_seed_byte_identical(self, tmp_path):
        args = ["gen-synth", "--classes", "torus", "--per-class", "4", "--points", "8",
                "--noise", "0.02", "--seed", "7"]
        assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
        assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
        for fa in sorted((tmp_path / "a").rglob("*.pts")):
            fb = tmp_path / "b" / fa.relative_to(tmp_path / "a")
            assert fa.read_bytes() == fb.read_bytes()

    def test_unknown_class_exits_2(self):
        assert cli.main(["gen-synth", "--classes", "pyramid", "--out", "/tmp/x"]) == 2

    def test_out_under_a_regular_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "data"
        assert cli.main(["gen-synth", "--classes", "sphere", "--per-class", "2", "--points", "4",
                         "--out", str(out)]) == 2
        assert_one_error_line(capsys, "config", str(out))


class TestEval:
    def _run(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        return out

    def test_intact_run_verifies(self, tmp_path):
        out = self._run(tmp_path)
        assert cli.main(["eval", "--run", str(out)]) == 0

    def test_prints_the_run_fingerprint(self, tmp_path, capsys):
        out = self._run(tmp_path)
        capsys.readouterr()
        assert cli.main(["eval", "--run", str(out)]) == 0
        want = parse_jsonl((out / "metrics.jsonl").read_bytes()).fingerprint()
        assert f"fingerprint {want}" in capsys.readouterr().out.splitlines()

    @staticmethod
    def _printed_matrix(out: str, ids) -> dict[int, dict[int, str]]:
        """The accuracy matrix `eval` printed: per boundary row, the
        non-blank cells by task."""
        rows = {}
        for line in out.splitlines():
            if line.startswith("after "):
                cells = (line[9 + 8 * i:17 + 8 * i].strip() for i in range(len(ids)))
                rows[int(line[6:9])] = {t: cell for t, cell in zip(ids, cells) if cell}
        return rows

    @pytest.mark.parametrize("mode", MODES)
    def test_prints_the_desk_runs_fingerprint_and_accuracy_matrix(self, tmp_path, capsys, mode):
        # The README's desk loop: `run --mode M --seed S`, then `eval`.
        path = tmp_path / "desk.json"
        path.write_text(json.dumps({**read_desk_config(), "epochs": 1}))
        out = tmp_path / "run"
        assert cli.main(["run", "--config", str(path), "--mode", mode, "--seed", "0", "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["eval", "--run", str(out)]) == 0
        printed = capsys.readouterr().out
        _, log = run_sequence(dataclasses.replace(_desk_config(mode, 0), epochs=1), _desk_tasks(0))
        assert f"fingerprint {log.fingerprint()}" in printed.splitlines()
        ids = log.task_ids()
        assert self._printed_matrix(printed, ids) == {
            after: {t: f"{acc:.3f}" for t, acc in log.boundary_accuracies(after).items()}
            for after in ids}

    def test_matrix_leaves_a_cell_without_a_record_blank(self, tmp_path, capsys):
        epochs = [{"kind": "epoch", "task": t, "epoch": 1, "loss": 0.5, "test_acc": 0.5,
                   "wall_ms": 1.0, "steps": 1} for t in (1, 2, 3)]
        # After task 3 the log holds no record for task 1.
        accs = {(1, 1): 0.5, (2, 1): 0.25, (2, 2): 0.75, (3, 2): 0.625, (3, 3): 1.0}
        bounds = [{"kind": "boundary", "after_task": after, "task": t, "test_acc": acc}
                  for (after, t), acc in accs.items()]
        data = "\n".join(map(json.dumps, epochs + bounds)).encode()
        (tmp_path / "metrics.jsonl").write_bytes(data + b"\n")
        (tmp_path / "summary.csv").write_bytes(summary_csv_bytes(summary_rows(parse_jsonl(data))))
        assert cli.main(["eval", "--run", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines()[2:] == [
            "accuracy       T1      T2      T3",
            "after 1     0.500",
            "after 2     0.250   0.750",
            "after 3             0.625   1.000",
        ]

    def test_zero_peak_tasks_are_named_on_one_stderr_line(self, tmp_path, capsys):
        epochs = [{"kind": "epoch", "task": t, "epoch": 1, "loss": 0.5, "test_acc": 0.0,
                   "wall_ms": 1.0, "steps": 1} for t in (1, 2, 3)]
        accs = {(1, 1): 0.0, (2, 1): 0.5, (2, 2): 0.75, (3, 1): 0.25, (3, 2): 0.5, (3, 3): 0.0}
        bounds = [{"kind": "boundary", "after_task": after, "task": t, "test_acc": acc}
                  for (after, t), acc in accs.items()]
        data = "\n".join(map(json.dumps, epochs + bounds)).encode()
        (tmp_path / "metrics.jsonl").write_bytes(data + b"\n")
        (tmp_path / "summary.csv").write_bytes(summary_csv_bytes(summary_rows(parse_jsonl(data))))
        assert cli.main(["eval", "--run", str(tmp_path)]) == 0
        assert capsys.readouterr().err.splitlines() == ["note: cfr skips task(s) 1, 3: zero peak accuracy"]

    def test_boundary_after_a_task_without_epochs_exits_3(self, tmp_path, capsys):
        good = [{"kind": "epoch", "task": 1, "epoch": 1, "loss": 0.5, "test_acc": 0.5, "wall_ms": 1.0,
                 "steps": 1}, {"kind": "boundary", "after_task": 1, "task": 1, "test_acc": 0.5}]
        stray = {"kind": "boundary", "after_task": 7, "task": 1, "test_acc": 0.1}
        data = "\n".join(map(json.dumps, good)).encode()
        # summary.csv as the log without the stray record would have it.
        (tmp_path / "summary.csv").write_bytes(summary_csv_bytes(summary_rows(parse_jsonl(data))))
        (tmp_path / "metrics.jsonl").write_bytes(data + b"\n" + json.dumps(stray).encode() + b"\n")
        assert cli.main(["eval", "--run", str(tmp_path)]) == 3
        assert "boundary after task 7" in capsys.readouterr().err

    def test_tampered_jsonl_exits_5(self, tmp_path, capsys):
        out = self._run(tmp_path)
        jsonl = out / "metrics.jsonl"
        jsonl.write_text(jsonl.read_text().replace('"steps":1', '"steps":7', 1))
        assert cli.main(["eval", "--run", str(out)]) == 5
        assert "eval-mismatch" in capsys.readouterr().err

    def test_empty_dir_exits_3(self, tmp_path):
        assert cli.main(["eval", "--run", str(tmp_path)]) == 3

    @pytest.mark.parametrize("line, message", [
        (b"\xff\xfe", "line 2: not UTF-8"),
        (b'{"kind": "epoch"}', "line 2: epoch record lacks"),
        (b"[1]", "line 2: expected a JSON object"),
        (b'{"kind": "boundary", "after_task": 1, "task": "1", "test_acc": 0.5}',
         "line 2: task must be an integer"),
    ])
    def test_malformed_jsonl_exits_3_naming_the_line(self, tmp_path, capsys, line, message):
        good = b'{"after_task":1,"kind":"boundary","task":1,"test_acc":0.5}'
        (tmp_path / "metrics.jsonl").write_bytes(good + b"\n" + line + b"\n")
        (tmp_path / "summary.csv").write_bytes(b"")
        assert cli.main(["eval", "--run", str(tmp_path)]) == 3
        assert message in capsys.readouterr().err

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.binary(),
                     st.lists(JSONL_RECORDS, max_size=8).map(lambda ls: "\n".join(ls).encode()),
                     st.lists(JSONL_LINES, max_size=6).map(lambda ls: "\n".join(ls).encode()),
                     st.tuples(st.lists(JSONL_LINES, min_size=1, max_size=4), st.binary(max_size=3))
                     .map(lambda t: "\n".join(t[0]).encode() + t[1])))
    def test_any_metrics_jsonl_summarizes_or_raises_data_error(self, data):
        try:
            summary_csv_bytes(summary_rows(parse_jsonl(data)))
        except DataError:
            pass


class TestDirectoryDataset:
    def test_test_split_of_another_point_dimension_exits_3(self, tmp_path, capsys):
        # The 4-D test clouds used to reach the model's width check as a
        # ShapeError after a whole epoch; the task now rejects them on load.
        data_dir = tmp_path / "data"
        assert cli.main(["gen-synth", "--classes", "sphere,cube", "--per-class", "3",
                         "--points", "8", "--out", str(data_dir)]) == 0
        for path in data_dir.glob("*/test/*.pts"):
            head, *rows = path.read_text().splitlines()
            path.write_text("\n".join([head.replace(" 3", " 4")] + [r + " 0.5" for r in rows]) + "\n")
        cfg = {"schema_version": 1, "epochs": 1, "spec": {"n_hat": 4, "l_hat": 4, "s": 2},
               "backbone": {"widths": [3, 8, 8], "head_widths": [8]},
               "dataset": {"type": "directory", "root": str(data_dir), "tasks": [["cube", "sphere"]],
                           "points": 8}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
        assert "point clouds disagree on shape" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unreadable_point_entry_exits_3_before_training(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_sequence", refuse_training)
        data_dir = tmp_path / "data"
        assert cli.main(["gen-synth", "--classes", "sphere,cube", "--per-class", "3",
                         "--points", "8", "--out", str(data_dir)]) == 0
        (data_dir / "cube" / "train" / "zz.pts").mkdir()
        path = write_config(tmp_path, dataset={"type": "directory", "root": str(data_dir),
                                               "tasks": [["cube", "sphere"]], "points": 8})
        capsys.readouterr()
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
        assert_one_error_line(capsys, "data", "zz.pts: cannot read")
        assert not (tmp_path / "out").exists()

    def test_later_task_of_another_point_dimension_exits_3_before_output(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert cli.main(["gen-synth", "--classes", "sphere,cube,cone,plane", "--per-class", "3",
                         "--points", "8", "--out", str(data_dir)]) == 0
        for path in [*data_dir.glob("cone/*/*.pts"), *data_dir.glob("plane/*/*.pts")]:
            head, *rows = path.read_text().splitlines()
            path.write_text("\n".join([head.replace(" 3", " 4")] + [r + " 0.5" for r in rows]) + "\n")
        path = write_config(tmp_path, dataset={"type": "directory", "root": str(data_dir), "points": 8,
                                               "tasks": [["cube", "sphere"], ["cone", "plane"]]})
        capsys.readouterr()
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
        assert_one_error_line(capsys, "data", "task 2: point dimension 4 != backbone input 3")
        assert not (tmp_path / "out" / "resolved-config.json").exists()

    def test_run_from_generated_directory(self, tmp_path):
        data_dir = tmp_path / "data"
        assert cli.main(["gen-synth", "--classes", "sphere,cube", "--per-class", "5",
                         "--points", "12", "--noise", "0.02", "--seed", "1",
                         "--out", str(data_dir)]) == 0
        cfg = {
            "schema_version": 1,
            "epochs": 1,
            "batch_size": 8,
            "spec": {"n_hat": 4, "l_hat": 4, "s": 2},
            "backbone": {"widths": [3, 8, 8], "head_widths": [8], "loss_kind": "squared"},
            "dataset": {"type": "directory", "root": str(data_dir),
                        "tasks": [["cube", "sphere"]], "points": 12, "normalize": True},
        }
        path = tmp_path / "dir_config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "summary.csv").is_file()
