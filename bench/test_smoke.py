"""Seconds-long check of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_smoke.py -q

It runs a shrunken copy of a synthetic and of the OFF workload, untraced
and traced, and checks that every metric BENCHMARK.json names is emitted
with its unit, that tracing leaves every patched function as it found it,
and that the traced layer self times account for the step wall-clock.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

run.import_l3doc()

from l3doc import autodiff, backbone, cli, datasets, factorization, mam, metrics, trainer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
MODULES = (autodiff, backbone, cli, datasets, factorization, mam, metrics, trainer)


def _tiny(name: str) -> workloads.Workload:
    w = workloads.WORKLOADS[name]
    raw = copy.deepcopy(w.config)
    raw.update(epochs=2, batch_size=4)
    raw["spec"] = {"n_hat": 4, "l_hat": 4, "s": 2}
    raw["backbone"] = {"widths": [3, 8, 16], "head_widths": [8], "loss_kind": "squared"}
    raw["dataset"]["points"] = 32
    meshes = None
    if w.meshes is not None:
        meshes = dataclasses.replace(w.meshes, train_per_class=2, test_per_class=1)
    else:
        raw["dataset"].update(tasks=[["sphere", "cube"], ["cone", "plane"], ["cube", "torus"]],
                              per_class=5)
    return dataclasses.replace(w, name=f"{name}_tiny", config=raw, meshes=meshes, setup_rounds=2,
                               min_final_apa=0.0)


def _bindings() -> dict:
    return {(m.__name__, k): v for m in MODULES for k, v in vars(m).items() if callable(v)}


@pytest.fixture(autouse=True, scope="module")
def one_setup_per_round():
    """Tiny set-ups take milliseconds; a round of them is one set-up."""
    saved, run.SETUP_ROUND_S = run.SETUP_ROUND_S, 0.0
    yield
    run.SETUP_ROUND_S = saved


@pytest.fixture(scope="module", params=["desk", "pointnet_off"])
def runs(request):
    before = _bindings()
    plain = run.run_workload(_tiny(request.param), seed=3, seconds=0.01, trace=False)
    traced = run.run_workload(_tiny(request.param), seed=3, seconds=0.01, trace=True)
    return before, plain, traced


def test_every_end_to_end_metric_is_emitted_with_its_unit(runs):
    _, plain, _ = runs
    result = plain["result"]
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_every_per_layer_metric_is_emitted_with_its_unit(runs):
    _, _, traced = runs
    result = traced["result"]
    assert result["correct"] and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {k: v["unit"] for k, v in result["metrics"].items()}


def test_tracing_restores_every_patched_function(runs):
    before, _, _ = runs
    assert _bindings() == before
    assert trainer.forward is backbone.forward
    assert trainer.reconstruct_layer_kernels is factorization.reconstruct_layer_kernels
    assert cli.load_task_from_dir is datasets.load_task_from_dir
    assert trainer.run_sequence is cli.run_sequence


def test_layer_self_times_account_for_the_step(runs):
    _, _, traced = runs
    m = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
    wall, other = m["trainer.step_wall_ms"], m["trainer.step_other_ms"]
    # The step windows the spans give are the steps train_task times itself.
    logged = traced["report"]["step_wall_ms_logged"]
    assert 0.9 * logged <= wall <= logged
    # Traced spans cover nearly all of every step: what they leave is the
    # trainer's own glue (one_hot, the finiteness check) and wrapper overhead.
    assert 0.0 <= other <= 0.1 * wall
    assert m["trainer.adam.calls"] == m["mam.total_loss.calls"] > 0
    assert m["autodiff.nodes_per_step"] > 0


def test_a_model_that_does_not_learn_fails_the_run():
    w = dataclasses.replace(_tiny("desk"), min_final_apa=1.01)
    with pytest.raises(SystemExit, match="did not learn"):
        run.run_workload(w, seed=3, seconds=0.01, trace=False)


def test_tracer_wraps_every_graph_op_the_package_calls():
    called = set()
    for path in (run.ROOT / "src" / "l3doc").glob("*.py"):
        called |= set(re.findall(r"\bad\.(\w+)\(", path.read_text(encoding="utf-8")))
    # constant and parameter make leaves, which have no backward to time.
    assert called - {"constant", "parameter", "gradients"} <= set(tracing.OPS)
    assert all(callable(getattr(autodiff, op)) for op in tracing.OPS)


def test_off_workload_ingests_generated_meshes(runs):
    _, plain, traced = runs
    if "meshes" not in plain["report"]:
        pytest.skip("synthetic workload")
    stats = plain["report"]["meshes"]
    assert stats["objects"] == 9 and stats["min_vertices"] > 8
    m = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
    # Two tasks, two classes each, one class shared: 12 loads of 9 files.
    assert m["datasets.parse_off.calls"] == m["datasets.fps.calls"] == 12
    assert m["datasets.unique_file_ratio"] == pytest.approx(9 / 12)


def test_desk_geometry_matches_the_shipped_desk_config():
    shipped = json.loads((run.ROOT / "scripts" / "desk_config.json").read_text(encoding="utf-8"))
    ours = copy.deepcopy(workloads.DESK_CONFIG)
    d = shipped["dataset"]
    plan = datasets.make_split_plan(d.pop("class_pool"), d.pop("num_tasks"), d.pop("classes_per_task"),
                                    seed=[shipped["seed"], 101])
    assert ours["dataset"].pop("tasks") == [list(t) for t in plan.tasks]
    for raw in (shipped, ours):
        for key in ("epochs", "lr", "seed"):
            raw.pop(key, None)
    assert ours == shipped


def test_benchmark_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "desk", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
