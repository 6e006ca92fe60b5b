"""The desk benchmark script runs the experiment acceptance criterion 7 gates."""

import dataclasses
import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from l3doc.trainer import MODES, run_sequence
from test_acceptance import DESK_SEEDS, _desk_config, _desk_tasks

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_forgetting_benchmark.py"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("run_forgetting_benchmark", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _assert_same_tasks(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.task_id, g.class_names) == (w.task_id, w.class_names)
        for split_g, split_w in ((g.train, w.train), (g.test, w.test)):
            assert [label for _, label in split_g] == [label for _, label in split_w]
            assert all(np.array_equal(a.points, b.points)
                       for (a, _), (b, _) in zip(split_g, split_w))


@pytest.mark.parametrize("seed", DESK_SEEDS)
def test_script_desk_experiment_is_the_acceptance_desk_experiment(script, seed):
    want_tasks = _desk_tasks(seed)
    for mode in MODES:
        cfg, tasks = script.desk_experiment(mode, seed)
        assert cfg == _desk_config(mode, seed)
        _assert_same_tasks(tasks, want_tasks)


def test_epochs_override(script):
    cfg, _ = script.desk_experiment("finetune", 0, epochs=2)
    assert (cfg.mode, cfg.epochs) == ("finetune", 2)


def test_prints_each_runs_fingerprint(script, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--seeds", "0", "--epochs", "1", "--modes", "l3doc"])
    assert script.main() == 0
    printed = re.findall(r"^\[l3doc seed=0\] APA=.* fingerprint=([0-9a-f]{64}) ", capsys.readouterr().out, re.M)
    _, log = run_sequence(dataclasses.replace(_desk_config("l3doc", 0), epochs=1), _desk_tasks(0))
    assert printed == [log.fingerprint()]
