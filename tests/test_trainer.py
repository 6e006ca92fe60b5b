import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest

import l3doc.autodiff as ad
from l3doc.autodiff import Tensor
from l3doc import datasets as ds
from l3doc import mam
from l3doc import trainer as tr
from l3doc.backbone import BackboneConfig
from l3doc.errors import ConfigError, DataError, NumericError
from l3doc.factorization import FactorSpec, frozen_copy
from l3doc.mam import MamConfig

import oracles

WIDTHS = (3, 8, 8)


def tiny_cfg(mode="l3doc", epochs=2, seed=0, batch_size=8, lr=1e-3, lambda_l=1.0):
    return tr.ExperimentConfig(
        mode=mode,
        spec=FactorSpec(widths=WIDTHS, n_hat=4, l_hat=4, s=2),
        backbone=BackboneConfig(widths=WIDTHS, head_widths=(8,)),
        mam=MamConfig(lambda_l=lambda_l),
        epochs=epochs, batch_size=batch_size, lr=lr, seed=seed)


def tiny_tasks(n_tasks=2, per_class=5, n_pts=12, seed=0, classes=("sphere", "cube")):
    return [ds.gen_synthetic(classes, per_class, n_pts, 0.02, seed=seed + t, task_id=t + 1)
            for t in range(n_tasks)]


def frozen_arrays(entry):
    """Copies of every frozen array of an archive entry, group by group."""
    return [np.array(a) for group in (entry.kernels, entry.contractions, entry.biases,
                                      entry.head_weights, entry.head_biases, entry.kb_layers or ())
            for a in group]


def same_arrays(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = ad.parameter(np.array([1.0, -2.0]))
        before = p.data.copy()
        state = tr.adam_state([p])
        tr.adam_step([p], [np.zeros(2)], state)
        np.testing.assert_array_equal(p.data, before)

    def test_single_scalar_step_hand_checked(self):
        # g=3, fresh state: m_hat=g, v_hat=g^2 -> update = lr*g/(|g|+eps)
        p = ad.parameter(np.array([1.0]))
        state = tr.adam_state([p])
        tr.adam_step([p], [np.array([3.0])], state, lr=0.1, eps=1e-8)
        want = 1.0 - 0.1 * 3.0 / (np.sqrt(9.0) + 1e-8)
        np.testing.assert_allclose(p.data, [want], atol=1e-15)

    def test_constant_gradient_moves_monotonically(self):
        p = ad.parameter(np.array([0.0]))
        state = tr.adam_state([p])
        tr.adam_step([p], [np.array([1.0])], state, lr=0.01)
        first = float(p.data[0])
        tr.adam_step([p], [np.array([1.0])], state, lr=0.01)
        second = float(p.data[0])
        assert first < 0.0 and second < first

    def test_zero_learning_rate_is_bitwise_noop(self):
        rng = np.random.default_rng(0)
        p = ad.parameter(rng.normal(size=(3, 4)))
        before = p.data.copy()
        state = tr.adam_state([p])
        tr.adam_step([p], [rng.normal(size=(3, 4))], state, lr=0.0)
        assert np.array_equal(p.data, before)

    def test_in_place_steps_match_the_out_of_place_formula(self):
        # The out-of-place form of the update, as the reference.
        def oracle(p, m, v, g, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
            m = m * beta1 + (1 - beta1) * g
            v = v * beta2 + (1 - beta2) * g * g
            m_hat = m / (1 - beta1 ** t)
            v_hat = v / (1 - beta2 ** t)
            return p - lr * m_hat / (np.sqrt(v_hat) + eps), m, v

        rng = np.random.default_rng(11)
        params = [ad.parameter(rng.normal(size=shape)) for shape in ((3, 4), (5,), (2, 2, 3))]
        arrays = [p.data for p in params]
        state = tr.adam_state(params)
        want = [(p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)) for p in params]
        for t in range(1, 6):
            grads = [rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 3) for p in params]
            tr.adam_step(params, grads, state, lr=3e-3)
            want = [oracle(*w, g, t, 3e-3) for w, g in zip(want, grads)]
        for p, array, m, v, (wp, wm, wv) in zip(params, arrays, state.m, state.v, want):
            assert p.data is array
            assert p.data.tobytes() == wp.tobytes()
            assert m.tobytes() == wm.tobytes() and v.tobytes() == wv.tobytes()

    def test_parameter_over_a_read_only_array_steps_without_touching_it(self):
        source = frozen_copy([ad.parameter(np.array([1.0, -2.0]))])[0]
        p = ad.parameter(source)
        tr.adam_step([p], [np.array([0.5, -0.5])], tr.adam_state([p]), lr=0.1)
        np.testing.assert_array_equal(source, [1.0, -2.0])
        assert not source.flags.writeable
        assert np.all(p.data != source)


class TestTrainTask:
    def test_one_epoch_one_batch_is_one_step(self):
        cfg = tiny_cfg(epochs=1, batch_size=64)
        task = tiny_tasks(1)[0]
        kb = tr.init_knowledge_base(cfg.spec, seed=0)
        _, records = tr.train_task(1, task, kb, [], cfg)
        assert len(records) == 1
        assert records[0].steps == 1

    def test_batch_count_is_ceiling(self):
        cfg = tiny_cfg(epochs=1, batch_size=3)
        task = tiny_tasks(1, per_class=5)[0]  # 8 train objects -> ceil(8/3) = 3
        kb = tr.init_knowledge_base(cfg.spec, seed=0)
        _, records = tr.train_task(1, task, kb, [], cfg)
        assert records[0].steps == 3

    def test_zero_learning_rate_freezes_everything(self):
        cfg = tiny_cfg(epochs=2, lr=0.0)
        task = tiny_tasks(1)[0]
        kb = tr.init_knowledge_base(cfg.spec, seed=0)
        before = [t.data.copy() for t in kb.layers]
        factors, _ = tr.train_task(1, task, kb, [], cfg)
        for a, t in zip(before, kb.layers):
            assert np.array_equal(a, t.data)

    def test_training_reduces_loss_on_micro_task(self):
        cfg = tiny_cfg(epochs=50, seed=3, lr=3e-3)
        task = ds.gen_synthetic(("sphere", "cube"), per_class=20, n_pts=32, noise_sigma=0.02,
                                seed=5, task_id=1)
        kb = tr.init_knowledge_base(cfg.spec, seed=1)
        _, records = tr.train_task(1, task, kb, [], cfg)
        assert records[-1].train_loss < records[0].train_loss

    def test_non_finite_parameter_after_last_step_raises(self, monkeypatch):
        def nan_step(params, grads, state, lr):
            params[0].data = np.full_like(params[0].data, np.nan)

        monkeypatch.setattr(tr, "adam_step", nan_step)
        cfg = tiny_cfg(epochs=1, batch_size=64)
        kb = tr.init_knowledge_base(cfg.spec, seed=0)
        with pytest.raises(NumericError, match="non-finite parameter after task 1 epoch 1"):
            tr.train_task(1, tiny_tasks(1)[0], kb, [], cfg)

    def test_nan_activation_reaches_the_loss_check(self):
        # A NaN hidden pre-activation used to be zeroed by the activation,
        # so the loss stayed finite and training went on.
        cfg = tiny_cfg(epochs=1, batch_size=64)
        kb = tr.init_knowledge_base(cfg.spec, seed=0)
        prev = tr.init_or_inherit_factors(None, cfg.spec, cfg.backbone.head_dims(2), seed=0, task_id=1)
        prev.biases[0].data[0] = np.nan
        with pytest.raises(NumericError, match="non-finite loss nan at task 2 epoch 1 step 1"):
            tr.train_task(2, tiny_tasks(1)[0], kb, [], cfg, prev)

    @pytest.mark.parametrize("mode", tr.MODES)
    def test_each_forward_finds_the_previous_graph_freed(self, monkeypatch, mode):
        # A step's graph (activations and node gradients) used to stay alive
        # through the next step's forward and the epoch's evaluation.
        outputs = []
        real_forward = tr.forward

        def forward(*args):
            alive = [i for i, ref in enumerate(outputs) if ref() is not None]
            assert not alive, f"forward {len(outputs)}: the outputs of forwards {alive} are alive"
            logits = real_forward(*args)
            outputs.append(weakref.ref(logits.data))
            return logits

        monkeypatch.setattr(tr, "forward", forward)
        tr.run_sequence(tiny_cfg(mode=mode, epochs=2, batch_size=3), tiny_tasks(2))
        # Per task, 2 epochs of 3 steps and an evaluation; then 1 + 2 boundary evaluations.
        assert len(outputs) == 2 * 2 * (3 + 1) + 3


class TestRunSequence:
    def test_point_dim_mismatch_rejected(self, monkeypatch):
        # Task 2's clouds are 4-D against a 3-D backbone input; the run
        # fails before task 1 trains, naming task 2.
        def refuse(*args, **kwargs):
            raise AssertionError("a task was trained")

        monkeypatch.setattr(tr, "train_task", refuse)
        bad = ds.TaskDataset(2, ("a", "b"),
                             [(ds.PointCloud(np.zeros((4, 4))), 0), (ds.PointCloud(np.zeros((4, 4))), 1)],
                             [(ds.PointCloud(np.zeros((4, 4))), 0)])
        with pytest.raises(DataError, match="task 2: point dimension 4 != backbone input 3"):
            tr.run_sequence(tiny_cfg(), [tiny_tasks(1)[0], bad])

    def test_single_task_matches_train_task(self):
        cfg = tiny_cfg(epochs=2)
        tasks = tiny_tasks(1)
        archive, log = tr.run_sequence(cfg, tasks)
        kb2 = tr.init_knowledge_base(cfg.spec, seed=[cfg.seed, 0, 0])
        _, records = tr.train_task(1, tasks[0], kb2, [], cfg)
        assert [r.test_acc for r in log.epochs] == [r.test_acc for r in records]
        assert [r.train_loss for r in log.epochs] == [r.train_loss for r in records]

    def test_determinism_same_seed_same_log(self):
        cfg = tiny_cfg(epochs=2, seed=11)
        a_archive, a_log = tr.run_sequence(cfg, tiny_tasks(2))
        b_archive, b_log = tr.run_sequence(cfg, tiny_tasks(2))
        assert a_log.fingerprint() == b_log.fingerprint()
        assert len(a_archive) == len(b_archive)
        for ea, eb in zip(a_archive, b_archive):
            assert same_arrays(frozen_arrays(ea), frozen_arrays(eb))

    def test_archive_immutable_across_subsequent_tasks(self):
        cfg = tiny_cfg(epochs=2)
        tasks = tiny_tasks(3)
        archive = []
        seen = []
        kb = tr.init_knowledge_base(cfg.spec, seed=[cfg.seed, 0, 0])
        prev = None
        for tid, task in enumerate(tasks, start=1):
            factors, _ = tr.train_task(tid, task, kb, archive, cfg, prev)
            peak = tr.evaluate_task(task, kb, factors)
            archive.append(tr.archive_task(tid, factors, task, peak))
            kb.take_snapshot()
            seen.append([frozen_arrays(e) for e in archive])
            prev = factors
        assert same_arrays(seen[0][0], seen[1][0]) and same_arrays(seen[0][0], seen[2][0])
        assert same_arrays(seen[1][1], seen[2][1])

    def test_archived_arrays_refuse_writes(self):
        cfg = tiny_cfg(epochs=1)
        archive, _ = tr.run_sequence(cfg, tiny_tasks(1))
        entry = archive[0]
        with pytest.raises(ValueError):
            entry.kernels[0][0, 0, 0, 0] = 99.0

    @pytest.mark.parametrize("mode", ["stl", "finetune", "l3doc"])
    def test_only_l3doc_reads_snapshot_or_archive(self, mode, monkeypatch):
        # knowledge_gap_loss reads the snapshot and factor_gap_losses the
        # archive; nothing else in training reads either.
        def refuse(*args, **kwargs):
            raise RuntimeError("cross-task state read")

        monkeypatch.setattr(mam, "knowledge_gap_loss", refuse)
        monkeypatch.setattr(mam, "factor_gap_losses", refuse)
        cfg = tiny_cfg(mode=mode, epochs=2)
        if mode == "l3doc":
            with pytest.raises(RuntimeError, match="cross-task state read"):
                tr.run_sequence(cfg, tiny_tasks(2))
        else:
            archive, log = tr.run_sequence(cfg, tiny_tasks(2))
            assert len(archive) == 2 and len(log.boundaries) == 3

    @pytest.mark.parametrize("mode", ["stl", "finetune", "l3doc"])
    def test_every_mode_trains_through_total_loss(self, mode, monkeypatch):
        archive_sizes = []
        real = mam.total_loss

        def spy(lc, kb, current, archive, cfg, *args, **kwargs):
            archive_sizes.append(len(archive))
            return real(lc, kb, current, archive, cfg, *args, **kwargs)

        monkeypatch.setattr(mam, "total_loss", spy)
        _, log = tr.run_sequence(tiny_cfg(mode=mode, epochs=2), tiny_tasks(2))
        steps = [sum(r.steps for r in log.epochs if r.task_id == t) for t in (1, 2)]
        second = 1 if mode == "l3doc" else 0
        assert archive_sizes == [0] * steps[0] + [second] * steps[1]

    def test_archive_entry_holds_the_frozen_factor_groups_in_order(self):
        task = tiny_tasks(1)[0]
        factors = tr.init_or_inherit_factors(None, tiny_cfg().spec, (8, 2), seed=0, task_id=1)
        entry = tr.archive_task(1, factors, task, 1.0)
        fields = (entry.kernels, entry.contractions, entry.biases,
                  entry.head_weights, entry.head_biases)
        assert len(factors.groups()) == len(fields)
        for group, frozen in zip(factors.groups(), fields):
            assert isinstance(frozen, tuple)
            assert same_arrays([t.data for t in group], frozen)
            assert not any(a.flags.writeable for a in frozen)

    def test_stl_archive_entries_carry_their_own_base(self):
        cfg = tiny_cfg(mode="stl", epochs=1)
        archive, _ = tr.run_sequence(cfg, tiny_tasks(2))
        for entry in archive:
            assert entry.kb_layers is not None

    def test_l3doc_archive_entries_use_live_base(self):
        cfg = tiny_cfg(mode="l3doc", epochs=1)
        archive, _ = tr.run_sequence(cfg, tiny_tasks(2))
        for entry in archive:
            assert entry.kb_layers is None

    def test_boundary_entry_for_fresh_task_equals_peak(self):
        cfg = tiny_cfg(epochs=2)
        archive, log = tr.run_sequence(cfg, tiny_tasks(2))
        for entry in archive:
            at_own = log.boundary_accuracies(entry.task_id)[entry.task_id]
            assert at_own == entry.peak_accuracy

    def test_stl_cfr_is_one_by_construction(self):
        cfg = tiny_cfg(mode="stl", epochs=2)
        archive, log = tr.run_sequence(cfg, tiny_tasks(3))
        final = log.boundary_accuracies(3)
        peaks = log.peaks()
        for tid, acc in final.items():
            assert acc == peaks[tid]

    def test_finetune_first_task_step_matches_l3doc(self):
        tasks = tiny_tasks(1)
        results = {}
        for mode in ("l3doc", "finetune"):
            cfg = tiny_cfg(mode=mode, epochs=1, seed=5)
            _, log = tr.run_sequence(cfg, tasks)
            results[mode] = (log.epochs[0].train_loss, log.epochs[0].test_acc)
        assert results["l3doc"] == results["finetune"]

    def test_identical_tasks_l3doc_retains_at_least_as_much_as_finetune(self):
        base = ds.gen_synthetic(("sphere", "cube"), per_class=10, n_pts=24,
                                noise_sigma=0.02, seed=9, task_id=1)
        twin = ds.TaskDataset(2, base.class_names, base.train, base.test)
        accs = {}
        for mode in ("l3doc", "finetune"):
            cfg = tiny_cfg(mode=mode, epochs=20, seed=7, lr=3e-3)
            _, log = tr.run_sequence(cfg, [base, twin])
            accs[mode] = log.boundary_accuracies(2)[1]
        assert accs["l3doc"] >= accs["finetune"]

    def test_empty_sequence_rejected(self):
        with pytest.raises(DataError):
            tr.run_sequence(tiny_cfg(), [])

    def test_mismatched_widths_rejected(self):
        with pytest.raises(ConfigError):
            tr.ExperimentConfig(spec=FactorSpec(widths=(3, 8), n_hat=4, l_hat=4, s=2),
                                backbone=BackboneConfig(widths=(3, 16)))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            tiny_cfg(mode="replay")

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError):
            tiny_cfg(seed=-1)


class TestEvaluateArchive:
    def test_empty_archive_empty_result(self):
        cfg = tiny_cfg()
        kb = tr.init_knowledge_base(cfg.spec, seed=0)
        assert tr.evaluate_archive(kb, []) == {}

    def test_unchanged_base_reproduces_end_of_task_accuracy(self):
        cfg = tiny_cfg(epochs=2)
        tasks = tiny_tasks(1)
        archive, log = tr.run_sequence(cfg, tasks)
        kb = tr.init_knowledge_base(cfg.spec, seed=[cfg.seed, 0, 0])
        # rebuild the same knowledge base state by rerunning the task
        _, _ = tr.train_task(1, tasks[0], kb, [], cfg)
        accs = tr.evaluate_archive(kb, archive)
        assert accs[1] == archive[0].peak_accuracy

    def test_memory_does_not_grow_with_the_split(self):
        # A chunk of one object, as at PointNet's widths: evaluating 16
        # objects holds about what evaluating 4 does, where a layer-by-layer
        # forward over the whole split held about 3x.
        widths, n_pts = (3, 64, 64, 128), 64
        spec = FactorSpec(widths=widths, n_hat=4, l_hat=4, s=2)
        kb = tr.init_knowledge_base(spec, seed=0)
        factors = tr.init_or_inherit_factors(None, spec, (128, 8, 2), seed=1, task_id=1)
        test = ds.gen_synthetic(("sphere", "cube"), 40, n_pts, 0.02, seed=0).test

        def peak(n_objects):
            tracemalloc.start()
            try:
                tr._eval_accuracy(test[:n_objects], kb.layers, factors)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        with mock.patch.object(ad, "_POOL_CHUNK", n_pts * max(widths)):
            small, large = peak(4), peak(16)
        assert large < 1.25 * small


class TestGradientFlow:
    def test_one_step_changes_all_factor_families(self):
        cfg = tiny_cfg(epochs=1, batch_size=64, seed=2)
        task = tiny_tasks(1)[0]
        kb = tr.init_knowledge_base(cfg.spec, seed=4)
        before_l = [t.data.copy() for t in kb.layers]
        factors, _ = tr.train_task(1, task, kb, [], cfg)
        assert any(not np.array_equal(a, t.data) for a, t in zip(before_l, kb.layers))
        # rerun from the same init to capture the pre-step values
        factors2 = tr.init_or_inherit_factors(None, cfg.spec, cfg.backbone.head_dims(2),
                                              seed=[cfg.seed, 1, 1], task_id=1)
        for fresh, trained in zip(factors2.kernels, factors.kernels):
            assert not np.array_equal(fresh.data, trained.data)
        for fresh, trained in zip(factors2.contractions, factors.contractions):
            assert not np.array_equal(fresh.data, trained.data)
