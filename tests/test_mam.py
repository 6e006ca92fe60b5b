import numpy as np
import pytest

import l3doc.autodiff as ad
from l3doc.autodiff import ShapeError, Tensor
from l3doc import factorization as fz
from l3doc import mam
from l3doc.errors import ConfigError

import oracles


def micro_spec(widths=(3, 8)):
    return fz.FactorSpec(widths=widths, n_hat=4, l_hat=4, s=2)


def frozen_copy(factors):
    """Archive-shaped view: plain read-only arrays."""
    class Entry:
        pass
    e = Entry()
    e.kernels = [np.array(t.data, copy=True) for t in factors.kernels]
    e.contractions = [np.array(t.data, copy=True) for t in factors.contractions]
    return e


class TestKnowledgeGap:
    def test_zero_when_live_equals_snapshot(self):
        kb = fz.init_knowledge_base(micro_spec((3, 8, 8)), seed=0)
        assert mam.knowledge_gap_loss(kb).item() == 0.0

    def test_all_ones_diff_of_2x2x2(self):
        kb = fz.init_knowledge_base(fz.FactorSpec(widths=(2, 2), n_hat=1, l_hat=1, s=1), seed=0)
        kb.layers[0].data = kb.snapshot[0] + 1.0
        assert mam.knowledge_gap_loss(kb).item() == 8.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        kb = fz.init_knowledge_base(micro_spec((3, 8, 8)), seed=2)
        for t in kb.layers:
            t.data = t.data + rng.normal(size=t.shape)
        want = sum(oracles.sq_l2_diff_loops(prev, live.data)
                   for prev, live in zip(kb.snapshot, kb.layers))
        assert abs(mam.knowledge_gap_loss(kb).item() - want) <= 1e-12

    def test_differentiable_wrt_live_only(self):
        kb = fz.init_knowledge_base(micro_spec((3, 8)), seed=3)
        kb.layers[0].data = kb.layers[0].data + 0.5
        loss = mam.knowledge_gap_loss(kb)
        (g,) = ad.gradients(loss, [kb.layers[0]])
        np.testing.assert_allclose(g, 2 * (kb.layers[0].data - kb.snapshot[0]), atol=1e-13)


class TestFactorGaps:
    def test_identical_entry_gives_zero_pair(self):
        spec = micro_spec((3, 8, 8))
        cur = fz.init_or_inherit_factors(None, spec, (8, 2), seed=4, task_id=1)
        gaps = mam.factor_gap_losses(cur, [frozen_copy(cur)])
        assert len(gaps) == 1
        assert gaps[0][0].item() == 0.0 and gaps[0][1].item() == 0.0

    def test_empty_archive_gives_empty_list(self):
        cur = fz.init_or_inherit_factors(None, micro_spec(), (8, 2), seed=5, task_id=1)
        assert mam.factor_gap_losses(cur, []) == []

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        spec = micro_spec((3, 8, 8))
        cur = fz.init_or_inherit_factors(None, spec, (8, 2), seed=7, task_id=2)
        past = frozen_copy(cur)
        for arr in [*past.kernels, *past.contractions]:
            arr += rng.normal(size=arr.shape)
        (k_gap, c_gap), = mam.factor_gap_losses(cur, [past])
        want_k = sum(oracles.sq_l2_diff_loops(p, c.data) for p, c in zip(past.kernels, cur.kernels))
        want_c = sum(oracles.sq_l2_diff_loops(p, c.data) for p, c in zip(past.contractions, cur.contractions))
        assert abs(k_gap.item() - want_k) <= 1e-12
        assert abs(c_gap.item() - want_c) <= 1e-12


class TestAttentionScores:
    def test_single_past_task(self):
        scores = mam.attention_scores([3.7], [0.2], l_max=5)
        np.testing.assert_allclose(scores.k_weights, [0.2], atol=1e-15)
        np.testing.assert_allclose(scores.c_weights, [0.2], atol=1e-15)

    def test_two_equal_gaps(self):
        scores = mam.attention_scores([1.0, 1.0], [2.0, 2.0], l_max=5)
        np.testing.assert_allclose(scores.k_weights, [0.1, 0.1], atol=1e-15)

    def test_hand_softmax(self):
        scores = mam.attention_scores([0.0, 0.0, np.log(2.0)], [0.0, 0.0, np.log(2.0)], l_max=1)
        np.testing.assert_allclose(scores.k_weights, [0.25, 0.25, 0.5], atol=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            mam.attention_scores([], [], l_max=3)

    @pytest.mark.parametrize("past", [1, 2, 5])
    def test_weights_sum_to_inverse_layer_count(self, past):
        rng = np.random.default_rng(past)
        scores = mam.attention_scores(rng.uniform(0, 9, past), rng.uniform(0, 9, past), l_max=5)
        assert abs(scores.k_weights.sum() - 1 / 5) <= 1e-12
        assert abs(scores.c_weights.sum() - 1 / 5) <= 1e-12
        assert np.all(scores.k_weights >= 0) and np.all(scores.c_weights >= 0)

    def test_growing_gap_grows_attention(self):
        base = mam.attention_scores([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], l_max=2)
        bumped = mam.attention_scores([1.0, 2.5, 3.0], [1.0, 1.0, 1.0], l_max=2)
        assert bumped.k_weights[1] > base.k_weights[1]


class TestTotalLoss:
    def test_first_task_returns_classification_loss_itself(self):
        spec = micro_spec((3, 8))
        kb = fz.init_knowledge_base(spec, seed=8)
        cur = fz.init_or_inherit_factors(None, spec, (8, 2), seed=9, task_id=1)
        lc = Tensor(np.asarray(0.37))
        assert mam.total_loss(lc, kb, cur, [], mam.MamConfig()) is lc

    def test_zero_lambda_and_equal_factors_reduce_to_lc(self):
        spec = micro_spec((3, 8))
        kb = fz.init_knowledge_base(spec, seed=10)
        kb.layers[0].data = kb.layers[0].data + 1.0  # knowledge gap present but weighted 0
        cur = fz.init_or_inherit_factors(None, spec, (8, 2), seed=11, task_id=2)
        lc = Tensor(np.asarray(0.25))
        total = mam.total_loss(lc, kb, cur, [frozen_copy(cur)], mam.MamConfig(lambda_l=0.0))
        assert total.item() == lc.item()

    def test_three_task_hand_weighted_sum(self):
        spec = micro_spec((3, 8))
        kb = fz.init_knowledge_base(spec, seed=12)
        kb.layers[0].data = kb.snapshot[0].copy()
        kb.layers[0].data.flat[0] += 0.5  # knowledge gap = 0.25
        cur = fz.init_or_inherit_factors(None, spec, (8, 2), seed=13, task_id=3)
        past1, past2 = frozen_copy(cur), frozen_copy(cur)
        past1.kernels[0].flat[0] += 1.0        # k-gap 1
        past2.kernels[0].flat[0] += 2.0        # k-gap 4
        past1.contractions[0].flat[0] += 1.0   # c-gap 1
        past2.contractions[0].flat[0] += 3.0   # c-gap 9
        lc = Tensor(np.asarray(0.1))
        cfg = mam.MamConfig(lambda_l=0.5)
        total = mam.total_loss(lc, kb, cur, [past1, past2], cfg)
        wk = oracles.softmax_loops(np.array([1.0, 4.0]))
        wc = oracles.softmax_loops(np.array([1.0, 9.0]))
        want = 0.1 + 0.5 * 0.25 + wk[0] * 1 + wk[1] * 4 + wc[0] * 1 + wc[1] * 9
        assert abs(total.item() - want) <= 1e-12

    def _grad_setup(self):
        spec = micro_spec((3, 8))
        kb = fz.init_knowledge_base(spec, seed=14)
        kb.layers[0].data = kb.layers[0].data + 0.1
        cur = fz.init_or_inherit_factors(None, spec, (8, 2), seed=15, task_id=2)
        past = frozen_copy(cur)
        past.kernels[0] += 0.3
        past.contractions[0] += 0.2
        lc = ad.sq_l2_diff(cur.contractions[0], Tensor(np.zeros((1, 1, 2))))
        cfg = mam.MamConfig(lambda_l=0.7)
        return kb, cur, past, lc, cfg

    def test_archive_leaves_carry_no_gradient(self):
        kb, cur, past, lc, cfg = self._grad_setup()
        total = mam.total_loss(lc, kb, cur, [past], cfg)
        params = [*cur.kernels, *cur.contractions, *kb.layers]
        grads = ad.gradients(total, params)
        assert any(np.any(g != 0) for g in grads)
        seen, stack = set(), [total]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if not node._parents:
                for arr in [*past.kernels, *past.contractions]:
                    if node.data.shape == arr.shape and np.array_equal(node.data, arr):
                        assert not node.requires_grad
                        assert node.grad is None
            stack.extend(node._parents)

    def test_detached_scores_match_pinned_objective_gradient(self):
        kb, cur, past, lc, cfg = self._grad_setup()
        gaps = mam.factor_gap_losses(cur, [past])
        pinned = mam.attention_scores([float(k.data) for k, _ in gaps],
                                      [float(c.data) for _, c in gaps], len(kb.layers))
        params = [*cur.kernels, *cur.contractions, *kb.layers]

        def lc_node():
            return ad.sq_l2_diff(cur.contractions[0], Tensor(np.zeros((1, 1, 2))))

        def build():
            return mam.total_loss(lc_node(), kb, cur, [past], cfg, pinned_scores=pinned)

        analytic = ad.gradients(build(), params)
        numeric = oracles.central_differences(lambda: build().item(), params)
        for a, n in zip(analytic, numeric):
            assert oracles.grads_close(a, n, tol=1e-3)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigError):
            mam.MamConfig(lambda_l=-0.1)
