import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import l3doc.autodiff as ad
from l3doc.autodiff import ShapeError, Tensor
from l3doc import backbone as bb
from l3doc.errors import ConfigError, DataError

import oracles


def micro_params(seed, widths=(3, 4, 5), n_classes=2):
    rng = np.random.default_rng(seed)
    kernels = [Tensor(rng.normal(size=(1, 1, wi, wo)))
               for wi, wo in zip(widths, widths[1:])]
    biases = [Tensor(rng.normal(size=wo)) for wo in widths[1:]]
    head_w = [Tensor(rng.normal(size=(widths[-1], n_classes)))]
    head_b = [Tensor(rng.normal(size=n_classes))]
    return kernels, biases, head_w, head_b


def forward_loops(batch, kernels, biases, head_w, head_b):
    logits = []
    for obj in batch:
        feats = []
        for p in obj:
            h = p.copy()
            for k, b in zip(kernels, biases):
                h = np.maximum(h @ k.data[0, 0] + b.data, 0.0)
            feats.append(h)
        pooled = np.max(np.stack(feats), axis=0)
        h = pooled
        for i, (w, b) in enumerate(zip(head_w, head_b)):
            h = h @ w.data + b.data
            if i < len(head_w) - 1:
                h = np.maximum(h, 0.0)
        logits.append(h)
    return np.stack(logits)


def sort_each(batch):
    return np.stack([obj[np.lexsort(obj.T[::-1])] for obj in batch])


class TestCanonicalOrder:
    def test_batched_sort_matches_per_object_sort_with_ties_and_nan(self):
        rng = np.random.default_rng(40)
        batch = rng.integers(-2, 3, size=(24, 128, 3)).astype(float)
        batch[rng.random(batch.shape) < 0.02] = np.nan
        batch[0, :, 0] = np.nan
        batch[1] = -0.0
        batch[1, ::2] = 0.0
        assert bb.canonical_order(batch).tobytes() == sort_each(batch).tobytes()

    def test_batched_sort_matches_per_object_sort_at_paper_size(self):
        batch = np.random.default_rng(41).normal(size=(16, 1024, 3))
        assert bb.canonical_order(batch).tobytes() == sort_each(batch).tobytes()

    def test_single_object(self):
        obj = np.random.default_rng(42).normal(size=(50, 3))
        assert bb.canonical_order(obj).tobytes() == sort_each(obj[None])[0].tobytes()

    def test_batch_in_order_comes_back_as_the_same_object(self):
        batch = sort_each(np.random.default_rng(43).integers(-2, 3, size=(6, 40, 3)).astype(float))
        assert bb.canonical_order(batch) is batch

    def test_equal_rows_of_either_zero_sign_count_as_in_order(self):
        batch = np.zeros((3, 8, 3))
        batch[:, ::3] = -0.0
        batch[1, :, 1] = -0.0
        out = bb.canonical_order(batch)
        assert out is batch
        assert out.tobytes() == sort_each(batch).tobytes()

    @pytest.mark.parametrize("where", [(0, 0, 0), (1, 4, 2), (2, 9, 1)])
    def test_any_nan_gets_the_batch_sorted(self, where):
        # A NaN sorts last, so at the end of an object the sorted bytes are
        # the input's; the check still refuses to vouch for it.
        batch = sort_each(np.random.default_rng(44).normal(size=(3, 10, 3)))
        batch[where] = np.nan
        out = bb.canonical_order(batch)
        assert out is not batch
        assert out.tobytes() == sort_each(batch).tobytes()

    def test_one_object_out_of_order_gets_the_batch_sorted(self):
        batch = sort_each(np.random.default_rng(45).normal(size=(5, 30, 3)))
        batch[3, [7, 8]] = batch[3, [8, 7]]
        out = bb.canonical_order(batch)
        assert out is not batch
        assert out.tobytes() == sort_each(batch).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 6), st.integers(1, 3)),
                      elements=st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0, np.nan])))
    def test_idempotent_and_matches_the_per_object_sort(self, batch):
        out = bb.canonical_order(batch)
        assert out.tobytes() == sort_each(batch).tobytes()
        again = bb.canonical_order(out)
        assert again.tobytes() == out.tobytes()
        if not np.isnan(batch).any():
            assert again is out


class TestForward:
    def test_matches_per_point_loop_oracle(self):
        rng = np.random.default_rng(0)
        batch = rng.normal(size=(4, 3, 3))
        params = micro_params(1)
        got = bb.forward(batch, *params).data
        want = forward_loops(batch, *params)
        assert got.shape == (4, 2)
        assert np.max(np.abs(got - want)) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_point_permutation_leaves_logits_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        batch = rng.normal(size=(2, 16, 3))
        params = micro_params(seed ^ 0xA5A5)
        base = bb.forward(batch, *params).data
        perm = rng.permutation(16)
        shuffled = batch[:, perm, :]
        again = bb.forward(shuffled, *params).data
        assert np.array_equal(base, again)

    @pytest.mark.parametrize("presorted", [False, True])
    def test_read_only_batch_is_read_and_never_written(self, presorted):
        batch = np.random.default_rng(46).normal(size=(3, 7, 3))
        if presorted:
            batch = sort_each(batch)
        want = bb.forward(batch.copy(), *micro_params(47)).data
        before = batch.tobytes()
        batch.setflags(write=False)
        assert np.array_equal(bb.forward(batch, *micro_params(47)).data, want)
        assert batch.tobytes() == before

    def test_strided_batch_in_order_gives_the_contiguous_bits(self):
        batch = sort_each(np.random.default_rng(48).normal(size=(4, 33, 3)))
        wide = np.zeros((4, 33, 5))
        wide[..., :3] = batch
        strided = wide[..., :3]
        assert bb.canonical_order(strided) is strided
        params = micro_params(49)
        assert np.array_equal(bb.forward(strided, *params).data, bb.forward(batch, *params).data)

    def test_zero_kernels_leave_only_head_bias_path(self):
        rng = np.random.default_rng(2)
        batch = rng.normal(size=(3, 5, 3))
        kernels = [Tensor(np.zeros((1, 1, 3, 4))), Tensor(np.zeros((1, 1, 4, 5)))]
        biases = [Tensor(np.zeros(4)), Tensor(np.zeros(5))]
        head_w = [Tensor(rng.normal(size=(5, 2)))]
        head_b = [Tensor(rng.normal(size=2))]
        logits = bb.forward(batch, kernels, biases, head_w, head_b).data
        for row in logits:
            np.testing.assert_array_equal(row, head_b[0].data)

    def test_duplicating_objects_keeps_per_object_logits(self):
        rng = np.random.default_rng(3)
        batch = rng.normal(size=(3, 8, 3))
        params = micro_params(4)
        single = bb.forward(batch, *params).data
        doubled = bb.forward(np.concatenate([batch, batch]), *params).data
        assert np.array_equal(doubled[:3], single)
        assert np.array_equal(doubled[3:], single)

    def test_nan_hidden_pre_activation_gives_nan_logits(self):
        rng = np.random.default_rng(9)
        kernels, biases, head_w, head_b = micro_params(10)
        biases[0].data[0] = np.nan
        logits = bb.forward(rng.normal(size=(2, 6, 3)), kernels, biases, head_w, head_b).data
        assert np.all(np.isnan(logits))

    def test_one_node_for_the_shared_mlp_and_no_pointwise_block(self):
        widths, b, n = (3, 8, 16, 32), 2, 50
        rng = np.random.default_rng(12)
        kernels, biases, _, _ = micro_params(13, widths)
        head_w = [Tensor(rng.normal(size=(32, 6))), Tensor(rng.normal(size=(6, 2)))]
        head_b = [Tensor(rng.normal(size=6)), Tensor(rng.normal(size=2))]
        # Trainable leaves, so the graph keeps its parents.
        params = [[ad.parameter(t.data) for t in group] for group in (kernels, biases, head_w, head_b)]
        logits = bb.forward(rng.normal(size=(b, n, 3)), *params)
        seen, stack = {}, [logits]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen[id(node)] = node
                stack.extend(node._parents)
        ops = [node._op for node in seen.values()]
        # relu is the head's hidden layer alone.
        assert ops.count("relu") == 1 and ops.count("max_pool_points") == 1
        # Only the head's output layer is a matmul and an add.
        assert ops.count("matmul") == ops.count("add") == 1
        assert max(node.size for node in seen.values()) < b * n * min(widths[1:])

    def test_pool_parents_are_the_layers_alone(self):
        # The points are data: the pool node's parents are the reshaped
        # kernels and the biases, nothing else.
        kernels, biases, head_w, head_b = micro_params(14, (3, 8, 16))
        params = [[ad.parameter(t.data) for t in group] for group in (kernels, biases, head_w, head_b)]
        logits = bb.forward(np.random.default_rng(15).normal(size=(2, 5, 3)), *params)
        pool = logits._parents[0]._parents[0]
        assert pool._op == "max_pool_points" and len(pool._parents) == 4
        ws, bs = pool._parents[:2], pool._parents[2:]
        assert all(w._op == "reshape" and w._parents == (k,) for w, k in zip(ws, params[0]))
        assert all(b is p for b, p in zip(bs, params[1]))

    def test_forward_over_constants_keeps_no_graph(self):
        # Evaluation graphs are all constants: no node holds its operands,
        # so each activation is freed once the next layer is built.
        rng = np.random.default_rng(14)
        logits = bb.forward(rng.normal(size=(2, 20, 3)), *micro_params(15, (3, 8, 16)))
        assert logits._parents == () and logits._backward is None and not logits.requires_grad

    def test_width_chain_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        batch = rng.normal(size=(1, 4, 3))
        kernels = [Tensor(rng.normal(size=(1, 1, 3, 4))), Tensor(rng.normal(size=(1, 1, 5, 6)))]
        biases = [Tensor(np.zeros(4)), Tensor(np.zeros(6))]
        with pytest.raises(ShapeError):
            bb.forward(batch, kernels, biases, [Tensor(np.zeros((6, 2)))], [Tensor(np.zeros(2))])

    def test_empty_point_axis_rejected(self):
        with pytest.raises(ShapeError):
            bb.forward(np.zeros((1, 0, 3)), *micro_params(6))


class TestLogitsAndLoss:
    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(7)
        logits = Tensor(rng.normal(size=(6, 4)) * 10)
        probs = ad.softmax(logits).data
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(6), atol=1e-12)

    def test_exact_one_hot_probability_gives_zero_loss(self):
        logits = Tensor(np.array([[1000.0, 0.0], [0.0, 1000.0]]))
        targets = bb.one_hot([0, 1], 2)
        assert bb.classification_loss(logits, targets).item() == 0.0

    def test_uniform_two_class_loss_is_half(self):
        logits = Tensor(np.array([[3.0, 3.0]]))
        loss = bb.classification_loss(logits, bb.one_hot([0], 2))
        assert abs(loss.item() - 0.5) <= 1e-12

    def test_random_logits_match_hand_oracle(self):
        rng = np.random.default_rng(8)
        raw = rng.normal(size=(5, 3))
        targets = bb.one_hot(rng.integers(0, 3, size=5), 3)
        got = bb.classification_loss(Tensor(raw), targets).item()
        want = 0.0
        for row, t in zip(raw, targets):
            p = oracles.softmax_loops(row)
            want += oracles.sq_l2_diff_loops(p, t)
        want /= 5
        assert abs(got - want) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 6))
    def test_squared_loss_bounded_by_two_per_object(self, seed, c):
        rng = np.random.default_rng(seed)
        logits = Tensor(rng.normal(size=(1, c)) * 30)
        target = bb.one_hot([int(rng.integers(0, c))], c)
        loss = bb.classification_loss(logits, target).item()
        assert 0.0 <= loss <= 2.0

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            bb.one_hot([0, 2], 2)

    def test_target_shape_mismatch(self):
        with pytest.raises(ShapeError):
            bb.classification_loss(Tensor(np.zeros((2, 3))), bb.one_hot([0], 2))


class TestAccuracy:
    def test_perfect_inverted_half(self):
        logits = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert bb.accuracy(logits, [0, 1]) == 1.0
        assert bb.accuracy(logits, [1, 0]) == 0.0
        assert bb.accuracy(logits, [0, 0]) == 0.5

    def test_tie_breaks_to_lowest_class(self):
        logits = np.array([[0.5, 0.5]])
        assert bb.accuracy(logits, [0]) == 1.0
        assert bb.accuracy(logits, [1]) == 0.0


class TestConfig:
    def test_default_widths_reference_count(self):
        cfg = bb.BackboneConfig()
        assert sum(a * b for a, b in zip(cfg.widths, cfg.widths[1:])) == 159936

    def test_head_dims_chain(self):
        cfg = bb.BackboneConfig(widths=(3, 8), head_widths=(4,))
        assert cfg.head_dims(5) == (8, 4, 5)

    def test_bad_loss_kind_rejected(self):
        for kind in ("hinge", "cross_entropy"):
            with pytest.raises(ConfigError):
                bb.BackboneConfig(loss_kind=kind)

    @pytest.mark.parametrize("head_widths", [(0,), (-1,), (8, 0)])
    def test_non_positive_head_width_rejected(self, head_widths):
        with pytest.raises(ConfigError):
            bb.BackboneConfig(head_widths=head_widths)
