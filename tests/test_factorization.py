import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import l3doc.autodiff as ad
from l3doc.autodiff import Tensor
from l3doc.errors import ConfigError
from l3doc import factorization as fz

import oracles

MICRO_WIDTHS = (3, 8, 8)
LEGACY_WIDTHS = (3, 64, 64, 64, 128, 1024)


def micro_spec():
    return fz.FactorSpec(widths=MICRO_WIDTHS, n_hat=4, l_hat=4, s=2)


class TestChannelArithmetic:
    @pytest.mark.parametrize("w_out,n_hat,want", [(64, 16, 4), (1024, 32, 32), (128, 16, 8)])
    def test_latent_channels(self, w_out, n_hat, want):
        assert fz.latent_channels(w_out, n_hat) == want

    @pytest.mark.parametrize("w_out,l_hat,want", [(64, 32, 2), (1024, 32, 32), (128, 32, 4)])
    def test_knowledge_channels(self, w_out, l_hat, want):
        assert fz.knowledge_channels(w_out, l_hat) == want

    def test_non_divisible_rejected(self):
        with pytest.raises(ConfigError):
            fz.latent_channels(100, 16)
        with pytest.raises(ConfigError):
            fz.knowledge_channels(100, 32)

    def test_spec_rejects_bad_divisors_at_construction(self):
        with pytest.raises(ConfigError):
            fz.FactorSpec(widths=(3, 100), n_hat=16, l_hat=32, s=2)

    def test_presets(self):
        g1, g2 = fz.FactorSpec.group1(), fz.FactorSpec.group2()
        assert (g1.n_hat, g1.l_hat, g1.s) == (16, 32, 2)
        assert (g2.n_hat, g2.l_hat, g2.s) == (32, 32, 2)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 6))
    def test_shapes_satisfy_shrinkage_rules(self, n_hat, l_hat, mult):
        w_out = n_hat * l_hat * mult
        spec = fz.FactorSpec(widths=(3, w_out), n_hat=n_hat, l_hat=l_hat, s=2)
        n, w_in, l_out = spec.knowledge_shape(0)
        assert n == w_out // n_hat and l_out == w_out // l_hat and w_in == 3
        assert spec.kernel_shape(0) == (2, 2, w_out, w_out // l_hat)
        assert spec.contraction_shape(0) == (1, 1, w_out // n_hat)


class TestReconstructKernel:
    def test_identity_composition(self):
        # n = 1, C = [1], s = 1: W is L's row zero pushed through K's 1x1 channel mix
        rng = np.random.default_rng(0)
        L = Tensor(rng.normal(size=(1, 4, 3)))
        K = Tensor(rng.normal(size=(1, 1, 5, 3)))
        C = Tensor(np.ones((1, 1, 1)))
        w = fz.reconstruct_kernel(L, K, C)
        assert w.shape == (1, 1, 4, 5)
        np.testing.assert_allclose(w.data[0, 0], L.data[0] @ K.data[0, 0].T, atol=1e-13)

    def test_zero_contraction_gives_zero_kernel(self):
        rng = np.random.default_rng(1)
        L = Tensor(rng.normal(size=(4, 3, 2)))
        K = Tensor(rng.normal(size=(2, 2, 8, 2)))
        C = Tensor(np.zeros((1, 1, 4)))
        assert np.all(fz.reconstruct_kernel(L, K, C).data == 0.0)

    def test_matches_composed_oracles(self):
        rng = np.random.default_rng(2)
        L = rng.normal(size=(4, 3, 2))
        K = rng.normal(size=(2, 2, 8, 2))
        C = rng.normal(size=(1, 1, 4))
        got = fz.reconstruct_kernel(Tensor(L), Tensor(K), Tensor(C)).data
        want = oracles.channel_contract_loops(C, oracles.transposed_conv2d_scatter(L, K))
        assert got.shape == (1, 1, 3, 8)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_shape_inconsistency_rejected(self):
        with pytest.raises(ad.ShapeError):
            fz.reconstruct_kernel(Tensor(np.zeros((4, 3, 2))),
                                  Tensor(np.zeros((2, 2, 8, 3))),
                                  Tensor(np.zeros((1, 1, 4))))

    @pytest.mark.parametrize("n,w_in,l_out,w_out,s", [
        *[(n, w_in, l_out, w_out, 2)
          for w_in, w_out, n, l_out in map(fz.FactorSpec.group1().layer_dims, range(5))],
        (1, 4, 2, 6, 2),  # n = 1
        (2, 5, 3, 4, 3),  # n < s
        (5, 3, 2, 4, 1),  # s = 1
        (6, 4, 3, 5, 3),  # s = 3
    ])
    def test_matches_expand_then_contract(self, n, w_in, l_out, w_out, s):
        rng = np.random.default_rng(n * 1000 + w_in + s)
        L = Tensor(rng.normal(size=(n, w_in, l_out)))
        K = Tensor(rng.normal(size=(s, s, w_out, l_out)))
        C = Tensor(rng.normal(size=(1, 1, n)))
        got = fz.reconstruct_kernel(L, K, C).data
        want = ad.channel_contract(C, ad.transposed_conv2d(L, K)).data
        assert got.shape == want.shape == (1, 1, w_in, w_out)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("n,s", [(1, 2), (2, 3), (5, 2)])
    def test_gradients_match_central_differences(self, n, s):
        rng = np.random.default_rng(10 + n)
        w_in, l_out, w_out = 3, 2, 4
        params = [ad.parameter(rng.normal(size=(n, w_in, l_out))),
                  ad.parameter(rng.normal(size=(s, s, w_out, l_out))),
                  ad.parameter(rng.normal(size=(1, 1, n)))]
        weights = rng.normal(size=(1, 1, w_in, w_out))

        def loss():
            w = fz.reconstruct_kernel(*params)
            return ad.sum_all(ad.matmul(ad.reshape(w, (1, w_in * w_out)),
                                        ad.constant(weights.reshape(-1, 1))))

        grads = ad.gradients(loss(), params)
        eps = 1e-6
        for p, g in zip(params, grads):
            numeric = np.zeros_like(p.data)
            for i in np.ndindex(p.shape):
                keep = p.data[i]
                p.data[i] = keep + eps
                up = loss().item()
                p.data[i] = keep - eps
                down = loss().item()
                p.data[i] = keep
                numeric[i] = (up - down) / (2 * eps)
            np.testing.assert_allclose(g, numeric, rtol=1e-6, atol=1e-8)

    def test_no_node_holds_the_expanded_block(self):
        # At the widest PointNet layer the n x w_in x w_out block would be
        # n / s = 32 times larger than any node of the reconstruction.
        spec = fz.FactorSpec.group1()
        w_in, w_out, n, l_out = spec.layer_dims(4)
        kb = fz.init_knowledge_base(spec, seed=0)
        factors = fz.init_or_inherit_factors(None, spec, head_dims=(w_out, 2), seed=1, task_id=1)
        root = fz.reconstruct_kernel(kb.layers[4], factors.kernels[4], factors.contractions[4])
        seen, stack, largest = set(), [root], 0
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            largest = max(largest, node.size)
            stack.extend(node._parents)
        assert len(seen) > 3
        assert largest <= spec.s * w_in * w_out < n * w_in * w_out

    def test_gradients_reach_all_three_factors(self):
        spec = micro_spec()
        kb = fz.init_knowledge_base(spec, seed=7)
        factors = fz.init_or_inherit_factors(None, spec, head_dims=(8, 2), seed=8, task_id=1)
        rng = np.random.default_rng(9)
        targets = [Tensor(rng.normal(size=(1, 1) + (spec.widths[l], spec.widths[l + 1])))
                   for l in range(spec.num_layers)]
        before = {
            "L": [t.data.copy() for t in kb.layers],
            "K": [t.data.copy() for t in factors.kernels],
            "C": [t.data.copy() for t in factors.contractions],
        }
        kernels = fz.reconstruct_layer_kernels(kb.layers, factors)
        loss = ad.sum_all(ad.stack_scalars([ad.sq_l2_diff(w, t) for w, t in zip(kernels, targets)]))
        params = [*kb.layers, *factors.kernels, *factors.contractions]
        grads = ad.gradients(loss, params)
        for p, g in zip(params, grads):
            p.data -= 0.05 * g
        assert all(not np.array_equal(a, t.data) for a, t in zip(before["L"], kb.layers))
        assert all(not np.array_equal(a, t.data) for a, t in zip(before["K"], factors.kernels))
        assert all(not np.array_equal(a, t.data) for a, t in zip(before["C"], factors.contractions))


class TestInitialization:
    def test_knowledge_shapes_over_legacy_widths(self):
        spec = fz.FactorSpec.group1(LEGACY_WIDTHS)
        kb = fz.init_knowledge_base(spec, seed=0)
        assert kb.layers[0].shape == (4, 3, 2)
        assert kb.layers[4].shape == (64, 128, 32)
        assert [t.shape for t in kb.snapshot] == [t.shape for t in kb.layers]

    def test_snapshot_refuses_writes(self):
        kb = fz.init_knowledge_base(micro_spec(), seed=0)
        with pytest.raises(ValueError):
            kb.snapshot[0][0, 0, 0] = 99.0
        kb.layers[0].data = kb.layers[0].data + 1.0
        kb.take_snapshot()
        with pytest.raises(ValueError):
            kb.snapshot[0][0, 0, 0] = 99.0

    def test_trainable_is_the_concatenated_groups(self):
        f = fz.init_or_inherit_factors(None, micro_spec(), (8, 4, 2), seed=5, task_id=1)
        fields = (f.kernels, f.contractions, f.biases, f.head_weights, f.head_biases)
        assert f.groups() == fields  # Tensor compares by identity
        assert f.trainable() == [t for group in fields for t in group]

    def test_seed_determinism(self):
        spec = micro_spec()
        a = fz.init_knowledge_base(spec, seed=11)
        b = fz.init_knowledge_base(spec, seed=11)
        c = fz.init_knowledge_base(spec, seed=12)
        for x, y in zip(a.layers, b.layers):
            np.testing.assert_array_equal(x.data, y.data)
        assert any(not np.array_equal(x.data, y.data) for x, y in zip(a.layers, c.layers))

    def test_factors_first_task_reproducible(self):
        spec = micro_spec()
        f1 = fz.init_or_inherit_factors(None, spec, (8, 2), seed=3, task_id=1)
        f2 = fz.init_or_inherit_factors(None, spec, (8, 2), seed=3, task_id=1)
        for a, b in zip(f1.trainable(), f2.trainable()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_inheritance_copies_previous_factors(self):
        spec = micro_spec()
        f1 = fz.init_or_inherit_factors(None, spec, (8, 2), seed=3, task_id=1)
        f2 = fz.init_or_inherit_factors(f1, spec, (8, 3), seed=4, task_id=2)
        for a, b in zip(f1.kernels, f2.kernels):
            np.testing.assert_array_equal(a.data, b.data)
        for a, b in zip(f1.contractions, f2.contractions):
            np.testing.assert_array_equal(a.data, b.data)
        assert f2.head_weights[-1].shape == (8, 3)

    def test_inherited_factors_are_isolated(self):
        spec = micro_spec()
        f1 = fz.init_or_inherit_factors(None, spec, (8, 2), seed=3, task_id=1)
        archive_copy = [t.data.copy() for t in f1.kernels]
        f2 = fz.init_or_inherit_factors(f1, spec, (8, 2), seed=4, task_id=2)
        for t in f2.kernels:
            t.data += 1.0
        for a, t in zip(archive_copy, f1.kernels):
            np.testing.assert_array_equal(a, t.data)


class TestParameterCounts:
    def test_stl_reference_total(self):
        assert fz.count_stl(fz.POINTNET_WIDTHS, 1) == 159936
        assert fz.count_stl(fz.POINTNET_WIDTHS, 10) == 1599360

    def test_stl_tiny(self):
        assert fz.count_stl((2, 3), 1) == 6

    def test_l3doc_single_layer_hand_arithmetic(self):
        # (n + s^2*w_out*l_out)*t + n*w_in*l_out = (4 + 4*64*2)*10 + 4*3*2
        spec = fz.FactorSpec.group1((3, 64))
        assert fz.count_l3doc(spec, 10) == (4 + 4 * 64 * 2) * 10 + 4 * 3 * 2 == 5184

    def test_l3doc_zero_tasks_counts_knowledge_only(self):
        spec = micro_spec()
        want = sum(np.prod(spec.knowledge_shape(l)) for l in range(spec.num_layers))
        assert fz.count_l3doc(spec, 0) == want

    def test_census_hand_tally_one_micro_task(self):
        # L: (2,3,2)+(2,8,2) = 12+32; per task K: 2x(2,2,8,2) = 128, C: 2+2
        spec = micro_spec()
        kb = fz.init_knowledge_base(spec, seed=0)
        task = fz.init_or_inherit_factors(None, spec, (8, 2), seed=1, task_id=1)
        assert fz.parameter_census(kb, []) == 44
        assert fz.parameter_census(kb, [task]) == 44 + 128 + 4 == 176

    @pytest.mark.parametrize("t", range(6))
    def test_census_matches_formula_micro(self, t):
        spec = micro_spec()
        kb = fz.init_knowledge_base(spec, seed=0)
        tasks = [fz.init_or_inherit_factors(None, spec, (8, 2), seed=i, task_id=i + 1)
                 for i in range(t)]
        assert fz.parameter_census(kb, tasks) == fz.count_l3doc(spec, t)

    def test_census_matches_formula_reference_widths(self):
        spec = fz.FactorSpec.group1()
        kb = fz.init_knowledge_base(spec, seed=0)
        tasks = [fz.init_or_inherit_factors(None, spec, (1024, 5), seed=i, task_id=i + 1)
                 for i in range(3)]
        assert fz.parameter_census(kb, tasks) == fz.count_l3doc(spec, 3)
