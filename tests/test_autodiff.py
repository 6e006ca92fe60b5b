from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import l3doc.autodiff as ad
from l3doc.autodiff import ShapeError, Tensor

import oracles


def rnd(rng, *shape):
    return rng.normal(size=shape)


class TestChannelContract:
    def test_n1_identity(self):
        c = Tensor(np.array([[[1.0]]]))
        d = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        out = ad.channel_contract(c, d)
        assert out.shape == (1, 1, 2, 2)
        np.testing.assert_array_equal(out.data[0, 0], [[1.0, 2.0], [3.0, 4.0]])

    def test_zero_factor_annihilates(self):
        rng = np.random.default_rng(0)
        c = Tensor(np.zeros((1, 1, 2)))
        d = Tensor(rnd(rng, 2, 3, 4))
        assert np.all(ad.channel_contract(c, d).data == 0.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        c = Tensor(rnd(rng, 1, 1, 3))
        d = Tensor(rnd(rng, 3, 4, 5))
        got = ad.channel_contract(c, d).data
        want = oracles.channel_contract_loops(c.data, d.data)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        c = Tensor(np.zeros((1, 1, 2)))
        d = Tensor(np.zeros((3, 4, 5)))
        with pytest.raises(ShapeError, match=r"\(1, 1, 2\).*\(3, 4, 5\)"):
            ad.channel_contract(c, d)


class TestTransposedConv2d:
    def test_1x1_scalar_product(self):
        x = Tensor(np.full((1, 1, 1), 3.0))
        k = Tensor(np.full((1, 1, 1, 1), -2.0))
        out = ad.transposed_conv2d(x, k)
        assert out.shape == (1, 1, 1)
        assert out.data[0, 0, 0] == -6.0

    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(2)
        x = Tensor(rnd(rng, 3, 4, 2))
        k = np.zeros((2, 2, 2, 2))
        k[0, 0] = np.eye(2)
        out = ad.transposed_conv2d(x, Tensor(k))
        np.testing.assert_array_equal(out.data, x.data)

    def test_matches_scatter_add_oracle(self):
        rng = np.random.default_rng(3)
        x = Tensor(rnd(rng, 2, 3, 2))
        k = Tensor(rnd(rng, 2, 2, 3, 2))
        got = ad.transposed_conv2d(x, k).data
        want = oracles.transposed_conv2d_scatter(x.data, k.data)
        assert got.shape == (2, 3, 3)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_zero_size_spatial_rejected(self):
        with pytest.raises(ShapeError):
            ad.transposed_conv2d(Tensor(np.zeros((0, 2, 1))), Tensor(np.zeros((2, 2, 1, 1))))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ad.transposed_conv2d(Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros((2, 2, 4, 2))))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 3),
           st.integers(1, 3), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
    def test_oracle_equivalence_random_shapes(self, h, w, ci, s, co, seed):
        rng = np.random.default_rng(seed)
        x = rnd(rng, h, w, ci)
        k = rnd(rng, s, s, co, ci)
        got = ad.transposed_conv2d(Tensor(x), Tensor(k)).data
        want = oracles.transposed_conv2d_scatter(x, k)
        assert np.max(np.abs(got - want)) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 2),
           st.integers(-1, 2), st.integers(1, 2), st.integers(0, 2 ** 32 - 1))
    def test_gradients_match_central_differences(self, h, w, ci, extra, co, seed):
        # Mostly kernels wider than the grid both ways: their taps with
        # dy >= h or dx >= w reach no output and get exactly zero gradient.
        s = max(1, max(h, w) + extra)
        rng = np.random.default_rng(seed)
        x = ad.parameter(rnd(rng, h, w, ci))
        k = ad.parameter(rnd(rng, s, s, co, ci))
        target = Tensor(rnd(rng, h, w, co))
        params = [x, k]

        def build():
            return ad.sq_l2_diff(ad.transposed_conv2d(x, k), target)

        analytic = ad.gradients(build(), params)
        numeric = oracles.central_differences(lambda: build().item(), params)
        for a, n in zip(analytic, numeric):
            assert oracles.grads_close(a, n, tol=1e-3)
        gk = analytic[1]
        assert np.all(gk[h:] == 0.0) and np.all(gk[:, w:] == 0.0)


def pool_reference(x, w, b, g):
    """max_pool_points and its gradients from the full activation block."""
    z = x @ w + b
    a = np.maximum(z, 0.0)
    first = np.argmax(a, axis=-2)[..., None, :]
    ga = np.zeros_like(a)
    np.put_along_axis(ga, first, g[..., None, :], axis=-2)
    ga *= z > 0.0
    gw = x.reshape(-1, x.shape[-1]).T @ ga.reshape(-1, ga.shape[-1])
    return a.max(axis=-2), ga @ w.T, gw, ga.reshape(-1, ga.shape[-1]).sum(axis=0)


def chunk_objects(objs, n, f):
    """Make max_pool_points multiply ``objs`` objects of ``n`` points of an
    f-wide layer at a time."""
    return mock.patch.object(ad, "_POOL_CHUNK", objs * n * f)


def pool_grads(x, w, b, g):
    x, w, b = ad.parameter(x), ad.parameter(w), ad.parameter(b)
    out = ad.max_pool_points(x, w, b)
    ad.sum_all(ad.mul(out, Tensor(g))).backward()
    return out.data, x.grad, w.grad, b.grad


# One, two (the last chunk holds a single object) and all of five objects
# per chunk.
CHUNK_OBJECTS = [1, 2, 5]


class TestMaxPoolPoints:
    """The last pointwise layer fused with the max over points."""

    def test_definition(self):
        out = ad.max_pool_points(Tensor([[1.0, 5.0], [3.0, 2.0]]), Tensor(np.eye(2)), Tensor(np.zeros(2)))
        np.testing.assert_array_equal(out.data, [3.0, 5.0])

    def test_single_point_identity_after_activation(self):
        out = ad.max_pool_points(Tensor([[4.0, -7.0]]), Tensor(np.eye(2)), Tensor(np.zeros(2)))
        np.testing.assert_array_equal(out.data, [4.0, 0.0])

    @pytest.mark.parametrize("shape", [(13, 3), (5, 13, 3), (5, 2, 3)])
    @pytest.mark.parametrize("objs", CHUNK_OBJECTS)
    def test_matches_numpy_reference(self, shape, objs):
        # Some columns tie, one is below zero everywhere.
        rng = np.random.default_rng(21)
        x = rng.normal(size=shape)
        x[..., 0] = rng.integers(0, 3, size=shape[:-1])
        w = rng.normal(size=(3, 6))
        w[:, 1] = [1.0, 0.0, 0.0]  # column 1 ties wherever x[..., 0] does
        b = rng.normal(size=6)
        b[1], b[4] = 0.5, -50.0
        g = rng.normal(size=shape[:-2] + (6,))
        assert np.any(np.sum(x[..., 0] == x[..., 0].max(axis=-1, keepdims=True), axis=-1) > 1)
        with chunk_objects(objs, shape[-2], 6):
            got = pool_grads(x, w, b, g)
        want = pool_reference(x, w, b, g)
        assert np.all(got[0][..., 4] == 0.0) and np.all(got[3][4] == 0.0)
        for a, r in zip(got, want):
            assert a.shape == r.shape
            assert np.max(np.abs(a - r)) <= 1e-12

    def test_object_larger_than_a_chunk_is_multiplied_whole(self):
        rng = np.random.default_rng(22)
        x, w, b, g = rng.normal(size=(3, 7, 2)), rng.normal(size=(2, 4)), rng.normal(size=4), rng.normal(size=(3, 4))
        with mock.patch.object(ad, "_POOL_CHUNK", 1):
            got = pool_grads(x, w, b, g)
        for a, r in zip(got, pool_reference(x, w, b, g)):
            assert np.max(np.abs(a - r)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 8), st.sampled_from(CHUNK_OBJECTS),
           st.integers(0, 2 ** 32 - 1))
    def test_permutation_invariance_bitwise(self, n, f, objs, seed):
        # Small integers make every product exact, whatever the BLAS order.
        rng = np.random.default_rng(seed)
        x = rng.integers(-4, 5, size=(5, n, 3)).astype(float)
        w = rng.integers(-4, 5, size=(3, f)).astype(float)
        b = rng.integers(-4, 5, size=f).astype(float)
        perm = rng.permutation(n)
        with chunk_objects(objs, n, f):
            a = ad.max_pool_points(Tensor(x), Tensor(w), Tensor(b)).data
            c = ad.max_pool_points(Tensor(x[:, perm]), Tensor(w), Tensor(b)).data
        assert np.array_equal(a, c)

    @pytest.mark.parametrize("objs", CHUNK_OBJECTS)
    def test_tie_breaks_to_lowest_index(self, objs):
        # Every object's column 0 ties at 2.0; its gradient must land on row 0.
        x = ad.parameter(np.tile([[2.0, 1.0], [2.0, 3.0]], (5, 1, 1)))
        with chunk_objects(objs, 2, 2):
            ad.sum_all(ad.max_pool_points(x, Tensor(np.eye(2)), Tensor(np.zeros(2)))).backward()
        np.testing.assert_array_equal(x.grad, np.tile([[1.0, 0.0], [0.0, 1.0]], (5, 1, 1)))

    @pytest.mark.parametrize("objs", CHUNK_OBJECTS)
    @pytest.mark.parametrize("obj", [0, 4])
    def test_nan_reaches_the_output(self, objs, obj):
        out = ad.max_pool_points(Tensor([[1.0, 0.0], [3.0, 2.0]]), Tensor(np.eye(2)), Tensor([0.0, np.nan]))
        assert out.data[0] == 3.0 and np.isnan(out.data[1])
        # A NaN point in the first object's chunk or in the last one.
        with chunk_objects(objs, 3, 1):
            for row in (0, 2):
                x = np.tile([[1.0], [3.0], [0.5]], (5, 1, 1))
                x[obj, row] = np.nan
                out = ad.max_pool_points(Tensor(x), Tensor([[1.0]]), Tensor([0.0])).data
                assert np.isnan(out[obj, 0])
                np.testing.assert_array_equal(np.delete(out, obj, axis=0), 3.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 5), st.sampled_from(CHUNK_OBJECTS),
           st.integers(0, 2 ** 32 - 1))
    def test_gradient_lands_on_first_maximum(self, n, f, objs, seed):
        # Few distinct values, so columns tie often; an all-zero column
        # sits below the activation and gets no gradient.
        x = ad.parameter(np.random.default_rng(seed).integers(0, 3, size=(5, n, f)).astype(float))
        with chunk_objects(objs, n, f):
            ad.sum_all(ad.max_pool_points(x, Tensor(np.eye(f)), Tensor(np.zeros(f)))).backward()
        want = np.zeros_like(x.data)
        np.put_along_axis(want, np.argmax(x.data, axis=1)[:, None], 1.0, axis=1)
        want *= x.data.max(axis=1, keepdims=True) > 0
        np.testing.assert_array_equal(x.grad, want)

    @pytest.mark.parametrize("shape", [(6, 3), (5, 4, 3)])
    def test_gradients_match_central_differences(self, shape):
        rng = np.random.default_rng(23)
        x = ad.parameter(None, rng, shape, std=1.0)
        w = ad.parameter(None, rng, (3, 4), std=1.0)
        b = ad.parameter(np.array([0.1, -0.2, 0.3, -50.0]))
        target = Tensor(rnd(rng, *shape[:-2], 4))
        params = [x, w, b]
        # Differences of 1e-4 must not cross a kink: no near-tie, no live
        # column near zero.
        z = np.sort(x.data @ w.data + b.data, axis=-2)[..., :3]
        assert np.min(z[..., -1, :] - z[..., -2, :]) > 0.05 and np.min(np.abs(z[..., -1, :])) > 0.05

        def build():
            return ad.sq_l2_diff(ad.max_pool_points(x, w, b), target)

        with chunk_objects(2, shape[-2], 4):
            analytic = ad.gradients(build(), params)
            numeric = oracles.central_differences(lambda: build().item(), params)
        for a, n in zip(analytic, numeric):
            assert oracles.grads_close(a, n, tol=1e-3)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="max_pool_points"):
            ad.max_pool_points(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))
        with pytest.raises(ShapeError, match="max_pool_points"):
            ad.max_pool_points(Tensor(np.zeros((2, 0, 3))), Tensor(np.zeros((3, 2))), Tensor(np.zeros(2)))


class TestRelu:
    """The fused layer ``max(x @ w + b, 0)``."""

    def test_relu_identity_zero_random(self):
        rng = np.random.default_rng(14)
        a = np.abs(rnd(rng, 6, 3))
        eye, zero = Tensor(np.eye(3)), Tensor(np.zeros(3))
        np.testing.assert_array_equal(ad.relu(Tensor(a), eye, zero).data, a)
        assert np.all(ad.relu(Tensor(-a), eye, zero).data == 0.0)
        mixed = rnd(rng, 20)
        want = np.array([[max(0.0, x)] for x in mixed])
        got = ad.relu(Tensor(mixed[:, None]), Tensor([[1.0]]), Tensor([0.0])).data
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("shape", [(7, 3), (2, 5, 3)])
    def test_matches_numpy_reference(self, shape):
        rng = np.random.default_rng(19)
        x, w, b = rnd(rng, *shape), rnd(rng, 3, 4), rnd(rng, 4)
        b[0] = -50.0  # one column below zero everywhere
        got = ad.relu(Tensor(x), Tensor(w), Tensor(b)).data
        want = np.maximum(x @ w + b, 0.0)
        assert got.shape == want.shape and np.all(got[..., 0] == 0.0)
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("shape", [(5, 3), (2, 4, 3)])
    def test_gradients_match_central_differences(self, shape):
        rng = np.random.default_rng(20)
        x = ad.parameter(None, rng, shape, std=1.0)
        w = ad.parameter(None, rng, (3, 4), std=1.0)
        b = ad.parameter(None, rng, (4,), std=1.0)
        target = Tensor(rnd(rng, *shape[:-1], 4))
        params = [x, w, b]

        def build():
            return ad.sq_l2_diff(ad.relu(x, w, b), target)

        analytic = ad.gradients(build(), params)
        numeric = oracles.central_differences(lambda: build().item(), params)
        for a, n in zip(analytic, numeric):
            assert oracles.grads_close(a, n, tol=1e-3)

    def test_nan_pre_activation_reaches_the_output(self):
        out = ad.relu(Tensor([[np.nan], [2.0]]), Tensor([[1.0, -1.0]]), Tensor(np.zeros(2)))
        assert np.all(np.isnan(out.data[0]))
        np.testing.assert_array_equal(out.data[1], [2.0, 0.0])

    def test_shape_mismatch_names_all_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\).*\(2,\)"):
            ad.relu(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))
        with pytest.raises(ShapeError):
            ad.relu(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))), Tensor(np.zeros(3)))


class TestSoftmax:
    def test_symmetry(self):
        out = ad.softmax(Tensor([3.7, 3.7]))
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_singleton(self):
        np.testing.assert_array_equal(ad.softmax(Tensor([42.0])).data, [1.0])

    def test_hand_arithmetic(self):
        out = ad.softmax(Tensor([0.0, 0.0, np.log(2.0)]))
        np.testing.assert_allclose(out.data, [0.25, 0.25, 0.5], atol=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            ad.softmax(Tensor(np.zeros((0,))))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12),
           st.floats(-100, 100))
    def test_sums_to_one_and_shift_invariant(self, vals, shift):
        v = np.array(vals)
        p = ad.softmax(Tensor(v)).data
        assert np.all(p > 0)
        assert abs(p.sum() - 1.0) <= 1e-12
        q = ad.softmax(Tensor(v + shift)).data
        assert np.max(np.abs(p - q)) <= 1e-12

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        v = rnd(rng, 9)
        got = ad.softmax(Tensor(v)).data
        want = oracles.softmax_loops(v)
        assert np.max(np.abs(got - want)) <= 1e-12


class TestSqL2Diff:
    def test_equal_inputs_zero(self):
        rng = np.random.default_rng(6)
        x = rnd(rng, 3, 3)
        assert ad.sq_l2_diff(Tensor(x), Tensor(x.copy())).item() == 0.0

    def test_arithmetic(self):
        out = ad.sq_l2_diff(Tensor([1.0, 2.0]), Tensor([0.0, 0.0]))
        assert out.item() == 5.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        a, b = rnd(rng, 4, 5), rnd(rng, 4, 5)
        got = ad.sq_l2_diff(Tensor(a), Tensor(b)).item()
        assert abs(got - oracles.sq_l2_diff_loops(a, b)) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.sq_l2_diff(Tensor([1.0]), Tensor([1.0, 2.0]))


class TestStandardOps:
    def test_matmul_identity(self):
        rng = np.random.default_rng(8)
        a = rnd(rng, 3, 4)
        out = ad.matmul(Tensor(a), Tensor(np.eye(4)))
        np.testing.assert_array_equal(out.data, a)

    def test_matmul_zero(self):
        rng = np.random.default_rng(9)
        a = rnd(rng, 3, 4)
        assert np.all(ad.matmul(Tensor(a), Tensor(np.zeros((4, 2)))).data == 0.0)

    def test_matmul_matches_loop_oracle(self):
        rng = np.random.default_rng(10)
        a, b = rnd(rng, 4, 6), rnd(rng, 6, 3)
        got = ad.matmul(Tensor(a), Tensor(b)).data
        assert np.max(np.abs(got - oracles.matmul_loops(a, b))) <= 1e-12

    def test_matmul_shape_error(self):
        with pytest.raises(ShapeError):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    def test_add_identity_and_zero(self):
        rng = np.random.default_rng(11)
        a = rnd(rng, 5)
        np.testing.assert_array_equal(ad.add(Tensor(a), Tensor(np.zeros(5))).data, a)

    def test_add_random_vs_loop(self):
        rng = np.random.default_rng(12)
        a, b = rnd(rng, 7), rnd(rng, 7)
        want = np.array([x + y for x, y in zip(a, b)])
        assert np.max(np.abs(ad.add(Tensor(a), Tensor(b)).data - want)) <= 1e-12

    def test_add_broadcast_gradient(self):
        x = ad.parameter(np.zeros((3, 2)))
        bias = ad.parameter(np.array([1.0, -1.0]))
        loss = ad.sum_all(ad.add(x, bias))
        loss.backward()
        np.testing.assert_array_equal(bias.grad, [3.0, 3.0])

    def test_scale_identity_zero_random(self):
        rng = np.random.default_rng(13)
        a = rnd(rng, 4)
        np.testing.assert_array_equal(ad.scale(Tensor(a), 1.0).data, a)
        assert np.all(ad.scale(Tensor(a), 0.0).data == 0.0)
        want = np.array([2.5 * x for x in a])
        assert np.max(np.abs(ad.scale(Tensor(a), 2.5).data - want)) <= 1e-12

    def test_mean_identity_zero_random(self):
        assert ad.mean(Tensor([7.0])).item() == 7.0
        assert ad.mean(Tensor(np.zeros(5))).item() == 0.0
        rng = np.random.default_rng(15)
        a = rnd(rng, 9)
        assert abs(ad.mean(Tensor(a)).item() - sum(a) / 9) <= 1e-12

    def test_mul_and_sum_all(self):
        a = Tensor([1.0, 2.0, 3.0])
        b = Tensor([4.0, 5.0, 6.0])
        assert ad.sum_all(ad.mul(a, b)).item() == 32.0

    def test_reshape_round_trip(self):
        rng = np.random.default_rng(16)
        a = rnd(rng, 2, 6)
        out = ad.reshape(Tensor(a), (3, 4))
        np.testing.assert_array_equal(out.data.ravel(), a.ravel())

    def test_log_gradient(self):
        x = ad.parameter(np.array([2.0]))
        loss = ad.sum_all(ad.log(x))
        loss.backward()
        np.testing.assert_allclose(x.grad, [0.5], atol=1e-15)


class TestBackward:
    def test_quadratic_gradient(self):
        x = ad.parameter(np.array([3.0]))
        loss = ad.sq_l2_diff(x, Tensor(np.zeros(1)))
        (g,) = ad.gradients(loss, [x])
        np.testing.assert_array_equal(g, [6.0])

    def test_unused_parameter_gets_zero(self):
        x = ad.parameter(np.array([3.0]))
        p = ad.parameter(np.array([1.0, 2.0]))
        loss = ad.sq_l2_diff(x, Tensor(np.zeros(1)))
        gx, gp = ad.gradients(loss, [x, p])
        np.testing.assert_array_equal(gp, np.zeros(2))

    def test_non_scalar_loss_rejected(self):
        x = ad.parameter(np.ones((2, 2)))
        with pytest.raises(ShapeError):
            ad.add(x, x).backward()

    def test_gradient_of_wrong_shape_rejected(self):
        # A backward rule that returned a broadcastable shape used to be
        # summed in silently.
        x = ad.parameter(np.zeros((2, 3)))
        with pytest.raises(ShapeError, match="gradient"):
            ad._accum(x, np.ones(3))
        x.grad = np.zeros((2, 3))
        with pytest.raises(ShapeError, match="gradient"):
            ad._accum(x, np.ones((1, 3)))

    def test_shared_node_accumulates(self):
        x = ad.parameter(np.array([2.0]))
        # loss = (x * x) + x  ->  d/dx = 2x + 1 = 5
        loss = ad.sum_all(ad.add(ad.mul(x, x), x))
        loss.backward()
        np.testing.assert_allclose(x.grad, [5.0], atol=1e-15)

    def test_shared_first_gradient_is_not_written_by_later_contributions(self):
        # add hands one upstream array to both operands; a's second use
        # must not reach b's gradient through it.
        a = ad.parameter(np.array([1.0, 2.0]))
        b = ad.parameter(np.array([3.0, 4.0]))
        s = ad.add(a, b)
        loss = ad.sum_all(ad.add(s, ad.scale(a, 5.0)))
        ga, gb = ad.gradients(loss, [a, b])
        np.testing.assert_array_equal(gb, [1.0, 1.0])
        np.testing.assert_array_equal(ga, [6.0, 6.0])
        np.testing.assert_array_equal(s.grad, [1.0, 1.0])

    def test_micro_network_matches_finite_differences(self):
        # two points through widths [3, 4], pooled, densely mapped to 2 classes
        rng = np.random.default_rng(17)
        pts = rng.normal(size=(2, 3))
        w1 = ad.parameter(None, rng, (3, 4))
        b1 = ad.parameter(np.zeros(4))
        w2 = ad.parameter(None, rng, (4, 2))
        b2 = ad.parameter(np.zeros(2))
        target = np.array([1.0, 0.0])
        params = [w1, b1, w2, b2]

        def build():
            pooled = ad.max_pool_points(Tensor(pts), w1, b1)
            logits = ad.add(ad.matmul(ad.reshape(pooled, (1, 4)), w2), b2)
            probs = ad.softmax(logits, axis=-1)
            return ad.sq_l2_diff(probs, Tensor(target.reshape(1, 2)))

        analytic = ad.gradients(build(), params)
        numeric = oracles.central_differences(lambda: build().item(), params)
        for a, n in zip(analytic, numeric):
            assert oracles.grads_close(a, n, tol=1e-3)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_special_ops_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        c = ad.parameter(None, rng, (1, 1, 3), std=0.5)
        d = ad.parameter(None, rng, (3, 2, 4), std=0.5)
        k = ad.parameter(None, rng, (2, 2, 3, 4), std=0.5)
        params = [c, d, k]

        def build():
            w = ad.channel_contract(c, d)
            grid = ad.reshape(w, (1, 2, 4))
            expanded = ad.transposed_conv2d(grid, k)
            return ad.sq_l2_diff(expanded, Tensor(np.zeros(expanded.shape)))

        analytic = ad.gradients(build(), params)
        numeric = oracles.central_differences(lambda: build().item(), params)
        for a, n in zip(analytic, numeric):
            assert oracles.grads_close(a, n, tol=1e-3)

    def test_finite_outputs_on_finite_inputs(self):
        rng = np.random.default_rng(18)
        big = Tensor(rng.normal(size=8) * 500.0)
        assert np.all(np.isfinite(ad.softmax(big).data))
        chain = ad.mean(ad.relu(ad.reshape(ad.scale(big, 3.0), (8, 1)), Tensor([[1.0]]), Tensor([0.0])))
        assert np.isfinite(chain.item())
