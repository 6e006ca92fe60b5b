import tracemalloc
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


def mlp_reference(x, ws, bs, g):
    """max_pool_points and its gradients from the full activation blocks of
    every layer: the pooled output, the input gradient, then each layer's
    weight gradient and each layer's bias gradient."""
    hs, zs = [x], []
    for w, b in zip(ws, bs):
        zs.append(hs[-1] @ w + b)
        hs.append(np.maximum(zs[-1], 0.0))
    first = np.argmax(hs[-1], axis=-2)[..., None, :]
    ga = np.zeros_like(hs[-1])
    np.put_along_axis(ga, first, g[..., None, :], axis=-2)
    gws, gbs = [], []
    for h, z, w in zip(hs[-2::-1], zs[::-1], ws[::-1]):
        ga = ga * (z > 0.0)
        flat = ga.reshape(-1, ga.shape[-1])
        gws.insert(0, h.reshape(-1, h.shape[-1]).T @ flat)
        gbs.insert(0, flat.sum(axis=0))
        ga = ga @ w.T
    return [hs[-1].max(axis=-2), ga, *gws, *gbs]


def chunk_objects(objs, n, f):
    """Make max_pool_points run ``objs`` objects of ``n`` points at a time
    through an MLP whose widest layer is f wide."""
    return mock.patch.object(ad, "_POOL_CHUNK", objs * n * f)


def pool_grads(x, ws, bs, g):
    x, ws, bs = ad.parameter(x), [ad.parameter(w) for w in ws], [ad.parameter(b) for b in bs]
    out = ad.max_pool_points(x, ws, bs)
    ad.sum_all(ad.mul(out, Tensor(g))).backward()
    return [out.data, x.grad, *(w.grad for w in ws), *(b.grad for b in bs)]


def tied_mlp(rng, widths):
    """Random layers in which column 1 carries x[..., 0] + 0.5 to the output
    (so it ties wherever x[..., 0] does), and the last layer's column 4 is
    below zero everywhere."""
    ws = [rng.normal(size=(wi, wo)) for wi, wo in zip(widths, widths[1:])]
    bs = [rng.normal(size=wo) for wo in widths[1:]]
    for w, b in zip(ws, bs):
        w[:, 1] = np.eye(w.shape[0])[:, 0 if w is ws[0] else 1]
        b[1] = 0.5 if w is ws[0] else 0.0
    bs[-1][4] = -50.0
    return ws, bs


# One, two (the last chunk holds a single object) and all of five objects
# per chunk.
CHUNK_OBJECTS = [1, 2, 5]
# One, two and three layers; the last is 6 wide and the widest.
MLP_WIDTHS = [(3, 6), (3, 5, 6), (3, 5, 4, 6)]


class TestMaxPoolPoints:
    """The shared pointwise MLP fused with the max over points."""

    def test_definition(self):
        out = ad.max_pool_points(Tensor([[1.0, 5.0], [3.0, 2.0]]), [Tensor(np.eye(2))], [Tensor(np.zeros(2))])
        np.testing.assert_array_equal(out.data, [3.0, 5.0])

    def test_single_point_identity_after_activation(self):
        out = ad.max_pool_points(Tensor([[4.0, -7.0]]), [Tensor(np.eye(2))], [Tensor(np.zeros(2))])
        np.testing.assert_array_equal(out.data, [4.0, 0.0])

    def test_hidden_layer_activation_applies_before_the_next(self):
        # Layer 1 gives (1, -2) then (-3, 4); its ReLU zeroes the negatives,
        # so layer 2's sum column reads 1 and 4, not -1 and 1.
        x = Tensor([[1.0, -2.0], [-3.0, 4.0]])
        out = ad.max_pool_points(x, [Tensor(np.eye(2)), Tensor([[1.0], [1.0]])],
                                 [Tensor(np.zeros(2)), Tensor([0.0])])
        np.testing.assert_array_equal(out.data, [4.0])

    @pytest.mark.parametrize("widths", MLP_WIDTHS)
    @pytest.mark.parametrize("shape", [(13, 3), (5, 13, 3), (5, 2, 3)])
    @pytest.mark.parametrize("objs", CHUNK_OBJECTS)
    def test_matches_numpy_reference(self, shape, objs, widths):
        rng = np.random.default_rng(21)
        x = rng.normal(size=shape)
        x[..., 0] = rng.integers(0, 3, size=shape[:-1])
        ws, bs = tied_mlp(rng, widths)
        g = rng.normal(size=shape[:-2] + (6,))
        assert np.any(np.sum(x[..., 0] == x[..., 0].max(axis=-1, keepdims=True), axis=-1) > 1)
        with chunk_objects(objs, shape[-2], 6):
            got = pool_grads(x, ws, bs, g)
        want = mlp_reference(x, ws, bs, g)
        # The dead column: no output, no last-layer bias gradient.
        assert np.all(got[0][..., 4] == 0.0) and np.all(got[-1][4] == 0.0)
        for a, r in zip(got, want):
            assert a.shape == r.shape
            assert np.max(np.abs(a - r)) <= 1e-12

    @pytest.mark.parametrize("widths", MLP_WIDTHS)
    def test_object_larger_than_a_chunk_is_multiplied_whole(self, widths):
        rng = np.random.default_rng(22)
        x, g = rng.normal(size=(3, 7, 3)), rng.normal(size=(3, 6))
        ws, bs = tied_mlp(rng, widths)
        with mock.patch.object(ad, "_POOL_CHUNK", 1):
            got = pool_grads(x, ws, bs, g)
        for a, r in zip(got, mlp_reference(x, ws, bs, g)):
            assert np.max(np.abs(a - r)) <= 1e-12

    def test_chunk_is_sized_by_the_widest_layer(self):
        # The chunk holds one object's 40-wide hidden layer (400
        # activations); sized by the 2-wide last layer, it would hold all
        # three objects.
        rng = np.random.default_rng(24)
        x = rng.normal(size=(3, 10, 3))
        ws = [Tensor(rng.normal(size=(3, 40))), Tensor(rng.normal(size=(40, 2)))]
        bs = [Tensor(rng.normal(size=40)), Tensor(rng.normal(size=2))]
        seen = []
        real = np.maximum

        def spy(a, *args, **kwargs):
            if a.ndim == 2 and a.shape[1] == 40:
                seen.append(a.shape[0])
            return real(a, *args, **kwargs)

        with mock.patch.object(ad, "_POOL_CHUNK", 40 * 10), mock.patch.object(ad.np, "maximum", spy):
            ad.max_pool_points(Tensor(x), ws, bs)
        assert seen == [10, 10, 10]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 8), st.sampled_from(CHUNK_OBJECTS),
           st.integers(0, 2 ** 32 - 1))
    def test_permutation_invariance_bitwise(self, n, f, objs, seed):
        # Small integers make every product exact, whatever the BLAS order.
        rng = np.random.default_rng(seed)
        x = rng.integers(-4, 5, size=(5, n, 3)).astype(float)
        ws = [Tensor(rng.integers(-4, 5, size=shape).astype(float)) for shape in ((3, 4), (4, f))]
        bs = [Tensor(rng.integers(-4, 5, size=w.shape[1]).astype(float)) for w in ws]
        perm = rng.permutation(n)
        with chunk_objects(objs, n, max(4, f)):
            a = ad.max_pool_points(Tensor(x), ws, bs).data
            c = ad.max_pool_points(Tensor(x[:, perm]), ws, bs).data
        assert np.array_equal(a, c)

    @pytest.mark.parametrize("objs", CHUNK_OBJECTS)
    def test_tie_breaks_to_lowest_index(self, objs):
        # Every object's column 0 ties at 2.0; its gradient must land on row 0.
        x = ad.parameter(np.tile([[2.0, 1.0], [2.0, 3.0]], (5, 1, 1)))
        with chunk_objects(objs, 2, 2):
            ad.sum_all(ad.max_pool_points(x, [Tensor(np.eye(2))], [Tensor(np.zeros(2))])).backward()
        np.testing.assert_array_equal(x.grad, np.tile([[1.0, 0.0], [0.0, 1.0]], (5, 1, 1)))

    @pytest.mark.parametrize("objs", CHUNK_OBJECTS)
    @pytest.mark.parametrize("obj", [0, 4])
    def test_nan_reaches_the_output(self, objs, obj):
        out = ad.max_pool_points(Tensor([[1.0, 0.0], [3.0, 2.0]]), [Tensor(np.eye(2))], [Tensor([0.0, np.nan])])
        assert out.data[0] == 3.0 and np.isnan(out.data[1])
        # A NaN point in the first object's chunk or in the last one, through
        # a hidden layer.
        one = [Tensor([[1.0]])], [Tensor([0.0])]
        for ws, bs in (one, (one[0] * 2, one[1] * 2)):
            with chunk_objects(objs, 3, 1):
                for row in (0, 2):
                    x = np.tile([[1.0], [3.0], [0.5]], (5, 1, 1))
                    x[obj, row] = np.nan
                    out = ad.max_pool_points(Tensor(x), ws, bs).data
                    assert np.isnan(out[obj, 0])
                    np.testing.assert_array_equal(np.delete(out, obj, axis=0), 3.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 5), st.sampled_from(CHUNK_OBJECTS),
           st.integers(0, 2 ** 32 - 1))
    def test_gradient_lands_on_first_maximum(self, n, f, objs, seed):
        # Few distinct values, so columns tie often; an all-zero column
        # sits below the activation and gets no gradient.  The identity
        # hidden layer passes the points through unchanged.
        x = ad.parameter(np.random.default_rng(seed).integers(0, 3, size=(5, n, f)).astype(float))
        eye, zero = Tensor(np.eye(f)), Tensor(np.zeros(f))
        with chunk_objects(objs, n, f):
            ad.sum_all(ad.max_pool_points(x, [eye, eye], [zero, zero])).backward()
        want = np.zeros_like(x.data)
        np.put_along_axis(want, np.argmax(x.data, axis=1)[:, None], 1.0, axis=1)
        want *= x.data.max(axis=1, keepdims=True) > 0
        np.testing.assert_array_equal(x.grad, want)

    @pytest.mark.parametrize("widths", [(3, 4), (3, 5, 4)])
    @pytest.mark.parametrize("shape", [(6, 3), (5, 4, 3)])
    def test_gradients_match_central_differences(self, shape, widths):
        rng = np.random.default_rng(23)
        x = ad.parameter(None, rng, shape, std=1.0)
        ws = [ad.parameter(None, rng, (wi, wo), std=1.0) for wi, wo in zip(widths, widths[1:])]
        bs = [ad.parameter(None, rng, (wo,), std=0.1) for wo in widths[1:]]
        bs[-1].data[-1] = -50.0
        target = Tensor(rnd(rng, *shape[:-2], 4))
        params = [x, *ws, *bs]
        # Differences of 1e-4 must not cross a kink: no hidden pre-activation
        # near zero, no near-tie, no live column near zero.
        h = x.data
        for w, b in zip(ws[:-1], bs[:-1]):
            z = h @ w.data + b.data
            assert np.min(np.abs(z)) > 0.01
            h = np.maximum(z, 0.0)
        z = np.sort(h @ ws[-1].data + bs[-1].data, axis=-2)[..., :3]
        assert np.min(z[..., -1, :] - z[..., -2, :]) > 0.05 and np.min(np.abs(z[..., -1, :])) > 0.05

        def build():
            return ad.sq_l2_diff(ad.max_pool_points(x, ws, bs), target)

        with chunk_objects(2, shape[-2], 5):
            analytic = ad.gradients(build(), params)
            numeric = oracles.central_differences(lambda: build().item(), params)
        for a, n in zip(analytic, numeric):
            assert oracles.grads_close(a, n, tol=1e-3)

    def test_shape_mismatch_rejected(self):
        eye, zero = Tensor(np.eye(3)), Tensor(np.zeros(3))
        for x, ws, bs in [
            (np.zeros((2, 3)), [np.zeros((4, 2))], [np.zeros(2)]),
            (np.zeros((2, 0, 3)), [np.zeros((3, 2))], [np.zeros(2)]),
            (np.zeros((2, 3)), [eye, np.zeros((4, 2))], [zero, np.zeros(2)]),
            (np.zeros((2, 3)), [eye, eye], [zero, np.zeros(2)]),
            (np.zeros((2, 3)), [eye, eye], [zero]),
            (np.zeros((2, 3)), [], []),
        ]:
            with pytest.raises(ShapeError, match="max_pool_points"):
                ad.max_pool_points(Tensor(x), ws, bs)

    @pytest.mark.parametrize("widths", MLP_WIDTHS)
    def test_later_calls_leave_a_built_graph_intact(self, widths):
        # Calls between graph A's forward and its backward overwrite the
        # forward workspace; A must not hold any view of it.
        rng = np.random.default_rng(25)
        x, g = rng.normal(size=(5, 7, 3)), rng.normal(size=(5, 6))
        ws, bs = tied_mlp(rng, widths)
        with chunk_objects(2, 7, 6):
            want = pool_grads(x, ws, bs, g)
            a, xa = [ad.parameter(w) for w in ws], ad.parameter(x)
            ba = [ad.parameter(b) for b in bs]
            out = ad.max_pool_points(xa, a, ba)
            pool_grads(rng.normal(size=(3, 7, 3)), ws, bs, rng.normal(size=(3, 6)))
            ad.max_pool_points(Tensor(rng.normal(size=(5, 7, 3))), [Tensor(w) for w in ws],
                               [Tensor(b) for b in bs])
            ad.sum_all(ad.mul(out, Tensor(g))).backward()
        got = [out.data, xa.grad, *(w.grad for w in a), *(b.grad for b in ba)]
        for p, q in zip(got, want):
            assert np.array_equal(p, q)

    def test_backward_memory_does_not_grow_with_the_batch(self):
        # With one object per chunk, no array in backward holds more than one
        # object's (512 columns x 64 inputs) block of the last layer; what
        # grows with the batch is a few (batch, 512) arrays and the rows of
        # at most 8 critical points per object.
        rng = np.random.default_rng(26)
        ws = [ad.parameter(None, rng, shape) for shape in ((3, 64), (64, 512))]
        bs = [ad.parameter(None, rng, (w,)) for w in (64, 512)]

        def peak(n_objects):
            loss = ad.sum_all(ad.max_pool_points(Tensor(rng.normal(size=(n_objects, 8, 3))), ws, bs))
            for p in (*ws, *bs):
                p.grad = None
            tracemalloc.start()
            try:
                loss.backward()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        with chunk_objects(1, 8, 512):
            small, large = peak(4), peak(16)
        assert large < 1.25 * small

    @pytest.mark.parametrize("grad", [False, True])
    def test_repeated_forward_allocates_no_activation_block(self, grad):
        # The smallest activation block of one chunk (one object of 2048
        # points through the 16-wide layer) is 256 kB; everything else
        # forward builds is a few (f,) rows, at most 32 critical rows and
        # numpy's 64 kB buffer for the broadcast bias add.
        rng = np.random.default_rng(27)
        lift = ad.parameter if grad else Tensor
        ws = [lift(rng.normal(size=shape)) for shape in ((3, 16), (16, 32))]
        bs = [lift(rng.normal(size=w)) for w in (16, 32)]
        x = Tensor(rng.normal(size=(3, 2048, 3)))
        with chunk_objects(1, 2048, 32):
            ad.max_pool_points(x, ws, bs)
            tracemalloc.start()
            try:
                ad.max_pool_points(x, ws, bs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2048 * 16 * 8

    def test_forward_over_many_chunks_joins_one_layer_at_a_time(self):
        # Four chunks of four objects: the critical rows kept for backward
        # (three hidden layers and the input) are joined layer by layer, so
        # the forward peak stays near what the node keeps, not twice it.
        rng = np.random.default_rng(32)
        widths = (3, 32, 32, 32, 256)
        ws = [ad.parameter(rnd(rng, wi, wo)) for wi, wo in zip(widths, widths[1:])]
        bs = [ad.parameter(rnd(rng, wo)) for wo in widths[1:]]
        x = Tensor(rnd(rng, 16, 256, 3))
        with chunk_objects(4, 256, 256):
            ad.max_pool_points(x, ws, bs)
            tracemalloc.start()
            try:
                out = ad.max_pool_points(x, ws, bs)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert out.requires_grad
        assert peak < 1.5 * kept


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

    def test_graph_keeps_no_difference_array(self):
        # Two 1 MB operands: the node holds its scalar and closure, not
        # their 1 MB difference, and backward still gets the gradient.
        rng = np.random.default_rng(31)
        a, b = ad.parameter(rnd(rng, 1 << 17)), Tensor(rnd(rng, 1 << 17))
        tracemalloc.start()
        try:
            out = ad.sq_l2_diff(a, b)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 64 * 1024
        (g,) = ad.gradients(out, [a])
        assert g.tobytes() == (2.0 * (a.data - b.data)).tobytes()


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

    def test_gradients_leave_no_gradient_on_the_parameters(self):
        # The returned list is the only owner: nothing a parameter holds
        # keeps the step's gradients alive.
        x = ad.parameter(np.array([3.0]))
        p = ad.parameter(np.array([1.0, 2.0]))
        gx, gp = ad.gradients(ad.sq_l2_diff(x, Tensor(np.zeros(1))), [x, p])
        np.testing.assert_array_equal(gx, [6.0])
        assert x.grad is None and p.grad is None

    @pytest.mark.parametrize("op, shapes", [
        (ad.matmul, ((4, 3), (3, 2))),
        (ad.channel_contract, ((1, 1, 3), (3, 2, 4))),
        (ad.sq_l2_diff, ((2, 3), (2, 3))),
    ])
    def test_backward_forms_no_gradient_for_a_constant_operand(self, op, shapes):
        rng = np.random.default_rng(30)
        accum, reached = ad._accum, []

        def spy(t, g):
            reached.append(t)
            accum(t, g)

        for trainable in range(2):
            ts = [ad.parameter(rng.normal(size=s)) if i == trainable else Tensor(rng.normal(size=s))
                  for i, s in enumerate(shapes)]
            loss = ad.sum_all(op(*ts))
            reached.clear()
            with mock.patch.object(ad, "_accum", spy):
                loss.backward()
            assert all(t is not ts[1 - trainable] for t in reached)
            assert ts[trainable].grad is not None

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
            pooled = ad.max_pool_points(Tensor(pts), [w1], [b1])
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
