import numpy as np
import pytest

from echokit import ef, lvd
from echokit.convops import depthwise_nd
from echokit.errors import ShapeError
from echokit.nn import (
    Conv1d,
    Dense,
    DepthwiseSeparable2d,
    FrameEncoder,
    GlobalAvgPool2d,
    GlobalMaxPool1d,
    MaxPool2d,
    ModelGraph,
    Swish,
    count_params,
    swish,
    swish_derivative,
    value_and_grad,
)
from echokit.nn import layers
from echokit.nn.layers import sigmoid
from echokit.nn.gradcheck import LAYER_KINDS, check_layer, check_layer_kind

from oracles import (
    conv1d_layer_loops,
    dense_loops,
    depthwise_nd_reference,
    depthwise_separable2d_forward_reference,
    max_pool2d_backward_reference,
    max_pool2d_forward_reference,
    max_pool2d_loops,
    sigmoid_reference,
)


def tie_heavy(rng, shape):
    """Values from {-1, -0.5, -0.0, 0.0, 0.5, 1}: most 2x2 windows hold ties."""
    x = rng.integers(-2, 3, shape) * 0.5
    x[rng.uniform(size=shape) < 0.2] = -0.0
    return x


def assert_bits_equal(got, want):
    """Equal values and equal signs of zero."""
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


class TestConv1d:
    def test_scalar_scaling(self):
        layer = Conv1d(1, 1, 1, padding="valid")
        layer.w[...] = 2.0
        layer.b[...] = 0.0
        out = layer.forward(np.array([[1.0], [2.0], [3.0]]), {})
        np.testing.assert_allclose(out[:, 0], [2.0, 4.0, 6.0])

    def test_kernel_spanning_sequence(self):
        layer = Conv1d(2, 3, 4, padding="valid", rng=np.random.default_rng(0))
        out = layer.forward(np.random.default_rng(1).standard_normal((4, 2)), {})
        assert out.shape == (1, 3)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        for padding in ("same", "valid"):
            layer = Conv1d(3, 4, 3, padding=padding, rng=rng)
            x = rng.standard_normal((7, 3))
            got = layer.forward(x, {})
            want = conv1d_layer_loops(x, layer.w, layer.b, padding)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_too_short_sequence_rejected(self):
        layer = Conv1d(1, 1, 5, padding="valid")
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((3, 1)), {})


class TestSwish:
    def test_zero(self):
        assert swish(0.0) == 0.0

    def test_large_input_asymptote(self):
        assert abs(swish(20.0) - 20.0) <= 1e-7

    def test_derivative_at_zero(self):
        assert swish_derivative(0.0) == pytest.approx(0.5)

    def test_layer_matches_function(self):
        x = np.linspace(-3, 3, 13)
        layer = Swish()
        np.testing.assert_allclose(layer.forward(x, {}), swish(x))


class TestGlobalMaxPool:
    def test_single_row_identity(self):
        x = np.array([[3.0, -1.0, 2.0]])
        out = GlobalMaxPool1d().forward(x, {})
        np.testing.assert_array_equal(out, x[0])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 4))
        base = GlobalMaxPool1d().forward(x, {})
        shuffled = GlobalMaxPool1d().forward(x[rng.permutation(6)], {})
        np.testing.assert_array_equal(base, shuffled)

    def test_columnwise_max(self):
        x = np.array([[1.0, 5.0], [3.0, 2.0], [2.0, 9.0]])
        np.testing.assert_array_equal(GlobalMaxPool1d().forward(x, {}), [3.0, 9.0])

    def test_backward_mass_at_argmax_only(self):
        x = np.array([[1.0, 5.0], [3.0, 2.0], [2.0, 9.0]])
        layer = GlobalMaxPool1d()
        cache = {}
        layer.forward(x, cache)
        g = layer.backward(np.array([1.0, 2.0]), cache)
        want = np.zeros((3, 2))
        want[1, 0] = 1.0
        want[2, 1] = 2.0
        np.testing.assert_array_equal(g, want)

    def test_backward_tie_goes_to_first(self):
        x = np.array([[4.0], [4.0], [1.0]])
        layer = GlobalMaxPool1d()
        cache = {}
        layer.forward(x, cache)
        g = layer.backward(np.array([1.0]), cache)
        np.testing.assert_array_equal(g[:, 0], [1.0, 0.0, 0.0])

    def test_gradient_mass_conserved(self):
        rng = np.random.default_rng(4)
        layer = GlobalMaxPool1d()
        cache = {}
        layer.forward(rng.standard_normal((8, 5)), cache)
        upstream = rng.standard_normal(5)
        g = layer.backward(upstream, cache)
        assert g.sum() == pytest.approx(upstream.sum())

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            GlobalMaxPool1d().forward(np.zeros((0, 3)), {})


class TestDense:
    def test_identity_weights(self):
        layer = Dense(3, 3)
        layer.w[...] = np.eye(3)
        layer.b[...] = 0.0
        x = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(layer.forward(x, {}), x)

    def test_zero_weights_give_bias(self):
        layer = Dense(3, 2)
        layer.w[...] = 0.0
        layer.b[...] = [4.0, -1.0]
        np.testing.assert_allclose(layer.forward(np.ones(3), {}), [4.0, -1.0])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        layer = Dense(5, 4, rng=rng)
        x = rng.standard_normal(5)
        np.testing.assert_allclose(
            layer.forward(x, {}), dense_loops(x, layer.w, layer.b), atol=1e-12
        )


class TestPooling2d:
    def test_max_pool_halves_and_batches(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 8, 6, 2))
        out = MaxPool2d().forward(x, {})
        assert out.shape == (3, 4, 3, 2)
        assert out[1, 0, 0, 1] == x[1, :2, :2, 1].max()

    @pytest.mark.parametrize("shape", [(3, 6, 8, 2), (2, 7, 5, 3), (2, 3, 4, 6, 2), (5, 4, 1)])
    def test_max_pool_matches_loops_on_ties(self, shape):
        rng = np.random.default_rng(sum(shape))
        x = tie_heavy(rng, shape)
        h2, w2 = shape[-3] // 2, shape[-2] // 2
        dout = rng.standard_normal((*shape[:-3], h2, w2, shape[-1]))
        layer, cache = MaxPool2d(), {}
        out = layer.forward(x, cache)
        dx = layer.backward(dout, cache)
        want_out, want_dx = max_pool2d_loops(x, dout)
        np.testing.assert_array_equal(out, want_out)
        np.testing.assert_array_equal(dx, want_dx)
        assert np.count_nonzero(dx) == np.count_nonzero(dout)

    def test_max_pool_odd_trailing_row_and_col_get_no_gradient(self):
        x = np.arange(2 * 5 * 7 * 1, dtype=np.float64).reshape(2, 5, 7, 1)
        layer, cache = MaxPool2d(), {}
        assert layer.forward(x, cache).shape == (2, 2, 3, 1)
        dx = layer.backward(np.ones((2, 2, 3, 1)), cache)
        assert not dx[:, 4, :, :].any() and not dx[:, :, 6, :].any()
        assert dx.sum() == 12.0

    def test_max_pool_cache_holds_references_only(self):
        x = np.random.default_rng(17).standard_normal((2, 6, 6, 3))
        cache = {}
        out = MaxPool2d().forward(x, cache)
        assert cache["out"] is out
        assert all(view.base is x for view in cache["views"])

    def test_max_pool_nan_window_passes_no_gradient(self):
        x = np.array([[[1.0], [np.nan], [2.0], [3.0]], [[0.0], [4.0], [5.0], [1.0]]])
        layer, cache = MaxPool2d(), {}
        out = layer.forward(x, cache)
        assert np.isnan(out[0, 0, 0]) and out[0, 1, 0] == 5.0
        dx = layer.backward(np.array([[[1.0], [1.0]]]), cache)
        np.testing.assert_array_equal(dx[..., 0], [[0, 0, 0, 0], [0, 0, 1, 0]])

    def test_max_pool_signed_zero_tie_keeps_first(self):
        x = np.array([[[-0.0], [0.0]], [[0.0], [-0.0]]])
        assert np.signbit(MaxPool2d().forward(x, {})).all()
        assert not np.signbit(MaxPool2d().forward(-x, {})).any()

    def test_global_avg_pool(self):
        x = np.random.default_rng(7).standard_normal((4, 4, 3))
        np.testing.assert_allclose(
            GlobalAvgPool2d().forward(x, {}), x.mean(axis=(0, 1))
        )


class TestReferenceBitIdentity:
    """The rewritten layers reproduce the earlier implementations bit for bit."""

    def test_sigmoid(self):
        x = np.concatenate([
            np.linspace(-800.0, 800.0, 3201),
            [-0.0, 0.0, 5e-324, -5e-324, 37.5, -37.5, -709.5, -745.2, -746.0],
        ])
        with np.errstate(under="ignore"):
            want = sigmoid_reference(x)
        assert_bits_equal(sigmoid(x), want)
        assert sigmoid(0.0) == 0.5 and np.ndim(sigmoid(0.0)) == 0

    def test_extremes_raise_nothing(self):
        x = np.array([-800.0, 800.0])
        with np.errstate(all="raise"):
            np.testing.assert_array_equal(sigmoid(x), [0.0, 1.0])
            np.testing.assert_array_equal(swish(x), [-0.0, 800.0])
            np.testing.assert_array_equal(swish_derivative(x), [0.0, 1.0])
            assert sigmoid(-800.0) == 0.0

    def test_swish_forward_and_backward(self):
        rng = np.random.default_rng(13)
        x = np.concatenate([rng.standard_normal((3, 4, 4, 2)).ravel() * 6, [0.0, -0.0]])
        dout = rng.standard_normal(x.shape)
        layer, cache = Swish(), {}
        s = sigmoid_reference(x)
        assert_bits_equal(layer.forward(x, cache), x * s)
        assert_bits_equal(layer.backward(dout, cache), dout * (s + x * s * (1.0 - s)))

    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_depthwise_nd(self, padding):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((2, 3, 9, 7, 4))
        kernels = rng.standard_normal((4, 3, 5))
        assert_bits_equal(
            depthwise_nd(x, kernels, padding), depthwise_nd_reference(x, kernels, padding)
        )

    @pytest.mark.parametrize("shape", [(5, 16, 16, 1), (3, 8, 8, 6), (9, 7, 3)])
    def test_depthwise_separable_forward_and_backward(self, shape):
        rng = np.random.default_rng(shape[0])
        x = rng.standard_normal(shape)
        layer = DepthwiseSeparable2d(shape[-1], 5, 3, rng=rng)
        layer.b[...] = rng.standard_normal(5)
        dout = rng.standard_normal((*shape[:-1], 5))
        cache, ref_cache = {}, {}
        got = layer.forward(x, cache)
        want = depthwise_separable2d_forward_reference(
            x, layer.depthwise, layer.pointwise, layer.b, ref_cache
        )
        assert_bits_equal(got, want)
        for key in ("xp", "mid"):
            assert_bits_equal(cache[key], ref_cache[key])
        dx = layer.backward(dout, cache)
        grads = [g.copy() for g in layer.grads()]
        layer.zero_grads()
        assert_bits_equal(dx, layer.backward(dout, ref_cache))
        for g, g_ref in zip(grads, layer.grads()):
            assert_bits_equal(g, g_ref)

    @pytest.mark.parametrize("shape", [(4, 8, 6, 3), (2, 3, 5, 7, 2), (6, 6, 1)])
    def test_max_pool_forward_and_backward(self, shape):
        rng = np.random.default_rng(sum(shape) + 1)
        x = tie_heavy(rng, shape)
        layer, cache, ref_cache = MaxPool2d(), {}, {}
        out = layer.forward(x, cache)
        assert_bits_equal(out, max_pool2d_forward_reference(x, ref_cache))
        dout = rng.standard_normal(out.shape)
        assert_bits_equal(
            layer.backward(dout, cache), max_pool2d_backward_reference(dout, ref_cache)
        )

    @staticmethod
    def _use_reference_layers(monkeypatch):
        monkeypatch.setattr(layers, "sigmoid", sigmoid_reference)
        monkeypatch.setattr(
            DepthwiseSeparable2d, "forward",
            lambda self, x, cache: depthwise_separable2d_forward_reference(
                x, self.depthwise, self.pointwise, self.b, cache
            ),
        )
        monkeypatch.setattr(
            MaxPool2d, "forward", lambda self, x, cache: max_pool2d_forward_reference(x, cache)
        )
        monkeypatch.setattr(
            MaxPool2d, "backward",
            lambda self, dout, cache: max_pool2d_backward_reference(dout, cache),
        )

    def _check_model(self, monkeypatch, graph, batch, loss):
        preds = [graph.forward(x) for x, _ in batch]
        value, grads = value_and_grad(graph, batch, loss)
        grads = [g.copy() for g in grads]
        self._use_reference_layers(monkeypatch)
        for (x, _), pred in zip(batch, preds):
            assert_bits_equal(pred, graph.forward(x))
        ref_value, ref_grads = value_and_grad(graph, batch, loss)
        assert value == ref_value
        assert len(grads) == len(ref_grads)
        for g, g_ref in zip(grads, ref_grads):
            assert_bits_equal(g, g_ref)

    def test_ef_value_and_grad(self, monkeypatch):
        rng = np.random.default_rng(15)
        model = ef.EfModel.build(ef.EfModelConfig(frame_shape=(16, 16), encoder_dim=16, seed=4))
        for layer in model.graph.layers[0].stack:
            if isinstance(layer, DepthwiseSeparable2d):
                layer.b[...] = rng.uniform(-0.1, 0.1, layer.b.shape)
        clips = [rng.uniform(0, 1, (16, 16, 7)), tie_heavy(rng, (16, 16, 5)), np.zeros((16, 16, 4))]
        batch = [(model.prepare_input(c), np.array([0.4 + 0.1 * k])) for k, c in enumerate(clips)]
        self._check_model(monkeypatch, model.graph, batch, "mae")

    def test_lvd_value_and_grad(self, monkeypatch):
        rng = np.random.default_rng(16)
        model = lvd.LvdModel.build(
            lvd.LvdModelConfig(frame_shape=(16, 16), channels=(4, 8, 8), hidden=16, seed=5)
        )
        frames = [rng.uniform(0, 1, (16, 16)), tie_heavy(rng, (16, 16)), np.zeros((16, 16))]
        objective = lvd.LvdObjective(lvd.LossWeights(0.5, 0.2, 0.4), model.coord_scale())
        batch = []
        for frame in frames:
            points = rng.uniform(2, 13, (4, 2))
            lengths = np.linalg.norm(np.diff(points, axis=0), axis=1)
            batch.append((model.prepare_input(frame), (points, 1.0, lengths)))
        self._check_model(monkeypatch, model.graph, batch, objective)


class TestFrameEncoder:
    @staticmethod
    def _encoder():
        rng = np.random.default_rng(8)
        return FrameEncoder([
            DepthwiseSeparable2d(1, 4, 3, rng=rng), Swish(), MaxPool2d(),
            GlobalAvgPool2d(),
        ])

    def test_identical_frames_identical_features(self):
        frame = np.random.default_rng(9).uniform(0, 1, (8, 8))
        clip = np.stack([frame, frame], axis=2)
        feats = self._encoder().forward(clip, {})
        np.testing.assert_array_equal(feats[0], feats[1])

    def test_single_frame_shape(self):
        clip = np.random.default_rng(10).uniform(0, 1, (8, 8, 1))
        assert self._encoder().forward(clip, {}).shape == (1, 4)

    def test_frame_permutation_permutes_rows(self):
        rng = np.random.default_rng(11)
        clip = rng.uniform(0, 1, (8, 8, 5))
        enc = self._encoder()
        feats = enc.forward(clip, {})
        perm = rng.permutation(5)
        feats_perm = enc.forward(clip[:, :, perm], {})
        np.testing.assert_allclose(feats_perm, feats[perm], atol=1e-14)


class TestGradients:
    @pytest.mark.parametrize("kind", LAYER_KINDS)
    def test_every_layer_kind_matches_finite_differences(self, kind):
        assert check_layer_kind(kind, n_instances=20, seed=42) <= 1e-4

    def test_frame_encoder_gradients(self):
        rng = np.random.default_rng(12)
        enc = FrameEncoder([
            DepthwiseSeparable2d(1, 3, 3, rng=rng), Swish(), MaxPool2d(),
            GlobalAvgPool2d(),
        ])
        clip = rng.uniform(0, 1, (6, 6, 3))
        r = rng.standard_normal((3, 3))
        assert check_layer(enc, clip, r) <= 1e-4


class TestCountParams:
    def test_pooling_only_zero(self):
        model = ModelGraph([GlobalMaxPool1d()])
        assert count_params(model) == 0

    def test_dense_with_bias(self):
        assert count_params(Dense(4, 3)) == 15

    def test_default_ef_head_hand_count(self):
        # conv1d 64->128 k7:  7*64*128 + 128 = 57,472
        # conv1d 128->256 k5: 5*128*256 + 256 = 164,096
        # dense 256->256 x2:  2 * (256*256 + 256) = 131,584
        # dense 256->1:       256 + 1 = 257
        d = 64
        head = ModelGraph([
            Conv1d(d, 128, 7), Swish(),
            Conv1d(128, 256, 5), GlobalMaxPool1d(),
            Dense(256, 256), Swish(),
            Dense(256, 256), Swish(),
            Dense(256, 1),
        ])
        assert count_params(head) == 57_472 + 164_096 + 131_584 + 257
