import math
import re

import numpy as np
import pytest

from echokit import convops, ef, lvd, parallel
from echokit.convops import sliding_accumulate, zero_pad
from echokit.datasets import build_ef_samples, build_lvd_samples
from echokit.errors import ConfigurationError, ShapeError
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
    value_and_grad,
)
from echokit.nn import layers
from echokit.nn.layers import sigmoid
from echokit.nn.gradcheck import LAYER_KINDS, check_layer, check_layer_kind
from echokit.synth import EfDatasetSpec, LvdDatasetSpec, LvdSceneParams

from oracles import (
    conv1d_layer_loops,
    dense_loops,
    depthwise_nd_reference,
    depthwise_separable2d_backward_reference,
    depthwise_separable2d_forward_reference,
    max_pool2d_backward_reference,
    max_pool2d_forward_reference,
    max_pool2d_loops,
    sigmoid_reference,
    swish_backward_reference,
    swish_forward_reference,
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


class TestPaddingRule:
    """Conv1d, DepthwiseSeparable2d and EfModelConfig reject a padding
    through convops.check_padding, with its error and message."""

    @staticmethod
    def message(padding, kernel_dims):
        with pytest.raises(ConfigurationError) as info:
            convops.check_padding(padding, kernel_dims)
        return re.escape(str(info.value))

    @pytest.mark.parametrize("padding, k", [("full", 3), ("same", 4)],
                             ids=["unknown", "even_same"])
    def test_conv1d(self, padding, k):
        with pytest.raises(ConfigurationError, match=self.message(padding, (k,))):
            Conv1d(2, 3, k, padding=padding)

    def test_depthwise_separable_even_kernel(self):
        with pytest.raises(ConfigurationError, match=self.message("same", (4,))):
            DepthwiseSeparable2d(2, 3, 4)

    @pytest.mark.parametrize("padding, head_kernels", [("full", (7, 5)), ("same", (7, 4))],
                             ids=["unknown", "even_same"])
    def test_ef_model_config(self, monkeypatch, padding, head_kernels):
        monkeypatch.setattr(ef.EfModel, "HEAD_KERNELS", head_kernels)
        with pytest.raises(ConfigurationError, match=self.message(padding, head_kernels)):
            ef.EfModelConfig(padding=padding)


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


def swish(x):
    """The Swish layer's output for an input array."""
    return Swish().forward(np.asarray(x, dtype=np.float64), {})


def swish_derivative(x):
    """The Swish layer's input gradient for an all-ones output gradient."""
    layer, cache = Swish(), {}
    layer.forward(np.asarray(x, dtype=np.float64), cache)
    return layer.backward(np.ones(np.shape(x)), cache)


class TestSwish:
    def test_zero(self):
        assert swish([0.0])[0] == 0.0

    def test_large_input_asymptote(self):
        assert abs(swish([20.0])[0] - 20.0) <= 1e-7

    def test_derivative_at_zero(self):
        assert swish_derivative([0.0])[0] == pytest.approx(0.5)

    def test_layer_matches_function(self):
        x = np.linspace(-3, 3, 13)
        np.testing.assert_allclose(swish(x), x / (1.0 + np.exp(-x)))

    def test_nan_stays_in_place_and_raises_nothing(self):
        """NaN policy of sigmoid and Swish: a NaN input gives NaN at the same
        position and nowhere else, with no floating-point error raised.
        The NaN's sign is left open."""
        x = np.array([np.nan, -2.0, -np.nan, 0.0, 3.0, np.nan, -800.0, 800.0])
        nan = np.isnan(x)
        with np.errstate(all="raise"):
            for out in (sigmoid(x), swish(x), swish_derivative(x)):
                np.testing.assert_array_equal(np.isnan(out), nan)


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

    def test_max_pool_backward_copies_gradient_bits(self):
        x = np.array([[[1.0], [0.0], [2.0], [3.0]], [[0.0], [0.0], [5.0], [1.0]]])
        nan = np.frombuffer(np.uint64(0x7FF8_0000_0000_0123).tobytes())[0]
        layer, cache = MaxPool2d(), {}
        layer.forward(x, cache)
        dx = layer.backward(np.array([[[-0.0], [nan]]]), cache)
        routed = np.zeros(x.shape, dtype=bool)
        routed[0, 0, 0] = routed[1, 2, 0] = True
        assert np.signbit(dx[0, 0, 0]) and dx[0, 0, 0] == 0.0
        assert dx[1, 2].tobytes() == nan.tobytes()
        assert not np.signbit(dx[~routed]).any() and not dx[~routed].any()

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
        layer, cache, ref_cache = Swish(), {}, {}
        out = layer.forward(x, cache)
        assert_bits_equal(out, swish_forward_reference(x, ref_cache))
        assert cache["out"] is out
        assert_bits_equal(
            layer.backward(dout, cache),
            swish_backward_reference(dout, ref_cache["x"], ref_cache["s"]),
        )

    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_depthwise_nd(self, padding):
        """The convolution core with one (W, C) row of per-channel weights
        per tap is the depthwise convolution; for "same", on zero_pad's
        output, as DepthwiseSeparable2d runs it."""
        rng = np.random.default_rng(14)
        x = rng.standard_normal((2, 3, 9, 7, 4))
        kernels = rng.standard_normal((4, 3, 5))
        padded = zero_pad(x, (1, 2, 0)) if padding == "same" else x
        want = depthwise_nd_reference(x, kernels, padding)
        width = want.shape[-2]
        rows = np.repeat(kernels.transpose(1, 2, 0)[:, :, None, :], width, axis=2)
        offsets = [(0, 0, i, j, 0) for i in range(3) for j in range(5)]
        assert_bits_equal(
            sliding_accumulate(padded, rows.reshape(15, width, 4), offsets, want.shape), want
        )

    @staticmethod
    def _check_depthwise_separable(shape, signed_zeros=False):
        rng = np.random.default_rng(shape[0])
        x = rng.standard_normal(shape)
        layer = DepthwiseSeparable2d(shape[-1], 5, 3, rng=rng)
        layer.b[...] = rng.standard_normal(5)
        dout = rng.standard_normal((*shape[:-1], 5))
        if signed_zeros:
            # Channel 0's taps all negative and dout zero in image rows 2-4:
            # in image row 3, channel 0's input gradient sums only
            # +0.0 * (negative weight) = -0.0 terms.
            layer.depthwise[0] = -np.abs(layer.depthwise[0])
            dout[..., 2:5, :, :] = 0.0
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
        assert_bits_equal(dx, depthwise_separable2d_backward_reference(layer, dout, ref_cache))
        for g, g_ref in zip(grads, layer.grads()):
            assert_bits_equal(g, g_ref)

    @pytest.mark.parametrize("shape, signed_zeros", [
        ((5, 16, 16, 1), False),
        ((3, 8, 8, 6), False),
        ((9, 7, 3), False),
        ((4, 8, 8, 2), True),
    ], ids=["shape0", "shape1", "shape2", "signed_zeros"])
    def test_depthwise_separable_forward_and_backward(self, shape, signed_zeros):
        self._check_depthwise_separable(shape, signed_zeros)

    @pytest.mark.parametrize("slab_rows", [2, 3])
    @pytest.mark.parametrize("shape", [(7, 6, 3), (5, 6, 6, 2)], ids=["rank3", "rank4"])
    def test_depthwise_separable_across_slabs(self, monkeypatch, shape, slab_rows):
        """Slabs of image rows, which the taps offset (rank 3, as in LVD),
        or of frames (rank 4, as in EF), with a shorter last slab."""
        assert shape[0] > slab_rows and shape[0] % slab_rows
        monkeypatch.setattr(convops, "SLAB_BYTES", slab_rows * 8 * math.prod(shape[1:]))
        self._check_depthwise_separable(shape, signed_zeros=True)

    @pytest.mark.parametrize("cpus", [2, 3], ids=["2cpus", "3cpus"])
    @pytest.mark.parametrize("shape", [(7, 6, 3), (5, 6, 6, 2)], ids=["rank3", "rank4"])
    def test_depthwise_separable_threaded(self, monkeypatch, thread_starts, usable_cpus,
                                          shape, cpus):
        """One-row slabs, swept in runs over 2 or 3 CPUs in both passes."""
        usable_cpus(cpus)
        monkeypatch.setattr(convops, "SLAB_BYTES", 8 * math.prod(shape[1:]))
        self._check_depthwise_separable(shape, signed_zeros=True)
        assert len(thread_starts) == 2 * (cpus - 1)

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
            DepthwiseSeparable2d, "backward", depthwise_separable2d_backward_reference
        )
        monkeypatch.setattr(
            Swish, "forward", lambda self, x, cache: swish_forward_reference(x, cache)
        )
        monkeypatch.setattr(
            Swish, "backward",
            lambda self, dout, cache: swish_backward_reference(dout, cache["x"], cache["s"]),
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


def test_models_at_shipped_shapes_sweep_single_slabs(monkeypatch, thread_starts, usable_cpus):
    """A training step of the default EF model on a default one-beat 16x16
    clip, and of the default LVD model on a 64x64 frame: every sweep is one
    slab, which calls no threading code and starts no thread."""
    usable_cpus(2)
    sweeps = []
    monkeypatch.setattr(parallel, "threaded_runs", lambda fn, n_pieces: sweeps.append(n_pieces))
    sample = build_ef_samples(EfDatasetSpec(n_videos=1, frame_dims=(16, 16), seed=2))[0]
    model = ef.EfModel.build(ef.EfModelConfig())
    value_and_grad(model.graph, [(model.prepare_input(sample.clip), np.array([0.5]))], "mae")
    frame = build_lvd_samples(LvdDatasetSpec(
        n_frames=1, scene=LvdSceneParams.for_frame((64, 64)), seed=2))[0].frame
    model = lvd.LvdModel.build(lvd.LvdModelConfig())
    points = np.array([[10.0, 12.0], [30.0, 50.0], [52.0, 20.0], [20.0, 40.0]])
    target = (points, 1.0, np.linalg.norm(np.diff(points, axis=0), axis=1))
    objective = lvd.LvdObjective(lvd.LossWeights(0.5, 0.2, 0.4), model.coord_scale())
    value_and_grad(model.graph, [(model.prepare_input(frame), target)], objective)
    assert sweeps == [] and thread_starts == []


class TestNonFinitePolicy:
    """What sigmoid and Swish give for NaN and infinite inputs."""

    def test_sigmoid_nan_gives_nan(self):
        # NaN's sign bit is left open.
        x = np.array([np.nan, -np.nan, 0.5])
        assert np.isnan(sigmoid(x)[:2]).all() and np.isnan(sigmoid(np.nan))

    def test_sigmoid_infinities_give_exactly_one_and_zero(self):
        assert_bits_equal(sigmoid(np.array([np.inf, -np.inf])), np.array([1.0, 0.0]))
        assert sigmoid(np.inf) == 1.0 and sigmoid(-np.inf) == 0.0

    def test_swish_propagates_nan(self):
        layer, cache = Swish(), {}
        out = layer.forward(np.array([np.nan, 1.0, -2.0]), cache)
        assert np.isnan(out[0]) and np.isfinite(out[1:]).all()
        dx = layer.backward(np.ones(3), cache)
        assert np.isnan(dx[0]) and np.isfinite(dx[1:]).all()


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
        assert model.n_params() == 0

    def test_dense_with_bias(self):
        assert ModelGraph([Dense(4, 3)]).n_params() == 15

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
        assert head.n_params() == 57_472 + 164_096 + 131_584 + 257
