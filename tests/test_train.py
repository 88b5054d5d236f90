import tracemalloc

import numpy as np
import pytest

from echokit import ef, lvd
from echokit.datasets import build_ef_samples, build_lvd_samples
from echokit.errors import ConfigurationError, DomainError, ShapeError
from echokit.nn import (
    AdamState,
    Conv1d,
    Dense,
    GlobalMaxPool1d,
    ModelGraph,
    Swish,
    TrainConfig,
    adam_step,
    central_difference,
    finite_diff_grad,
    fit,
    mae_value_and_grad,
    make_optimizer,
    mse_value_and_grad,
    sgd_step,
    value_and_grad,
)
from echokit.nn import train as nn_train
from echokit.nn.gradcheck import batch_loss, check_model_subset
from echokit.synth import EfDatasetSpec, LvdDatasetSpec, LvdSceneParams
from oracles import adam_step_reference, sgd_step_reference, train_loop_reference


def tiny_model(seed=0):
    rng = np.random.default_rng(seed)
    return ModelGraph([
        Conv1d(2, 3, 3, padding="same", rng=rng), Swish(),
        GlobalMaxPool1d(),
        Dense(3, 1, rng=rng),
    ])


def mae_loss(pred, target):
    return mae_value_and_grad(pred, target)[0]


def mse_loss(pred, target):
    return mse_value_and_grad(pred, target)[0]


class TestLosses:
    def test_equal_inputs_zero(self):
        x = np.array([1.0, 2.0, 3.0])
        assert mae_loss(x, x) == 0.0
        assert mse_loss(x, x) == 0.0

    def test_single_pair(self):
        assert mae_loss([3.0], [1.0]) == pytest.approx(2.0)
        assert mse_loss([3.0], [1.0]) == pytest.approx(4.0)

    def test_random_vectors_match_direct_arithmetic(self):
        rng = np.random.default_rng(0)
        p, t = rng.standard_normal(10), rng.standard_normal(10)
        assert mae_loss(p, t) == pytest.approx(sum(abs(a - b) for a, b in zip(p, t)) / 10)
        assert mse_loss(p, t) == pytest.approx(sum((a - b) ** 2 for a, b in zip(p, t)) / 10)

    def test_mae_subgradient_zero_at_agreement(self):
        _, g = mae_value_and_grad([2.0, 5.0], [2.0, 1.0])
        np.testing.assert_array_equal(g, [0.0, 0.5])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            mae_loss([1.0, 2.0], [1.0])


class TestValueAndGrad:
    def test_zero_parameter_model(self):
        model = ModelGraph([GlobalMaxPool1d()])
        value, grads = value_and_grad(
            model, [(np.array([[1.0, 4.0]]), np.array([1.0, 4.0]))], "mse"
        )
        assert value == 0.0
        assert grads == []

    def test_single_dense_closed_form(self):
        # MSE of a 1-output dense layer: dW = 2 (yhat - y) x, db = 2 (yhat - y).
        model = ModelGraph([Dense(3, 1, rng=np.random.default_rng(1))])
        x = np.array([0.5, -1.0, 2.0])
        y = np.array([0.7])
        yhat = model.forward(x)
        _, grads = value_and_grad(model, [(x, y)], "mse")
        np.testing.assert_allclose(grads[0], 2 * (yhat - y) * x[:, None], atol=1e-12)
        np.testing.assert_allclose(grads[1], 2 * (yhat - y), atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        model = tiny_model(2)
        batch = [
            (rng.standard_normal((5, 2)), np.array([0.3])),
            (rng.standard_normal((6, 2)), np.array([-0.2])),
        ]
        _, grads = value_and_grad(model, batch, "mse")
        fd = finite_diff_grad(model, batch, "mse", epsilon=1e-5)
        for a, n in zip(grads, fd):
            scale = max(np.max(np.abs(a)), np.max(np.abs(n)), 1e-12)
            assert np.max(np.abs(a - n)) / scale <= 1e-4


class TestFiniteDiff:
    def test_linear_model_exact(self):
        # Loss is linear in the weights, so central differences are exact
        # up to rounding for any epsilon.
        model = ModelGraph([Dense(2, 1, rng=np.random.default_rng(3))])
        batch = [(np.array([1.0, 2.0]), np.array([0.0]))]

        def linear_loss(pred, target):
            return float(pred[0] - target[0]), np.ones(1)

        for eps in (1e-2, 1e-4, 1e-6):
            fd = finite_diff_grad(model, batch, linear_loss, epsilon=eps)
            np.testing.assert_allclose(fd[0][:, 0], [1.0, 2.0], atol=1e-9)
            np.testing.assert_allclose(fd[1], [1.0], atol=1e-9)

    def test_quadratic_error_order(self):
        # For a cubic loss term the central-difference error is O(eps^2):
        # halving eps divides the discrepancy by about four.
        model = ModelGraph([Dense(1, 1)])
        model.layers[0].w[...] = 1.5
        model.layers[0].b[...] = 0.0
        batch = [(np.array([1.0]), np.array([0.0]))]

        def cubic_loss(pred, target):
            return float(pred[0] ** 3), 3.0 * pred**2

        exact = 3.0 * 1.5**2
        errs = []
        for eps in (1e-2, 5e-3):
            fd = finite_diff_grad(model, batch, cubic_loss, epsilon=eps)
            errs.append(abs(fd[0][0, 0] - exact))
        assert errs[1] == pytest.approx(errs[0] / 4.0, rel=0.05)

    def test_index_subset_matches_full_array_bit_for_bit(self):
        rng = np.random.default_rng(5)
        model = tiny_model(5)
        batch = [(rng.standard_normal((5, 2)), np.array([0.2]))]
        w = model.params()[0]
        before = w.copy()

        def f():
            return batch_loss(model, batch, "mse")

        full = central_difference(f, w)
        picks = np.array([0, 3, 7, w.size - 1])
        subset = central_difference(f, w, picks)
        assert full.shape == w.shape
        assert subset.tobytes() == full.ravel()[picks].tobytes()
        assert w.tobytes() == before.tobytes()  # every perturbation restored

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(ConfigurationError):
            central_difference(lambda: 0.0, np.zeros(2), epsilon=0.0)

    def test_model_subset_check(self):
        rng = np.random.default_rng(4)
        model = tiny_model(4)
        batch = [(rng.standard_normal((5, 2)), np.array([0.1]))]
        assert check_model_subset(model, batch, "mse", n_indices=16, seed=4) <= 1e-4


class TestOptimizers:
    def test_zero_gradient_leaves_params(self):
        p = [np.array([1.0, 2.0])]
        g = [np.zeros(2)]
        sgd_step(p, g, 0.1)
        np.testing.assert_array_equal(p[0], [1.0, 2.0])
        state = AdamState.for_params(p)
        adam_step(p, g, state, 0.1)
        np.testing.assert_array_equal(p[0], [1.0, 2.0])

    def test_sgd_update(self):
        p = [np.array([1.0])]
        sgd_step(p, [np.array([2.0])], 0.1)
        assert p[0][0] == pytest.approx(0.8)

    def test_adam_first_step_magnitude(self):
        # After one bias-corrected step from zero state the update is
        # lr * g / (|g| + eps), i.e. roughly lr in the gradient direction.
        p = [np.array([1.0, -2.0])]
        g = [np.array([3.0, -0.5])]
        state = AdamState.for_params(p)
        adam_step(p, g, state, learning_rate=0.01)
        np.testing.assert_allclose(p[0], [1.0 - 0.01, -2.0 + 0.01], atol=1e-6)

    def test_sgd_decreases_smooth_loss(self):
        rng = np.random.default_rng(5)
        model = tiny_model(5)
        batch = [(rng.standard_normal((5, 2)), np.array([0.4]))]
        before, grads = value_and_grad(model, batch, "mse")
        assert any(np.any(g != 0) for g in grads)
        sgd_step(model.params(), grads, 1e-3)
        after, _ = value_and_grad(model, batch, "mse")
        assert after < before


UPDATE_SIZES = [1, 2**14 - 1, 2**14, 2**14 + 1, 3 * 2**14 + 5]  # around nn_train.UPDATE_BLOCK
SPECIAL_GRADS = (0.0, -0.0, 1e-300, -1e-300)


def optimizer_case(size, n_steps=4):
    """Parameters of *size* values and a (2, 3) array, and a gradient list
    per step, each with +-0.0 and +-1e-300 planted among normal values."""
    rng = np.random.default_rng(size)
    params = [rng.standard_normal(size), rng.standard_normal((2, 3))]
    steps = []
    for step in range(n_steps):
        grads = [rng.standard_normal(p.shape) for p in params]
        for g in grads:
            flat = g.reshape(-1)
            for j, special in enumerate(SPECIAL_GRADS):
                flat[(j + 2 * step) % 7 :: 7] = special
        steps.append(grads)
    return params, steps


def adam_snapshot(params, state):
    return ([p.tobytes() for p in params], [m.tobytes() for m in state.m],
            [v.tobytes() for v in state.v], state.t)


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockedOptimizers:
    """The steps update in blocks, bit-equal to whole-array expressions."""

    @pytest.mark.parametrize("size", UPDATE_SIZES)
    def test_adam_bit_equal_to_whole_arrays(self, size):
        params, steps = optimizer_case(size)
        ref = [p.copy() for p in params]
        state, ref_state = AdamState.for_params(params), AdamState.for_params(ref)
        for grads in steps:
            adam_step(params, grads, state, 1e-2)
            adam_step_reference(ref, grads, ref_state, 1e-2)
            assert adam_snapshot(params, state) == adam_snapshot(ref, ref_state)

    @pytest.mark.parametrize("size", UPDATE_SIZES)
    def test_sgd_bit_equal_to_whole_arrays(self, size):
        params, steps = optimizer_case(size)
        ref = [p.copy() for p in params]
        for grads in steps:
            sgd_step(params, grads, 1e-2)
            sgd_step_reference(ref, grads, 1e-2)
            assert [p.tobytes() for p in params] == [p.tobytes() for p in ref]

    @pytest.mark.parametrize("bad", ["grads", "m", "v", "m_length", "v_length"])
    def test_adam_mismatch_in_the_last_array_changes_nothing(self, bad):
        params, (grads, later) = optimizer_case(5, n_steps=2)
        state = AdamState.for_params(params)
        adam_step(params, grads, state, 1e-2)  # nonzero moments, t = 1
        if bad == "grads":
            later[-1] = np.ones((3, 2))
        elif bad in ("m", "v"):
            getattr(state, bad)[-1] = np.zeros((3, 2))
        else:
            getattr(state, bad[0]).pop()
        before = adam_snapshot(params, state)
        with pytest.raises(ShapeError):
            adam_step(params, later, state, 1e-2)
        assert adam_snapshot(params, state) == before

    def test_sgd_mismatch_in_the_last_array_changes_nothing(self):
        params, (grads,) = optimizer_case(5, n_steps=1)
        grads[-1] = np.ones((3, 2))
        before = [p.tobytes() for p in params]
        with pytest.raises(ShapeError):
            sgd_step(params, grads, 1e-2)
        assert [p.tobytes() for p in params] == before

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_non_contiguous_arrays_update_in_place(self, optimizer):
        # Transposed views, of more than one block, with F-ordered moments
        # from for_params: each steps through a copy that is written back.
        rng = np.random.default_rng(3)
        bases = [rng.standard_normal((3, 2**14 + 7)), rng.standard_normal((4, 5))]
        params = [b.T for b in bases]
        ref = [p.copy() for p in params]
        state, ref_state = AdamState.for_params(params), AdamState.for_params(ref)
        for step in range(3):
            grads = [rng.standard_normal(b.shape).T for b in bases]
            grads[1][::2] = SPECIAL_GRADS[step]
            if optimizer == "adam":
                adam_step(params, grads, state, 1e-2)
                adam_step_reference(ref, grads, ref_state, 1e-2)
                assert adam_snapshot(params, state) == adam_snapshot(ref, ref_state)
            else:
                sgd_step(params, grads, 1e-2)
                sgd_step_reference(ref, grads, 1e-2)
                assert [p.tobytes() for p in params] == [p.tobytes() for p in ref]
        assert [b.T.tobytes() for b in bases] == [p.tobytes() for p in ref]

    def test_steps_hold_no_parameter_sized_temporary(self):
        rng = np.random.default_rng(2)
        params, grads = [rng.standard_normal(2**19)], [rng.standard_normal(2**19)]  # 4 MB each
        state = AdamState.for_params(params)
        assert traced_peak(lambda: adam_step(params, grads, state, 1e-2)) < params[0].nbytes / 8
        assert traced_peak(lambda: sgd_step(params, grads, 1e-2)) < params[0].nbytes / 8


class TestTrainConfig:
    def test_defaults(self):
        config = TrainConfig()
        assert config.batch_size == 64
        assert config.optimizer == "adam"

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(optimizer="momentum")


class TestReproducibility:
    def test_training_is_bit_reproducible(self):
        def run():
            rng = np.random.default_rng(0)
            model = tiny_model(7)
            batch = [(rng.standard_normal((5, 2)), np.array([0.3]))]
            state = AdamState.for_params(model.params())
            for _ in range(20):
                _, grads = value_and_grad(model, batch, "mae")
                adam_step(model.params(), grads, state, 1e-3)
            return np.concatenate([p.ravel() for p in model.params()])

        a, b = run(), run()
        assert a.tobytes() == b.tobytes()


def params_bytes(graph):
    return b"".join(p.tobytes() for p in graph.params())


class TestFit:
    """Training through fit() reproduces the loop EF and LVD each used to
    write out, bit for bit: parameters, history and best epoch."""

    @staticmethod
    def assert_same_run(graph, result, ref_graph, ref):
        history, best_epoch, best_val_mae = ref
        assert [(h.epoch, h.train_mae, h.val_mae) for h in result.history] == history
        assert (result.best_epoch, result.best_val_mae) == (best_epoch, best_val_mae)
        assert params_bytes(graph) == params_bytes(ref_graph)

    @pytest.mark.parametrize("loss", ["mae", "mse"])
    def test_ef_matches_reference_loop(self, loss):
        samples = build_ef_samples(
            EfDatasetSpec(n_videos=10, frame_dims=(12, 12), n_beats=2, seed=3)
        )
        assert len({s.video_id for s in samples}) < len(samples)  # grouping matters
        config = TrainConfig(learning_rate=3e-3, batch_size=4, epochs=3, seed=5, loss=loss)
        model_config = ef.EfModelConfig(frame_shape=(12, 12), encoder_dim=8, seed=5)
        model, result = ef.train_ef(ef.EfModel.build(model_config), samples, config)

        ref = ef.EfModel.build(model_config)
        train, val = ef.split_dataset(samples, seed=config.seed)
        pairs = [(ref.prepare_input(s.clip), np.array([s.ef_true / ef.OUTPUT_SCALE]))
                 for s in train]
        out = train_loop_reference(ref.graph, pairs, loss,
                                   lambda part: ef.evaluate_mae(ref, part), train, val, config)
        self.assert_same_run(model.graph, result, ref.graph, out)

    def test_non_finite_loss_stops_before_the_optimizer_steps(self, monkeypatch):
        calls, steps = [], []

        def loss(pred, target):
            calls.append(pred)
            return (float("nan") if len(calls) == 2 else 0.0), np.zeros_like(pred)

        def counting_optimizer(config, params):
            step = make_optimizer(config, params)
            return lambda grads: (steps.append(1), step(grads))

        monkeypatch.setattr(nn_train, "make_optimizer", counting_optimizer)
        rng = np.random.default_rng(8)
        pairs = [(rng.standard_normal((5, 2)), np.array([0.0])) for _ in range(4)]
        with pytest.raises(DomainError, match="training loss is nan at epoch 0, batch 1"):
            fit(tiny_model(8), pairs, loss, lambda pair: 0.0, lambda items, preds: 0.0,
                pairs, [], TrainConfig(batch_size=1, epochs=2))
        assert len(steps) == 1

    def test_empty_val_predicts_each_item_once_an_epoch(self):
        calls = []

        def predict(pair):
            calls.append(pair)
            return 0.0

        rng = np.random.default_rng(8)
        pairs = [(rng.standard_normal((5, 2)), np.array([0.0])) for _ in range(4)]
        result = fit(tiny_model(8), pairs, "mse", predict, lambda items, preds: float(len(calls)),
                     pairs, [], TrainConfig(batch_size=2, epochs=3))
        assert len(calls) == 3 * len(pairs)
        assert [(h.train_mae, h.val_mae) for h in result.history] == [(4.0, 4.0), (8.0, 8.0),
                                                                      (12.0, 12.0)]
        assert result.val is pairs

    def test_lvd_matches_reference_loop(self):
        samples = build_lvd_samples(LvdDatasetSpec(
            n_frames=20, scene=LvdSceneParams.for_frame((32, 32)), seed=6,
        ))
        config = TrainConfig(learning_rate=3e-3, batch_size=8, epochs=3, seed=6)
        model_config = lvd.LvdModelConfig(frame_shape=(32, 32), channels=(4, 8, 8),
                                          hidden=16, seed=6)
        model, result = lvd.train_lvd(lvd.LvdModel.build(model_config), samples, config,
                                      coord_coef=0.5)

        # the per-frame split as it was written before frames became groups
        order = np.random.default_rng(config.seed).permutation(len(samples))
        train = [samples[i] for i in order[:16]]
        val = [samples[i] for i in order[16:]]
        split_train, split_val = lvd.split_samples(samples, seed=config.seed)
        assert [id(s) for s in split_train + split_val] == [id(s) for s in train + val]

        ref = lvd.LvdModel.build(model_config)
        weights = lvd.loss_weights([s.dimensions() for s in train])
        objective = lvd.LvdObjective(weights, ref.coord_scale(), 0.5)
        pairs = [(ref.prepare_input(s.frame),
                  (s.keypoints.points, s.mm_per_pixel, s.dimensions().as_array()))
                 for s in train]
        out = train_loop_reference(ref.graph, pairs, objective,
                                   lambda part: lvd.evaluate_lvd(ref, part).mean_mae,
                                   train, val, config)
        self.assert_same_run(model.graph, result, ref.graph, out)
        assert result.weights == weights
