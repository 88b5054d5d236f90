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
from oracles import train_loop_reference


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
            fit(tiny_model(8), pairs, loss, lambda part: 0.0, pairs, [],
                TrainConfig(batch_size=1, epochs=2))
        assert len(steps) == 1

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
