import numpy as np
import pytest

from echokit.datasets import build_lvd_samples, write_lvd_dataset
from echokit.errors import ConfigurationError, ShapeError
from echokit.lvd import (
    Calibration,
    KeypointSet,
    LossWeights,
    LvDimensions,
    LvdModel,
    LvdModelConfig,
    LvdObjective,
    LvdSample,
    constant_baseline_mae,
    dimensions_from_keypoints,
    evaluate_lvd,
    load_lvd_dataset,
    loss_weights,
    lvd_loss,
    lvd_loss_grad,
    predict_keypoints,
    train_lvd,
)
from echokit.nn import TrainConfig
from echokit.synth import LvdDatasetSpec, LvdSceneParams

from oracles import lvd_objective_reference, welford


def small_scene(frame_dims=(32, 32)):
    # band geometry scaled down to fit small test frames
    return LvdSceneParams(
        frame_dims=frame_dims,
        ivs_range=(2.0, 5.0),
        wall_range=(2.0, 5.0),
        cavity_range=(7.0, 13.0),
        center_jitter=2.0,
    )


def vertical_points(ys, x=10.0):
    return KeypointSet(points=np.array([[x, y] for y in ys]))


def rotate(points, angle, center):
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return KeypointSet(points=(points - center) @ rot.T + center)


class TestDimensionsFromKeypoints:
    def test_axis_aligned(self):
        dims = dimensions_from_keypoints(vertical_points([0, 10, 40, 50]), Calibration(1.0))
        assert (dims.ivs, dims.lvid, dims.lvpw) == (10.0, 30.0, 10.0)

    def test_calibration_scales_linearly(self):
        dims = dimensions_from_keypoints(vertical_points([0, 10, 40, 50]), Calibration(0.5))
        assert (dims.ivs, dims.lvid, dims.lvpw) == (5.0, 15.0, 5.0)

    def test_rotation_invariance(self):
        kp = vertical_points([0, 10, 40, 50])
        rotated = rotate(kp.points, np.pi / 6, center=np.array([25.0, 25.0]))
        base = dimensions_from_keypoints(kp, Calibration(1.0))
        turned = dimensions_from_keypoints(rotated, Calibration(1.0))
        for name in ("ivs", "lvid", "lvpw"):
            assert getattr(turned, name) == pytest.approx(getattr(base, name), abs=1e-9)

    def test_translation_invariance(self):
        kp = vertical_points([0, 10, 40, 50])
        shifted = KeypointSet(points=kp.points + np.array([7.0, -3.0]))
        assert dimensions_from_keypoints(shifted, Calibration(1.0)) == dimensions_from_keypoints(
            kp, Calibration(1.0)
        )

    def test_coincident_points_flagged_degenerate(self):
        dims = dimensions_from_keypoints(vertical_points([5, 5, 20, 30]), Calibration(1.0))
        assert dims.ivs == 0.0
        assert dims.is_degenerate()


class TestLossWeights:
    def test_reciprocal_of_sigma(self):
        labels = [LvDimensions(8.0, 16.0, 8.0), LvDimensions(12.0, 24.0, 12.0)]
        # population sigmas: 2, 4, 2
        w = loss_weights(labels)
        assert (w.w_ivs, w.w_lvid, w.w_lvpw) == (0.5, 0.25, 0.5)

    def test_two_point_sigma(self):
        labels = [LvDimensions(4.0, 1.0, 1.0), LvDimensions(8.0, 2.0, 2.0)]
        assert loss_weights(labels).w_ivs == pytest.approx(0.5)

    def test_matches_streaming_oracle(self):
        rng = np.random.default_rng(0)
        rows = rng.uniform(2.0, 30.0, size=(100, 3))
        labels = [LvDimensions(*row) for row in rows]
        w = loss_weights(labels).as_array()
        for m in range(3):
            _, sigma = welford(rows[:, m])
            assert abs(w[m] - 1.0 / sigma) <= 1e-12

    def test_zero_variance_rejected_with_guidance(self):
        labels = [LvDimensions(5.0, 10.0, 5.0)] * 3
        with pytest.raises(ConfigurationError, match="manually"):
            loss_weights(labels)

    def test_too_few_labels_rejected(self):
        with pytest.raises(ConfigurationError):
            loss_weights([LvDimensions(1.0, 2.0, 3.0)])

    def test_scale_covariance(self):
        rng = np.random.default_rng(1)
        rows = rng.uniform(2.0, 30.0, size=(50, 3))
        w = loss_weights([LvDimensions(*r) for r in rows]).as_array()
        w_scaled = loss_weights([LvDimensions(*(3.0 * r)) for r in rows]).as_array()
        np.testing.assert_allclose(w_scaled, w / 3.0, rtol=1e-12)


class TestLvdLoss:
    def test_zero_at_agreement(self):
        d = LvDimensions(9.0, 30.0, 9.0)
        w = LossWeights(1.0, 1.0, 1.0)
        assert lvd_loss(d, d, w) == 0.0

    def test_unit_weights(self):
        pred = LvDimensions(1.0, 2.0, 3.0)
        target = LvDimensions(0.0, 0.0, 0.0)
        assert lvd_loss(pred, target, LossWeights(1.0, 1.0, 1.0)) == pytest.approx(14.0)

    def test_weighted_case(self):
        pred = LvDimensions(2.0, 2.0, 2.0)
        target = LvDimensions(0.0, 0.0, 0.0)
        w = LossWeights(0.5, 0.25, 0.5)
        assert lvd_loss(pred, target, w) == pytest.approx(5.0)

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(2)
        w = LossWeights(0.7, 0.2, 0.4)
        for _ in range(50):
            a = LvDimensions(*rng.uniform(1, 20, 3))
            b = LvDimensions(*rng.uniform(1, 20, 3))
            value = lvd_loss(a, b, w)
            assert value >= 0.0
            assert (value == 0.0) == (a == b)

    def test_batch_averaging(self):
        w = LossWeights(1.0, 1.0, 1.0)
        preds = [LvDimensions(1.0, 0.0, 0.0), LvDimensions(3.0, 0.0, 0.0)]
        targets = [LvDimensions(0.0, 0.0, 0.0)] * 2
        assert lvd_loss(preds, targets, w) == pytest.approx((1.0 + 9.0) / 2.0)

    def test_consistent_channel_permutation_symmetry(self):
        pred = LvDimensions(2.0, 7.0, 4.0)
        target = LvDimensions(1.0, 5.0, 6.0)
        w = LossWeights(0.5, 0.25, 0.125)
        # permute (ivs, lvid, lvpw) -> (lvpw, ivs, lvid) everywhere
        pred_p = LvDimensions(4.0, 2.0, 7.0)
        target_p = LvDimensions(6.0, 1.0, 5.0)
        w_p = LossWeights(0.125, 0.5, 0.25)
        assert lvd_loss(pred, target, w) == pytest.approx(lvd_loss(pred_p, target_p, w_p))

    def test_arrays_match_dimension_records(self):
        rng = np.random.default_rng(5)
        w = LossWeights(0.5, 0.25, 0.125)
        pred, target = rng.uniform(2, 20, (4, 3)), rng.uniform(2, 20, (4, 3))
        records = [LvDimensions(*r) for r in pred], [LvDimensions(*r) for r in target]
        assert lvd_loss(pred, target, w) == lvd_loss(*records, w)
        np.testing.assert_array_equal(lvd_loss_grad(pred, target, w), lvd_loss_grad(*records, w))
        assert lvd_loss(pred[0], target[0], w) == lvd_loss(records[0][0], records[1][0], w)
        assert lvd_loss_grad(pred[0], target[0], w).shape == (1, 3)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        w = LossWeights(0.5, 0.25, 0.125)
        pred = rng.uniform(2, 20, 3)
        target = rng.uniform(2, 20, 3)
        grad = lvd_loss_grad(LvDimensions(*pred), LvDimensions(*target), w)[0]
        eps = 1e-6
        for m in range(3):
            bumped = pred.copy()
            bumped[m] += eps
            plus = lvd_loss(LvDimensions(*bumped), LvDimensions(*target), w)
            bumped[m] -= 2 * eps
            minus = lvd_loss(LvDimensions(*bumped), LvDimensions(*target), w)
            fd = (plus - minus) / (2 * eps)
            assert abs(grad[m] - fd) / max(abs(fd), 1e-12) <= 1e-6


class TestLvdObjective:
    @pytest.mark.parametrize("coord_coef", [0.0, 0.5, 1.0])
    def test_matches_reference_objective(self, coord_coef):
        rng = np.random.default_rng(int(coord_coef * 10))
        scale = np.tile([31.0, 23.0], 4)
        weights = LossWeights(*rng.uniform(0.05, 2.0, 3))
        objective = LvdObjective(weights, scale, coord_coef)
        for trial in range(300):
            raw = rng.uniform(0.0, 1.0, 8)
            if trial % 3 == 0:  # one segment, or with trial 0 all three, of zero length
                m = trial % 9 // 3
                raw[2 * m + 2 : 2 * m + 4] = raw[2 * m : 2 * m + 2]
            if trial == 0:
                raw[:] = np.tile(raw[:2], 4)
            target = (rng.uniform(0.0, 31.0, (4, 2)), rng.uniform(0.2, 1.5),
                      rng.uniform(1.0, 30.0, 3))
            value, grad = objective(raw, target)
            want, want_grad = lvd_objective_reference(
                weights.as_array(), scale, coord_coef, raw, target
            )
            assert abs(value - want) <= 1e-12 * abs(want)
            assert np.max(np.abs(grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        scale = np.tile([15.0, 15.0], 4)
        objective = LvdObjective(LossWeights(0.5, 0.25, 0.5), scale, coord_coef=1.0)
        kp = np.array([[2.0, 3.0], [5.0, 6.0], [9.0, 9.0], [12.0, 11.0]])
        target = (kp, 0.8, np.array([4.0, 5.0, 4.0]))
        raw = rng.uniform(0.1, 0.9, 8)
        _, grad = objective(raw, target)
        eps = 1e-6
        for i in range(8):
            bumped = raw.copy()
            bumped[i] += eps
            plus, _ = objective(bumped, target)
            bumped[i] -= 2 * eps
            minus, _ = objective(bumped, target)
            fd = (plus - minus) / (2 * eps)
            assert abs(grad[i] - fd) / max(abs(fd), 1e-9) <= 1e-5


def small_model(frame_shape=(16, 16), seed=0):
    return LvdModel.build(
        LvdModelConfig(frame_shape=frame_shape, channels=(4, 8, 8), hidden=16, seed=seed)
    )


class TestPredictKeypoints:
    def test_zero_output_layer_predicts_origin(self):
        model = small_model()
        model.graph.layers[-1].w[...] = 0.0
        model.graph.layers[-1].b[...] = 0.0
        kp = predict_keypoints(model, np.random.default_rng(5).uniform(0, 1, (16, 16)))
        np.testing.assert_array_equal(kp.points, np.zeros((4, 2)))
        assert kp.in_bounds((16, 16))

    def test_predictions_clamped_to_frame(self):
        model = small_model()
        model.graph.layers[-1].w[...] = 0.0
        model.graph.layers[-1].b[...] = 5.0  # raw 5 -> far outside
        kp = predict_keypoints(model, np.zeros((16, 16)))
        assert kp.in_bounds((16, 16))
        np.testing.assert_array_equal(kp.points, np.full((4, 2), 15.0))

    def test_wrong_frame_shape_rejected(self):
        with pytest.raises(ShapeError):
            predict_keypoints(small_model(), np.zeros((8, 8)))


class StubLvdModel:
    """Raw-output stub compatible with predict_keypoints/evaluate_lvd."""

    def __init__(self, frame_shape, raw):
        self.config = LvdModelConfig(frame_shape=frame_shape)
        self._raw = np.asarray(raw, dtype=np.float64)

    def coord_scale(self):
        nx, ny = self.config.frame_shape
        return np.tile([nx - 1.0, ny - 1.0], 4)

    def predict_raw(self, frame):
        return self._raw.copy()


class TestEvaluateLvd:
    @staticmethod
    def _samples(n=5, seed=6):
        return build_lvd_samples(
            LvdDatasetSpec(n_frames=n, scene=small_scene(), seed=seed)
        )

    def test_perfect_predictor_zero_mae(self):
        samples = self._samples(n=1)
        sample = samples[0]
        raw = (sample.keypoints.points / 31.0).ravel()
        stub = StubLvdModel((32, 32), raw)
        evaluation = evaluate_lvd(stub, [sample])
        assert evaluation.mean_mae == pytest.approx(0.0, abs=1e-12)

    def test_center_constant_baseline_matches_direct_computation(self):
        samples = self._samples(n=20)
        baseline = constant_baseline_mae(samples)
        dims = np.stack([s.dimensions().as_array() for s in samples])
        np.testing.assert_allclose(
            [baseline.mae_ivs, baseline.mae_lvid, baseline.mae_lvpw],
            np.abs(dims).mean(axis=0),
        )

    def test_degenerate_predictions_recorded_not_raised(self):
        samples = self._samples(n=3)
        stub = StubLvdModel((32, 32), np.full(8, 0.5))  # all points coincide
        evaluation = evaluate_lvd(stub, samples)
        assert len(evaluation.degenerate) == 3
        assert evaluation.degenerate[0]["dimensions"] == ["ivs", "lvid", "lvpw"]

    def test_empty_dataset_rejected(self):
        with pytest.raises(ShapeError):
            evaluate_lvd(StubLvdModel((32, 32), np.zeros(8)), [])


class TestTrainLvd:
    @staticmethod
    def _samples(n=24, seed=7):
        return build_lvd_samples(
            LvdDatasetSpec(n_frames=n, scene=small_scene(), seed=seed)
        )

    def test_zero_epochs(self):
        model = small_model((32, 32), seed=8)
        before = [p.copy() for p in model.graph.params()]
        model, result = train_lvd(model, self._samples(), TrainConfig(epochs=0, seed=1))
        assert result.history == []
        np.testing.assert_equal(model.graph.params(), before)

    def test_training_reduces_error_and_reports_weights(self):
        samples = self._samples(n=30)
        model = small_model((32, 32), seed=9)
        initial = evaluate_lvd(model, samples).mean_mae
        config = TrainConfig(learning_rate=3e-3, batch_size=8, epochs=8, seed=2)
        model, result = train_lvd(model, samples, config)
        assert len(result.history) == 8
        assert result.history[-1].train_mae < initial
        assert result.weights is not None
        assert min(result.weights.as_array()) > 0

    def test_weights_come_from_training_split(self):
        from echokit.lvd import split_samples

        samples = self._samples(n=25)
        config = TrainConfig(epochs=1, batch_size=8, seed=3)
        model = small_model((32, 32), seed=10)
        _, result = train_lvd(model, samples, config)
        train, _ = split_samples(samples, seed=3)
        expected = loss_weights([s.dimensions() for s in train])
        np.testing.assert_allclose(result.weights.as_array(), expected.as_array())


class TestDatasetIo:
    def test_write_and_load_roundtrip(self, tmp_path):
        spec = LvdDatasetSpec(n_frames=4, scene=small_scene(), seed=5)
        write_lvd_dataset(tmp_path / "data", spec)
        loaded = load_lvd_dataset(tmp_path / "data")
        direct = build_lvd_samples(spec)
        assert len(loaded) == 4
        for a, b in zip(loaded, direct):
            np.testing.assert_array_equal(a.frame, b.frame)
            np.testing.assert_allclose(a.keypoints.points, b.keypoints.points)
            assert a.mm_per_pixel == b.mm_per_pixel
