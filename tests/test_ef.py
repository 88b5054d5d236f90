import numpy as np
import pytest

from echokit.beats import BeatClip
from echokit.datasets import build_ef_samples, write_ef_dataset
from echokit.ef import (
    EfModel,
    EfModelConfig,
    EfSample,
    VolumePair,
    baseline_mae,
    compute_ef,
    evaluate_mae,
    load_ef_dataset,
    predict_ef,
    split_dataset,
    train_ef,
)
from echokit.errors import DomainError, ShapeError
from echokit.nn import TrainConfig
from echokit.synth import EfDatasetSpec


def make_clip(frame_shape=(8, 8), n_frames=6, seed=0):
    video = np.random.default_rng(seed).uniform(0, 1, (*frame_shape, n_frames))
    return BeatClip(start_frame=0, end_frame=n_frames - 1, sub_video=video)


def small_model(frame_shape=(8, 8), seed=0, padding="same"):
    return EfModel.build(
        EfModelConfig(frame_shape=frame_shape, encoder_dim=8, padding=padding, seed=seed)
    )


class TestComputeEf:
    def test_no_ejection(self):
        assert compute_ef(VolumePair(edv=100.0, esv=100.0)) == 0.0

    def test_full_ejection(self):
        assert compute_ef(VolumePair(edv=100.0, esv=0.0)) == 100.0

    def test_direct_evaluation(self):
        assert compute_ef(VolumePair(edv=120.0, esv=48.0)) == pytest.approx(60.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            VolumePair(edv=0.0, esv=0.0)
        with pytest.raises(DomainError):
            VolumePair(edv=10.0, esv=11.0)
        with pytest.raises(DomainError):
            VolumePair(edv=10.0, esv=-1.0)

    def test_range_and_monotonicity_in_esv(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            edv = float(rng.uniform(1.0, 200.0))
            esv1, esv2 = sorted(rng.uniform(0.0, edv, size=2))
            ef1 = compute_ef(VolumePair(edv, esv1))
            ef2 = compute_ef(VolumePair(edv, esv2))
            assert 0.0 <= ef2 <= ef1 <= 100.0


def encode_frames(model, clip):
    """Per-frame feature vectors, shape (T, D): the model's frame encoder."""
    return model.graph.layers[0].forward(model.prepare_input(clip), {})


class TestEncodeFrames:
    def test_identical_frames_identical_features(self):
        model = small_model()
        frame = np.random.default_rng(1).uniform(0, 1, (8, 8))
        clip = np.stack([frame, frame], axis=2)
        feats = encode_frames(model, clip)
        assert feats.shape == (2, 8)
        np.testing.assert_array_equal(feats[0], feats[1])

    def test_single_frame_clip(self):
        model = small_model()
        feats = encode_frames(model, np.random.default_rng(2).uniform(0, 1, (8, 8, 1)))
        assert feats.shape == (1, 8)

    def test_frame_permutation_permutes_rows(self):
        model = small_model()
        clip = np.random.default_rng(3).uniform(0, 1, (8, 8, 5))
        perm = np.array([4, 2, 0, 1, 3])
        np.testing.assert_allclose(
            encode_frames(model, clip[:, :, perm]),
            encode_frames(model, clip)[perm],
            atol=1e-14,
        )


class TestPredictEf:
    def test_zero_final_layer_predicts_zero(self):
        model = small_model()
        model.graph.layers[-1].w[...] = 0.0
        model.graph.layers[-1].b[...] = 0.0
        assert predict_ef(model, make_clip()) == 0.0

    def test_constant_clip_length_invariance_same_padding(self):
        model = small_model()
        frame = np.full((8, 8), 0.6)
        short = np.tile(frame[:, :, None], (1, 1, 16))
        long = np.tile(frame[:, :, None], (1, 1, 32))
        assert predict_ef(model, short) == pytest.approx(predict_ef(model, long), abs=1e-12)

    def test_deterministic_per_clip(self):
        model = small_model()
        clip = make_clip(seed=5)
        assert predict_ef(model, clip) == predict_ef(model, clip)

    def test_valid_padding_minimum_length(self):
        model = small_model(padding="valid")
        assert model.min_clip_length() == 11
        with pytest.raises(ShapeError):
            predict_ef(model, make_clip(n_frames=10))
        predict_ef(model, make_clip(n_frames=11))

    def test_wrong_frame_shape_rejected(self):
        with pytest.raises(ShapeError):
            predict_ef(small_model(), make_clip(frame_shape=(6, 6)))


class PerfectOracle:
    """Looks up the true EF of each clip by identity."""

    def __init__(self, samples):
        self._truth = {id(s.clip): s.ef_true for s in samples}

    def predict(self, clip):
        return self._truth[id(clip)]


class ConstantModel:
    def __init__(self, value):
        self.value = value

    def predict(self, clip):
        return self.value


class TestEvaluateMae:
    def test_perfect_oracle_stub(self):
        samples = [EfSample(make_clip(seed=i), ef_true=40.0 + i) for i in range(4)]
        assert evaluate_mae(PerfectOracle(samples), samples) == 0.0

    def test_constant_fifty_on_40_60(self):
        samples = [
            EfSample(make_clip(seed=0), ef_true=40.0),
            EfSample(make_clip(seed=1), ef_true=60.0),
        ]
        assert evaluate_mae(ConstantModel(50.0), samples) == pytest.approx(10.0)

    def test_multi_beat_predictions_averaged_per_video(self):
        samples = [
            EfSample(make_clip(seed=0), ef_true=50.0, video_id="v0"),
            EfSample(make_clip(seed=1), ef_true=50.0, video_id="v0"),
        ]

        class TwoValue:
            def __init__(self):
                self.calls = 0

            def predict(self, clip):
                self.calls += 1
                return 40.0 if self.calls == 1 else 70.0

        # mean(40, 70) = 55 -> error 5; separate errors would average to 10.
        assert evaluate_mae(TwoValue(), samples) == pytest.approx(5.0)

    def test_baseline_equals_mean_absolute_deviation(self):
        rng = np.random.default_rng(4)
        targets = rng.uniform(20, 80, size=12)
        samples = [EfSample(make_clip(seed=i), ef_true=t) for i, t in enumerate(targets)]
        mad = float(np.mean(np.abs(targets - targets.mean())))
        assert baseline_mae(samples) == pytest.approx(mad)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ShapeError):
            evaluate_mae(ConstantModel(0.0), [])


class TestTrainEf:
    def test_zero_epochs_leaves_model_unchanged(self):
        model = small_model(seed=3)
        before = [p.copy() for p in model.graph.params()]
        samples = [EfSample(make_clip(seed=i), ef_true=50.0 + i) for i in range(5)]
        model, result = train_ef(model, samples, TrainConfig(epochs=0, seed=1))
        assert result.history == []
        np.testing.assert_equal(model.graph.params(), before)

    def test_single_sample_memorization(self):
        model = small_model(seed=4)
        samples = [EfSample(make_clip(seed=7), ef_true=55.0)]
        initial = evaluate_mae(model, samples)
        config = TrainConfig(learning_rate=1e-3, batch_size=1, epochs=200, seed=2)
        model, result = train_ef(model, samples, config)
        assert len(result.history) == 200
        assert result.history[-1].train_mae < initial

    def test_history_length_matches_epochs(self):
        model = small_model(seed=5)
        samples = [EfSample(make_clip(seed=i), ef_true=45.0 + i) for i in range(6)]
        _, result = train_ef(model, samples, TrainConfig(epochs=3, batch_size=2, seed=3))
        assert [s.epoch for s in result.history] == [0, 1, 2]

    def test_split_is_disjoint_and_seeded(self):
        samples = [EfSample(make_clip(seed=i), ef_true=50.0) for i in range(10)]
        train_a, val_a = split_dataset(samples, seed=6)
        train_b, val_b = split_dataset(samples, seed=6)
        assert [id(s) for s in train_a] == [id(s) for s in train_b]
        assert [id(s) for s in val_a] == [id(s) for s in val_b]
        assert len(train_a) == 8 and len(val_a) == 2
        assert {id(s) for s in train_a}.isdisjoint({id(s) for s in val_a})

    def test_split_keeps_videos_together(self):
        samples = []
        for v in range(6):
            for b in range(2):
                samples.append(EfSample(make_clip(seed=10 * v + b), 50.0, video_id=f"v{v}"))
        train, val = split_dataset(samples, seed=0)
        assert {s.video_id for s in train}.isdisjoint({s.video_id for s in val})


class TestDatasetIo:
    def test_write_and_load_roundtrip(self, tmp_path):
        spec = EfDatasetSpec(n_videos=3, frame_dims=(16, 16), seed=11)
        manifest = write_ef_dataset(tmp_path / "data", spec)
        assert manifest["n_clips"] >= 3
        loaded = load_ef_dataset(tmp_path / "data")
        direct = build_ef_samples(spec)
        assert len(loaded) == len(direct)
        for a, b in zip(loaded, direct):
            assert a.ef_true == pytest.approx(b.ef_true)
            np.testing.assert_array_equal(a.clip.sub_video, b.clip.sub_video)
            assert a.video_id == b.video_id

    def test_missing_labels_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_ef_dataset(tmp_path)
