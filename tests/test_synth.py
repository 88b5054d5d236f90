import numpy as np
import pytest

from echokit.beats import area_signal, detect_extrema, extract_beats
from echokit.datasets import build_ef_samples
from echokit.errors import ConfigurationError
from echokit.lvd import Calibration, dimensions_from_keypoints
from echokit.synth import (
    EfDatasetSpec,
    EfSceneParams,
    LvdDatasetSpec,
    LvdSceneParams,
    gen_ef_video,
    gen_lvd_frame,
    generate_ef_scenes,
    generate_lvd_scenes,
)

from oracles import ef_masks_loops, welford


class TestGenEfVideo:
    def test_zero_pulsatility(self):
        scene = gen_ef_video(EfSceneParams(frame_dims=(32, 32), pulsatility=0.0, seed=1))
        assert scene.ef_true == 0.0
        assert scene.true_extrema.maxima == [] and scene.true_extrema.minima == []
        assert len(set(scene.true_areas.tolist())) == 1

    def test_halved_area_gives_closed_form_ef(self):
        # A_max = 2 A_min and volume ~ area^(3/2):
        # EF = 100 (1 - (1/2)^(3/2)) = 64.6446...%.
        scene = gen_ef_video(
            EfSceneParams(frame_dims=(64, 64), base_area=0.15, pulsatility=0.15, seed=2)
        )
        assert scene.ef_true == pytest.approx(100.0 * (1.0 - 0.5**1.5), abs=1e-12)
        assert scene.ef_true == pytest.approx(64.6446609, abs=1e-6)

    def test_seeded_generation_is_bit_identical(self):
        params = EfSceneParams(frame_dims=(24, 24), seed=7)
        a, b = gen_ef_video(params), gen_ef_video(params)
        assert a.video.tobytes() == b.video.tobytes()
        assert a.masks.tobytes() == b.masks.tobytes()
        assert a.ef_true == b.ef_true
        assert a.true_extrema == b.true_extrema

    def test_masks_are_binary_and_consistent_with_areas(self):
        scene = gen_ef_video(EfSceneParams(frame_dims=(20, 20), seed=4))
        assert set(np.unique(scene.masks)) <= {0.0, 1.0}
        np.testing.assert_array_equal(
            area_signal(scene.masks, scene.frame_rate).values, scene.true_areas
        )

    def test_oversized_ellipse_rejected(self):
        with pytest.raises(ConfigurationError):
            gen_ef_video(EfSceneParams(frame_dims=(8, 8), base_area=0.5, pulsatility=0.4))

    def test_analytic_extrema_match_detector(self):
        for period in (30, 41, 60):
            scene = gen_ef_video(
                EfSceneParams(frame_dims=(64, 64), period_frames=period, n_beats=2,
                              base_area=0.12, pulsatility=0.25, noise_amplitude=0.03,
                              seed=6)
            )
            extrema = detect_extrema(area_signal(scene.masks, scene.frame_rate))
            assert len(extrema.maxima) == len(scene.true_extrema.maxima)
            assert len(extrema.minima) == len(scene.true_extrema.minima)
            for got, want in zip(extrema.maxima, scene.true_extrema.maxima):
                assert abs(got - want) <= 1
            for got, want in zip(extrema.minima, scene.true_extrema.minima):
                assert abs(got - want) <= 1

    def test_frame_rate_spans_nominal_beat(self):
        scene = gen_ef_video(EfSceneParams(frame_dims=(16, 16), period_frames=41, seed=1))
        assert scene.frame_rate == pytest.approx(41 / 0.8)

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            EfSceneParams(period_frames=4)
        with pytest.raises(ConfigurationError):
            EfSceneParams(base_area=0.7, pulsatility=0.4)

    def test_video_intensities_in_unit_range(self):
        scene = gen_ef_video(EfSceneParams(frame_dims=(16, 16), seed=8))
        assert scene.video.min() >= 0.0 and scene.video.max() <= 1.0


class TestEfVideoOracle:
    @pytest.mark.parametrize("params", [
        EfSceneParams(frame_dims=(16, 16), seed=1),
        EfSceneParams(frame_dims=(15, 21), seed=2),
        EfSceneParams(frame_dims=(24, 24), n_beats=2, seed=3),
        EfSceneParams(frame_dims=(16, 16), pulsatility=0.0, seed=4),
        EfSceneParams(frame_dims=(16, 16), aspect=1.0, seed=5),
        EfSceneParams(frame_dims=(16, 16), period_frames=6, seed=6),
        # A circle of radius exactly 4 px about pixel (7, 7): the four pixels
        # 4 px out along the axes lie on its boundary, and are inside.
        EfSceneParams(frame_dims=(15, 15), base_area=np.pi * 16 / 225, pulsatility=0.0,
                      aspect=1.0, seed=7),
    ], ids=["16x16", "15x21", "two_beats", "no_pulsatility", "circle", "period_6",
            "on_boundary"])
    def test_generator_matches_per_frame_loop(self, params):
        scene = gen_ef_video(params)
        masks, video, true_areas = ef_masks_loops(params)
        for got, want in ((scene.masks, masks), (scene.video, video),
                          (scene.true_areas, true_areas)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_samples_match_counting_the_masks(self):
        spec = EfDatasetSpec(n_videos=3, frame_dims=(16, 16), seed=5)
        expected = []
        for scene in generate_ef_scenes(spec):
            extrema = detect_extrema(area_signal(scene.masks, scene.frame_rate))
            expected.extend(extract_beats(scene.video, extrema))
        samples = build_ef_samples(spec)
        assert len(samples) == len(expected) >= 3
        for sample, clip in zip(samples, expected):
            assert (sample.clip.start_frame, sample.clip.end_frame) == (
                clip.start_frame, clip.end_frame)
            assert sample.clip.sub_video.tobytes() == clip.sub_video.tobytes()


class TestGenLvdFrame:
    @staticmethod
    def _pinned(rotation=0.0, jitter=0.0, seed=3):
        return LvdSceneParams(
            frame_dims=(64, 64),
            ivs_range=(10.0, 10.0),
            wall_range=(10.0, 10.0),
            cavity_range=(30.0, 30.0),
            rotation_range=(rotation, rotation),
            center_jitter=jitter,
            mm_per_pixel=1.0,
            seed=seed,
        )

    def test_axis_aligned_dimensions(self):
        scene = gen_lvd_frame(self._pinned())
        assert scene.dims.ivs == pytest.approx(10.0, abs=1e-9)
        assert scene.dims.lvid == pytest.approx(30.0, abs=1e-9)
        assert scene.dims.lvpw == pytest.approx(10.0, abs=1e-9)

    def test_rotation_preserves_dimensions(self):
        flat = gen_lvd_frame(self._pinned(rotation=0.0))
        tilted = gen_lvd_frame(self._pinned(rotation=np.pi / 4))
        for name in ("ivs", "lvid", "lvpw"):
            assert getattr(tilted.dims, name) == pytest.approx(
                getattr(flat.dims, name), abs=1e-9
            )

    def test_keypoints_consistent_with_dims(self):
        scene = gen_lvd_frame(LvdSceneParams(seed=12))
        recomputed = dimensions_from_keypoints(
            scene.keypoints, Calibration(scene.params.mm_per_pixel)
        )
        assert recomputed == scene.dims

    def test_seeded_generation_is_bit_identical(self):
        params = LvdSceneParams(seed=13)
        a, b = gen_lvd_frame(params), gen_lvd_frame(params)
        assert a.frame.tobytes() == b.frame.tobytes()
        np.testing.assert_array_equal(a.keypoints.points, b.keypoints.points)

    def test_oversized_bands_rejected(self):
        with pytest.raises(ConfigurationError):
            gen_lvd_frame(
                LvdSceneParams(frame_dims=(32, 32), cavity_range=(40.0, 40.0), seed=1)
            )

    def test_dimension_spread_matches_ranges(self):
        # Uniform draws on (lo, hi) have sigma (hi - lo) / sqrt(12); the
        # empirical spread over 1000 frames must land within 10%.
        spec = LvdDatasetSpec(n_frames=1000, seed=21)
        scenes = generate_lvd_scenes(spec)
        for name, (lo, hi) in (
            ("ivs", spec.scene.ivs_range),
            ("lvid", spec.scene.cavity_range),
            ("lvpw", spec.scene.wall_range),
        ):
            values = [getattr(s.dims, name) for s in scenes]
            expected = (hi - lo) / np.sqrt(12.0) * spec.scene.mm_per_pixel
            _, sigma = welford(values)
            assert abs(sigma - expected) / expected <= 0.10
            assert sigma == pytest.approx(np.std(values), rel=1e-12)


class TestDatasetSpecs:
    def test_ef_scene_stream_is_deterministic(self):
        spec = EfDatasetSpec(n_videos=3, frame_dims=(16, 16), seed=5)
        a = generate_ef_scenes(spec)
        b = generate_ef_scenes(spec)
        for x, y in zip(a, b):
            assert x.video.tobytes() == y.video.tobytes()
            assert x.ef_true == y.ef_true

    def test_ef_scene_variety(self):
        scenes = generate_ef_scenes(EfDatasetSpec(n_videos=10, frame_dims=(16, 16), seed=5))
        efs = {s.ef_true for s in scenes}
        assert len(efs) == 10
