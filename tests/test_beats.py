import numpy as np
import pytest

from echokit.beats import (
    AreaSignal,
    BeatClip,
    ExtremaList,
    area_signal,
    default_min_separation,
    detect_extrema,
    extract_beats,
    mask_area,
    moving_average,
)
from echokit.errors import ConfigurationError, ValidationError
from echokit.synth import EfSceneParams, gen_ef_video

from oracles import beat_pairs_scan


def rasterize_disk(n, radius):
    c = (n - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(n), np.arange(n))
    return ((xx - c) ** 2 + (yy - c) ** 2 <= radius**2).astype(float)


class TestMaskArea:
    def test_all_zero(self):
        assert mask_area(np.zeros((4, 4))) == 0

    def test_all_ones(self):
        assert mask_area(np.ones((4, 4))) == 16

    def test_disk_matches_counting_oracle(self):
        disk = rasterize_disk(32, 5.0)
        count = 0
        for x in range(32):
            for y in range(32):
                if disk[x, y] == 1.0:
                    count += 1
        assert mask_area(disk) == count

    def test_non_binary_rejected(self):
        with pytest.raises(ValidationError):
            mask_area(np.full((3, 3), 0.5))


class TestAreaSignal:
    def test_constant_masks(self):
        masks = np.tile(rasterize_disk(16, 4.0)[:, :, None], (1, 1, 7))
        signal = area_signal(masks, frame_rate=50.0)
        assert len(set(signal.values.tolist())) == 1

    def test_single_frame(self):
        signal = area_signal(np.ones((4, 4, 1)), frame_rate=50.0)
        assert signal.values.tolist() == [16]

    def test_pulsating_disk_matches_generator_counts(self):
        scene = gen_ef_video(EfSceneParams(frame_dims=(32, 32), seed=3))
        signal = area_signal(scene.masks, scene.frame_rate)
        np.testing.assert_array_equal(signal.values, scene.true_areas)


class TestDetectExtrema:
    def test_monotone_signal_has_no_interior_extrema(self):
        extrema = detect_extrema(np.linspace(0, 10, 50), min_separation=5)
        interior = [i for i in extrema.maxima + extrema.minima if 0 < i < 49]
        assert interior == []

    def test_single_period_from_crest(self):
        # One full 41-frame beat starting at the crest: exactly one maximum
        # at the crest and one minimum half a period later.
        p = 41
        t = np.arange(p)
        values = 100.0 - 40.0 * (1.0 - np.cos(2.0 * np.pi * t / p)) / 2.0
        extrema = detect_extrema(AreaSignal(values, frame_rate=p / 0.8))
        assert len(extrema.maxima) == 1 and len(extrema.minima) == 1
        assert abs(extrema.maxima[0] - 0) <= 1
        assert abs(extrema.minima[0] - 20) <= 1

    def test_noisy_sinusoid_matches_noiseless(self):
        # 5%-of-range uniform noise; the optional smoothing window keeps the
        # argmax stable near the flat crest.
        p = 41
        t = np.arange(p)
        clean = 100.0 - 40.0 * (1.0 - np.cos(2.0 * np.pi * t / p)) / 2.0
        base = detect_extrema(AreaSignal(clean, frame_rate=p / 0.8), min_prominence=0.2)
        noise = np.random.default_rng(42).uniform(-0.05, 0.05, p) * 40.0
        noisy = detect_extrema(
            AreaSignal(clean + noise, frame_rate=p / 0.8),
            min_prominence=0.2,
            smooth_window=5,
        )
        assert len(noisy.maxima) == len(base.maxima) == 1
        assert len(noisy.minima) == len(base.minima) == 1
        assert abs(noisy.maxima[0] - base.maxima[0]) <= 1
        assert abs(noisy.minima[0] - base.minima[0]) <= 1

    def test_constant_signal_empty(self):
        extrema = detect_extrema(np.ones(10), min_separation=2)
        assert extrema.maxima == [] and extrema.minima == []

    def test_alternation_and_separation_on_noisy_beats(self):
        rng = np.random.default_rng(0)
        t = np.arange(120)
        values = 50 + 20 * np.cos(2 * np.pi * t / 40) + rng.uniform(-2, 2, 120)
        extrema = detect_extrema(values, min_separation=16, min_prominence=0.1)
        extrema.validate(120)  # alternation + strict ordering
        for idx in (extrema.maxima, extrema.minima):
            assert all(b - a >= 16 for a, b in zip(idx, idx[1:]))

    def test_spacing_tracks_period(self):
        for period in (30, 41, 60):
            scene = gen_ef_video(
                EfSceneParams(frame_dims=(64, 64), period_frames=period, n_beats=3,
                              base_area=0.12, pulsatility=0.25, seed=5)
            )
            signal = area_signal(scene.masks, scene.frame_rate)
            extrema = detect_extrema(signal)
            gaps = np.diff(extrema.maxima)
            assert np.all(np.abs(gaps - period) <= 2)

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            detect_extrema(np.arange(10.0), min_separation=0)
        with pytest.raises(ConfigurationError):
            detect_extrema(np.arange(10.0), min_separation=2, min_prominence=1.5)
        with pytest.raises(ConfigurationError):
            detect_extrema(np.arange(10.0))  # no frame rate, no separation

    def test_default_separation_from_frame_rate(self):
        assert default_min_separation(51.25) == 16


class TestMovingAverage:
    def test_constant_unchanged(self):
        np.testing.assert_allclose(moving_average(np.full(9, 3.0), 5), 3.0)

    def test_even_window_rejected(self):
        with pytest.raises(ConfigurationError):
            moving_average(np.arange(5.0), 4)


class TestExtractBeats:
    @staticmethod
    def _video(nt):
        return np.random.default_rng(1).uniform(0, 1, (4, 4, nt))

    def test_single_pair(self):
        clips = extract_beats(self._video(40), ExtremaList(maxima=[10], minima=[30]))
        assert len(clips) == 1
        assert (clips[0].start_frame, clips[0].end_frame) == (10, 30)
        assert clips[0].n_frames == 21

    def test_two_pairs(self):
        clips = extract_beats(
            self._video(80), ExtremaList(maxima=[5, 50], minima=[25, 70])
        )
        assert [(c.start_frame, c.end_frame) for c in clips] == [(5, 25), (50, 70)]

    def test_trailing_maximum_dropped(self):
        clips = extract_beats(
            self._video(80), ExtremaList(maxima=[5, 60], minima=[25])
        )
        assert [(c.start_frame, c.end_frame) for c in clips] == [(5, 25)]

    def test_clips_ordered_and_disjoint_starts(self):
        scene = gen_ef_video(
            EfSceneParams(frame_dims=(32, 32), n_beats=4, base_area=0.12,
                          pulsatility=0.2, seed=9)
        )
        extrema = detect_extrema(area_signal(scene.masks, scene.frame_rate))
        clips = extract_beats(scene.video, extrema)
        starts = [c.start_frame for c in clips]
        assert starts == sorted(set(starts))
        for clip in clips:
            assert clip.start_frame in extrema.maxima
            following = [m for m in extrema.minima if m > clip.start_frame]
            assert clip.end_frame == following[0]

    def test_clip_frames_copied_inclusively(self):
        video = self._video(40)
        clip = extract_beats(video, ExtremaList(maxima=[3], minima=[8]))[0]
        np.testing.assert_array_equal(clip.sub_video, video[:, :, 3:9])

    def test_invalid_extrema_rejected(self):
        with pytest.raises(ValidationError):
            extract_beats(self._video(10), ExtremaList(maxima=[3, 5], minima=[]))

    def test_intensity_scaling_invariance(self):
        # Extraction is driven by masks only, so scaling the video intensity
        # leaves every frame range and the clip contents' scale relation intact.
        scene = gen_ef_video(EfSceneParams(frame_dims=(32, 32), seed=11))
        extrema = detect_extrema(area_signal(scene.masks, scene.frame_rate))
        clips = extract_beats(scene.video, extrema)
        scaled = extract_beats(2.5 * scene.video, extrema)
        assert [(c.start_frame, c.end_frame) for c in clips] == [
            (c.start_frame, c.end_frame) for c in scaled
        ]
        np.testing.assert_allclose(scaled[0].sub_video, 2.5 * clips[0].sub_video)


class TestBeatClip:
    def test_rejects_reversed_range(self):
        with pytest.raises(ValidationError):
            BeatClip(start_frame=5, end_frame=5, sub_video=np.zeros((2, 2, 1)))


class TestExtractBeatsManyBeats:
    def test_matches_rescanning_oracle(self):
        rng = np.random.default_rng(21)
        frames, kinds = [], []
        t = 0
        for n in range(2000):  # alternating, starts with a minimum, ends on a maximum
            t += int(rng.integers(1, 9))
            frames.append(t)
            kinds.append("min" if n % 2 == 0 else "max")
        extrema = ExtremaList(
            maxima=[f for f, k in zip(frames, kinds) if k == "max"],
            minima=[f for f, k in zip(frames, kinds) if k == "min"],
        )
        video = rng.uniform(0, 1, (1, 2, t + 1))
        clips = extract_beats(video, extrema)
        want = beat_pairs_scan(extrema.maxima, extrema.minima)
        assert len(want) == len(extrema.maxima) - 1
        assert [(c.start_frame, c.end_frame) for c in clips] == want
        for clip, (start, end) in zip(clips, want):
            np.testing.assert_array_equal(clip.sub_video, video[:, :, start : end + 1])
