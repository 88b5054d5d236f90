"""recording: the extract-beats path, then EF inference on every beat.

Each recording is a CTR1 video and mask pair written in setup.  Per
recording, a repetition makes the calls of ``cli.cmd_extract_beats`` with
its defaults (``read_tensor`` twice, ``area_signal``, ``detect_extrema``
without smoothing, ``extract_beats``, ``write_tensor`` per clip and the
index) and then ``predict_ef`` on every clip with a model built in setup.

The masks follow the synthetic cosine area curve of ``echokit.synth``
plus a uniform per-frame area jitter of +-20% of the beat amplitude, so
the peak detector sees many spurious reversals, as on a real noisy
segmentation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from echokit import beats, ef, synth, tensorio

from .harness import Ledger, check, rate

BEATS_PER_RECORDING = (50, 100, 400)  # 2050, 4100 and 16400 frames
PERIOD_FRAMES = 41
FRAME_RATE = PERIOD_FRAMES / synth.NOMINAL_BEAT_SECONDS  # the CLI default, 51.25
FRAME_SIZE = 16
AREA_JITTER = 0.2  # of the beat amplitude
PIXEL_NOISE = 0.03
# Fixed ellipse shape: the spurious extrema the jitter creates, and so the
# detector's cost, vary much less between seeds than with drawn shapes.
BASE_AREA, AMPLITUDE, ASPECT = 0.13, 0.25, 1.2  # areas as fractions of the frame


@dataclass
class Recording:
    name: str
    video_path: Path
    masks_path: Path
    n_frames: int
    n_beats: int


@dataclass
class RecordingState:
    recordings: list[Recording]
    model: ef.EfModel
    out_dir: Path


def make_recording(rng: np.random.Generator, n_beats: int):
    """A pulsating-ellipse video and its masks with seeded area jitter and noise."""
    nx = ny = FRAME_SIZE
    nt = n_beats * PERIOD_FRAMES
    base, amplitude, aspect = BASE_AREA * nx * ny, AMPLITUDE * nx * ny, ASPECT
    phase = 2.0 * np.pi * np.arange(nt) / PERIOD_FRAMES
    areas = base + amplitude * (1.0 + np.cos(phase)) / 2.0
    areas += rng.uniform(-AREA_JITTER, AREA_JITTER, nt) * amplitude
    semi_x = np.sqrt(areas * aspect / np.pi)
    semi_y = semi_x / aspect
    rows = (np.arange(nx) - (nx - 1) / 2.0)[:, None, None]
    cols = (np.arange(ny) - (ny - 1) / 2.0)[None, :, None]
    masks = ((rows / semi_x) ** 2 + (cols / semi_y) ** 2 <= 1.0).astype(np.float64)
    noise = rng.uniform(-PIXEL_NOISE, PIXEL_NOISE, masks.shape)
    video = np.clip(
        synth.EXTERIOR_LEVEL + (synth.INTERIOR_LEVEL - synth.EXTERIOR_LEVEL) * masks + noise,
        0.0, 1.0,
    )
    return video, masks


class RecordingWorkload:
    name = "recording"
    throughput_name = "frames_per_s"
    eval_throughput_name = "predictions_per_s"
    reference_kernel = "layers"  # see calibrate.py
    traced_methods = (("setup", True), ("extract", True), ("predict", False))

    def __init__(self, beats_per_recording=BEATS_PER_RECORDING):
        self.beats_per_recording = tuple(beats_per_recording)

    def setup(self, seed: int, workdir: Path) -> RecordingState:
        """Write the recordings as CTR1 files, then load."""
        rng = np.random.default_rng(seed)
        for rec in self._recordings(workdir):
            video, masks = make_recording(rng, rec.n_beats)
            tensorio.write_tensor(rec.video_path, video)
            tensorio.write_tensor(rec.masks_path, masks)
            del video, masks  # before the next recording is made
        return self.load(seed, workdir)

    def load(self, seed: int, workdir: Path) -> RecordingState:
        """Build the EF model and warm up inference."""
        model = ef.EfModel.build(
            ef.EfModelConfig(frame_shape=(FRAME_SIZE, FRAME_SIZE), seed=seed)
        )
        ef.predict_ef(model, np.zeros((FRAME_SIZE, FRAME_SIZE, PERIOD_FRAMES // 2)))
        return RecordingState(self._recordings(workdir), model, workdir / "clips")

    def _recordings(self, workdir: Path) -> list[Recording]:
        rec_dir = workdir / "recordings"
        rec_dir.mkdir(parents=True, exist_ok=True)
        recordings = []
        for i, n_beats in enumerate(self.beats_per_recording):
            name = f"rec{i}_{n_beats * PERIOD_FRAMES}f"
            recordings.append(Recording(name, rec_dir / f"{name}_video.ctr",
                                        rec_dir / f"{name}_masks.ctr",
                                        n_beats * PERIOD_FRAMES, n_beats))
        return recordings

    def extract(self, rec: Recording, out_dir: Path):
        """``echokit extract-beats`` with its default flags.

        This repeats the body of ``cli.cmd_extract_beats`` rather than
        calling it, because ``predict_ef`` needs the clips in memory and
        the CLI returns only a report.
        """
        video = tensorio.read_tensor(rec.video_path)
        masks = tensorio.read_tensor(rec.masks_path)
        check(video.shape == masks.shape, f"video {video.shape} and masks {masks.shape} differ")
        signal = beats.area_signal(masks, frame_rate=FRAME_RATE)
        extrema = beats.detect_extrema(
            signal, min_separation=None,
            min_prominence=beats.DEFAULT_MIN_PROMINENCE, smooth_window=0,
        )
        clips = beats.extract_beats(video, extrema)
        out_dir.mkdir(parents=True, exist_ok=True)
        index = {"clips": [], "maxima": extrema.maxima, "minima": extrema.minima}
        for i, clip in enumerate(clips):
            rel = f"beat_{i:03d}.ctr"
            tensorio.write_tensor(out_dir / rel, clip.sub_video)
            index["clips"].append({
                "path": rel, "start_frame": clip.start_frame, "end_frame": clip.end_frame,
                "start_area": int(signal.values[clip.start_frame]),
                "end_area": int(signal.values[clip.end_frame]),
            })
        (out_dir / "index.json").write_text(json.dumps(index, sort_keys=True, indent=2) + "\n")
        return clips

    def predict(self, model: ef.EfModel, clips) -> list[float]:
        return [ef.predict_ef(model, clip) for clip in clips]

    def rep(self, state: RecordingState, ledger: Ledger, timed) -> dict:
        """One pass over every recording; each recording is one operation;
        *timed* times each call."""
        frames = clips_done = true_beats = 0
        total_s = predict_s = 0.0
        for rec in state.recordings:
            with ledger.op(f"recording {rec.name}"):
                clips, seconds = timed(self.extract, rec, state.out_dir / rec.name)
                predictions, p_seconds = timed(self.predict, state.model, clips)
                check(abs(len(clips) - rec.n_beats) <= 1,
                      f"{len(clips)} clips from {rec.n_beats} beats")
                check(bool(np.all(np.isfinite(predictions))), "non-finite EF prediction")
                frames += rec.n_frames
                clips_done += len(clips)
                true_beats += rec.n_beats
                total_s += seconds + p_seconds
                predict_s += p_seconds
        return {"frames": frames, "seconds": total_s, "clips": clips_done,
                "predict_s": predict_s, "true_beats": true_beats}

    def summary(self, reps: list[dict]) -> dict:
        return {
            "frames_per_s": (rate(reps, "frames", "seconds"), "frames/s"),
            "predictions_per_s": (rate(reps, "clips", "predict_s"), "clips/s"),
        }
