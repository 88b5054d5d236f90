"""Ejection-fraction estimation: formula, regression model, training, MAE.

The model couples a small per-frame spatial encoder (a stack of
depthwise-separable conv blocks with 2x2 pooling, then global average
pooling to a D-vector per frame) with a temporal regression head: two 1D
conv layers of 128 filters (kernel 7) and 256 filters (kernel 5), a global
max pool, two 256-unit dense layers with Swish, and one output neuron.

The head emits the fraction of ejected volume; predictions are reported in
percent (x100).  MAE is the evaluation metric, with multi-beat predictions
averaged per video before the absolute error.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .beats import BeatClip
from .convops import check_padding
from .errors import ConfigurationError, DomainError, ShapeError
from .nn import (
    Conv1d,
    Dense,
    DepthwiseSeparable2d,
    FrameEncoder,
    GlobalAvgPool2d,
    GlobalMaxPool1d,
    MaxPool2d,
    ModelGraph,
    Swish,
    TrainConfig,
    TrainResult,
    fit,
    split,
    value_and_grad,  # noqa: F401 -- kept as ef.value_and_grad, which perfbench's tests patch
)
from .parallel import map_in_order

EF_LABEL_HEADER = ["clip_path", "ef_percent"]

OUTPUT_SCALE = 100.0  # head emits an ejected-volume fraction; EF is a percent
INPUT_SHIFT = 0.5  # intensities in [0, 1] are centered before encoding


@dataclass(frozen=True)
class VolumePair:
    """End-diastolic and end-systolic left-ventricular volumes."""

    edv: float
    esv: float

    def __post_init__(self):
        if not np.isfinite(self.edv) or not np.isfinite(self.esv):
            raise DomainError("volumes must be finite")
        if self.edv <= 0:
            raise DomainError(f"EDV must be > 0, got {self.edv}")
        if not 0 <= self.esv <= self.edv:
            raise DomainError(f"ESV must lie in [0, EDV], got {self.esv}")


def compute_ef(volumes: VolumePair) -> float:
    """Ejection fraction in percent: 100 * (EDV - ESV) / EDV."""
    return 100.0 * (volumes.edv - volumes.esv) / volumes.edv


@dataclass
class EfSample:
    """One training/evaluation item: a beat clip and its true EF in percent."""

    clip: BeatClip
    ef_true: float
    video_id: str | None = None

    def __post_init__(self):
        if not np.isfinite(self.ef_true) or not 0.0 <= self.ef_true < 100.0:
            raise DomainError(f"ef_true must lie in [0, 100), got {self.ef_true}")


@dataclass(frozen=True)
class EfModelConfig:
    frame_shape: tuple[int, int] = (16, 16)
    encoder_dim: int = 64
    padding: str = "same"
    seed: int = 42

    def __post_init__(self):
        if self.encoder_dim < 4:
            raise ConfigurationError(f"encoder_dim must be >= 4, got {self.encoder_dim}")
        check_padding(self.padding, EfModel.HEAD_KERNELS)

    @property
    def encoder_channels(self) -> tuple[int, int, int]:
        d = self.encoder_dim
        return (max(4, d // 4), max(8, d // 2), d)


class EfModel:
    """Per-frame encoder plus the fixed 1D-conv/FFN regression head."""

    HEAD_FILTERS = (128, 256)
    HEAD_KERNELS = (7, 5)
    HEAD_DENSE = 256

    def __init__(self, config: EfModelConfig, graph: ModelGraph):
        self.config = config
        self.graph = graph

    @classmethod
    def build(cls, config: EfModelConfig) -> "EfModel":
        rng = np.random.default_rng(config.seed)
        c1, c2, d = config.encoder_channels
        encoder = [
            DepthwiseSeparable2d(1, c1, 3, rng=rng), Swish(), MaxPool2d(),
            DepthwiseSeparable2d(c1, c2, 3, rng=rng), Swish(), MaxPool2d(),
            DepthwiseSeparable2d(c2, d, 3, rng=rng), Swish(), MaxPool2d(),
            GlobalAvgPool2d(),
        ]
        f1, f2 = cls.HEAD_FILTERS
        k1, k2 = cls.HEAD_KERNELS
        h = cls.HEAD_DENSE
        head = [
            Conv1d(d, f1, k1, padding=config.padding, rng=rng),
            Swish(),
            Conv1d(f1, f2, k2, padding=config.padding, rng=rng),
            GlobalMaxPool1d(),
            Dense(f2, h, rng=rng), Swish(),
            Dense(h, h, rng=rng), Swish(),
            Dense(h, 1, rng=rng, bias_init=0.5),
        ]
        return cls(config, ModelGraph([FrameEncoder(encoder)] + head))

    def min_clip_length(self) -> int:
        if self.config.padding == "same":
            return 1
        return sum(k - 1 for k in self.HEAD_KERNELS) + 1

    def prepare_input(self, clip: BeatClip | np.ndarray) -> np.ndarray:
        video = clip.sub_video if isinstance(clip, BeatClip) else np.asarray(clip)
        if video.ndim != 3 or video.shape[:2] != self.config.frame_shape:
            raise ShapeError(
                f"clip frames must be {self.config.frame_shape}, got {video.shape}"
            )
        if video.shape[2] < self.min_clip_length():
            raise ShapeError(
                f"clip of {video.shape[2]} frames is too short for "
                f"'{self.config.padding}' padding (need >= {self.min_clip_length()})"
            )
        return video.astype(np.float64) - INPUT_SHIFT

    def predict(self, clip: BeatClip | np.ndarray) -> float:
        raw = self.graph.forward(self.prepare_input(clip))
        return float(raw[0]) * OUTPUT_SCALE


def predict_ef(model: EfModel, clip: BeatClip | np.ndarray) -> float:
    """EF estimate in percent for one clip."""
    value = model.predict(clip)
    if not np.isfinite(value):
        raise DomainError("model produced a non-finite prediction")
    return value


def _group_by_video(samples, values=None):
    """*values* (default: the samples), one list per video in first-seen order."""
    groups: dict = {}
    for i, (s, value) in enumerate(zip(samples, samples if values is None else values)):
        key = s.video_id if s.video_id is not None else f"__sample_{i}"
        groups.setdefault(key, []).append(value)
    return groups


def evaluate_mae(model: EfModel, samples) -> float:
    """Mean absolute EF error in percent points.

    Predictions of multiple beats from one video are averaged before the
    absolute error (an assumption: the evaluation protocol for multi-beat
    videos is not pinned down elsewhere).
    """
    if not samples:
        raise ShapeError("empty dataset")
    # predict_ef is looked up per call, so a patched binding reaches the workers.
    preds = map_in_order(lambda s: predict_ef(model, s.clip), samples)
    errors = [
        abs(float(np.mean(group)) - truth)
        for group, truth in zip(_group_by_video(samples, preds).values(), video_truths(samples))
    ]
    return float(np.mean(errors))


def video_truths(samples) -> list[float]:
    """One true EF per video (its first beat's), in first-seen order."""
    return [group[0].ef_true for group in _group_by_video(samples).values()]


def baseline_mae(samples, constant: float | None = None) -> float:
    """MAE of a constant predictor (defaults to the samples' mean EF)."""
    if not samples:
        raise ShapeError("empty dataset")
    truths = video_truths(samples)
    if constant is None:
        constant = float(np.mean(truths))
    return float(np.mean([abs(constant - t) for t in truths]))


def split_dataset(samples, seed: int, train_fraction: float = 0.8):
    """Deterministic shuffled split, grouped so one video never straddles it."""
    return split(list(_group_by_video(samples).values()), seed, train_fraction)


def train_ef(model: EfModel, samples, config: TrainConfig) -> tuple[EfModel, TrainResult]:
    """Train on an 80/20 seeded split; the best-val-MAE weights are restored.

    History holds one train/val MAE pair per epoch.  With epochs=0 the
    model is returned unchanged and the history is empty.
    """
    train, val = split_dataset(samples, seed=config.seed)
    pairs = [
        (model.prepare_input(s.clip), np.array([s.ef_true / OUTPUT_SCALE]))
        for s in train
    ]
    result = fit(model.graph, pairs, config.loss,
                 lambda part: evaluate_mae(model, part), train, val, config)
    return model, result


def load_ef_dataset(data_dir) -> list[EfSample]:
    """Load clips and labels from a dataset directory.

    Expects ``labels.csv`` with header ``clip_path,ef_percent``; paths are
    relative to the directory.  If ``manifest.json`` maps clips to videos,
    the mapping is used to group beats per video.
    """
    import json

    from .datasets import read_labels
    from .tensorio import read_finite_tensor

    data_dir = Path(data_dir)
    rows = read_labels(data_dir / "labels.csv", EF_LABEL_HEADER, numeric=("ef_percent",))
    video_of: dict[str, str] = {}
    manifest_path = data_dir / "manifest.json"
    if manifest_path.exists():
        try:
            manifest = json.loads(manifest_path.read_text())
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise ConfigurationError(f"{manifest_path}: not valid JSON: {exc}") from None
        clips = manifest.get("clips", []) if isinstance(manifest, dict) else None
        if not isinstance(clips, list) or not all(
            isinstance(c, dict) and "clip_path" in c for c in clips
        ):
            raise ConfigurationError(
                f"{manifest_path}: expected an object whose 'clips' entries each have a clip_path"
            )
        video_of = {c["clip_path"]: c.get("video_id") for c in clips}
    samples = []
    for row in rows:
        video = read_finite_tensor(data_dir / row["clip_path"])
        clip = BeatClip(0, video.shape[2] - 1, video)
        samples.append(
            EfSample(
                clip=clip,
                ef_true=row["ef_percent"],
                video_id=video_of.get(row["clip_path"]),
            )
        )
    return samples

