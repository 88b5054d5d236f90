"""Left-ventricular dimension estimation from four keypoints.

Four points along the parasternal measurement line (anterior septum,
posterior septum, endocardial posterior wall, epicardial posterior wall)
yield three lengths: septal thickness (IVS) between p1 and p2, internal
diameter (LVID) between p2 and p3, and posterior wall thickness (LVPW)
between p3 and p4, each a Euclidean pixel distance scaled by a
millimeter-per-pixel calibration.

The training loss for predicted lengths is a weighted sum of squared
errors whose weights are the reciprocals of the per-length standard
deviations over the training labels, so low-variability measurements
count more.  Keypoints are predicted by direct coordinate regression from
a small convolutional encoder.

Coordinates are (row, col) pixel positions in the frame array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DomainError, ShapeError
from .nn import (
    Dense,
    DepthwiseSeparable2d,
    Flatten,
    MaxPool2d,
    ModelGraph,
    Swish,
    TrainConfig,
    TrainResult,
    fit,
    split,
)
from .parallel import map_in_order

LVD_LABEL_HEADER = [
    "frame_path", "x1", "y1", "x2", "y2", "x3", "y3", "x4", "y4", "mm_per_pixel",
]

DIMENSION_NAMES = ("ivs", "lvid", "lvpw")

INPUT_SHIFT = 0.5


@dataclass(frozen=True)
class Calibration:
    """Physical scale of a frame."""

    mm_per_pixel: float

    def __post_init__(self):
        if self.mm_per_pixel <= 0:
            raise DomainError(f"mm_per_pixel must be > 0, got {self.mm_per_pixel}")


@dataclass
class KeypointSet:
    """The four measurement points, ordered p1 to p4 along the line."""

    points: np.ndarray  # (4, 2) float, (row, col) pixels

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.float64)
        if points.shape != (4, 2):
            raise ShapeError(f"keypoints must have shape (4, 2), got {points.shape}")
        if not np.all(np.isfinite(points)):
            raise DomainError("keypoints must be finite")
        self.points = points

    def in_bounds(self, frame_shape) -> bool:
        nx, ny = frame_shape
        return bool(
            np.all(self.points >= 0.0)
            and np.all(self.points[:, 0] <= nx - 1)
            and np.all(self.points[:, 1] <= ny - 1)
        )


@dataclass(frozen=True)
class LvDimensions:
    """IVS, LVID, and LVPW lengths in millimeters."""

    ivs: float
    lvid: float
    lvpw: float

    def as_array(self) -> np.ndarray:
        return np.array([self.ivs, self.lvid, self.lvpw], dtype=np.float64)

    def is_degenerate(self) -> bool:
        return bool(np.any(self.as_array() == 0.0))


@dataclass(frozen=True)
class LossWeights:
    """Reciprocal standard deviations of the training-label lengths."""

    w_ivs: float
    w_lvid: float
    w_lvpw: float

    def __post_init__(self):
        if min(self.w_ivs, self.w_lvid, self.w_lvpw) <= 0:
            raise ConfigurationError("loss weights must be positive")

    def as_array(self) -> np.ndarray:
        return np.array([self.w_ivs, self.w_lvid, self.w_lvpw], dtype=np.float64)


def segment_lengths(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Differences p[m] - p[m+1] of four (row, col) points and their lengths."""
    diffs = points[:-1] - points[1:]
    return diffs, np.sqrt((diffs**2).sum(axis=1))


def dimensions_from_keypoints(kp: KeypointSet, cal: Calibration) -> LvDimensions:
    """Euclidean distances between adjacent keypoints, in millimeters.

    Coincident adjacent points yield a zero dimension; callers doing batch
    evaluation should record such results as degenerate rather than fail.
    """
    return LvDimensions(*(segment_lengths(kp.points)[1] * cal.mm_per_pixel))


def loss_weights(train_labels) -> LossWeights:
    """Per-dimension reciprocal population standard deviations.

    Needs at least two labels and nonzero variance in every dimension;
    otherwise set weights manually.
    """
    labels = [d.as_array() for d in train_labels]
    if len(labels) < 2:
        raise ConfigurationError("need >= 2 training labels to estimate weights")
    stacked = np.stack(labels)
    sigma = stacked.std(axis=0)  # population std (divisor n)
    if np.any(sigma == 0.0):
        flat = [DIMENSION_NAMES[i] for i in np.flatnonzero(sigma == 0.0)]
        raise ConfigurationError(
            f"zero variance in {flat}; supply LossWeights manually instead"
        )
    return LossWeights(*(1.0 / sigma))


def _dims_batch(dims) -> np.ndarray:
    if isinstance(dims, np.ndarray):
        return np.atleast_2d(dims)
    if isinstance(dims, LvDimensions):
        dims = [dims]
    return np.stack([d.as_array() for d in dims])


def lvd_loss(pred, target, weights: LossWeights) -> float:
    """Weighted squared length errors, averaged over the batch.

    *pred* and *target* are LvDimensions, equal-length sequences thereof,
    or (B, 3) / (3,) arrays of (ivs, lvid, lvpw) lengths.
    """
    p, t = _dims_batch(pred), _dims_batch(target)
    if p.shape != t.shape:
        raise ShapeError(f"pred batch {p.shape} != target batch {t.shape}")
    per_sample = ((p - t) ** 2 * weights.as_array()).sum(axis=1)
    return float(per_sample.mean())


def lvd_loss_grad(pred, target, weights: LossWeights) -> np.ndarray:
    """Gradient of lvd_loss w.r.t. the predicted dimensions, shape (B, 3)."""
    p, t = _dims_batch(pred), _dims_batch(target)
    return 2.0 * (p - t) * weights.as_array() / p.shape[0]


@dataclass(frozen=True)
class LvdModelConfig:
    frame_shape: tuple[int, int] = (64, 64)
    channels: tuple[int, int, int] = (8, 16, 16)
    hidden: int = 64
    seed: int = 42

    def __post_init__(self):
        nx, ny = self.frame_shape
        if nx // 8 < 1 or ny // 8 < 1:
            raise ConfigurationError("frame must be at least 8x8 for three pool stages")


class LvdModel:
    """Conv encoder with direct regression of the four keypoints.

    The head emits 8 values in units of the frame size; predictions are
    scaled to pixels and clamped to the frame.
    """

    def __init__(self, config: LvdModelConfig, graph: ModelGraph):
        self.config = config
        self.graph = graph

    @classmethod
    def build(cls, config: LvdModelConfig) -> "LvdModel":
        rng = np.random.default_rng(config.seed)
        c1, c2, c3 = config.channels
        nx, ny = config.frame_shape
        flat = (nx // 8) * (ny // 8) * c3
        graph = ModelGraph([
            DepthwiseSeparable2d(1, c1, 3, rng=rng), Swish(), MaxPool2d(),
            DepthwiseSeparable2d(c1, c2, 3, rng=rng), Swish(), MaxPool2d(),
            DepthwiseSeparable2d(c2, c3, 3, rng=rng), Swish(), MaxPool2d(),
            Flatten(),
            Dense(flat, config.hidden, rng=rng), Swish(),
            Dense(config.hidden, 8, rng=rng, bias_init=0.5),
        ])
        return cls(config, graph)

    def coord_scale(self) -> np.ndarray:
        nx, ny = self.config.frame_shape
        return np.tile([nx - 1.0, ny - 1.0], 4)

    def prepare_input(self, frame: np.ndarray) -> np.ndarray:
        frame = np.asarray(frame, dtype=np.float64)
        if frame.shape != tuple(self.config.frame_shape):
            raise ShapeError(
                f"frame must be {self.config.frame_shape}, got {frame.shape}"
            )
        return frame[:, :, None] - INPUT_SHIFT

    def predict_raw(self, frame: np.ndarray) -> np.ndarray:
        return self.graph.forward(self.prepare_input(frame))


def predict_keypoints(model: LvdModel, frame: np.ndarray) -> KeypointSet:
    """Predicted keypoints in pixel coordinates, clamped to the frame."""
    raw = model.predict_raw(frame)
    px = raw * model.coord_scale()
    nx, ny = model.config.frame_shape
    points = px.reshape(4, 2)
    points[:, 0] = np.clip(points[:, 0], 0.0, nx - 1.0)
    points[:, 1] = np.clip(points[:, 1], 0.0, ny - 1.0)
    return KeypointSet(points=points)


@dataclass
class LvdSample:
    """One annotated frame: image, keypoints, and calibration."""

    frame: np.ndarray
    keypoints: KeypointSet
    mm_per_pixel: float = 1.0

    @property
    def calibration(self) -> Calibration:
        return Calibration(self.mm_per_pixel)

    def dimensions(self) -> LvDimensions:
        return dimensions_from_keypoints(self.keypoints, self.calibration)


class LvdObjective:
    """Coordinate MSE plus the weighted length loss, on raw model outputs.

    The coordinate term anchors the four points; the length term is
    lvd_loss on the lengths of the predicted segments, and a zero-length
    segment passes it no gradient.  The coordinate coefficient defaults to
    1 and is exposed on the training CLI.
    """

    def __init__(self, weights: LossWeights, coord_scale: np.ndarray,
                 coord_coef: float = 1.0):
        self.weights = weights
        self.scale = np.asarray(coord_scale, dtype=np.float64)
        self.coord_coef = coord_coef

    def __call__(self, raw, target):
        kp_px, mm_per_pixel, target_mm = target
        pred_px = raw * self.scale
        diff_px = pred_px - kp_px.ravel()
        coord_value = float(np.mean(diff_px**2))
        d_raw = self.coord_coef * 2.0 * diff_px / diff_px.size * self.scale

        diffs, length_px = segment_lengths(pred_px.reshape(4, 2))
        length_mm = length_px * mm_per_pixel
        value = self.coord_coef * coord_value + lvd_loss(length_mm, target_mm, self.weights)
        d_length = lvd_loss_grad(length_mm, target_mm, self.weights)[0] * mm_per_pixel
        direction = np.divide(diffs, length_px[:, None], out=np.zeros((3, 2)),
                              where=length_px[:, None] > 0.0)
        pull = d_length[:, None] * direction
        d_points = np.zeros((4, 2))
        d_points[:-1] += pull
        d_points[1:] -= pull
        d_raw += d_points.ravel() * self.scale
        return value, d_raw


@dataclass
class LvdEvaluation:
    mae_ivs: float
    mae_lvid: float
    mae_lvpw: float
    n_samples: int
    degenerate: list = field(default_factory=list)

    @property
    def mean_mae(self) -> float:
        return float((self.mae_ivs + self.mae_lvid + self.mae_lvpw) / 3.0)

    def as_dict(self):
        return {
            "mae_ivs": self.mae_ivs,
            "mae_lvid": self.mae_lvid,
            "mae_lvpw": self.mae_lvpw,
            "mae_mean": self.mean_mae,
            "n_samples": self.n_samples,
            "n_degenerate": len(self.degenerate),
        }


def evaluate_lvd(model: LvdModel, samples) -> LvdEvaluation:
    """Per-dimension MAE in millimeters over a sample list.

    Zero predicted dimensions are recorded as degenerate warnings, not
    errors.
    """
    if not samples:
        raise ShapeError("empty dataset")
    errors = np.zeros((len(samples), 3))
    degenerate = []
    # predict_keypoints is looked up per call, so a patched binding reaches the workers.
    preds = map_in_order(
        lambda s: dimensions_from_keypoints(predict_keypoints(model, s.frame), s.calibration),
        samples,
    )
    for i, (sample, pred) in enumerate(zip(samples, preds)):
        if pred.is_degenerate():
            zero_dims = [
                DIMENSION_NAMES[j] for j in np.flatnonzero(pred.as_array() == 0.0)
            ]
            degenerate.append({"sample": i, "dimensions": zero_dims})
        errors[i] = np.abs(pred.as_array() - sample.dimensions().as_array())
    mae = errors.mean(axis=0)
    return LvdEvaluation(
        mae_ivs=float(mae[0]), mae_lvid=float(mae[1]), mae_lvpw=float(mae[2]),
        n_samples=len(samples), degenerate=degenerate,
    )


def constant_baseline_mae(samples, dims: LvDimensions | None = None) -> LvdEvaluation:
    """MAE of a constant predictor, default all points at the frame center."""
    if not samples:
        raise ShapeError("empty dataset")
    if dims is None:
        dims = LvDimensions(0.0, 0.0, 0.0)
    errors = np.stack(
        [np.abs(dims.as_array() - s.dimensions().as_array()) for s in samples]
    )
    mae = errors.mean(axis=0)
    return LvdEvaluation(
        mae_ivs=float(mae[0]), mae_lvid=float(mae[1]), mae_lvpw=float(mae[2]),
        n_samples=len(samples),
    )


def split_samples(samples, seed: int, train_fraction: float = 0.8):
    """Deterministic shuffled split of single frames."""
    return split([[s] for s in samples], seed, train_fraction)


def train_lvd(model: LvdModel, samples, config: TrainConfig,
              coord_coef: float = 1.0) -> tuple[LvdModel, TrainResult]:
    """Train on an 80/20 seeded split with weights from the training split.

    History holds the per-epoch train/val mean dimension MAE; the weights
    used by the loss are returned for reporting.
    """
    train, val = split_samples(samples, seed=config.seed)
    weights = loss_weights([s.dimensions() for s in train])
    objective = LvdObjective(weights, model.coord_scale(), coord_coef)
    pairs = [
        (
            model.prepare_input(s.frame),
            (s.keypoints.points, s.mm_per_pixel, s.dimensions().as_array()),
        )
        for s in train
    ]
    result = fit(model.graph, pairs, objective,
                 lambda part: evaluate_lvd(model, part).mean_mae, train, val, config)
    result.weights = weights
    return model, result


def load_lvd_dataset(data_dir) -> list[LvdSample]:
    """Load frames and keypoint labels from a dataset directory.

    Expects ``labels.csv`` with the header
    ``frame_path,x1,y1,...,x4,y4,mm_per_pixel``; paths are relative to the
    directory.
    """
    from .datasets import read_labels
    from .tensorio import read_finite_tensor

    data_dir = Path(data_dir)
    samples = []
    for row in read_labels(data_dir / "labels.csv", LVD_LABEL_HEADER,
                           numeric=LVD_LABEL_HEADER[1:]):
        frame = read_finite_tensor(data_dir / row["frame_path"])
        points = np.array([[row[f"x{i}"], row[f"y{i}"]] for i in range(1, 5)])
        samples.append(
            LvdSample(
                frame=frame,
                keypoints=KeypointSet(points=points),
                mm_per_pixel=row["mm_per_pixel"],
            )
        )
    return samples
