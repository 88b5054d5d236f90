"""Deterministic synthetic echo-like data with exact ground truth.

gen_ef_video() renders a pulsating ellipse whose area follows

    A(t) = A_max - (A_max - A_min) * (1 - cos(2*pi*t / P)) / 2,

so the clip starts at diastole (crest) and every beat spans P frames.
Masks are exact rasterizations, rendered for all frames in one
broadcast pass, and the generator emits their per-frame pixel counts;
datasets.build_ef_samples detects beats from those counts rather than
counting the masks again.  The EF ground truth uses the isotropic-shape
convention volume ~ area^(3/2): the label is ef.compute_ef of the volumes
A_max^(3/2) and A_min^(3/2), 100 * (1 - (A_min/A_max)^(3/2)) in closed
form; the frame rate is set so one beat lasts a nominal 0.8 s.

gen_lvd_frame() renders three parallel bands (septum, cavity, posterior
wall) at a sampled rotation and center; the four keypoints sit exactly at
the band boundaries on the measurement line, so the emitted dimensions
are consistent with the emitted keypoints by construction.

Equal seeds give bit-identical tensors and labels.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .beats import ExtremaList
from .ef import VolumePair, compute_ef
from .errors import ConfigurationError
from .lvd import Calibration, KeypointSet, LvDimensions, dimensions_from_keypoints

INTERIOR_LEVEL = 0.8
EXTERIOR_LEVEL = 0.2

NOMINAL_BEAT_SECONDS = 0.8


@dataclass(frozen=True)
class EfSceneParams:
    frame_dims: tuple[int, int] = (64, 64)
    period_frames: int = 41
    n_beats: int = 1
    base_area: float = 0.15  # systolic area as a fraction of the frame
    pulsatility: float = 0.2  # diastolic minus systolic area fraction
    noise_amplitude: float = 0.03
    aspect: float = 1.25  # ellipse axis ratio a/b
    seed: int = 42

    def __post_init__(self):
        if self.period_frames < 6:
            raise ConfigurationError(f"period_frames must be >= 6, got {self.period_frames}")
        if self.n_beats < 1:
            raise ConfigurationError(f"n_beats must be >= 1, got {self.n_beats}")
        if not (0.0 < self.base_area and 0.0 <= self.pulsatility
                and self.base_area + self.pulsatility < 1.0):
            raise ConfigurationError(
                "need 0 < base_area and base_area + pulsatility < 1, got "
                f"{self.base_area} + {self.pulsatility}"
            )
        if self.noise_amplitude < 0:
            raise ConfigurationError("noise_amplitude must be >= 0")
        if self.aspect < 1.0:
            raise ConfigurationError("aspect must be >= 1")


@dataclass
class EfScene:
    """A generated video plus every piece of its ground truth."""

    video: np.ndarray
    masks: np.ndarray
    ef_true: float
    true_extrema: ExtremaList
    true_areas: np.ndarray
    frame_rate: float
    params: EfSceneParams


def gen_ef_video(params: EfSceneParams) -> EfScene:
    """Render a pulsating-ellipse video with exact masks and EF label."""
    nx, ny = params.frame_dims
    period = params.period_frames
    nt = params.n_beats * period
    frame_area = nx * ny
    a_min = params.base_area * frame_area
    a_max = (params.base_area + params.pulsatility) * frame_area
    cx, cy = (nx - 1) / 2.0, (ny - 1) / 2.0

    # Semi-axes at maximal area must stay inside the frame.
    semi_x_max = np.sqrt(a_max * params.aspect / np.pi)
    semi_y_max = semi_x_max / params.aspect
    if semi_x_max > min(cx, nx - 1 - cx) or semi_y_max > min(cy, ny - 1 - cy):
        raise ConfigurationError(
            f"ellipse with area fraction {params.base_area + params.pulsatility} "
            f"exceeds the {params.frame_dims} frame"
        )

    t = np.arange(nt)
    areas = a_max - (a_max - a_min) * (1.0 - np.cos(2.0 * np.pi * t / period)) / 2.0

    # All frames at once: each pixel of frame k sees the same operations as
    # a per-frame rasterization with frame k's semi-axes.
    semi_x = np.sqrt(areas * params.aspect / np.pi)
    semi_y = semi_x / params.aspect
    rows = np.arange(nx)[:, None, None] - cx
    cols = np.arange(ny)[None, :, None] - cy
    inside = (rows / semi_x) ** 2 + (cols / semi_y) ** 2 <= 1.0
    true_areas = np.count_nonzero(inside, axis=(0, 1)).astype(np.int64)
    masks = inside.astype(np.float64)
    del inside  # not held while the noise and the video are built

    rng = np.random.default_rng(params.seed)
    noise = rng.uniform(-params.noise_amplitude, params.noise_amplitude, masks.shape)
    video = np.clip(
        EXTERIOR_LEVEL + (INTERIOR_LEVEL - EXTERIOR_LEVEL) * masks + noise, 0.0, 1.0
    )

    if params.pulsatility == 0.0:
        extrema = ExtremaList()
        ef_true = 0.0
    else:
        extrema = ExtremaList(
            maxima=[k * period for k in range(params.n_beats)],
            minima=[int(np.floor((k + 0.5) * period)) for k in range(params.n_beats)],
        )
        ef_true = compute_ef(VolumePair(edv=a_max**1.5, esv=a_min**1.5))

    return EfScene(
        video=video,
        masks=masks,
        ef_true=ef_true,
        true_extrema=extrema,
        true_areas=true_areas,
        frame_rate=period / NOMINAL_BEAT_SECONDS,
        params=params,
    )


@dataclass(frozen=True)
class LvdSceneParams:
    frame_dims: tuple[int, int] = (64, 64)
    ivs_range: tuple[float, float] = (4.0, 9.0)  # septal thickness, pixels
    wall_range: tuple[float, float] = (4.0, 9.0)  # posterior wall, pixels
    cavity_range: tuple[float, float] = (14.0, 26.0)  # LVID, pixels
    rotation_range: tuple[float, float] = (-0.35, 0.35)  # radians
    center_jitter: float = 4.0  # uniform offset of the scene center, pixels
    noise_amplitude: float = 0.02
    mm_per_pixel: float = 1.0
    seed: int = 42

    def __post_init__(self):
        for name in ("ivs_range", "wall_range", "cavity_range"):
            lo, hi = getattr(self, name)
            if not (0 < lo <= hi):
                raise ConfigurationError(f"{name} must be positive and ordered, got ({lo}, {hi})")
        lo, hi = self.rotation_range
        if lo > hi:
            raise ConfigurationError(f"rotation_range must be ordered, got ({lo}, {hi})")
        if self.center_jitter < 0 or self.noise_amplitude < 0:
            raise ConfigurationError("center_jitter and noise_amplitude must be >= 0")
        if self.mm_per_pixel <= 0:
            raise ConfigurationError(f"mm_per_pixel must be > 0, got {self.mm_per_pixel}")

    @classmethod
    def for_frame(cls, frame_dims):
        """Default band geometry scaled proportionally to the frame size."""
        s = min(frame_dims) / 64.0
        return cls(
            frame_dims=tuple(frame_dims),
            ivs_range=(4.0 * s, 9.0 * s),
            wall_range=(4.0 * s, 9.0 * s),
            cavity_range=(14.0 * s, 26.0 * s),
            center_jitter=4.0 * s,
        )


@dataclass
class LvdScene:
    frame: np.ndarray
    keypoints: KeypointSet
    dims: LvDimensions
    params: LvdSceneParams


# Intensity levels chosen so every band boundary has contrast.
_BACKGROUND = 0.1
_SEPTUM = 0.9
_CAVITY = 0.3
_WALL = 0.65


def gen_lvd_frame(params: LvdSceneParams) -> LvdScene:
    """Render one banded frame with keypoints at exact band boundaries."""
    nx, ny = params.frame_dims
    rng = np.random.default_rng(params.seed)
    ivs = rng.uniform(*params.ivs_range)
    wall = rng.uniform(*params.wall_range)
    cavity = rng.uniform(*params.cavity_range)
    theta = rng.uniform(*params.rotation_range)
    center = np.array([(nx - 1) / 2.0, (ny - 1) / 2.0])
    center = center + rng.uniform(-params.center_jitter, params.center_jitter, 2)

    axis = np.array([np.cos(theta), np.sin(theta)])
    offsets = np.array([-cavity / 2.0 - ivs, -cavity / 2.0, cavity / 2.0,
                        cavity / 2.0 + wall])
    points = center[None, :] + offsets[:, None] * axis[None, :]
    kp = KeypointSet(points=points)
    if not kp.in_bounds((nx, ny)):
        raise ConfigurationError(
            f"bands of extent {offsets[-1] - offsets[0]:.1f} px exceed the "
            f"{params.frame_dims} frame at rotation {theta:.2f}"
        )

    rows = np.arange(nx)[:, None] - center[0]
    cols = np.arange(ny)[None, :] - center[1]
    along = rows * axis[0] + cols * axis[1]
    across = -rows * axis[1] + cols * axis[0]
    half_width = 0.35 * min(nx, ny)

    frame = np.full((nx, ny), _BACKGROUND)
    in_strip = np.abs(across) <= half_width
    frame[in_strip & (along >= offsets[0]) & (along < offsets[1])] = _SEPTUM
    frame[in_strip & (along >= offsets[1]) & (along < offsets[2])] = _CAVITY
    frame[in_strip & (along >= offsets[2]) & (along <= offsets[3])] = _WALL
    frame += rng.uniform(-params.noise_amplitude, params.noise_amplitude, frame.shape)
    frame = np.clip(frame, 0.0, 1.0)

    dims = dimensions_from_keypoints(kp, Calibration(params.mm_per_pixel))
    return LvdScene(frame=frame, keypoints=kp, dims=dims, params=params)


@dataclass(frozen=True)
class EfDatasetSpec:
    """Sampling ranges for a set of EF videos."""

    n_videos: int = 200
    frame_dims: tuple[int, int] = (16, 16)
    period_frames: int = 41
    n_beats: int = 1
    base_area_range: tuple[float, float] = (0.10, 0.16)
    pulsatility_range: tuple[float, float] = (0.05, 0.30)
    aspect_range: tuple[float, float] = (1.1, 1.35)
    noise_amplitude: float = 0.03
    seed: int = 42

    def __post_init__(self):
        if self.n_videos < 1:
            raise ConfigurationError(f"n_videos must be >= 1, got {self.n_videos}")


def sample_ef_scene_params(spec: EfDatasetSpec, rng: np.random.Generator) -> EfSceneParams:
    return EfSceneParams(
        frame_dims=spec.frame_dims,
        period_frames=spec.period_frames,
        n_beats=spec.n_beats,
        base_area=float(rng.uniform(*spec.base_area_range)),
        pulsatility=float(rng.uniform(*spec.pulsatility_range)),
        noise_amplitude=spec.noise_amplitude,
        aspect=float(rng.uniform(*spec.aspect_range)),
        seed=int(rng.integers(2**31)),
    )


def generate_ef_scenes(spec: EfDatasetSpec) -> Iterator[EfScene]:
    """One scene per video, parameter draws from a single seeded stream,
    yielded one at a time, so only the scene in hand is in memory."""
    rng = np.random.default_rng(spec.seed)
    for _ in range(spec.n_videos):
        yield gen_ef_video(sample_ef_scene_params(spec, rng))


@dataclass(frozen=True)
class LvdDatasetSpec:
    n_frames: int = 500
    scene: LvdSceneParams = field(default_factory=LvdSceneParams)
    seed: int = 42

    def __post_init__(self):
        if self.n_frames < 1:
            raise ConfigurationError(f"n_frames must be >= 1, got {self.n_frames}")


def generate_lvd_scenes(spec: LvdDatasetSpec) -> Iterator[LvdScene]:
    """One scene per frame, each seeded from a single seeded stream,
    yielded one at a time, so only the scene in hand is in memory."""
    rng = np.random.default_rng(spec.seed)
    for _ in range(spec.n_frames):
        yield gen_lvd_frame(replace(spec.scene, seed=int(rng.integers(2**31))))
