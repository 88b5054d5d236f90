"""Beat extraction from per-frame left-ventricle segmentation masks.

The mask sequence is reduced to a per-frame area signal (pixel counts),
extrema of that signal mark diastole (area maxima) and systole (area
minima), and the video is sliced into diastole-to-systole clips.

Segmentation itself is out of scope here: masks arrive from file or from
the synthetic generator, so the pipeline is invariant to any uniform
intensity scaling of the video.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ShapeError, ValidationError

DEFAULT_MIN_PROMINENCE = 0.1


@dataclass
class AreaSignal:
    """Per-frame segmented area in pixels, plus the acquisition frame rate."""

    values: np.ndarray
    frame_rate: float

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 1 or values.size < 1:
            raise ShapeError(f"area signal must be a nonempty 1D array, got {values.shape}")
        if self.frame_rate <= 0:
            raise ConfigurationError(f"frame_rate must be > 0, got {self.frame_rate}")
        self.values = values

    def __len__(self):
        return self.values.size


@dataclass
class ExtremaList:
    """Frame indices of area maxima (diastole) and minima (systole).

    Indices are strictly increasing within each list and the merged
    sequence alternates between the two kinds.
    """

    maxima: list = field(default_factory=list)
    minima: list = field(default_factory=list)

    def validate(self, n_frames: int) -> None:
        for name, idx in (("maxima", self.maxima), ("minima", self.minima)):
            if any(i < 0 or i >= n_frames for i in idx):
                raise ValidationError(f"{name} contain out-of-range frame indices")
            if any(b <= a for a, b in zip(idx, idx[1:])):
                raise ValidationError(f"{name} must be strictly increasing")
        merged = sorted(
            [(i, "max") for i in self.maxima] + [(i, "min") for i in self.minima]
        )
        for (i, a), (j, b) in zip(merged, merged[1:]):
            if a == b:
                raise ValidationError("extrema kinds must alternate")
            if i == j:
                raise ValidationError(f"frame {i} marked as both maximum and minimum")


@dataclass
class BeatClip:
    """One diastole-to-systole sub-video, both endpoint frames included."""

    start_frame: int
    end_frame: int
    sub_video: np.ndarray

    def __post_init__(self):
        if self.start_frame >= self.end_frame:
            raise ValidationError(
                f"start_frame {self.start_frame} must precede end_frame {self.end_frame}"
            )
        if self.sub_video.shape[2] != self.end_frame - self.start_frame + 1:
            raise ShapeError("sub_video frame count does not match the frame range")

    @property
    def n_frames(self) -> int:
        return self.end_frame - self.start_frame + 1


def _check_mask(mask: np.ndarray) -> np.ndarray:
    mask = np.asarray(mask)
    if not np.isin(mask, (0, 1)).all():
        raise ValidationError("mask values must be exactly 0 or 1")
    return mask


def mask_area(mask_frame: np.ndarray) -> int:
    """Count of 1-pixels in one binary mask frame."""
    mask_frame = _check_mask(mask_frame)
    return int(np.count_nonzero(mask_frame))


def area_signal(masks: np.ndarray, frame_rate: float) -> AreaSignal:
    """Per-frame mask areas of an (nx, ny, nt) binary mask sequence."""
    masks = _check_mask(masks)
    if masks.ndim != 3:
        raise ShapeError(f"mask sequence must be (nx, ny, nt), got shape {masks.shape}")
    counts = np.count_nonzero(masks, axis=(0, 1)).astype(np.int64)
    return AreaSignal(values=counts, frame_rate=frame_rate)


def moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average with edge shrinking (odd window)."""
    if window < 1 or window % 2 == 0:
        raise ConfigurationError(f"window must be a positive odd integer, got {window}")
    values = np.asarray(values, dtype=np.float64)
    half = window // 2
    csum = np.concatenate([[0.0], np.cumsum(values)])
    n = values.size
    lo = np.maximum(np.arange(n) - half, 0)
    hi = np.minimum(np.arange(n) + half + 1, n)
    return (csum[hi] - csum[lo]) / (hi - lo)


def default_min_separation(frame_rate: float) -> int:
    """Roughly half a nominal 0.8 s beat, in frames."""
    return max(1, round(0.4 * frame_rate * 0.8))


def _delta_walk(values: np.ndarray, delta: float):
    """Alternating extrema via a delta-threshold direction walk.

    An extremum is registered only once the signal has moved away from it
    by at least *delta*, so unconfirmed extrema at the trailing edge are
    dropped while a crest or trough at the leading edge is kept.  Ties
    resolve to the first index.
    """
    maxima: list[int] = []
    minima: list[int] = []
    mx = mn = values[0]
    mx_pos = mn_pos = 0
    last = None  # kind of the most recently confirmed extremum
    for i, v in enumerate(values):
        if v > mx:
            mx, mx_pos = v, i
        if v < mn:
            mn, mn_pos = v, i
        if last != "max" and v <= mx - delta:
            maxima.append(mx_pos)
            mn, mn_pos = v, i
            last = "max"
        elif last != "min" and v >= mn + delta:
            minima.append(mn_pos)
            mx, mx_pos = v, i
            last = "min"
    return maxima, minima


def _enforce_constraints(maxima, minima, values, min_separation):
    """Drop the weaker of same-kind neighbors violating alternation/separation."""
    events = sorted(
        [(i, 1, values[i]) for i in maxima] + [(i, -1, values[i]) for i in minima]
    )

    def weaker(a, b):
        # For maxima the lower one loses; for minima the higher one.
        if a[1] == 1:
            return a if a[2] <= b[2] else b
        return a if a[2] >= b[2] else b

    changed = True
    while changed:
        changed = False
        for j in range(len(events) - 1):
            a, b = events[j], events[j + 1]
            if a[1] == b[1]:
                # Adjacent same-kind events violate alternation.
                events.remove(weaker(a, b))
                changed = True
                break
        if changed:
            continue
        # Alternation holds; check separation between same-kind neighbors
        # (they are now two positions apart in the merged sequence).
        for j in range(len(events) - 2):
            a, b = events[j], events[j + 2]
            if a[1] == b[1] and b[0] - a[0] < min_separation:
                events.remove(weaker(a, b))
                changed = True
                break
    return (
        [i for i, kind, _ in events if kind == 1],
        [i for i, kind, _ in events if kind == -1],
    )


def detect_extrema(
    signal: AreaSignal | np.ndarray,
    min_separation: int | None = None,
    min_prominence: float = DEFAULT_MIN_PROMINENCE,
    smooth_window: int = 0,
) -> ExtremaList:
    """Locate alternating area maxima (diastole) and minima (systole).

    *min_prominence* is a fraction of the signal range: an extremum counts
    only if the signal moves away from it by at least that much on the
    confirmed side.  *min_separation* is the minimum frame distance between
    same-kind extrema; by default it is derived from the signal's frame
    rate as roughly half a nominal beat.  *smooth_window* > 1 applies a
    centered moving average before detection (off by default).

    A constant signal yields empty lists; that is not an error.
    """
    if isinstance(signal, AreaSignal):
        values = np.asarray(signal.values, dtype=np.float64)
        if min_separation is None:
            min_separation = default_min_separation(signal.frame_rate)
    else:
        values = np.asarray(signal, dtype=np.float64)
        if min_separation is None:
            raise ConfigurationError(
                "min_separation is required when no frame rate is available"
            )
    if values.ndim != 1 or values.size < 3:
        raise ShapeError("extremum detection needs a 1D signal of at least 3 frames")
    if not 0.0 <= min_prominence <= 1.0:
        raise ConfigurationError(
            f"min_prominence must lie in [0, 1], got {min_prominence}"
        )
    if min_separation < 1:
        raise ConfigurationError(f"min_separation must be >= 1, got {min_separation}")

    if smooth_window and smooth_window > 1:
        values = moving_average(values, smooth_window)

    value_range = float(values.max() - values.min())
    if value_range == 0.0:
        return ExtremaList()

    delta = min_prominence * value_range
    if delta == 0.0:
        delta = np.finfo(np.float64).tiny  # register every strict reversal
    maxima, minima = _delta_walk(values, delta)
    maxima, minima = _enforce_constraints(maxima, minima, values, min_separation)
    result = ExtremaList(maxima=maxima, minima=minima)
    result.validate(values.size)
    return result


def extract_beats(video: np.ndarray, extrema: ExtremaList) -> list[BeatClip]:
    """Slice a video into one clip per (maximum, next minimum) pair.

    Endpoint frames are included on both sides.  A trailing maximum with no
    following minimum is dropped.
    """
    video = np.asarray(video, dtype=np.float64)
    if video.ndim != 3:
        raise ShapeError(f"video must be (nx, ny, nt), got shape {video.shape}")
    extrema.validate(video.shape[2])
    clips = []
    minima = extrema.minima
    for start in extrema.maxima:
        k = bisect_right(minima, start)  # minima are strictly increasing
        if k == len(minima):
            continue
        end = minima[k]
        clips.append(
            BeatClip(
                start_frame=int(start),
                end_frame=int(end),
                sub_video=video[:, :, start : end + 1].copy(),
            )
        )
    return clips
