"""Dense video tensors and the three convolution forms.

A video is a rank-3 float64 array of shape (nx, ny, nt): two spatial axes
and one temporal axis.  This module provides

conv3d_full():      sliding dot product with a dense 3D kernel,
conv_spatial():     per-frame 2D convolution,
conv_temporal():    per-pixel 1D convolution along time,
conv_factored():    spatial followed by temporal convolution for a
                    separable (Kronecker-factorizable) kernel,
kron_kernel():      expand a separable kernel into its dense 3D form,
flop_model():       closed-form multiply counts for full/factored modes,
sliding_accumulate(): the tap loop of the three convolutions, which
                    nn.DepthwiseSeparable2d also runs for its per-channel
                    spatial convolution and for its input gradient,
pad_spatial():      the zero padding of that layer's (..., H, W, C) input.

All convolutions are cross-correlations (no kernel flip), the usual
deep-learning convention.  Padding is either "same" (zero fill, odd kernel
dims required) or "valid".  Every function is pure; an optional OpCounter
records the multiply/add operations actually performed, which must agree
exactly with flop_model().

For a kernel of shape (mx, my, mt) the full convolution costs mx*my*mt
multiplies per output element, while the factored form costs only
(mx*my) + mt.

Every convolution here and in nn.DepthwiseSeparable2d runs on one core,
sliding_accumulate(), which adds one weight-scaled shifted view of the
padded input per kernel tap.  Memory traffic, not multiplies, sets its
time, so it sweeps the output in slabs of whole rows along the first
axis and applies every tap to one slab before it moves to the next: the
slab, one slab-sized scratch buffer and the input rows the taps read
stay in cache, instead of the whole output streaming through memory once
per tap.  A slab holds at most SLAB_BYTES of output, 384 KB; with a 7x7
spatial kernel the slab, the scratch and the input rows then come to
about 1.4 MB, inside a 2 MB per-core L2.  In a sweep from 32 KB to 2 MB
on such a Xeon, with a 7x7x7 kernel on a 64^3 and a 112x112x64 video,
256-384 KB were fastest for both stages, 384 KB by a little; smaller
slabs pay more per-slab Python work, and from 512 KB up the working set
crowds L2.  Each output element still sums the same products in the
same tap order as one full-array pass per tap, so the outputs are bit
for bit the same, and so are the op counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, ShapeError, ValidationError

PADDINGS = ("same", "valid")

# Most output bytes per slab in sliding_accumulate; see the module docstring.
SLAB_BYTES = 384 * 1024


class OpCounter:
    """Tally of multiply and add operations performed by convolutions.

    Counts are monotonically nondecreasing while an operation runs and can
    be reset between operations.  Aggregation is plain integer addition, so
    a counter must not be shared by concurrently running operations.
    """

    def __init__(self) -> None:
        self.multiplies = 0
        self.adds = 0

    def reset(self) -> None:
        self.multiplies = 0
        self.adds = 0

    def add(self, multiplies: int, adds: int) -> None:
        if multiplies < 0 or adds < 0:
            raise ValueError("op counts only increase")
        self.multiplies += multiplies
        self.adds += adds

    def __repr__(self) -> str:
        return f"OpCounter(multiplies={self.multiplies}, adds={self.adds})"


@dataclass(frozen=True)
class SeparableKernel:
    """A 3D kernel factored as a 2D spatial kernel and a 1D temporal kernel.

    The dense equivalent is kron_kernel(self), with
    K[x, y, t] = spatial[x, y] * temporal[t].
    """

    spatial: np.ndarray
    temporal: np.ndarray

    def __post_init__(self) -> None:
        spatial = np.asarray(self.spatial, dtype=np.float64)
        temporal = np.asarray(self.temporal, dtype=np.float64)
        if spatial.ndim != 2:
            raise ShapeError(f"spatial kernel must be 2D, got shape {spatial.shape}")
        if temporal.ndim != 1:
            raise ShapeError(f"temporal kernel must be 1D, got shape {temporal.shape}")
        object.__setattr__(self, "spatial", spatial)
        object.__setattr__(self, "temporal", temporal)

    @property
    def dims(self) -> tuple[int, int, int]:
        return (*self.spatial.shape, self.temporal.shape[0])


def _check_video(video: np.ndarray, name: str = "video") -> np.ndarray:
    video = np.asarray(video, dtype=np.float64)
    if video.ndim != 3:
        raise ShapeError(f"{name} must be rank 3 (nx, ny, nt), got shape {video.shape}")
    if any(d < 1 for d in video.shape):
        raise ShapeError(f"{name} dims must all be >= 1, got {video.shape}")
    if not np.all(np.isfinite(video)):
        raise ValidationError(f"{name} contains non-finite values")
    return video


def _check_kernel(kernel: np.ndarray, rank: int, name: str = "kernel") -> np.ndarray:
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != rank:
        raise ShapeError(f"{name} must be rank {rank}, got shape {kernel.shape}")
    if any(d < 1 for d in kernel.shape):
        raise ShapeError(f"{name} dims must all be >= 1, got {kernel.shape}")
    if not np.all(np.isfinite(kernel)):
        raise ValidationError(f"{name} contains non-finite values")
    return kernel


def _check_padding(padding: str, kernel_dims: tuple[int, ...]) -> None:
    if padding not in PADDINGS:
        raise ConfigurationError(f"padding must be one of {PADDINGS}, got {padding!r}")
    if padding == "same" and any(m % 2 == 0 for m in kernel_dims):
        raise ConfigurationError(
            f"'same' padding requires odd kernel dims, got {kernel_dims}"
        )


def kron_kernel(sep: SeparableKernel) -> np.ndarray:
    """Expand a separable kernel into the dense 3D kernel it factorizes.

    K[x, y, t] = spatial[x, y] * temporal[t].
    """
    return sep.spatial[:, :, None] * sep.temporal[None, None, :]


@lru_cache(maxsize=256)
def _window_indices(offsets, out_shape):
    """Each tap's window index, offsets[t] to offsets[t] + out_shape; cached, as slice()
    for every axis of every tap costs more than a small layer's arithmetic."""
    return tuple(tuple(slice(o, o + n) for o, n in zip(offset, out_shape)) for offset in offsets)


def sliding_accumulate(padded, weights, offsets, out_shape, counter=None):
    """Sum weight-scaled shifted views of a padded array, slab by slab.

    Tap t adds weights[t] * padded[offsets[t] : offsets[t] + out_shape]
    for a tuple of ints offsets[t] and a scalar or an array weights[t]
    that broadcasts against an output row, such as DepthwiseSeparable2d's
    (W, C) rows.  A slab is at most SLAB_BYTES of whole output rows (one
    row if a row is larger).  Every tap is applied to a slab before the
    next one starts: the first tap is written into the slab, each later
    one is added through one reused scratch buffer.  Each output element
    sums its products in the fixed tap order, so results are deterministic
    and bit for bit those of one full-array pass per tap.  Counts one
    multiply per tap per output element and one add per tap per output
    element after the first tap.
    """
    out = np.empty(out_shape)
    height = max(1, SLAB_BYTES // out[0].nbytes)
    scratch = np.empty(out[:height].shape)
    offsets = tuple(offsets)
    for start in range(0, out_shape[0], height):
        slab = out[start : start + height]
        term, block = scratch[: len(slab)], padded[start:]
        indices = _window_indices(offsets, slab.shape)
        np.multiply(weights[0], block[indices[0]], out=slab)
        for value, index in zip(weights[1:], indices[1:]):
            slab += np.multiply(value, block[index], out=term)
    if counter is not None:
        taps = len(offsets)
        counter.add(multiplies=taps * out.size, adds=(taps - 1) * out.size)
    return out


def conv3d_full(
    video: np.ndarray,
    kernel: np.ndarray,
    padding: str = "same",
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Full 3D convolution (sliding dot product) of a video with a kernel.

    In "same" mode the output has the input shape and the video is
    zero-padded; in "valid" mode the output shape is
    (nx-mx+1, ny-my+1, nt-mt+1).  Costs mx*my*mt multiplies per output
    element.
    """
    video = _check_video(video)
    kernel = _check_kernel(kernel, rank=3)
    mx, my, mt = kernel.shape
    _check_padding(padding, kernel.shape)

    if padding == "same":
        padded = np.pad(video, ((mx // 2,), (my // 2,), (mt // 2,)))
        out_shape = video.shape
    else:
        if any(m > n for m, n in zip(kernel.shape, video.shape)):
            raise ShapeError(
                f"kernel {kernel.shape} does not fit inside video {video.shape} "
                "in 'valid' mode"
            )
        padded = video
        out_shape = tuple(n - m + 1 for n, m in zip(video.shape, kernel.shape))

    offsets = [(i, j, k) for i in range(mx) for j in range(my) for k in range(mt)]
    return sliding_accumulate(padded, kernel.ravel(), offsets, out_shape, counter)


def conv_spatial(
    video: np.ndarray,
    spatial: np.ndarray,
    padding: str = "same",
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Convolve every frame of a video with the same 2D kernel.

    Frames are processed independently; the time axis is untouched.  Costs
    mx*my multiplies per output element.
    """
    video = _check_video(video)
    spatial = _check_kernel(spatial, rank=2, name="spatial kernel")
    mx, my = spatial.shape
    _check_padding(padding, spatial.shape)

    if padding == "same":
        padded = np.pad(video, ((mx // 2,), (my // 2,), (0,)))
        out_shape = video.shape
    else:
        if mx > video.shape[0] or my > video.shape[1]:
            raise ShapeError(
                f"spatial kernel {spatial.shape} does not fit inside frames "
                f"{video.shape[:2]} in 'valid' mode"
            )
        padded = video
        out_shape = (video.shape[0] - mx + 1, video.shape[1] - my + 1, video.shape[2])

    offsets = [(i, j, 0) for i in range(mx) for j in range(my)]
    return sliding_accumulate(padded, spatial.ravel(), offsets, out_shape, counter)


def conv_temporal(
    features: np.ndarray,
    temporal: np.ndarray,
    padding: str = "same",
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Convolve the time series at every pixel with a 1D kernel.

    Costs mt multiplies per output element.
    """
    features = _check_video(features, name="features")
    temporal = _check_kernel(temporal, rank=1, name="temporal kernel")
    mt = temporal.shape[0]
    _check_padding(padding, temporal.shape)

    if padding == "same":
        padded = np.pad(features, ((0,), (0,), (mt // 2,)))
        out_shape = features.shape
    else:
        if mt > features.shape[2]:
            raise ShapeError(
                f"temporal kernel of length {mt} does not fit inside "
                f"{features.shape[2]} frames in 'valid' mode"
            )
        padded = features
        out_shape = (features.shape[0], features.shape[1], features.shape[2] - mt + 1)

    offsets = [(0, 0, k) for k in range(mt)]
    return sliding_accumulate(padded, temporal, offsets, out_shape, counter)


def conv_factored(
    video: np.ndarray,
    sep: SeparableKernel,
    padding: str = "same",
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Two-stage convolution with a separable kernel.

    Equivalent to conv3d_full(video, kron_kernel(sep), padding) up to
    floating-point rounding, at (mx*my) + mt multiplies per output element
    in "same" mode instead of mx*my*mt.
    """
    spatial_out = conv_spatial(video, sep.spatial, padding, counter)
    return conv_temporal(spatial_out, sep.temporal, padding, counter)


def pad_spatial(x: np.ndarray, pad_h: int, pad_w: int) -> np.ndarray:
    """Zero-pad the (H, W) axes of an (..., H, W, C) array."""
    *lead, h, w, c = x.shape
    out = np.zeros((*lead, h + 2 * pad_h, w + 2 * pad_w, c), dtype=x.dtype)
    out[..., pad_h : pad_h + h, pad_w : pad_w + w, :] = x
    return out


def flop_model(
    video_dims: tuple[int, int, int],
    kernel_dims: tuple[int, int, int],
    mode: str = "full",
    padding: str = "same",
) -> int:
    """Closed-form multiply count for a full or factored 3D convolution.

    Matches the OpCounter measurement of the corresponding convolution
    exactly.  In "same" mode the factored count is ((mx*my) + mt) per
    output element; in "valid" mode the two stages have different output
    sizes and the count is the sum of the per-stage products.
    """
    nx, ny, nt = (int(d) for d in video_dims)
    mx, my, mt = (int(d) for d in kernel_dims)
    if min(nx, ny, nt, mx, my, mt) < 1:
        raise ShapeError(f"all dims must be >= 1, got {video_dims}, {kernel_dims}")
    if mode not in ("full", "factored"):
        raise ConfigurationError(f"mode must be 'full' or 'factored', got {mode!r}")
    _check_padding(padding, (mx, my, mt))
    if padding == "valid" and (mx > nx or my > ny or mt > nt):
        raise ShapeError(
            f"kernel {kernel_dims} does not fit inside video {video_dims} "
            "in 'valid' mode"
        )

    if padding == "same":
        full_out = nx * ny * nt
        spatial_out = full_out
        temporal_out = full_out
    else:
        full_out = (nx - mx + 1) * (ny - my + 1) * (nt - mt + 1)
        spatial_out = (nx - mx + 1) * (ny - my + 1) * nt
        temporal_out = (nx - mx + 1) * (ny - my + 1) * (nt - mt + 1)

    if mode == "full":
        return mx * my * mt * full_out
    return mx * my * spatial_out + mt * temporal_out
