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
check_padding():    the "same"/"valid" rule, for the nn layers too,
zero_pad():         zero padding of trailing axes, for the nn layers,
sliding_accumulate(): the tap loop over a padded array, which
                    nn.DepthwiseSeparable2d runs for its per-channel
                    spatial convolution and for its input gradient.

The spatial and temporal stages are the full convolution on a unit-axis
kernel, (mx, my, 1) and (1, 1, mt): all three forms share one front end,
which checks the padding and the 'valid' extent and runs the taps in
row-major kernel order.

All convolutions are cross-correlations (no kernel flip), the usual
deep-learning convention.  Padding is either "same" (zero fill, odd kernel
dims required) or "valid".  Every function is pure; an optional OpCounter
records the multiply/add operations actually performed, which must agree
exactly with flop_model().

For a kernel of shape (mx, my, mt) the full convolution costs mx*my*mt
multiplies per output element, while the factored form costs only
(mx*my) + mt.

Every convolution here and in nn.DepthwiseSeparable2d runs through one
sweep, _sweep(), and, but for the einsum slabs below, one tap loop,
_accumulate(), which adds one weight-scaled shifted window of the input
per kernel tap with one multiply and one add call.  Memory traffic, not
multiplies, sets its time, so the sweep fills the output in slabs of
whole rows along the first axis and applies every tap to one slab before
it moves to the next: the slab, one slab-sized scratch buffer and the
input rows the taps read stay in cache, instead of the whole output
streaming through memory once per tap.  A slab holds at most SLAB_BYTES
of output; with a 7x7 spatial kernel the slab, the scratch and the input
rows then come to about 1.4 MB, inside a 2 MB per-core L2.  Smaller slabs
pay more per-slab Python work, and larger ones crowd L2: SLAB_BYTES is
the fastest size of a measured sweep, for the tap loop and the einsum
slabs below alike (the timings are in CHANGES.md and BENCH_*.json).

The three forms never pad the whole video.  A slab of output rows reads
(slab rows + mx - 1) rows of input; in "same" mode each run of slabs
copies them into one zero-bordered buffer of padded (ny + my - 1) x
(nt + mt - 1) planes that it reuses, and in "valid" mode it reads them
where they are.  Laid out flat, output (a, b, c) of a slab sits at
position (a, b, c) of that padded layout, and tap (i, j, k) reads a
fixed distance further on, so every tap is one contiguous 1-D window:
one long inner loop per multiply and add, where a 3-D window has one
per (row, plane) pair, nt values long in the temporal stage.  The run
computes the positions between output rows too, then copies the kept
ones into the output.  Each kept element still sums the same products
in the same tap order as one full-array pass per tap over the padded
video, so the outputs are bit for bit the same, and so are the op
counts, which count kept outputs only.

The dropped positions mix values of neighbouring rows and can overflow
or underflow where no output does, so the tap loop runs with numpy's
floating-point errors reported to a callback, not raised or warned.  If
the callback fired, and either the slab's outputs are not all finite or
the caller traps underflow, the slab is computed again with 3-D windows
over the same input rows under the caller's errstate: kept outputs then
warn and raise exactly as one full-array pass per tap would, and
dropped ones never do.  DepthwiseSeparable2d keeps its (W, C)-row
windows on its padded input: as one flat window, its per-channel weights
would have to be tiled to the window's length for each input shape.

A kernel with no temporal extent (conv_spatial, and conv3d_full with an
(mx, my, 1) kernel) sums all of a slab's taps in one call,
np.einsum("ij,ijq->q") over an (mx, my, slab) strided view of the flat
rows, instead of 2 * mx * my loop calls.  It adds the same products in
the same row-major tap order, takes the interpreter lock back once per
slab instead of twice per tap, and reads and writes three arrays per
tap where the loop's multiply and add touch five.  This needs padded
planes of more than one value: with one (nt = 1), a tap's stride ties
with the output's, einsum reorders its loops, and the sums differ.
einsum starts each sum at +0.0, where the loop starts at the first
product, and reports no floating-point errors at all, so a slab whose
kept outputs hold a zero (the loop's may be -0.0) or a non-finite value
is computed again with 3-D windows under the caller's errstate, and a
caller that traps underflow gets the tap loop.  einsum's inner loop may
fuse each multiply and add where the SIMD baseline has FMA, so it is
used only once a probe, run once per process, shows that this numpy
rounds them separately.

Slabs do not depend on each other, so a call of two or more slabs sweeps
contiguous runs of them at once, one run per usable CPU: the caller
sweeps run 0 and a short-lived thread each other run, each with its own
buffers, all writing into the one output (parallel.threaded_runs).
numpy releases the interpreter lock inside each call over a slab, but
each thread must take it back between calls, so the fewer and longer the
calls, the more a second CPU gains, and the einsum slabs gain more than
the tap loop.  A call of one slab, as every nn layer call at the EF and
LVD model shapes is, runs in the caller without touching threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import parallel
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


def _check_array(array: np.ndarray, rank: int, name: str) -> np.ndarray:
    """A video or kernel as float64, with rank dims all >= 1 and finite values."""
    array = np.asarray(array, dtype=np.float64)
    if array.ndim != rank:
        raise ShapeError(f"{name} must be rank {rank}, got shape {array.shape}")
    if any(d < 1 for d in array.shape):
        raise ShapeError(f"{name} dims must all be >= 1, got {array.shape}")
    if not np.all(np.isfinite(array)):
        raise ValidationError(f"{name} contains non-finite values")
    return array


def check_padding(padding: str, kernel_dims: tuple[int, ...]) -> None:
    """Reject a padding outside PADDINGS, or "same" with an even kernel dim."""
    if padding not in PADDINGS:
        raise ConfigurationError(f"padding must be one of {PADDINGS}, got {padding!r}")
    if padding == "same" and any(m % 2 == 0 for m in kernel_dims):
        raise ConfigurationError(f"'same' padding requires odd kernel dims, got {kernel_dims}")


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


def _accumulate(out, term, block, weights, offsets):
    """The tap loop: out = the sum of weights[t] * block[offsets[t] : offsets[t] + out.shape]
    over the taps t, in tap order, through the scratch buffer *term* of out's shape."""
    indices = _window_indices(offsets, out.shape)
    np.multiply(weights[0], block[indices[0]], out=out)
    for value, index in zip(weights[1:], indices[1:]):
        out += np.multiply(value, block[index], out=term)


def _einsum_taps(out, flat, kernel, row, plane):
    """out[q] = the sum of kernel[i, j] * flat[q + i * row + j * plane] over the
    taps (i, j) in row-major order, from +0.0, in one np.einsum call."""
    step = flat.strides[0]
    windows = np.lib.stride_tricks.as_strided(
        flat, (*kernel.shape, len(out)), (row * step, plane * step, step), writeable=False)
    np.einsum("ij,ijq->q", kernel, windows, out=out, optimize=False)


@lru_cache(maxsize=None)
def _einsum_rounds_separately():
    """Whether np.einsum rounds each product and each sum as _accumulate
    does, not as a fused multiply-add; asked once per process.  With
    a = 1 + 2**-30 and b = 1 - 2**-30, -1 + a * b is 0.0 with two roundings
    and -2**-60 with one."""
    n = 67  # a few SIMD vectors and a tail
    flat = np.concatenate([np.full(n, -1.0), np.full(n, 1 - 2.0**-30)])
    kernel = np.array([[1.0, 1 + 2.0**-30]])
    by_einsum, by_loop = np.empty(n), np.empty(n)
    with np.errstate(all="ignore"):
        _einsum_taps(by_einsum, flat, kernel, 2 * n, n)
        _accumulate(by_loop, np.empty(n), flat, kernel.ravel(), ((0,), (n,)))
    return by_einsum.tobytes() == by_loop.tobytes()


def _sweep(out, run):
    """Fill *out* slab by slab: at most SLAB_BYTES of whole rows along its
    first axis (one row if a row is larger).  A run of slabs calls
    run(height) once for its slab function, then slab(start, out[start :
    start + height]) for each of its slabs in order.  Two or more slabs
    are swept in contiguous runs, one per usable CPU, through
    parallel.threaded_runs; one slab runs in the caller."""
    height = max(1, SLAB_BYTES // out[0].nbytes)

    def sweep(first, last):
        """Slabs first to last - 1."""
        slab = run(height)
        for start in range(first * height, last * height, height):
            slab(start, out[start : start + height])

    n_slabs = -(-len(out) // height)
    if n_slabs == 1:
        sweep(0, 1)
    else:
        parallel.threaded_runs(sweep, n_slabs)


def sliding_accumulate(padded, weights, offsets, out_shape):
    """Sum weight-scaled shifted views of a padded array, slab by slab.

    Tap t adds weights[t] * padded[offsets[t] : offsets[t] + out_shape]
    for a tuple of ints offsets[t] and a scalar or an array weights[t]
    that broadcasts against an output row, such as DepthwiseSeparable2d's
    (W, C) rows.  Every tap is applied to a slab before the next one
    starts: the first tap is written into the slab, each later one is
    added through a reused scratch buffer, one per run of slabs.  Each
    output element sums its products in the fixed tap order, so results
    are deterministic and bit for bit those of one full-array pass per
    tap.
    """
    out = np.empty(out_shape)
    offsets = tuple(offsets)

    def run(height):
        scratch = np.empty(out[:height].shape)
        return lambda start, slab: _accumulate(slab, scratch[: len(slab)], padded[start:],
                                               weights, offsets)

    _sweep(out, run)
    return out


def _convolve(video, kernel, padding, counter, name="video"):
    """Convolve a checked video with a checked rank-3 kernel: the body of
    all three convolution forms, taps in row-major kernel order, each tap
    one flat window over a slab's padded input rows, all of them in one
    np.einsum call where the kernel has no temporal extent; see the module
    docstring."""
    check_padding(padding, kernel.shape)
    if padding == "valid" and any(m > n for m, n in zip(kernel.shape, video.shape)):
        raise ShapeError(f"kernel {kernel.shape} does not fit inside {name} "
                         f"{video.shape} in 'valid' mode")
    (n0, n1, n2), (m0, m1, m2) = video.shape, kernel.shape
    w0, w1, w2 = (m // 2 if padding == "same" else 0 for m in kernel.shape)
    p1, p2 = n1 + 2 * w1, n2 + 2 * w2  # a padded plane
    out = np.empty((n0 + 2 * w0 - m0 + 1, p1 - m1 + 1, p2 - m2 + 1))
    weights = kernel.ravel()
    taps = tuple(np.ndindex(kernel.shape))
    flat_taps = tuple((i * p1 * p2 + j * p2 + k,) for i, j, k in taps)
    trap_under = np.geterr()["under"] != "ignore"
    # One einsum call per slab where that gives the tap loop's bytes; see the module
    # docstring.  With p2 == 1 a tap's stride ties with the output's, and einsum
    # reorders its loops.
    plane_kernel = (np.ascontiguousarray(kernel[:, :, 0])
                    if m2 == 1 and p2 > 1 and not trap_under and _einsum_rounds_separately()
                    else None)

    def run(height):
        padded = np.zeros((height + m0 - 1, p1, p2)) if padding == "same" else None
        acc = np.empty(height * p1 * p2)
        term = np.empty(height * p1 * p2) if plane_kernel is None else None

        def slab(start, dest):
            n_rows = len(dest) + m0 - 1
            if padded is None:
                rows = video[start : start + n_rows]
            else:
                rows = padded[:n_rows]
                first = start - w0  # the video row of rows[0]
                a, b = max(first, 0), min(first + n_rows, n0)
                rows[: a - first] = 0
                rows[b - first :] = 0
                rows[a - first : b - first, w1 : w1 + n1, w2 : w2 + n2] = video[a:b]
            size = len(dest) * p1 * p2 - (m1 - 1) * p2 - (m2 - 1)
            if plane_kernel is None:
                flagged = []
                with np.errstate(over="call", invalid="call", under="call",
                                 call=lambda kind, flag: flagged.append(kind)):
                    _accumulate(acc[:size], term[:size], rows.reshape(-1), weights, flat_taps)
            else:
                _einsum_taps(acc[:size], rows.reshape(-1), plane_kernel, p1 * p2, p2)
            kept = acc[: len(dest) * p1 * p2].reshape(len(dest), p1, p2)
            np.copyto(dest, kept[:, : dest.shape[1], : dest.shape[2]])
            if plane_kernel is None:
                redo = flagged and (trap_under or not np.isfinite(dest).all())
            else:
                redo = not (dest.all() and np.isfinite(dest).all())
            if redo:
                _accumulate(dest, np.empty(dest.shape), rows, weights, taps)

        return slab

    _sweep(out, run)
    if counter is not None:  # one multiply per tap, one add per tap after the first
        counter.add(multiplies=len(taps) * out.size, adds=(len(taps) - 1) * out.size)
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
    video = _check_array(video, 3, "video")
    kernel = _check_array(kernel, 3, "kernel")
    return _convolve(video, kernel, padding, counter)


def conv_spatial(
    video: np.ndarray,
    spatial: np.ndarray,
    padding: str = "same",
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Convolve every frame of a video with the same 2D kernel.

    The full convolution with the (mx, my, 1) kernel: frames are processed
    independently and the time axis is untouched.  Costs mx*my multiplies
    per output element.
    """
    video = _check_array(video, 3, "video")
    spatial = _check_array(spatial, 2, "spatial kernel")
    return _convolve(video, spatial[:, :, None], padding, counter)


def conv_temporal(
    features: np.ndarray,
    temporal: np.ndarray,
    padding: str = "same",
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Convolve the time series at every pixel with a 1D kernel.

    The full convolution with the (1, 1, mt) kernel.  Costs mt multiplies
    per output element.
    """
    features = _check_array(features, 3, "features")
    temporal = _check_array(temporal, 1, "temporal kernel")
    return _convolve(features, temporal[None, None, :], padding, counter, name="features")


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


@lru_cache(maxsize=256)
def _pad_layout(shape, widths):
    """zero_pad's padded shape, x's index in it and its border indices; cached,
    as building them costs about as much as padding a small layer's input."""
    lead = len(shape) - len(widths)
    inner = list(zip(shape[lead:], widths))
    borders = tuple((*[slice(None)] * axis, edge)
                    for axis, (n, w) in enumerate(inner, start=lead) if w
                    for edge in (slice(0, w), slice(w + n, None)))
    padded = shape[:lead] + tuple(n + 2 * w for n, w in inner)
    return padded, (..., *(slice(w, w + n) for n, w in inner)), borders


def zero_pad(x: np.ndarray, widths: tuple[int, ...]) -> np.ndarray:
    """Zero-pad the last len(widths) axes of x by widths[i] on both sides,
    for the nn layers; the convolution forms pad slab by slab instead.

    Like numpy.pad it writes x once and zeros only the borders, where
    np.zeros would write the whole output and then x over most of it."""
    shape, index, borders = _pad_layout(x.shape, tuple(widths))
    out = np.empty(shape, dtype=x.dtype)
    out[index] = x
    for border in borders:
        out[border] = 0
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
    check_padding(padding, (mx, my, mt))
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
