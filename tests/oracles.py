"""Independent reference implementations used only as test oracles.

Everything here shares no code with the package.  Most oracles are plain
nested loops with explicit bounds checks; the ``*_reference`` functions
at the end are verbatim copies of earlier vectorized forms that the
package's faster rewrites must reproduce bit for bit.  The training-loop
reference drives the package's value_and_grad and optimizer, which it
does not re-implement; what it pins down is the loop around them.
"""

import math
import struct

import numpy as np


def conv3d_loops(video, kernel, padding):
    """Triple-nested sliding dot product; out-of-range reads are zero."""
    nx, ny, nt = video.shape
    mx, my, mt = kernel.shape
    if padding == "same":
        ox, oy, ot = nx, ny, nt
        sx, sy, st = -(mx // 2), -(my // 2), -(mt // 2)
    else:
        ox, oy, ot = nx - mx + 1, ny - my + 1, nt - mt + 1
        sx = sy = st = 0
    out = np.zeros((ox, oy, ot))
    for x in range(ox):
        for y in range(oy):
            for t in range(ot):
                acc = 0.0
                for i in range(mx):
                    for j in range(my):
                        for k in range(mt):
                            xx, yy, tt = x + sx + i, y + sy + j, t + st + k
                            if 0 <= xx < nx and 0 <= yy < ny and 0 <= tt < nt:
                                acc += video[xx, yy, tt] * kernel[i, j, k]
                out[x, y, t] = acc
    return out


def conv2d_loops(frame, kernel, padding):
    nx, ny = frame.shape
    mx, my = kernel.shape
    if padding == "same":
        ox, oy = nx, ny
        sx, sy = -(mx // 2), -(my // 2)
    else:
        ox, oy = nx - mx + 1, ny - my + 1
        sx = sy = 0
    out = np.zeros((ox, oy))
    for x in range(ox):
        for y in range(oy):
            acc = 0.0
            for i in range(mx):
                for j in range(my):
                    xx, yy = x + sx + i, y + sy + j
                    if 0 <= xx < nx and 0 <= yy < ny:
                        acc += frame[xx, yy] * kernel[i, j]
            out[x, y] = acc
    return out


def conv1d_loops(seq, kernel, padding):
    n = len(seq)
    m = len(kernel)
    if padding == "same":
        o, s = n, -(m // 2)
    else:
        o, s = n - m + 1, 0
    out = np.zeros(o)
    for x in range(o):
        acc = 0.0
        for k in range(m):
            xx = x + s + k
            if 0 <= xx < n:
                acc += seq[xx] * kernel[k]
        out[x] = acc
    return out


def conv1d_layer_loops(x, w, b, padding):
    """(T, C_in) with weight (k, C_in, F) and bias (F,)."""
    t_in, c_in = x.shape
    k, _, f = w.shape
    if padding == "same":
        t_out, s = t_in, -(k // 2)
    else:
        t_out, s = t_in - k + 1, 0
    out = np.zeros((t_out, f))
    for t in range(t_out):
        for o in range(f):
            acc = b[o]
            for i in range(k):
                tt = t + s + i
                if 0 <= tt < t_in:
                    for c in range(c_in):
                        acc += x[tt, c] * w[i, c, o]
            out[t, o] = acc
    return out


def dense_loops(x, w, b):
    out = np.zeros(w.shape[1])
    for j in range(w.shape[1]):
        acc = b[j]
        for i in range(w.shape[0]):
            acc += x[i] * w[i, j]
        out[j] = acc
    return out


def depthwise_separable_loops(frame, depthwise, pointwise, padding):
    """Per-channel 2D convolution then an explicit per-pixel matrix multiply."""
    h, w, c_in = frame.shape
    mixed = np.stack(
        [conv2d_loops(frame[:, :, c], depthwise[c], padding) for c in range(c_in)],
        axis=2,
    )
    oh, ow = mixed.shape[:2]
    c_out = pointwise.shape[1]
    out = np.zeros((oh, ow, c_out))
    for x in range(oh):
        for y in range(ow):
            for o in range(c_out):
                acc = 0.0
                for c in range(c_in):
                    acc += mixed[x, y, c] * pointwise[c, o]
                out[x, y, o] = acc
    return out


def welford(values):
    """Streaming mean and population standard deviation."""
    mean = 0.0
    m2 = 0.0
    n = 0
    for v in values:
        n += 1
        delta = v - mean
        mean += delta / n
        m2 += delta * (v - mean)
    return mean, math.sqrt(m2 / n)


def ctr1_record(array):
    """One CTR1 record, built field by field: b"CTR1", the dtype code (1 for
    float32 of either byte order, 2 for every other dtype, stored as
    float64), the rank, little-endian uint32 dims, then the C-ordered
    little-endian payload."""
    array = np.asarray(array)
    single = array.dtype.kind == "f" and array.dtype.itemsize == 4
    code, dtype = (1, "<f4") if single else (2, "<f8")
    header = b"CTR1" + struct.pack("<BB", code, array.ndim)
    header += b"".join(struct.pack("<I", d) for d in array.shape)
    return header + np.ascontiguousarray(array, dtype).tobytes()


def max_pool2d_loops(x, dout):
    """2x2 max pool of (..., H, W, C) and its input gradient.

    Each window is scanned in row-major order and only a strictly larger
    value replaces the current best, so ties route the gradient to the
    first position; odd trailing rows/cols are dropped and get zero.
    """
    h, w, c = x.shape[-3:]
    h2, w2 = h // 2, w // 2
    xf = x.reshape(-1, h, w, c)
    df = np.asarray(dout).reshape(-1, h2, w2, c)
    out = np.zeros((xf.shape[0], h2, w2, c))
    dx = np.zeros(xf.shape)
    for n in range(xf.shape[0]):
        for i in range(h2):
            for j in range(w2):
                for ch in range(c):
                    bi, bj = 2 * i, 2 * j
                    for r in range(2):
                        for q in range(2):
                            if xf[n, 2 * i + r, 2 * j + q, ch] > xf[n, bi, bj, ch]:
                                bi, bj = 2 * i + r, 2 * j + q
                    out[n, i, j, ch] = xf[n, bi, bj, ch]
                    dx[n, bi, bj, ch] = df[n, i, j, ch]
    return out.reshape(*x.shape[:-3], h2, w2, c), dx.reshape(x.shape)


def beat_pairs_scan(maxima, minima):
    """(maximum, first later minimum) pairs by rescanning every minimum."""
    pairs = []
    for start in maxima:
        following = [m for m in minima if m > start]
        if following:
            pairs.append((start, following[0]))
    return pairs


def enforce_constraints_scan(maxima, minima, values, min_separation):
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


# The convolution core as it was before it swept the output in slabs: one
# full-array pass and one full-size temporary per tap.  The package's
# slab sweep must reproduce it bit for bit.


def sliding_accumulate_reference(padded, kernel_flat, offsets, out_shape, counter):
    """Sum kernel-tap-scaled shifted views of a padded array.

    The summation order is the fixed row-major tap order, so results are
    deterministic.  Counts one multiply per tap per output element and one
    add per tap per output element after the first tap.
    """
    out = None
    for value, offset in zip(kernel_flat, offsets):
        window = padded[
            tuple(slice(o, o + n) for o, n in zip(offset, out_shape))
        ]
        if out is None:
            out = value * window
        else:
            out += value * window
    n_out = int(np.prod(out_shape))
    taps = len(kernel_flat)
    if counter is not None:
        counter.add(multiplies=taps * n_out, adds=(taps - 1) * n_out)
    return out


def convolve_reference(video, kernel, padding, counter=None):
    """A convolution form as it was before slabs: the rank-3 *kernel* slid
    over the np.pad-ed video ("same") or the video itself ("valid") by
    sliding_accumulate_reference, taps in row-major kernel order."""
    if padding == "same":
        video = np.pad(video, [(m // 2, m // 2) for m in kernel.shape])
    out_shape = tuple(n - m + 1 for n, m in zip(video.shape, kernel.shape))
    return sliding_accumulate_reference(video, kernel.ravel(), np.ndindex(kernel.shape),
                                        out_shape, counter)


# Reference copies of the earlier, allocation-heavy forms of the encoder
# layers.  The package's rewrites must reproduce them bit for bit.


def sigmoid_reference(x):
    e = np.exp(-np.abs(x))
    return np.where(np.asarray(x) >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def depthwise_nd_reference(x, kernels, padding):
    kh, kw = kernels.shape[1:]
    if padding == "same":
        width = [(0, 0)] * (x.ndim - 3) + [(kh // 2, kh // 2), (kw // 2, kw // 2), (0, 0)]
        padded = np.pad(x, width)
        out_h, out_w = x.shape[-3], x.shape[-2]
    else:
        padded = x
        out_h, out_w = x.shape[-3] - kh + 1, x.shape[-2] - kw + 1
    out = None
    for i in range(kh):
        for j in range(kw):
            term = padded[..., i : i + out_h, j : j + out_w, :] * kernels[:, i, j]
            out = term if out is None else out + term
    return out


def depthwise_separable2d_forward_reference(x, depthwise, pointwise, b, cache):
    """Forward of a "same"-padded depthwise-separable layer, filling *cache*
    with the padded input "xp" and the depthwise output "mid"."""
    k = depthwise.shape[1]
    mid = depthwise_nd_reference(x, depthwise, "same")
    width = [(0, 0)] * (x.ndim - 3) + [(k // 2, k // 2), (k // 2, k // 2), (0, 0)]
    cache["xp"] = np.pad(x, width)
    cache["mid"] = mid
    return mid @ pointwise + b


def max_pool2d_forward_reference(x, cache):
    """2x2 max pool by argmax over a transposed copy of the windows."""
    h, w, c = x.shape[-3], x.shape[-2], x.shape[-1]
    h2, w2 = h // 2, w // 2
    lead = x.shape[:-3]
    flat = (
        x[..., : h2 * 2, : w2 * 2, :]
        .reshape(-1, h2, 2, w2, 2, c)
        .transpose(0, 1, 3, 2, 4, 5)
        .reshape(-1, h2, w2, 4, c)
    )
    idx = np.argmax(flat, axis=3)
    cache["idx"] = idx
    cache["shape"] = x.shape
    out = np.take_along_axis(flat, idx[:, :, :, None, :], axis=3)[:, :, :, 0, :]
    return out.reshape(*lead, h2, w2, c)


def max_pool2d_backward_reference(dout, cache):
    shape = cache["shape"]
    h, w, c = shape[-3], shape[-2], shape[-1]
    h2, w2 = h // 2, w // 2
    idx = cache["idx"]
    dflat = np.zeros((idx.shape[0], h2, w2, 4, c))
    np.put_along_axis(
        dflat, idx[:, :, :, None, :], dout.reshape(-1, h2, w2, 1, c), axis=3
    )
    dx = np.zeros((idx.shape[0], h, w, c))
    dx[:, : h2 * 2, : w2 * 2, :] = (
        dflat.reshape(-1, h2, w2, 2, 2, c)
        .transpose(0, 1, 3, 2, 4, 5)
        .reshape(-1, h2 * 2, w2 * 2, c)
    )
    return dx.reshape(shape)


def depthwise_separable2d_backward_reference(self, dout, cache):
    """``DepthwiseSeparable2d.backward`` with one einsum per tap; *self* is
    the layer, whose gradient buffers it accumulates into."""
    xp, mid = cache["xp"], cache["mid"]
    h, w, c_in = mid.shape[-3], mid.shape[-2], mid.shape[-1]
    self.db += dout.reshape(-1, dout.shape[-1]).sum(axis=0)
    self.d_pointwise += mid.reshape(-1, c_in).T @ dout.reshape(-1, dout.shape[-1])
    dmid = dout @ self.pointwise.T
    k = self.depthwise.shape[1]
    dxp = np.zeros_like(xp)
    for i in range(k):
        for j in range(k):
            window = xp[..., i : i + h, j : j + w, :]
            self.d_depthwise[:, i, j] += np.einsum(
                "...c,...c->c", window, dmid, optimize=True
            )
            dxp[..., i : i + h, j : j + w, :] += dmid * self.depthwise[:, i, j]
    pad = k // 2
    return dxp[..., pad : pad + h, pad : pad + w, :]


def swish_forward_reference(x, cache):
    """Swish forward that caches its input "x" and sigmoid "s"."""
    x = np.asarray(x, dtype=np.float64)
    s = sigmoid_reference(x)
    cache["x"], cache["s"] = x, s
    return x * s


def swish_backward_reference(dout, x, s):
    return dout * (s + x * s * (1.0 - s))


# The epoch/batch loop that EF and LVD training each wrote out before they
# shared one.  Training through the package must match it bit for bit.


def train_loop_reference(graph, pairs, loss, evaluate, train, val, config):
    """Returns ([(epoch, train_mae, val_mae), ...], best_epoch, best_val_mae)
    and leaves the best-validation weights in *graph*."""
    from echokit.nn import make_optimizer, value_and_grad

    def iterate_batches(n, batch_size, rng):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            yield order[start : start + batch_size]

    if not val:
        val = train
    rng = np.random.default_rng(config.seed + 1)
    step = make_optimizer(config, graph.params())
    history, best_epoch, best_val_mae = [], -1, float("nan")
    best_params = None
    for epoch in range(config.epochs):
        for batch_idx in iterate_batches(len(train), config.batch_size, rng):
            batch = [pairs[i] for i in batch_idx]
            _, grads = value_and_grad(graph, batch, loss)
            step(grads)
        stats = (epoch, evaluate(train), evaluate(val))
        history.append(stats)
        if best_params is None or stats[2] < best_val_mae:
            best_epoch = epoch
            best_val_mae = stats[2]
            best_params = [p.copy() for p in graph.params()]
    if best_params is not None:
        for p, best in zip(graph.params(), best_params):
            p[...] = best
    return history, best_epoch, best_val_mae


# The optimizer steps as whole-array expressions, as they were written before
# they updated in blocks through scratch buffers.  The package's steps must
# reproduce them bit for bit.


def sgd_step_reference(params, grads, learning_rate):
    for p, g in zip(params, grads):
        p -= learning_rate * g


def adam_step_reference(params, grads, state, learning_rate, beta1=0.9, beta2=0.999,
                        eps=1e-8):
    """*state* holds lists ``m`` and ``v`` and a step count ``t``."""
    state.t += 1
    correction1 = 1.0 - beta1**state.t
    correction2 = 1.0 - beta2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p -= learning_rate * (m / correction1) / (np.sqrt(v / correction2) + eps)


# The LVD objective as it was written before its length term went through
# lvd_loss and lvd_loss_grad.  The package's objective must match it to
# rounding: the sums are the same, grouped differently.


def lvd_objective_reference(weights, scale, coord_coef, raw, target):
    """``LvdObjective.__call__`` with its weights as a (3,) array."""
    kp_px, mm_per_pixel, target_mm = target
    pred_px = raw * scale
    diff_px = pred_px - kp_px.ravel()
    coord_value = float(np.mean(diff_px**2))
    d_raw = coord_coef * 2.0 * diff_px / diff_px.size * scale

    points = pred_px.reshape(4, 2)
    value = coord_coef * coord_value
    d_points = np.zeros_like(points)
    for m in range(3):
        v = points[m] - points[m + 1]
        length_px = float(np.sqrt(v @ v))
        length_mm = length_px * mm_per_pixel
        err = length_mm - target_mm[m]
        value += weights[m] * err * err
        if length_px > 0.0:
            direction = v / length_px
            pull = 2.0 * weights[m] * err * mm_per_pixel * direction
            d_points[m] += pull
            d_points[m + 1] -= pull
    d_raw += d_points.ravel() * scale
    return value, d_raw


# The synthetic EF video as it was rendered before its masks went through
# one broadcast pass: one ellipse rasterization per frame.  The generator
# must reproduce masks, video and pixel counts bit for bit.


def ef_masks_loops(params):
    """(masks, video, true_areas) of ``gen_ef_video(params)``, frame by frame.

    The interior and exterior levels, 0.8 and 0.2, are written out here.
    """
    nx, ny = params.frame_dims
    period = params.period_frames
    nt = params.n_beats * period
    frame_area = nx * ny
    a_min = params.base_area * frame_area
    a_max = (params.base_area + params.pulsatility) * frame_area
    cx, cy = (nx - 1) / 2.0, (ny - 1) / 2.0
    areas = a_max - (a_max - a_min) * (1.0 - np.cos(2.0 * np.pi * np.arange(nt) / period)) / 2.0

    rows = np.arange(nx)[:, None] - cx
    cols = np.arange(ny)[None, :] - cy
    masks = np.zeros((nx, ny, nt))
    true_areas = np.zeros(nt, dtype=np.int64)
    for k in range(nt):
        semi_x = np.sqrt(areas[k] * params.aspect / np.pi)
        semi_y = semi_x / params.aspect
        inside = (rows / semi_x) ** 2 + (cols / semi_y) ** 2 <= 1.0
        masks[:, :, k] = inside
        true_areas[k] = sum(int(v) for v in inside.ravel())

    rng = np.random.default_rng(params.seed)
    noise = rng.uniform(-params.noise_amplitude, params.noise_amplitude, masks.shape)
    video = np.clip(0.2 + (0.8 - 0.2) * masks + noise, 0.0, 1.0)
    return masks, video, true_areas
