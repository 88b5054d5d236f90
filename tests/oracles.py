"""Independent reference implementations used only as test oracles.

Everything here shares no code with the package.  Most oracles are plain
nested loops with explicit bounds checks; the ``*_reference`` functions
at the end are verbatim copies of earlier vectorized forms that the
package's faster rewrites must reproduce bit for bit.  The training-loop
reference drives the package's value_and_grad and optimizer, which it
does not re-implement; what it pins down is the loop around them.
"""

import math

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
