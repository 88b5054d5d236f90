"""Differentiable layers with explicit forward/backward passes.

Every layer implements ``forward(x, cache)`` and ``backward(dout, cache)``;
the cache dict carries whatever the backward pass needs, so one layer
instance can be applied to several inputs (e.g. every frame of a clip)
before any backward runs.  ``backward`` accumulates parameter gradients
into the layer's gradient buffers and returns the input gradient.

A model instance is exclusively owned while forward/backward runs (the
gradient buffers are mutable); distinct instances are independent.

Training and inference share one forward pass, so the forward passes of
the encoder layers allocate only their outputs and a fixed number of
whole-array buffers: no temporary per kernel tap, per pooling-window
position or per ``np.where`` branch.  Caches hold references to arrays
the forward pass made anyway, never extra copies: ``MaxPool2d`` keeps
its four strided window views of the input and its output, and its
backward recovers first-in-window argmax routing from them.
"""

from __future__ import annotations

import numpy as np

from ..convops import depthwise_nd, pad_spatial
from ..errors import ShapeError


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def sigmoid(x):
    """Logistic function of a scalar or array, in two float64 buffers.

    With e = exp(-|x|), which never overflows, this is 1 / (1 + e) for
    x >= 0 and e / (1 + e) for x < 0.  The numerator max(sign(x), e)
    picks 1 or e without a mask (e <= 1, and e == 1 at x == 0); the
    denominator then overwrites e.  The underflow of e to zero beyond
    |x| ~ 745 is exact to double precision and is not reported.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.abs(x, out=np.empty_like(x))
    np.negative(e, out=e)
    with np.errstate(under="ignore"):
        np.exp(e, out=e)
    s = np.sign(x, out=np.empty_like(x))
    np.maximum(s, e, out=s)
    e += 1.0
    return np.divide(s, e, out=s)


class Layer:
    """Base layer: no parameters, identity-like contract."""

    kind = "layer"

    def params(self) -> list[np.ndarray]:
        return []

    def grads(self) -> list[np.ndarray]:
        return []

    def zero_grads(self) -> None:
        for g in self.grads():
            g[...] = 0.0

    def n_params(self) -> int:
        return sum(p.size for p in self.params())

    def forward(self, x: np.ndarray, cache: dict) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dout: np.ndarray, cache: dict) -> np.ndarray:
        raise NotImplementedError


class Dense(Layer):
    """Affine map: y = x @ W + b for a 1D input vector."""

    kind = "dense"

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator | None = None,
                 bias_init: float = 0.0):
        rng = rng or np.random.default_rng(0)
        self.w = glorot_uniform(rng, d_in, d_out, (d_in, d_out))
        self.b = np.full(d_out, bias_init, dtype=np.float64)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)

    def params(self):
        return [self.w, self.b]

    def grads(self):
        return [self.dw, self.db]

    def forward(self, x, cache):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1 or x.shape[0] != self.w.shape[0]:
            raise ShapeError(
                f"dense expects input of shape ({self.w.shape[0]},), got {x.shape}"
            )
        cache["x"] = x
        return x @ self.w + self.b

    def backward(self, dout, cache):
        x = cache["x"]
        self.dw += np.outer(x, dout)
        self.db += dout
        return dout @ self.w.T


class Conv1d(Layer):
    """1D convolution over a (T, C_in) sequence with full channel mixing.

    Weight shape is (k, C_in, F).  "same" padding zero-fills the time axis
    (k odd); "valid" requires T >= k.
    """

    kind = "conv1d"

    def __init__(self, c_in: int, filters: int, kernel_size: int,
                 padding: str = "same", rng: np.random.Generator | None = None):
        if padding not in ("same", "valid"):
            raise ShapeError(f"unknown padding {padding!r}")
        if padding == "same" and kernel_size % 2 == 0:
            raise ShapeError("'same' padding requires an odd kernel size")
        rng = rng or np.random.default_rng(0)
        self.padding = padding
        self.k = kernel_size
        self.w = glorot_uniform(
            rng, kernel_size * c_in, kernel_size * filters,
            (kernel_size, c_in, filters),
        )
        self.b = np.zeros(filters, dtype=np.float64)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)

    def params(self):
        return [self.w, self.b]

    def grads(self):
        return [self.dw, self.db]

    def forward(self, x, cache):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.w.shape[1]:
            raise ShapeError(
                f"conv1d expects (T, {self.w.shape[1]}) input, got {x.shape}"
            )
        t = x.shape[0]
        if self.padding == "same":
            pad = self.k // 2
            xp = np.pad(x, ((pad, pad), (0, 0)))
            t_out = t
        else:
            if t < self.k:
                raise ShapeError(f"sequence length {t} shorter than kernel {self.k}")
            xp = x
            t_out = t - self.k + 1
        out = np.tile(self.b, (t_out, 1))
        for i in range(self.k):
            out += xp[i : i + t_out] @ self.w[i]
        cache["xp"] = xp
        cache["t_in"] = t
        cache["t_out"] = t_out
        return out

    def backward(self, dout, cache):
        xp, t_out = cache["xp"], cache["t_out"]
        dxp = np.zeros_like(xp)
        for i in range(self.k):
            self.dw[i] += xp[i : i + t_out].T @ dout
            dxp[i : i + t_out] += dout @ self.w[i].T
        self.db += dout.sum(axis=0)
        if self.padding == "same":
            pad = self.k // 2
            return dxp[pad : pad + cache["t_in"]]
        return dxp


class Swish(Layer):
    """Elementwise x * sigmoid(x)."""

    kind = "swish"

    def forward(self, x, cache):
        x = np.asarray(x, dtype=np.float64)
        s = sigmoid(x)
        cache["x"], cache["s"] = x, s
        return x * s

    def backward(self, dout, cache):
        x, s = cache["x"], cache["s"]
        return dout * (s + x * s * (1.0 - s))


def swish(x):
    """Swish activation of a scalar or array."""
    x = np.asarray(x, dtype=np.float64)
    return x * sigmoid(x)


def swish_derivative(x):
    x = np.asarray(x, dtype=np.float64)
    s = sigmoid(x)
    return s + x * s * (1.0 - s)


class GlobalMaxPool1d(Layer):
    """Per-feature maximum over the time axis of a (T, F) sequence.

    Backward routes the gradient to the argmax rows only, first occurrence
    on ties, so gradient mass is conserved and deterministic.
    """

    kind = "global_max_pool"

    def forward(self, x, cache):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] < 1:
            raise ShapeError(f"global max pool expects nonempty (T, F), got {x.shape}")
        idx = np.argmax(x, axis=0)
        cache["idx"] = idx
        cache["shape"] = x.shape
        return x[idx, np.arange(x.shape[1])]

    def backward(self, dout, cache):
        dx = np.zeros(cache["shape"])
        dx[cache["idx"], np.arange(cache["shape"][1])] = dout
        return dx


class DepthwiseSeparable2d(Layer):
    """Per-channel spatial convolution followed by a 1x1 channel mix.

    Operates on (..., H, W, C_in) with "same" padding; leading axes are
    batch dims (e.g. the frames of a clip).  Bias is applied after the
    pointwise stage.
    """

    kind = "depthwise_separable2d"

    def __init__(self, c_in: int, c_out: int, kernel_size: int = 3,
                 rng: np.random.Generator | None = None):
        if kernel_size % 2 == 0:
            raise ShapeError("'same' padding requires an odd kernel size")
        rng = rng or np.random.default_rng(0)
        k2 = kernel_size * kernel_size
        self.depthwise = glorot_uniform(rng, k2, k2, (c_in, kernel_size, kernel_size))
        self.pointwise = glorot_uniform(rng, c_in, c_out, (c_in, c_out))
        self.b = np.zeros(c_out, dtype=np.float64)
        self.d_depthwise = np.zeros_like(self.depthwise)
        self.d_pointwise = np.zeros_like(self.pointwise)
        self.db = np.zeros_like(self.b)

    def params(self):
        return [self.depthwise, self.pointwise, self.b]

    def grads(self):
        return [self.d_depthwise, self.d_pointwise, self.db]

    def forward(self, x, cache):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim < 3 or x.shape[-1] != self.depthwise.shape[0]:
            raise ShapeError(
                f"expected (..., H, W, {self.depthwise.shape[0]}) input, got {x.shape}"
            )
        pad = self.depthwise.shape[1] // 2
        xp = pad_spatial(x, pad, pad)
        mid = depthwise_nd(xp, self.depthwise, padding="valid")
        out = mid.reshape(-1, mid.shape[-1]) @ self.pointwise
        out += self.b
        cache["xp"], cache["mid"] = xp, mid
        return out.reshape(*mid.shape[:-1], out.shape[-1])

    def backward(self, dout, cache):
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


class MaxPool2d(Layer):
    """2x2 max pooling on the spatial axes of (..., H, W, C).

    Odd trailing rows/cols are dropped; ties route the gradient to the
    first position in row-major window order.  A window whose maximum is
    NaN passes no gradient.
    """

    kind = "max_pool2d"

    @staticmethod
    def _window_views(x):
        """The four strided (H//2, W//2) views of x, in row-major window order."""
        h2, w2 = x.shape[-3] // 2, x.shape[-2] // 2
        return [x[..., r : 2 * h2 : 2, q : 2 * w2 : 2, :] for r in (0, 1) for q in (0, 1)]

    def forward(self, x, cache):
        x = np.asarray(x, dtype=np.float64)
        views = self._window_views(x)
        # np.maximum returns its second operand on a tie (+0.0 vs -0.0), so
        # the earlier view goes second and the first in window order wins.
        out = np.maximum(views[1], views[0])
        for view in views[2:]:
            np.maximum(view, out, out=out)
        cache["shape"], cache["views"], cache["out"] = x.shape, views, out
        return out

    def backward(self, dout, cache):
        out = cache["out"]
        dx = np.zeros(cache["shape"])
        free = np.ones(out.shape, dtype=bool)  # windows whose max is not yet routed
        for view, dview in zip(cache["views"], self._window_views(dx)):
            hit = np.equal(view, out)
            hit &= free
            free ^= hit
            dview[...] = np.where(hit, dout, 0.0)
        return dx


class GlobalAvgPool2d(Layer):
    """Spatial mean of an (..., H, W, C) map, one value per channel."""

    kind = "global_avg_pool2d"

    def forward(self, x, cache):
        x = np.asarray(x, dtype=np.float64)
        cache["shape"] = x.shape
        return x.mean(axis=(-3, -2))

    def backward(self, dout, cache):
        shape = cache["shape"]
        h, w = shape[-3], shape[-2]
        return np.broadcast_to(
            dout[..., None, None, :] / (h * w), shape
        ).copy()


class Flatten(Layer):
    kind = "flatten"

    def forward(self, x, cache):
        cache["shape"] = x.shape
        return np.asarray(x, dtype=np.float64).ravel()

    def backward(self, dout, cache):
        return dout.reshape(cache["shape"])


class FrameEncoder(Layer):
    """Apply a layer stack independently to every frame of a clip.

    Input (nx, ny, T) -> output (T, D): the clip is rearranged to
    (T, nx, ny, 1) and pushed through the stack in one batched pass; the
    stack's layers must treat leading axes as batch dims.  No temporal
    mixing happens here.
    """

    kind = "frame_encoder"

    def __init__(self, stack: list[Layer]):
        self.stack = stack

    def params(self):
        return [p for layer in self.stack for p in layer.params()]

    def grads(self):
        return [g for layer in self.stack for g in layer.grads()]

    def forward(self, clip, cache):
        clip = np.asarray(clip, dtype=np.float64)
        if clip.ndim != 3:
            raise ShapeError(f"clip must be (nx, ny, T), got shape {clip.shape}")
        x = np.moveaxis(clip, 2, 0)[..., None]  # (T, nx, ny, 1)
        layer_caches = []
        for layer in self.stack:
            c: dict = {}
            x = layer.forward(x, c)
            layer_caches.append(c)
        cache["layers"] = layer_caches
        return x

    def backward(self, dout, cache):
        d = dout
        for layer, c in zip(reversed(self.stack), reversed(cache["layers"])):
            d = layer.backward(d, c)
        return np.moveaxis(d[..., 0], 0, 2)


class ModelGraph:
    """An ordered sequence of layers trained as one unit."""

    def __init__(self, layers: list[Layer]):
        self.layers = layers
        self._caches: list[dict] | None = None

    def params(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params()]

    def grads(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads()]

    def zero_grads(self) -> None:
        for layer in self.layers:
            layer.zero_grads()

    def forward(self, x: np.ndarray) -> np.ndarray:
        caches = []
        for layer in self.layers:
            cache: dict = {}
            x = layer.forward(x, cache)
            caches.append(cache)
        self._caches = caches
        return x

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._caches is None:
            raise RuntimeError("backward called before forward")
        for layer, cache in zip(reversed(self.layers), reversed(self._caches)):
            dout = layer.backward(dout, cache)
        return dout

    def kinds(self) -> list[str]:
        return [layer.kind for layer in self.layers]

    def get_params_flat(self) -> np.ndarray:
        params = self.params()
        if not params:
            return np.zeros(0)
        return np.concatenate([p.ravel() for p in params])


def count_params(model: ModelGraph | Layer) -> int:
    """Total number of parameter elements in a model or a single layer."""
    if isinstance(model, Layer):
        return model.n_params()
    return sum(p.size for p in model.params())
