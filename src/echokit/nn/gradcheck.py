"""Finite-difference verification of layer and model gradients.

Every numeric gradient comes from central_difference, which perturbs one
array element at a time in place and evaluates a scalar function only
through forward passes.  Layer checks project the output onto a fixed
random vector, so the scalar "loss" L(x) = r . f(x) exercises every output
element; analytic gradients from one backward pass are compared against
central differences over every parameter and input element.  Relative
error follows gradient_rel_error: worst elementwise discrepancy per
tensor, normalized by the larger gradient magnitude.

Full models are too large for exhaustive differencing, so end-to-end
checks difference a seeded random subset of parameter elements and
compare against the matching reverse-mode entries.
"""

from __future__ import annotations

import numpy as np

from .layers import (
    Conv1d,
    Dense,
    DepthwiseSeparable2d,
    GlobalMaxPool1d,
    Layer,
    ModelGraph,
    Swish,
)
from ..errors import ConfigurationError
from .train import LOSSES, gradient_rel_error, value_and_grad

DEFAULT_EPSILON = 1e-5


def central_difference(f, a: np.ndarray, indices=None, epsilon: float = DEFAULT_EPSILON):
    """Central differences of the scalar f() with respect to elements of *a*.

    Each entry is (f() at a[i] + epsilon - f() at a[i] - epsilon) / (2 epsilon).
    *a* is perturbed in place, one element at a time, and restored; *f*
    takes no arguments and must read *a*.  *indices* are flat indices into
    *a*, and the result has one entry per index; with None, every element
    is differenced and the result has *a*'s shape.
    """
    if epsilon <= 0:
        raise ConfigurationError(f"epsilon must be > 0, got {epsilon}")
    flat = a.ravel()
    picks = range(flat.size) if indices is None else indices
    out = np.zeros(len(picks))
    for j, i in enumerate(picks):
        orig = flat[i]
        flat[i] = orig + epsilon
        plus = f()
        flat[i] = orig - epsilon
        minus = f()
        flat[i] = orig
        out[j] = (plus - minus) / (2.0 * epsilon)
    return out.reshape(a.shape) if indices is None else out


def batch_loss(graph: ModelGraph, batch, loss) -> float:
    """Batch-mean loss from forward passes only; *loss* as value_and_grad takes it."""
    if isinstance(loss, str):
        loss = LOSSES[loss]
    return sum(loss(graph.forward(x), t)[0] for x, t in batch) / len(batch)


def finite_diff_grad(model: ModelGraph, batch, loss, epsilon: float = DEFAULT_EPSILON):
    """Central-difference gradient of the batch loss for every parameter.

    Independent of the reverse-mode path: only forward evaluations are
    used.  O(#params) model evaluations, intended for verification.
    """
    return [
        central_difference(lambda: batch_loss(model, batch, loss), p, epsilon=epsilon)
        for p in model.params()
    ]


def layer_gradients(layer: Layer, x: np.ndarray, r: np.ndarray):
    """Analytic input and parameter gradients of L = sum(r * layer(x))."""
    layer.zero_grads()
    cache: dict = {}
    layer.forward(x, cache)
    dx = layer.backward(r, cache)
    return dx, [g.copy() for g in layer.grads()]


def fd_layer_gradients(layer: Layer, x: np.ndarray, r: np.ndarray,
                       epsilon: float = DEFAULT_EPSILON):
    """Central-difference input and parameter gradients of the same loss."""

    def loss() -> float:
        return float(np.sum(r * layer.forward(x, {})))

    dx = central_difference(loss, x, epsilon=epsilon)
    return dx, [central_difference(loss, p, epsilon=epsilon) for p in layer.params()]


def check_layer(layer: Layer, x: np.ndarray, r: np.ndarray,
                epsilon: float = DEFAULT_EPSILON) -> float:
    """Worst relative error between analytic and numeric gradients."""
    dx, dparams = layer_gradients(layer, x, r)
    fd_dx, fd_dparams = fd_layer_gradients(layer, x, r, epsilon)
    return gradient_rel_error([dx] + dparams, [fd_dx] + fd_dparams)


def _standard_instances(kind: str, rng: np.random.Generator):
    """One random small instance of a layer kind with its input and projection."""
    if kind == "conv1d":
        t, c, f, k = 6, 3, 4, 3
        layer = Conv1d(c, f, k, padding=rng.choice(["same", "valid"]), rng=rng)
        x = rng.standard_normal((t, c))
        t_out = t if layer.padding == "same" else t - k + 1
        r = rng.standard_normal((t_out, f))
    elif kind == "dense":
        d, h = 5, 4
        layer = Dense(d, h, rng=rng)
        x = rng.standard_normal(d)
        r = rng.standard_normal(h)
    elif kind == "swish":
        layer = Swish()
        x = rng.standard_normal((4, 3))
        r = rng.standard_normal((4, 3))
    elif kind == "global_max_pool":
        layer = GlobalMaxPool1d()
        x = rng.standard_normal((6, 4))
        r = rng.standard_normal(4)
    elif kind == "depthwise_separable2d":
        c_in, c_out = 2, 3
        layer = DepthwiseSeparable2d(c_in, c_out, 3, rng=rng)
        x = rng.standard_normal((5, 6, c_in))
        r = rng.standard_normal((5, 6, c_out))
    else:
        raise ValueError(f"unknown layer kind {kind!r}")
    return layer, x, r


LAYER_KINDS = ("conv1d", "dense", "swish", "global_max_pool", "depthwise_separable2d")


def check_layer_kind(kind: str, n_instances: int = 20, seed: int = 42,
                     epsilon: float = DEFAULT_EPSILON) -> float:
    """Worst relative error over seeded random instances of one layer kind."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        layer, x, r = _standard_instances(kind, rng)
        worst = max(worst, check_layer(layer, x, r, epsilon))
    return worst


def check_model_subset(graph: ModelGraph, batch, loss, n_indices: int = 64,
                       seed: int = 42, epsilon: float = DEFAULT_EPSILON) -> float:
    """Compare reverse-mode and FD gradients on a random parameter subset."""
    _, grads = value_and_grad(graph, batch, loss)
    analytic_flat = np.concatenate([g.ravel() for g in grads])

    params = graph.params()
    bounds = np.cumsum([0] + [p.size for p in params])
    rng = np.random.default_rng(seed)
    picks = np.sort(rng.choice(bounds[-1], size=min(n_indices, bounds[-1]), replace=False))
    numeric = [
        central_difference(lambda: batch_loss(graph, batch, loss), p,
                           picks[(lo <= picks) & (picks < hi)] - lo, epsilon)
        for p, lo, hi in zip(params, bounds[:-1], bounds[1:])
    ]
    return gradient_rel_error([analytic_flat[picks]], [np.concatenate(numeric)])
