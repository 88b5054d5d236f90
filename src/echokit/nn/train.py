"""Losses, reverse-mode gradients, optimizers, and the one training loop."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError, DomainError, ShapeError
from ..parallel import GradientPool
from .layers import ModelGraph


@dataclass
class TrainConfig:
    """Hyperparameters for a training run.

    The seed fully determines weight initialization and batch order, so a
    run is bit-reproducible on any number of CPUs; its parameter bytes are
    tested equal with numpy's BLAS on 1 and on 2 threads.
    """

    learning_rate: float = 1e-3
    batch_size: int = 64
    epochs: int = 10
    optimizer: str = "adam"
    seed: int = 42
    loss: str = "mae"

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigurationError("batch_size must be >= 1 and epochs >= 0")
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigurationError(f"optimizer must be 'sgd' or 'adam', got {self.optimizer!r}")
        if self.loss not in ("mae", "mse"):
            raise ConfigurationError(f"loss must be 'mae' or 'mse', got {self.loss!r}")


def _check_pair(pred, target):
    pred = np.atleast_1d(np.asarray(pred, dtype=np.float64))
    target = np.atleast_1d(np.asarray(target, dtype=np.float64))
    if pred.shape != target.shape:
        raise ShapeError(f"pred shape {pred.shape} != target shape {target.shape}")
    if pred.size == 0:
        raise ShapeError("empty prediction/target")
    return pred, target


def mae_value_and_grad(pred, target):
    """MAE and its subgradient w.r.t. pred (0 at exact agreement)."""
    pred, target = _check_pair(pred, target)
    diff = pred - target
    return float(np.mean(np.abs(diff))), np.sign(diff) / diff.size


def mse_value_and_grad(pred, target):
    pred, target = _check_pair(pred, target)
    diff = pred - target
    return float(np.mean(diff**2)), 2.0 * diff / diff.size


LOSSES = {"mae": mae_value_and_grad, "mse": mse_value_and_grad}


def value_and_grad(model: ModelGraph, batch, loss, workers: GradientPool | None = None):
    """Batch-mean loss and exact reverse-mode parameter gradients.

    *batch* is a sequence of (input, target) pairs; *loss* maps
    (pred, target) to (value, dvalue/dpred).  Returns the loss value and
    the model's accumulated gradient buffers (zeroed first).

    Every layer's ``backward`` adds to each parameter-gradient element
    exactly once per sample, so the batch gradient is
    ``((0 + c0) + c1) + ...`` over the samples' terms in sample order, and
    the loss values are summed in sample order too.  With *workers*, a
    ``GradientPool`` forked over the pairs of *batch*, this process adds
    the terms of the batch's first block as it computes them, then each
    worker's term in turn.  A worker's term went into zeroed buffers, so it
    is ``0 + c``, which differs from ``c`` only when ``c`` is -0.0; a sum
    that starts at +0.0 never becomes -0.0, so adding either gives the same
    bits.  Without *workers* every sample runs here.
    """
    if isinstance(loss, str):
        loss = LOSSES[loss]
    model.zero_grads()
    n = len(batch)
    if n == 0:
        raise ShapeError("empty batch")
    own = workers.start(batch, n) if workers is not None else n
    total = 0.0
    for x, target in batch[:own]:
        total += _add_term(model, x, target, loss, n)
    if workers is not None:
        for value in workers.add_terms(model.grads()):
            total += value
    return total / n, model.grads()


def _add_term(model: ModelGraph, x, target, loss, n: int) -> float:
    """Add one sample's term of an *n*-sample batch gradient to the
    model's gradient buffers; returns the sample's loss value."""
    pred = model.forward(x)
    value, dpred = loss(pred, target)
    model.backward(np.asarray(dpred, dtype=np.float64) / n)
    return value


def gradient_rel_error(analytic, numeric) -> float:
    """Worst per-tensor relative error between two gradient sets.

    Per tensor: max|a - n| / max(max|a|, max|n|, 1e-12), i.e. the largest
    elementwise discrepancy normalized by the larger gradient magnitude.
    """
    if len(analytic) != len(numeric):
        raise ShapeError("gradient sets differ in length")
    worst = 0.0
    for a, n in zip(analytic, numeric):
        scale = max(np.max(np.abs(a), initial=0.0), np.max(np.abs(n), initial=0.0), 1e-12)
        worst = max(worst, float(np.max(np.abs(a - n), initial=0.0)) / scale)
    return worst


def sgd_step(params, grads, learning_rate: float):
    """In-place vanilla gradient descent update."""
    if len(params) != len(grads):
        raise ShapeError("params and grads differ in length")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ShapeError(f"param shape {p.shape} != grad shape {g.shape}")
        p -= learning_rate * g
    return params


@dataclass
class AdamState:
    """First/second moment estimates, all zeros before the first step."""

    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    t: int = 0

    @classmethod
    def for_params(cls, params):
        return cls(m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params])


def adam_step(params, grads, state: AdamState, learning_rate: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """One in-place Adam update with bias correction."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeError("params, grads, and state differ in length")
    state.t += 1
    correction1 = 1.0 - beta1**state.t
    correction2 = 1.0 - beta2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ShapeError(f"param shape {p.shape} != grad shape {g.shape}")
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p -= learning_rate * (m / correction1) / (np.sqrt(v / correction2) + eps)
    return params


def make_optimizer(config: TrainConfig, params):
    """Bind a TrainConfig to a parameter list; returns step(grads)."""
    if config.optimizer == "sgd":
        return lambda grads: sgd_step(params, grads, config.learning_rate)
    state = AdamState.for_params(params)

    def step(grads):
        return adam_step(params, grads, state, config.learning_rate)

    return step


def split(groups, seed: int, train_fraction: float = 0.8):
    """Deterministic shuffled train/validation split of pre-grouped items.

    *groups* is a list of item lists; a group never straddles the split.
    Returns the two flat item lists, groups in shuffled order.
    """
    if not groups:
        raise ShapeError("empty dataset")
    order = np.random.default_rng(seed).permutation(len(groups))
    n_train = int(round(train_fraction * len(groups)))
    train = [s for gi in order[:n_train] for s in groups[gi]]
    val = [s for gi in order[n_train:] for s in groups[gi]]
    return train, val


@dataclass
class EpochStats:
    epoch: int
    train_mae: float
    val_mae: float

    def as_dict(self):
        return {"epoch": self.epoch, "train_mae": self.train_mae, "val_mae": self.val_mae}


@dataclass
class TrainResult:
    history: list[EpochStats] = field(default_factory=list)
    best_epoch: int = -1
    best_val_mae: float = float("nan")
    weights: object = None  # loss weights derived from the training split, if any
    train: list = field(default_factory=list)  # the items trained on
    val: list = field(default_factory=list)  # the items validated on


def fit(graph: ModelGraph, pairs, loss, evaluate, train, val, config: TrainConfig) -> TrainResult:
    """Train *graph* in place; the best-validation-MAE weights are restored.

    *pairs* are the (input, target) pairs of the *train* items and *loss*
    is what value_and_grad takes.  After each epoch, *evaluate* maps an
    item list to its MAE, for *train* and for *val* (*train* when *val* is
    empty); the result keeps both lists.  The seed fixes the batch order.
    With epochs=0 the graph is unchanged and the history is empty.  A
    non-finite batch loss raises DomainError before the optimizer steps on
    its gradients.

    Training steps run on every usable CPU: one ``GradientPool`` of forked
    workers, opened after *pairs* exist, serves every step, and every
    step calls the module-level ``value_and_grad``.  A worker's block of a
    batch holds at least ``parallel.MIN_VALUES_PER_GRAD_WORKER`` input
    values, counted as ``np.size`` of each pair's input.
    """
    val = val or train
    rng = np.random.default_rng(config.seed + 1)
    step = make_optimizer(config, graph.params())
    result = TrainResult(train=train, val=val)
    best_params = None
    loss = LOSSES[loss] if isinstance(loss, str) else loss

    def term(pair, n):  # a gradient worker's term of one sample
        graph.zero_grads()
        return _add_term(graph, *pair, loss, n)

    with GradientPool(term, pairs, [np.size(x) for x, _ in pairs], graph.params(),
                      graph.grads(), config.batch_size) as workers:
        for epoch in range(config.epochs):
            order = rng.permutation(len(pairs))
            for start in range(0, len(pairs), config.batch_size):
                batch = [pairs[i] for i in order[start : start + config.batch_size]]
                value, grads = value_and_grad(graph, batch, loss, workers=workers)
                if not math.isfinite(value):
                    raise DomainError(
                        f"training loss is {value} at epoch {epoch}, "
                        f"batch {start // config.batch_size}"
                    )
                step(grads)
            stats = EpochStats(epoch=epoch, train_mae=evaluate(train), val_mae=evaluate(val))
            result.history.append(stats)
            if best_params is None or stats.val_mae < result.best_val_mae:
                result.best_epoch = epoch
                result.best_val_mae = stats.val_mae
                best_params = [p.copy() for p in graph.params()]
    if best_params is not None:
        for p, best in zip(graph.params(), best_params):
            p[...] = best
    return result
