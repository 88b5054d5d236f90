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
    worker adds its block's terms to that sum in turn, in sample order.
    A worker's term went into zeroed buffers, so it is ``0 + c``, which
    differs from ``c`` only when ``c`` is -0.0; a sum that starts at +0.0
    never becomes -0.0, so adding either gives the same bits.  Without
    *workers* every sample runs here.
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


# Values per block of an optimizer update: its two scratch buffers of this
# many float64 values (256 KB) stay in a 2 MB L2, where whole-array
# temporaries of a model's parameters do not.  The timings are in
# CHANGES.md and BENCH_24.json.
UPDATE_BLOCK = 2**14


def _check_shapes(params, *others) -> None:
    """Raise ShapeError unless every list of *others* has an array shaped as
    each of *params*, so that a step changes nothing before it can fail."""
    for arrays in others:
        if len(arrays) != len(params):
            raise ShapeError("params, grads, and state differ in length")
    for p, *rest in zip(params, *others):
        for a in rest:
            if a.shape != p.shape:
                raise ShapeError(f"param shape {p.shape} != grad or state shape {a.shape}")


def _in_blocks(updated, read):
    """Flat views of each block of ``UPDATE_BLOCK`` values of each parameter:
    one view per list of *updated*, then one per list of *read*, each list
    holding that parameter's array.  An array that is not C-contiguous, such
    as a transposed view, is stepped through a contiguous copy, which is
    written back into it after its last block if it is *updated*."""
    for arrays in zip(*updated, *read):
        whole = [np.asarray(a, order="C") for a in arrays]
        flats = [w.reshape(-1) for w in whole]
        for start in range(0, flats[0].size, UPDATE_BLOCK):
            yield [f[start : start + UPDATE_BLOCK] for f in flats]
        for a, w in zip(arrays[: len(updated)], whole):
            if w is not a:
                a[...] = w


def _scratch(params, n: int) -> list[np.ndarray]:
    """*n* buffers as long as the longest block of *params*."""
    size = min(UPDATE_BLOCK, max((p.size for p in params), default=0))
    return [np.empty(size) for _ in range(n)]


def sgd_step(params, grads, learning_rate: float):
    """In-place ``p -= learning_rate * g``, with its bits, checked and
    updated in blocks as ``adam_step`` is."""
    _check_shapes(params, grads)
    blocks = _in_blocks([params], [grads])
    (scratch,) = _scratch(params, 1)
    for p, g in blocks:
        x = scratch[: p.size]
        np.multiply(g, learning_rate, out=x)
        p -= x
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


def adam_step(params, grads, state: AdamState, learning_rate: float):
    """One in-place Adam update with bias correction.

    Every length and shape, of *grads*, ``state.m`` and ``state.v``, is
    checked before anything changes.  Each parameter is then updated in
    blocks of ``UPDATE_BLOCK`` values through two reused scratch buffers.
    Each element goes through the IEEE operations of the whole-array
    expressions in their order, so the bits are theirs::

        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        p -= learning_rate * (m / c1) / (sqrt(v / c2) + eps)

    where c1 and c2 are the bias corrections.  No parameter-sized
    temporary is made for C-contiguous arrays, as the model's are; any
    other array is updated through a contiguous copy.
    """
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    _check_shapes(params, grads, state.m, state.v)
    blocks = _in_blocks([params, state.m, state.v], [grads])
    state.t += 1
    correction1 = 1.0 - beta1**state.t
    correction2 = 1.0 - beta2**state.t
    scratch, update = _scratch(params, 2)
    for p, m, v, g in blocks:
        x, y = scratch[: p.size], update[: p.size]
        m *= beta1
        np.multiply(g, 1.0 - beta1, out=x)
        m += x
        v *= beta2
        np.multiply(g, 1.0 - beta2, out=x)
        x *= g
        v += x
        np.divide(v, correction2, out=x)
        np.sqrt(x, out=x)
        x += eps
        np.divide(m, correction1, out=y)
        y *= learning_rate
        y /= x
        p -= y
    return params


def make_optimizer(config: TrainConfig, params):
    """Bind a TrainConfig to a parameter list; returns step(grads)."""
    if config.optimizer == "sgd":
        return lambda grads: sgd_step(params, grads, config.learning_rate)
    state = AdamState.for_params(params)

    def step(grads):
        return adam_step(params, grads, state, config.learning_rate)

    return step


def split(groups, seed: int):
    """Deterministic shuffled 80/20 train/validation split of pre-grouped
    items.

    *groups* is a list of item lists; a group never straddles the split.
    Returns the two flat item lists, groups in shuffled order.
    """
    if not groups:
        raise ShapeError("empty dataset")
    order = np.random.default_rng(seed).permutation(len(groups))
    n_train = int(round(0.8 * len(groups)))
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


def fit(graph: ModelGraph, pairs, loss, predict, score, train, val,
        config: TrainConfig) -> TrainResult:
    """Train *graph* in place; the best-validation-MAE weights are restored.

    *pairs* are the (input, target) pairs of the *train* items and *loss*
    is what value_and_grad takes.  After each epoch, *predict* maps each
    item of *train* and *val* to its prediction, once, and
    ``score(items, predictions)`` turns the predictions of *train*, then
    of *val*, into an MAE.  With *val* empty, the training MAE is also the
    validation MAE, and the result's *val* is *train*.  The seed fixes the
    batch order.  With epochs=0 the graph is unchanged and the history is
    empty.  A non-finite batch loss raises DomainError before the
    optimizer steps on its gradients.

    All of the run's parallel work goes through one ``GradientPool`` of
    forked workers, opened after *pairs* exist: every training step, which
    calls the module-level ``value_and_grad``, and every epoch's
    predictions.  A worker's block of a batch holds at least
    ``parallel.MIN_VALUES_PER_GRAD_WORKER`` input values, counted as
    ``np.size`` of each pair's input, and its block of the evaluated items
    at least ``parallel.MIN_ITEMS_PER_WORKER`` items.  Workers inherit
    *predict* at the pool's fork, so it should look up module functions
    when called, for a patched binding to reach them.
    """
    rng = np.random.default_rng(config.seed + 1)
    step = make_optimizer(config, graph.params())
    result = TrainResult(train=train, val=val or train)
    best_params = None
    loss = LOSSES[loss] if isinstance(loss, str) else loss

    def term(pair, n):  # a gradient worker's term of one sample
        graph.zero_grads()
        return _add_term(graph, *pair, loss, n)

    with GradientPool(predict, [*train, *val], term=term, items=pairs,
                      sizes=[np.size(x) for x, _ in pairs], params=graph.params(),
                      grads=graph.grads(), batch_size=config.batch_size) as workers:
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
            predictions = workers.predict_all()
            train_mae = score(train, predictions[: len(train)])
            val_mae = score(val, predictions[len(train):]) if val else train_mae
            stats = EpochStats(epoch=epoch, train_mae=train_mae, val_mae=val_mae)
            result.history.append(stats)
            if best_params is None or stats.val_mae < result.best_val_mae:
                result.best_epoch = epoch
                result.best_val_mae = stats.val_mae
                best_params = [p.copy() for p in graph.params()]
    if best_params is not None:
        for p, best in zip(graph.params(), best_params):
            p[...] = best
    return result
