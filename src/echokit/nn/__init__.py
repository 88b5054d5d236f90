"""Minimal reverse-mode differentiation stack: layers, losses, optimizers,
the training loop, and finite-difference checks."""

from .layers import (
    Conv1d,
    Dense,
    DepthwiseSeparable2d,
    Flatten,
    FrameEncoder,
    GlobalAvgPool2d,
    GlobalMaxPool1d,
    Layer,
    MaxPool2d,
    ModelGraph,
    Swish,
)
from .train import (
    AdamState,
    TrainConfig,
    TrainResult,
    adam_step,
    fit,
    gradient_rel_error,
    mae_value_and_grad,
    make_optimizer,
    mse_value_and_grad,
    sgd_step,
    split,
    value_and_grad,
)
from .gradcheck import central_difference, finite_diff_grad
