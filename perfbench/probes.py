"""Where the traced run puts its spans: echokit's public calls and layers.

Span names follow ``<module>.<function>`` for module functions and
``nn.<kind>.fwd`` / ``nn.<kind>.bwd`` for every ``Layer`` subclass, with
``nn.model.fwd`` / ``nn.model.bwd`` around a whole ``ModelGraph`` pass.
A probe whose target does not exist is skipped, so a later refactor
loses spans rather than breaking the benchmark.
"""

from __future__ import annotations

import numpy as np

from echokit import beats, checkpoint, convops, datasets, ef, lvd, nn, tensorio

from .spans import Tracer

BYTES_PER_VALUE = 8  # every echokit computation is float64


def _layer_classes():
    found, todo = [], [nn.Layer]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            found.append(sub)
            todo.append(sub)
    return found


def _n_samples(args, kwargs, result):
    return {"samples": len(args[1])}


def _extrema_frames(args, kwargs, result):
    frames = int(np.asarray(getattr(args[0], "values", args[0])).size)
    return {"frames": frames, "key": frames}


def _bytes_read(args, kwargs, result):
    return {"bytes": int(result.nbytes)}


def _bytes_written(args, kwargs, result):
    return {"bytes": int(np.asarray(args[1]).nbytes)}


def _padding_and_multiplies(args, kwargs):
    padding = args[2] if len(args) > 2 else kwargs.get("padding", "same")
    counter = args[3] if len(args) > 3 else kwargs.get("counter")
    return padding, counter.multiplies if counter is not None else 0


def _conv_counts(args, kwargs, result):
    """Exact multiplies from the caller's OpCounter, and computed bytes.

    Bytes are compulsory traffic computed from array sizes: the input
    read once, the spatial-stage output written and read back, and the
    output written once.
    """
    video, sep = args[0], args[1]
    padding, mult = _padding_and_multiplies(args, kwargs)
    mid = result.shape[0] * result.shape[1] * video.shape[2]
    return {
        "key": conv_key(video.shape, sep.dims, padding),
        "mult": mult,
        "bytes": BYTES_PER_VALUE * (video.size + 2 * mid + result.size),
    }


def _full_counts(args, kwargs, result):
    padding, mult = _padding_and_multiplies(args, kwargs)
    return {"key": conv_key(args[0].shape, args[1].shape, padding), "mult": mult}


def conv_key(video_dims, kernel_dims, padding) -> str:
    v = "x".join(str(int(d)) for d in video_dims)
    k = "x".join(str(int(d)) for d in kernel_dims)
    return f"{v}/{k}/{padding}"


def install(tracer: Tracer, workload) -> None:
    """Trace every echokit call the workloads reach, plus the workload's
    own per-item methods, which become the root spans of a request."""
    for attr, new_request in workload.traced_methods:
        tracer.patch(workload, attr, f"bench.{attr}", new_request=new_request)
    for cls in _layer_classes():
        kind = getattr(cls, "kind", cls.__name__.lower())
        if "forward" in cls.__dict__:
            tracer.patch(cls, "forward", f"nn.{kind}.fwd")
        if "backward" in cls.__dict__:
            tracer.patch(cls, "backward", f"nn.{kind}.bwd")
    tracer.patch(nn.ModelGraph, "forward", "nn.model.fwd")
    tracer.patch(nn.ModelGraph, "backward", "nn.model.bwd")
    tracer.patch_function(nn, "value_and_grad", "nn.value_and_grad", new_request=True)
    tracer.patch_function(nn, "make_optimizer", "nn.make_optimizer",
                          returns_traced="nn.optimizer_step")

    tracer.patch_function(ef, "train_ef", "ef.train_ef")
    tracer.patch_function(ef, "evaluate_mae", "ef.evaluate_mae", counts=_n_samples)
    tracer.patch_function(ef, "predict_ef", "ef.predict_ef")
    tracer.patch_function(ef, "load_ef_dataset", "ef.load_ef_dataset")
    tracer.patch_function(lvd, "train_lvd", "lvd.train_lvd")
    tracer.patch_function(lvd, "evaluate_lvd", "lvd.evaluate_lvd", counts=_n_samples)
    tracer.patch_function(lvd, "predict_keypoints", "lvd.predict_keypoints")
    tracer.patch_function(lvd, "load_lvd_dataset", "lvd.load_lvd_dataset")
    tracer.patch(lvd.LvdObjective, "__call__", "lvd.objective")

    tracer.patch_function(beats, "area_signal", "beats.area_signal")
    tracer.patch_function(beats, "detect_extrema", "beats.detect_extrema",
                          counts=_extrema_frames)
    tracer.patch_function(beats, "extract_beats", "beats.extract_beats")

    tracer.patch_function(tensorio, "read_tensor", "tensorio.read_tensor", counts=_bytes_read)
    tracer.patch_function(tensorio, "write_tensor", "tensorio.write_tensor",
                          counts=_bytes_written)
    tracer.patch_function(checkpoint, "save_checkpoint", "checkpoint.save")
    tracer.patch_function(checkpoint, "load_ef_model", "checkpoint.load")
    tracer.patch_function(checkpoint, "load_lvd_model", "checkpoint.load")
    tracer.patch_function(datasets, "write_ef_dataset", "datasets.write_ef_dataset")
    tracer.patch_function(datasets, "write_lvd_dataset", "datasets.write_lvd_dataset")

    tracer.patch_function(convops, "conv_factored", "convops.conv_factored",
                          counts=_conv_counts)
    tracer.patch_function(convops, "conv_spatial", "convops.conv_spatial")
    tracer.patch_function(convops, "conv_temporal", "convops.conv_temporal")
    tracer.patch_function(convops, "conv3d_full", "convops.conv3d_full", counts=_full_counts)
