"""Model checkpoints: a JSON manifest plus concatenated CTR1 parameter records.

A checkpoint is a directory with ``manifest.json`` (model kind, model
config, per-layer kinds and parameter shapes, plus caller extras such as
the training config) and ``params.ctr`` holding one CTR1 record per
parameter array in layer order.  Loading rebuilds the model from the
manifest's config and checks it against the manifest's layers before any
parameter is read.

Saving is atomic: both files are written into a hidden sibling directory
that then takes the checkpoint's place, so a save that fails part-way
leaves any earlier checkpoint as it was, and the two files are never
from different saves.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import asdict, fields
from itertools import zip_longest
from pathlib import Path

from .errors import ConfigurationError, ShapeError
from .nn import ModelGraph
from .report import json_text
from .tensorio import open_input, output_dir, read_json, read_tensor_stream, write_tensor_stream

FORMAT = "echokit-checkpoint-v1"


def save_checkpoint(path, model_kind: str, model_config, graph: ModelGraph,
                    extra: dict | None = None) -> Path:
    """Write a checkpoint directory at *path*, replacing any checkpoint there.

    An existing *path* must be a directory holding nothing but checkpoint
    files, since the whole directory is replaced.  A path the OS refuses,
    such as a name over its length limit, raises ConfigurationError.
    """
    path = Path(path)
    try:
        exists = path.exists()
    except OSError as exc:
        raise ConfigurationError(f"cannot write a checkpoint at {path}: {exc.strerror}") from None
    if exists and (not path.is_dir() or {e.name for e in path.iterdir()}
                   - {"manifest.json", "params.ctr"}):
        raise ConfigurationError(
            f"{path} is not a checkpoint directory (it holds more than manifest.json "
            "and params.ctr); refusing to replace it"
        )
    manifest = {
        "format": FORMAT,
        "model_kind": model_kind,
        "model_config": asdict(model_config),
        "layers": _layer_specs(graph),
        "extra": extra or {},
    }
    # Named apart from path.name, so that any name the OS takes for path
    # also leaves room for the staging and retired names.
    staging = path.parent / f".ckpt-{os.urandom(8).hex()}"
    output_dir(staging)
    try:
        (staging / "manifest.json").write_text(json_text(manifest))
        with open(staging / "params.ctr", "wb") as fh:
            for p in graph.params():
                write_tensor_stream(fh, p)
        retired = staging.with_name(staging.name + ".old")
        if path.exists():
            os.rename(path, retired)
        os.rename(staging, path)
        shutil.rmtree(retired, ignore_errors=True)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return path


def _layer_specs(graph: ModelGraph) -> list[dict]:
    return [
        {"kind": layer.kind, "param_shapes": [list(p.shape) for p in layer.params()]}
        for layer in graph.layers
    ]


def load_manifest(path) -> dict:
    manifest_path = Path(path) / "manifest.json"
    manifest = read_json(manifest_path)
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT:
        raise ConfigurationError(f"{manifest_path}: not an {FORMAT} manifest")
    return manifest


def load_params_into(path, graph: ModelGraph) -> None:
    """Read params.ctr into an already-built graph, checking shapes."""
    params = graph.params()
    with open_input(Path(path) / "params.ctr") as fh:
        for i, p in enumerate(params):
            stored = read_tensor_stream(fh)
            if stored.shape != p.shape:
                raise ShapeError(
                    f"checkpoint param {i} has shape {stored.shape}, model needs {p.shape}"
                )
            p[...] = stored
        if fh.read(1):
            raise ShapeError("checkpoint holds more parameters than the model")


def load_model(path, kind: str):
    """Rebuild a saved model of *kind* ("ef" or "lvd"); returns (model, manifest).

    The manifest's model_config must name exactly the fields of the kind's
    config class, and the model built from it must have the manifest's
    layer kinds and parameter shapes.
    """
    from .ef import EfModel, EfModelConfig
    from .lvd import LvdModel, LvdModelConfig

    model_cls, config_cls = {
        "ef": (EfModel, EfModelConfig), "lvd": (LvdModel, LvdModelConfig),
    }[kind]
    manifest = load_manifest(path)
    if manifest.get("model_kind") != kind:
        raise ConfigurationError(f"checkpoint at {path} is not an {kind.upper()} model")
    cfg = manifest.get("model_config")
    names = {f.name for f in fields(config_cls)}
    if not isinstance(cfg, dict) or set(cfg) != names:
        raise ConfigurationError(
            f"checkpoint at {path}: model_config must have exactly the keys {sorted(names)}"
        )
    try:
        config = config_cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in cfg.items()})
    except (TypeError, ConfigurationError) as exc:
        raise ConfigurationError(f"checkpoint at {path}: bad model_config ({exc})") from exc
    if not isinstance(manifest.get("extra", {}), dict):
        raise ConfigurationError(f"checkpoint at {path}: extra must be an object")
    model = model_cls.build(config)
    stored = manifest.get("layers")
    for i, (saved, built) in enumerate(zip_longest(
            stored if isinstance(stored, list) else [], _layer_specs(model.graph))):
        if saved != built:
            raise ShapeError(
                f"checkpoint at {path}: manifest layer {i} is {saved}, "
                f"but its model_config builds {built}"
            )
    load_params_into(path, model.graph)
    return model, manifest


def load_ef_model(path):
    return load_model(path, "ef")


def load_lvd_model(path):
    return load_model(path, "lvd")
