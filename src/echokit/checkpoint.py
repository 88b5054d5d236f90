"""Model checkpoints: a JSON manifest plus concatenated CTR1 parameter records.

A checkpoint is a directory with ``manifest.json`` (model kind, model
config, per-layer kinds and parameter shapes, plus caller extras such as
the training config) and ``params.ctr`` holding one CTR1 record per
parameter array in layer order.  Loading rebuilds the model from the
manifest's config and checks it against the manifest's layers before any
parameter is read.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from itertools import zip_longest
from pathlib import Path

from .errors import ConfigurationError, ShapeError
from .nn import ModelGraph
from .tensorio import read_tensor_stream, write_tensor_stream

FORMAT = "echokit-checkpoint-v1"


def save_checkpoint(path, model_kind: str, model_config, graph: ModelGraph,
                    extra: dict | None = None) -> Path:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": FORMAT,
        "model_kind": model_kind,
        "model_config": asdict(model_config),
        "layers": _layer_specs(graph),
        "extra": extra or {},
    }
    (path / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    with open(path / "params.ctr", "wb") as fh:
        for p in graph.params():
            write_tensor_stream(fh, p)
    return path


def _layer_specs(graph: ModelGraph) -> list[dict]:
    return [
        {"kind": layer.kind, "param_shapes": [list(p.shape) for p in layer.params()]}
        for layer in graph.layers
    ]


def load_manifest(path) -> dict:
    path = Path(path)
    manifest_path = path / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"missing checkpoint manifest: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{manifest_path}: not valid JSON ({exc})") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT:
        raise ConfigurationError(f"{manifest_path}: not an {FORMAT} manifest")
    return manifest


def load_params_into(path, graph: ModelGraph) -> None:
    """Read params.ctr into an already-built graph, checking shapes."""
    path = Path(path)
    params = graph.params()
    with open(path / "params.ctr", "rb") as fh:
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
    except TypeError as exc:
        raise ConfigurationError(f"checkpoint at {path}: bad model_config ({exc})") from exc
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
