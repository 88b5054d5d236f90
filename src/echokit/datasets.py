"""Turn generated scenes into training samples and on-disk datasets.

Dataset directories hold CTR1 tensors plus a ``labels.csv`` in the schema
of the consuming model (``clip_path,ef_percent`` for EF,
``frame_path,x1,y1,...,x4,y4,mm_per_pixel`` for LVD) and a
``manifest.json`` recording generation parameters and seeds.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict
from itertools import groupby
from operator import attrgetter
from pathlib import Path

from .beats import AreaSignal, detect_extrema, extract_beats
from .ef import EF_LABEL_HEADER, EfSample
from .errors import ConfigurationError
from .lvd import LVD_LABEL_HEADER, LvdSample
from .report import json_text
from .synth import EfDatasetSpec, LvdDatasetSpec, generate_ef_scenes, generate_lvd_scenes
from .tensorio import open_input, output_dir, write_tensor


def build_ef_samples(spec: EfDatasetSpec) -> list[EfSample]:
    """Beat clips of each video via the detection pipeline, labeled with its EF.

    The area signal is the generator's own pixel counts of its 0/1 masks,
    the integers beats.area_signal would count from them.
    """
    samples = []
    for i, scene in enumerate(generate_ef_scenes(spec)):
        extrema = detect_extrema(AreaSignal(scene.true_areas, scene.frame_rate))
        samples.extend(
            EfSample(clip=c, ef_true=scene.ef_true, video_id=f"video_{i:04d}")
            for c in extract_beats(scene.video, extrema)
        )
    return samples


def build_lvd_samples(spec: LvdDatasetSpec) -> list[LvdSample]:
    return [
        LvdSample(frame=s.frame, keypoints=s.keypoints, mm_per_pixel=s.params.mm_per_pixel)
        for s in generate_lvd_scenes(spec)
    ]


def write_ef_dataset(out_dir, spec: EfDatasetSpec) -> dict:
    """Generate and write an EF dataset directory; returns the manifest."""
    out_dir = Path(out_dir)
    output_dir(out_dir / "clips")
    rows = []
    clip_meta = []
    for video_id, samples in groupby(build_ef_samples(spec), key=attrgetter("video_id")):
        for j, sample in enumerate(samples):
            rel = f"clips/{video_id}_beat{j}.ctr"
            write_tensor(out_dir / rel, sample.clip.sub_video)
            rows.append({"clip_path": rel, "ef_percent": repr(sample.ef_true)})
            clip_meta.append(
                {
                    "clip_path": rel,
                    "video_id": video_id,
                    "start_frame": sample.clip.start_frame,
                    "end_frame": sample.clip.end_frame,
                }
            )
    manifest = {
        "kind": "ef",
        "spec": asdict(spec),
        "n_videos": spec.n_videos,
        "n_clips": len(rows),
        "clips": clip_meta,
    }
    _write_labels(out_dir / "labels.csv", EF_LABEL_HEADER, rows)
    (out_dir / "manifest.json").write_text(json_text(manifest))
    return manifest


def write_lvd_dataset(out_dir, spec: LvdDatasetSpec) -> dict:
    """Generate and write an LVD dataset directory; returns the manifest."""
    out_dir = Path(out_dir)
    output_dir(out_dir / "frames")
    rows = []
    for i, sample in enumerate(build_lvd_samples(spec)):
        rel = f"frames/frame_{i:04d}.ctr"
        write_tensor(out_dir / rel, sample.frame)
        row = {"frame_path": rel, "mm_per_pixel": repr(sample.mm_per_pixel)}
        for k in range(4):
            row[f"x{k + 1}"] = repr(float(sample.keypoints.points[k, 0]))
            row[f"y{k + 1}"] = repr(float(sample.keypoints.points[k, 1]))
        rows.append(row)
    manifest = {"kind": "lvd", "spec": asdict(spec), "n_frames": len(rows)}
    _write_labels(out_dir / "labels.csv", LVD_LABEL_HEADER, rows)
    (out_dir / "manifest.json").write_text(json_text(manifest))
    return manifest


def read_labels(path: Path, header, numeric) -> list[dict]:
    """The rows of a ``labels.csv`` with *header*, as dicts.

    The fields named in *numeric* become floats.  Blank lines are skipped.
    A path that cannot be opened raises InputNotFoundError (``open_input``);
    bytes that are not UTF-8, a field the csv module rejects, a different
    header, a row without exactly one value per column, a value in a
    *numeric* field that is not a finite number, or no rows at all raise
    ConfigurationError naming the file and, for a row, its line.
    """
    with open_input(path) as stream:
        data = stream.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigurationError(f"{path}, line {line}: not UTF-8 text ({exc.reason})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        records = [(reader.line_num, values) for values in reader]
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise ConfigurationError(f"{path}, line {reader.line_num}: {exc}") from None
    found = records[0][1] if records else None
    if found != header:
        raise ConfigurationError(f"{path}: expected header {header}, got {found}")
    rows = []
    for line, values in records[1:]:
        if not values:
            continue
        where = f"{path}, line {line}"
        if len(values) != len(header):
            raise ConfigurationError(
                f"{where}: expected {len(header)} values, got {len(values)}"
            )
        row = dict(zip(header, values))
        for name in numeric:
            value = row[name]
            try:
                row[name] = float(value)
            except ValueError:
                raise ConfigurationError(f"{where}: {name}={value!r} is not a number") from None
            if not math.isfinite(row[name]):
                raise ConfigurationError(f"{where}: {name}={value!r} is not finite")
        rows.append(row)
    if not rows:
        raise ConfigurationError(f"{path}: no rows")
    return rows


def _write_labels(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header)
        writer.writeheader()
        writer.writerows(rows)
