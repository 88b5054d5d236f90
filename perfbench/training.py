"""ef_train and lvd_train: the train-* then eval-* CLI paths, in process.

Each repetition calls ``cli.cmd_train_ef`` / ``cmd_train_lvd`` (dataset
load, model build, training with per-epoch evaluation, baseline,
checkpoint save), then ``cmd_eval_ef`` / ``cmd_eval_lvd`` (checkpoint
load, dataset load, evaluation), with parsed command lines as
``echokit`` would run them.  Inputs are the synthetic datasets
``echokit synth`` writes, at the C5 and C8 shapes.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from echokit import checkpoint, cli, datasets, ef, lvd, nn, synth

from .harness import Ledger, check, rate

LEARNING_RATE = 3e-3
EPOCHS = 1  # per repetition
EVAL_REPEATS = 2  # the eval path is short, so it runs more often than training
EF_FRAME_SIZE = 16
EF_BATCH_SIZE = 8


@dataclass
class TrainState:
    train_args: object  # parsed ``echokit train-*`` command line
    eval_args: object  # parsed ``echokit eval-*`` command line
    n_train: int  # samples in the training split
    val: list  # the validation split, for the reload check


def _all_finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=np.float64))))


class _TrainWorkload:
    """Shared repetition: train path, reload check, eval path, each one operation."""

    throughput_name = "train_samples_per_s"
    eval_throughput_name = "eval_samples_per_s"
    reference_kernel = "layers"  # see calibrate.py
    traced_methods = (("setup", True), ("train_path", True), ("eval_path", True))

    def _args(self, seed: int, workdir: Path, data_dir: Path, batch_size: int, extra=()):
        ckpt_dir = workdir / f"{self.name}_ckpt"
        train = cli.build_parser().parse_args([
            self.train_command, "--data", str(data_dir), "--out-dir", str(ckpt_dir),
            "--epochs", str(EPOCHS), "--lr", str(LEARNING_RATE),
            "--batch-size", str(batch_size), "--optimizer", "adam", "--seed", str(seed),
            *extra,
        ])
        evaluate = cli.build_parser().parse_args([
            self.eval_command, "--data", str(data_dir), "--model", str(ckpt_dir),
            "--seed", str(seed),
        ])
        return train, evaluate

    def train_path(self, state: TrainState):
        return state.train_args.fn(state.train_args).metrics

    def eval_path(self, state: TrainState):
        return state.eval_args.fn(state.eval_args).metrics

    def rep(self, state: TrainState, ledger: Ledger, timed) -> dict:
        """*timed* times each call."""
        out = {"train_items": 0, "train_s": 0.0, "eval_items": 0, "eval_s": 0.0}
        shutil.rmtree(state.train_args.out_dir, ignore_errors=True)  # no stale checkpoint
        best = float("nan")
        with ledger.op(f"{self.name} train path"):
            report, seconds = timed(self.train_path, state)
            history = [(h["train_mae"], h["val_mae"]) for h in report["history"]]
            best = report["best_val_mae"]
            check(_all_finite(history) and _all_finite([best]),
                  f"non-finite training MAE {history}")
            out.update(train_items=state.n_train * EPOCHS, train_s=seconds, val_mae=best)
        with ledger.op(f"{self.name} checkpoint reload"):
            reloaded = self.reload_val_mae(state)
            check(reloaded == best,
                  f"reloaded checkpoint gives validation MAE {reloaded}, training gave {best}")
        for _ in range(EVAL_REPEATS):
            with ledger.op(f"{self.name} eval path"):
                report, seconds = timed(self.eval_path, state)
                check(_all_finite([report[self.eval_mae_key]]),
                      f"non-finite evaluation MAE {report[self.eval_mae_key]}")
                out["eval_items"] += report["n_samples"]
                out["eval_s"] += seconds
        return out

    def summary(self, reps: list[dict]) -> dict:
        val = [r["val_mae"] for r in reps if "val_mae" in r]
        return {
            "train_samples_per_s": (rate(reps, "train_items", "train_s"), "samples/s"),
            "eval_samples_per_s": (rate(reps, "eval_items", "eval_s"), "samples/s"),
            "val_mae": (val[-1] if val else float("nan"), self.mae_unit),
        }


class EfTrain(_TrainWorkload):
    """C5 shape: 200 one-beat 16x16 videos, D=64, batch 8, Adam, MAE."""

    name = "ef_train"
    train_command, eval_command, eval_mae_key = "train-ef", "eval-ef", "mae"
    mae_unit = "% points"

    def __init__(self, n_videos: int = 200, encoder_dim: int = 64):
        self.n_videos = n_videos
        self.encoder_dim = encoder_dim

    def setup(self, seed: int, workdir: Path) -> TrainState:
        """Write the dataset as ``echokit synth ef`` does, then load."""
        spec = synth.EfDatasetSpec(
            n_videos=self.n_videos, frame_dims=(EF_FRAME_SIZE, EF_FRAME_SIZE), seed=seed,
        )
        datasets.write_ef_dataset(workdir / "ef_data", spec)
        return self.load(seed, workdir)

    def load(self, seed: int, workdir: Path) -> TrainState:
        """Parse the command lines, split the dataset, build and warm up a model."""
        data_dir = workdir / "ef_data"
        train_args, eval_args = self._args(seed, workdir, data_dir, EF_BATCH_SIZE,
                                           ("--encoder-dim", str(self.encoder_dim)))
        samples = ef.load_ef_dataset(data_dir)
        train, val = ef.split_dataset(samples, seed=seed)
        model = ef.EfModel.build(ef.EfModelConfig(
            frame_shape=(EF_FRAME_SIZE, EF_FRAME_SIZE), encoder_dim=self.encoder_dim, seed=seed,
        ))
        batch = [
            (model.prepare_input(s.clip), np.array([s.ef_true / ef.OUTPUT_SCALE]))
            for s in train[:EF_BATCH_SIZE]
        ]
        nn.value_and_grad(model.graph, batch, "mae")
        ef.predict_ef(model, val[0].clip)
        return TrainState(train_args, eval_args, len(train), val)

    def reload_val_mae(self, state: TrainState) -> float:
        model, _ = checkpoint.load_ef_model(state.train_args.out_dir)
        return ef.evaluate_mae(model, state.val)


class LvdTrain(_TrainWorkload):
    """C8 shape: 500 64x64 frames, batch 16, Adam, LvdObjective."""

    name = "lvd_train"
    train_command, eval_command, eval_mae_key = "train-lvd", "eval-lvd", "mae_mean"
    mae_unit = "mm"

    def __init__(self, n_frames: int = 500, frame_size: int = 64, batch_size: int = 16):
        self.n_frames = n_frames
        self.frame_size = frame_size
        self.batch_size = batch_size

    def setup(self, seed: int, workdir: Path) -> TrainState:
        """Write the dataset as ``echokit synth lvd`` does, then load."""
        dims = (self.frame_size, self.frame_size)
        spec = synth.LvdDatasetSpec(
            n_frames=self.n_frames, scene=synth.LvdSceneParams.for_frame(dims), seed=seed,
        )
        datasets.write_lvd_dataset(workdir / "lvd_data", spec)
        return self.load(seed, workdir)

    def load(self, seed: int, workdir: Path) -> TrainState:
        """Parse the command lines, split the dataset, build and warm up a model."""
        data_dir = workdir / "lvd_data"
        train_args, eval_args = self._args(seed, workdir, data_dir, self.batch_size)
        samples = lvd.load_lvd_dataset(data_dir)
        train, val = lvd.split_samples(samples, seed=seed)
        model = lvd.LvdModel.build(
            lvd.LvdModelConfig(frame_shape=samples[0].frame.shape, seed=seed)
        )
        batch = train[: self.batch_size]
        weights = lvd.loss_weights([s.dimensions() for s in batch])
        objective = lvd.LvdObjective(weights, model.coord_scale())
        pairs = [
            (model.prepare_input(s.frame),
             (s.keypoints.points, s.mm_per_pixel, s.dimensions().as_array()))
            for s in batch
        ]
        nn.value_and_grad(model.graph, pairs, objective)
        lvd.predict_keypoints(model, val[0].frame)
        return TrainState(train_args, eval_args, len(train), val)

    def reload_val_mae(self, state: TrainState) -> float:
        model, _ = checkpoint.load_lvd_model(state.train_args.out_dir)
        return lvd.evaluate_lvd(model, state.val).mean_mae
