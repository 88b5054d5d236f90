"""Command-line entry point.

Subcommands: oracle-check, gradcheck, bench, extract-beats, synth,
train-ef, eval-ef, train-lvd, eval-lvd.  Every subcommand assembles a
Report, and main() times it; the human summary goes to stdout, the
machine report to ``--out``.  The exit code is 0 only if every verdict
passed; a run stopped by an echokit error still writes a failed report
naming the error, and exits 2.  Runs are deterministic for fixed flags
and seed (timing fields aside).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import beats, checkpoint, convops, datasets, ef, lvd, synth, tensorio
from .nn import TrainConfig
from .errors import EchokitError
from .nn.gradcheck import DEFAULT_EPSILON, LAYER_KINDS, check_layer_kind, check_model_subset
from .report import Report

ORACLE_TOLERANCE = 1e-10
GRAD_TOLERANCE = 1e-4


def relative_max_error(a: np.ndarray, b: np.ndarray) -> float:
    """max|a - b| normalized by the larger magnitude of the two arrays."""
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


def _odd_dim(rng: np.random.Generator, max_dim: int) -> int:
    choices = [d for d in (1, 3, 5, 7) if d <= max_dim]
    return int(rng.choice(choices))


def run_oracle_trials(trials: int, max_dim: int, max_kernel: int, seed: int):
    """Factored-vs-full equivalence over random separable kernels.

    Returns the worst relative error and the error of a deliberately
    non-separable control kernel (which must NOT match).
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        mx, my, mt = (_odd_dim(rng, max_kernel) for _ in range(3))
        nx = int(rng.integers(mx, max_dim + 1))
        ny = int(rng.integers(my, max_dim + 1))
        nt = int(rng.integers(mt, max_dim + 1))
        padding = str(rng.choice(["same", "valid"]))
        video = rng.standard_normal((nx, ny, nt))
        sep = convops.SeparableKernel(
            spatial=rng.standard_normal((mx, my)),
            temporal=rng.standard_normal(mt),
        )
        full = convops.conv3d_full(video, convops.kron_kernel(sep), padding)
        factored = convops.conv_factored(video, sep, padding)
        worst = max(worst, relative_max_error(full, factored))

    # Control: perturb one kernel element so the kernel is no longer the
    # Kronecker product of the factors; the comparison must detect it.
    video = rng.standard_normal((8, 8, 8))
    sep = convops.SeparableKernel(
        spatial=rng.standard_normal((3, 3)), temporal=rng.standard_normal(3)
    )
    broken = convops.kron_kernel(sep).copy()
    broken[1, 1, 1] += 0.5
    control = relative_max_error(
        convops.conv3d_full(video, broken, "same"),
        convops.conv_factored(video, sep, "same"),
    )
    return worst, control


def cmd_oracle_check(args) -> Report:
    worst, control = run_oracle_trials(args.trials, args.max_dim, args.max_kernel, args.seed)
    return Report(
        subcommand="oracle-check",
        config={
            "trials": args.trials, "max_dim": args.max_dim,
            "max_kernel": args.max_kernel, "seed": args.seed,
            "tolerance": ORACLE_TOLERANCE,
        },
        metrics={"max_rel_err": worst, "control_rel_err": control},
        verdicts={
            "factorization_equivalence": worst <= ORACLE_TOLERANCE,
            "control_detects_mismatch": control > 1e-6,
        },
    )


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return float(np.median(times))


def run_bench(video_dims, kernel_dims, repeats: int, padding: str, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    video = rng.standard_normal(tuple(video_dims))
    sep = convops.SeparableKernel(
        spatial=rng.standard_normal(tuple(kernel_dims[:2])),
        temporal=rng.standard_normal(kernel_dims[2]),
    )
    dense = convops.kron_kernel(sep)

    counter = convops.OpCounter()
    convops.conv3d_full(video, dense, padding, counter)
    count_full = counter.multiplies
    counter.reset()
    convops.conv_factored(video, sep, padding, counter)
    count_factored = counter.multiplies

    model_full = convops.flop_model(video_dims, kernel_dims, "full", padding)
    model_factored = convops.flop_model(video_dims, kernel_dims, "factored", padding)

    wall_full = _median_ms(lambda: convops.conv3d_full(video, dense, padding), repeats)
    wall_factored = _median_ms(lambda: convops.conv_factored(video, sep, padding), repeats)
    return {
        "count_full": count_full,
        "count_factored": count_factored,
        "count_ratio": count_full / count_factored,
        "flop_model_full": model_full,
        "flop_model_factored": model_factored,
        "wall_full_ms": wall_full,
        "wall_factored_ms": wall_factored,
        "wall_ratio": wall_full / wall_factored if wall_factored > 0 else float("inf"),
    }


def cmd_bench(args) -> Report:
    video_dims = tuple(args.video_dims)
    kernel_dims = tuple(args.kernel_dims)
    m = run_bench(video_dims, kernel_dims, args.repeats, args.padding, args.seed)
    m["wall_ratio_ge_2"] = bool(m["wall_ratio"] >= 2.0)  # recorded, not asserted
    return Report(
        subcommand="bench",
        config={
            "video_dims": list(video_dims), "kernel_dims": list(kernel_dims),
            "repeats": args.repeats, "padding": args.padding,
            "seed": args.seed,
        },
        metrics=m,
        verdicts={
            "count_full_matches_model": m["count_full"] == m["flop_model_full"],
            "count_factored_matches_model": m["count_factored"] == m["flop_model_factored"],
        },
    )


def run_gradcheck(seed: int, instances_per_layer: int = 20) -> dict:
    """Per-layer FD checks plus end-to-end checks of both models."""
    metrics = {}
    for kind in LAYER_KINDS:
        metrics[f"rel_err_{kind}"] = check_layer_kind(
            kind, n_instances=instances_per_layer, seed=seed
        )

    ef_config = ef.EfModelConfig(frame_shape=(8, 8), encoder_dim=8, seed=seed)
    ef_model = ef.EfModel.build(ef_config)
    rng = np.random.default_rng(seed)
    batch = [
        (rng.uniform(0, 1, (8, 8, 3)) - ef.INPUT_SHIFT, np.array([0.55])),
        (rng.uniform(0, 1, (8, 8, 4)) - ef.INPUT_SHIFT, np.array([0.40])),
    ]
    metrics["rel_err_ef_model"] = check_model_subset(
        ef_model.graph, batch, "mse", n_indices=64, seed=seed
    )

    lvd_config = lvd.LvdModelConfig(frame_shape=(16, 16), channels=(4, 8, 8), hidden=16, seed=seed)
    lvd_model = lvd.LvdModel.build(lvd_config)
    weights = lvd.LossWeights(0.5, 0.25, 0.5)
    objective = lvd.LvdObjective(weights, lvd_model.coord_scale(), coord_coef=1.0)
    kp = np.array([[2.0, 3.0], [5.0, 6.0], [9.0, 9.0], [12.0, 11.0]])
    target_mm = np.array([4.0, 5.0, 4.0])
    lvd_batch = [
        (rng.uniform(0, 1, (16, 16, 1)) - lvd.INPUT_SHIFT, (kp, 1.0, target_mm)),
        (rng.uniform(0, 1, (16, 16, 1)) - lvd.INPUT_SHIFT, (kp + 1.0, 0.5, target_mm * 0.5)),
    ]
    metrics["rel_err_lvd_model"] = check_model_subset(
        lvd_model.graph, lvd_batch, objective, n_indices=64, seed=seed
    )
    return metrics


def cmd_gradcheck(args) -> Report:
    metrics = run_gradcheck(args.seed, args.instances)
    verdicts = {
        name.replace("rel_err_", "grad_"): value <= GRAD_TOLERANCE
        for name, value in metrics.items()
    }
    return Report(
        subcommand="gradcheck",
        config={
            "seed": args.seed, "instances": args.instances,
            "tolerance": GRAD_TOLERANCE, "epsilon": DEFAULT_EPSILON,
        },
        metrics=metrics,
        verdicts=verdicts,
    )


def cmd_extract_beats(args) -> Report:
    video = tensorio.read_tensor(_existing(args.video))
    masks = tensorio.read_tensor(_existing(args.masks))
    if video.shape != masks.shape:
        raise SystemExit(f"video {video.shape} and masks {masks.shape} differ in shape")
    signal = beats.area_signal(masks, frame_rate=args.frame_rate)
    extrema = beats.detect_extrema(
        signal,
        min_separation=args.min_separation,
        min_prominence=args.min_prominence,
        smooth_window=args.smooth_window,
    )
    clips = beats.extract_beats(video, extrema)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    index = {"clips": [], "maxima": extrema.maxima, "minima": extrema.minima}
    for i, clip in enumerate(clips):
        rel = f"beat_{i:03d}.ctr"
        tensorio.write_tensor(out_dir / rel, clip.sub_video)
        index["clips"].append(
            {
                "path": rel,
                "start_frame": clip.start_frame,
                "end_frame": clip.end_frame,
                "start_area": int(signal.values[clip.start_frame]),
                "end_area": int(signal.values[clip.end_frame]),
            }
        )
    (out_dir / "index.json").write_text(json.dumps(index, sort_keys=True, indent=2) + "\n")
    return Report(
        subcommand="extract-beats",
        config={
            "video": str(args.video), "masks": str(args.masks),
            "out_dir": str(args.out_dir), "frame_rate": args.frame_rate,
            "min_separation": args.min_separation,
            "min_prominence": args.min_prominence,
            "smooth_window": args.smooth_window, "seed": args.seed,
        },
        metrics={
            "n_clips": len(clips),
            "n_maxima": len(extrema.maxima),
            "n_minima": len(extrema.minima),
        },
        verdicts={"completed": True},
    )


def cmd_synth(args) -> Report:
    if args.frame_size is None:
        args.frame_size = 16 if args.kind == "ef" else 64
    if args.kind == "ef":
        spec = synth.EfDatasetSpec(
            n_videos=args.videos,
            frame_dims=(args.frame_size, args.frame_size),
            period_frames=args.period,
            n_beats=args.beats,
            seed=args.seed,
        )
        manifest = datasets.write_ef_dataset(args.out_dir, spec)
        metrics = {"n_videos": manifest["n_videos"], "n_clips": manifest["n_clips"]}
    else:
        spec = synth.LvdDatasetSpec(
            n_frames=args.frames,
            scene=synth.LvdSceneParams.for_frame((args.frame_size, args.frame_size)),
            seed=args.seed,
        )
        manifest = datasets.write_lvd_dataset(args.out_dir, spec)
        metrics = {"n_frames": manifest["n_frames"]}
    return Report(
        subcommand="synth",
        config={
            "kind": args.kind, "out_dir": str(args.out_dir), "seed": args.seed,
            "frame_size": args.frame_size,
        },
        metrics=metrics,
        verdicts={"completed": True},
    )


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        learning_rate=args.lr,
        batch_size=args.batch_size,
        epochs=args.epochs,
        optimizer=args.optimizer,
        seed=args.seed,
        loss=getattr(args, "loss", "mae"),
    )


def cmd_train_ef(args) -> Report:
    samples = ef.load_ef_dataset(_existing(args.data))
    frame_shape = samples[0].clip.sub_video.shape[:2]
    model = ef.EfModel.build(
        ef.EfModelConfig(
            frame_shape=frame_shape,
            encoder_dim=args.encoder_dim,
            padding=args.padding,
            seed=args.seed,
        )
    )
    config = _train_config(args)
    model, result = ef.train_ef(model, samples, config)
    train, val = ef.split_dataset(samples, seed=config.seed)
    baseline = ef.baseline_mae(val or samples, constant=float(np.mean(ef.video_truths(train))))
    if args.out_dir:
        checkpoint.save_checkpoint(
            args.out_dir, "ef", model.config, model.graph,
            extra={
                "train_config": asdict(config),
                "best_epoch": result.best_epoch,
                "best_val_mae": result.best_val_mae,
            },
        )
    return Report(
        subcommand="train-ef",
        config={
            "data": str(args.data), "out_dir": str(args.out_dir or ""),
            "epochs": args.epochs, "lr": args.lr, "batch_size": args.batch_size,
            "seed": args.seed, "padding": args.padding,
            "encoder_dim": args.encoder_dim, "optimizer": args.optimizer,
            "loss": args.loss,
        },
        metrics={
            "n_samples": len(samples),
            "n_params": model.n_params(),
            "best_epoch": result.best_epoch,
            "best_val_mae": result.best_val_mae,
            "baseline_val_mae": baseline,
            "history": [s.as_dict() for s in result.history],
        },
        verdicts={"completed": True},
    )


def cmd_eval_ef(args) -> Report:
    model, _ = checkpoint.load_ef_model(_existing(args.model))
    samples = ef.load_ef_dataset(_existing(args.data))
    mae = ef.evaluate_mae(model, samples)
    baseline = ef.baseline_mae(samples)
    return Report(
        subcommand="eval-ef",
        config={
            "data": str(args.data), "model": str(args.model),
            "seed": args.seed,
        },
        metrics={"mae": mae, "baseline_mae": baseline, "n_samples": len(samples)},
        verdicts={"completed": True},
    )


def cmd_train_lvd(args) -> Report:
    samples = lvd.load_lvd_dataset(_existing(args.data))
    frame_shape = samples[0].frame.shape
    model = lvd.LvdModel.build(
        lvd.LvdModelConfig(frame_shape=frame_shape, seed=args.seed)
    )
    config = _train_config(args)
    model, result = lvd.train_lvd(model, samples, config, coord_coef=args.coord_coef)
    _, val = lvd.split_samples(samples, seed=config.seed)
    val = val or samples
    baseline = lvd.constant_baseline_mae(val)
    weights = result.weights.as_array().tolist() if result.weights else None
    if args.out_dir:
        checkpoint.save_checkpoint(
            args.out_dir, "lvd", model.config, model.graph,
            extra={
                "train_config": asdict(config),
                "coord_coef": args.coord_coef,
                "loss_weights": weights,
                "best_epoch": result.best_epoch,
                "best_val_mae": result.best_val_mae,
            },
        )
    return Report(
        subcommand="train-lvd",
        config={
            "data": str(args.data), "out_dir": str(args.out_dir or ""),
            "epochs": args.epochs, "lr": args.lr, "batch_size": args.batch_size,
            "seed": args.seed, "coord_coef": args.coord_coef,
            "optimizer": args.optimizer,
        },
        metrics={
            "n_samples": len(samples),
            "n_params": model.n_params(),
            "best_epoch": result.best_epoch,
            "best_val_mae": result.best_val_mae,
            "baseline_val_mae": baseline.mean_mae,
            "loss_weights": weights,
            "history": [s.as_dict() for s in result.history],
        },
        verdicts={"completed": True},
    )


def cmd_eval_lvd(args) -> Report:
    model, manifest = checkpoint.load_lvd_model(_existing(args.model))
    samples = lvd.load_lvd_dataset(_existing(args.data))
    evaluation = lvd.evaluate_lvd(model, samples)
    baseline = lvd.constant_baseline_mae(samples)
    metrics = evaluation.as_dict()
    metrics["baseline_mae_mean"] = baseline.mean_mae
    metrics["loss_weights"] = manifest.get("extra", {}).get("loss_weights")
    return Report(
        subcommand="eval-lvd",
        config={
            "data": str(args.data), "model": str(args.model),
            "seed": args.seed,
        },
        metrics=metrics,
        verdicts={"completed": True},
    )


def _existing(path) -> Path:
    p = Path(path)
    if not p.exists():
        raise SystemExit(f"input path does not exist: {p}")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echokit",
        description="Echo video analysis: factored convolution checks, beat "
        "extraction, and toy EF/LVD models on synthetic data.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--out", type=Path, default=None,
                       help="write the machine-readable report JSON here")

    p = sub.add_parser("oracle-check", help="factored vs full convolution equivalence")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--max-dim", type=int, default=16)
    p.add_argument("--max-kernel", type=int, default=7)
    common(p)
    p.set_defaults(fn=cmd_oracle_check)

    p = sub.add_parser("bench", help="multiply counts and wall clock, full vs factored")
    p.add_argument("--video-dims", type=int, nargs=3, default=[64, 64, 64])
    p.add_argument("--kernel-dims", type=int, nargs=3, default=[7, 7, 7])
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--padding", choices=["same", "valid"], default="same")
    common(p)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--instances", type=int, default=20)
    common(p)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("extract-beats", help="slice a video into beat clips")
    p.add_argument("--video", type=Path, required=True)
    p.add_argument("--masks", type=Path, required=True)
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--frame-rate", type=float, default=51.25)
    p.add_argument("--min-separation", type=int, default=None)
    p.add_argument("--min-prominence", type=float, default=beats.DEFAULT_MIN_PROMINENCE)
    p.add_argument("--smooth-window", type=int, default=0)
    common(p)
    p.set_defaults(fn=cmd_extract_beats)

    p = sub.add_parser("synth", help="emit a synthetic dataset directory")
    p.add_argument("kind", choices=["ef", "lvd"])
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--videos", type=int, default=200, help="EF: number of videos")
    p.add_argument("--frames", type=int, default=500, help="LVD: number of frames")
    p.add_argument("--frame-size", type=int, default=None)
    p.add_argument("--period", type=int, default=41)
    p.add_argument("--beats", type=int, default=1)
    common(p)
    p.set_defaults(fn=cmd_synth)

    def train_common(p):
        p.add_argument("--data", type=Path, required=True)
        p.add_argument("--out-dir", type=Path, default=None,
                       help="checkpoint directory (best validation weights)")
        p.add_argument("--epochs", type=int, default=30)
        p.add_argument("--lr", type=float, default=3e-3)
        p.add_argument("--batch-size", type=int, default=64)
        p.add_argument("--optimizer", choices=["sgd", "adam"], default="adam")

    p = sub.add_parser("train-ef", help="train the EF regression model")
    train_common(p)
    p.add_argument("--padding", choices=["same", "valid"], default="same")
    p.add_argument("--encoder-dim", type=int, default=64)
    p.add_argument("--loss", choices=["mae", "mse"], default="mae")
    common(p)
    p.set_defaults(fn=cmd_train_ef)

    p = sub.add_parser("eval-ef", help="MAE of a trained EF model on a dataset")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--model", type=Path, required=True)
    common(p)
    p.set_defaults(fn=cmd_eval_ef)

    p = sub.add_parser("train-lvd", help="train the keypoint/dimension model")
    train_common(p)
    p.add_argument("--coord-coef", type=float, default=1.0,
                   help="weight of the coordinate MSE term in the loss")
    common(p)
    p.set_defaults(fn=cmd_train_lvd)

    p = sub.add_parser("eval-lvd", help="per-dimension MAE of a trained LVD model")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--model", type=Path, required=True)
    common(p)
    p.set_defaults(fn=cmd_eval_lvd)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; exit 0 if every verdict passed, 1 if one failed,
    and 2 if the run stopped on an echokit error (its report says which)."""
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        report = args.fn(args)
        code = 0 if report.passed else 1
    except EchokitError as exc:
        report = Report(
            subcommand=args.subcommand,
            config={"argv": list(sys.argv[1:] if argv is None else argv)},
            metrics={"error": type(exc).__name__, "message": str(exc)},
            verdicts={"completed": False},
        )
        code = 2
    report.wall_clock_ms = (time.perf_counter() - started) * 1e3
    for line in report.summary_lines():
        print(line)
    if args.out is not None:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(report.to_json())
        print(f"report written to {args.out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
