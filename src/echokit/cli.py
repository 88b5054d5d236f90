"""Command-line entry point.

Subcommands: oracle-check, gradcheck, bench, extract-beats, synth,
train-ef, eval-ef, train-lvd, eval-lvd.  Every subcommand returns a
Report of metrics and verdicts; main() times it and records the parsed
command line as its config, so replaying the config reproduces the
report.  The human summary goes to stdout, the machine report to
``--out``.  The exit code is 0 only if every verdict passed; a run
stopped by an echokit error still writes a failed report naming the
error, and exits 2.  Runs are deterministic for fixed flags
and seed (timing fields aside).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import beats, checkpoint, convops, datasets, ef, lvd, synth, tensorio
from .nn import TrainConfig
from .errors import ConfigurationError, EchokitError, ShapeError
from .nn.gradcheck import DEFAULT_EPSILON, LAYER_KINDS, check_layer_kind, check_model_subset
from .report import Report, json_text

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
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    if not 1 <= max_kernel <= max_dim:
        raise ConfigurationError(f"need 1 <= max_kernel <= max_dim, got {max_kernel}, {max_dim}")
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
        metrics={"max_rel_err": worst, "control_rel_err": control,
                 "tolerance": ORACLE_TOLERANCE},
        verdicts={
            "factorization_equivalence": worst <= ORACLE_TOLERANCE,
            "control_detects_mismatch": control > 1e-6,
        },
    )


def _median_ms(fns, repeats: int) -> list[float]:
    """Each of *fns*' median wall time in ms over *repeats* rounds that call
    every one of them once, in order, so load that shifts during the run
    reaches all of them alike."""
    times = [[] for _ in fns]
    for _ in range(repeats):
        for fn, fn_times in zip(fns, times):
            t0 = time.perf_counter()
            fn()
            fn_times.append((time.perf_counter() - t0) * 1e3)
    return [float(np.median(fn_times)) for fn_times in times]


def run_bench(video_dims, kernel_dims, repeats: int, padding: str, seed: int) -> dict:
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    for name, dims in (("video_dims", video_dims), ("kernel_dims", kernel_dims)):
        if min(dims) < 1:
            raise ConfigurationError(f"{name} must all be >= 1, got {tuple(dims)}")
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

    wall_full, wall_factored = _median_ms(
        [lambda: convops.conv3d_full(video, dense, padding),
         lambda: convops.conv_factored(video, sep, padding)], repeats)
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
    m = run_bench(tuple(args.video_dims), tuple(args.kernel_dims), args.repeats,
                  args.padding, args.seed)
    m["wall_ratio_ge_2"] = bool(m["wall_ratio"] >= 2.0)  # recorded, not asserted
    return Report(
        metrics=m,
        verdicts={
            "count_full_matches_model": m["count_full"] == m["flop_model_full"],
            "count_factored_matches_model": m["count_factored"] == m["flop_model_factored"],
        },
    )


def run_gradcheck(seed: int, instances_per_layer: int = 20) -> dict:
    """Per-layer FD checks plus end-to-end checks of both models."""
    if instances_per_layer < 1:
        raise ConfigurationError(f"instances must be >= 1, got {instances_per_layer}")
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
    metrics.update(tolerance=GRAD_TOLERANCE, epsilon=DEFAULT_EPSILON)
    return Report(metrics=metrics, verdicts=verdicts)


def cmd_extract_beats(args) -> Report:
    video = tensorio.read_finite_tensor(args.video)
    masks = tensorio.read_tensor(args.masks)
    if video.shape != masks.shape:
        raise ShapeError(f"video {video.shape} and masks {masks.shape} differ in shape")
    signal = beats.area_signal(masks, frame_rate=args.frame_rate)
    extrema = beats.detect_extrema(
        signal,
        min_separation=args.min_separation,
        min_prominence=args.min_prominence,
        smooth_window=args.smooth_window,
    )
    clips = beats.extract_beats(video, extrema)

    out_dir = tensorio.output_dir(args.out_dir)
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
    (out_dir / "index.json").write_text(json_text(index))
    return Report(
        metrics={
            "n_clips": len(clips),
            "n_maxima": len(extrema.maxima),
            "n_minima": len(extrema.minima),
        },
        verdicts={"completed": True},
    )


def cmd_synth(args) -> Report:
    if args.frame_size is None:  # resolved here, so the report's config names it
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
    return Report(metrics=metrics, verdicts={"completed": True})


@dataclass(frozen=True)
class Task:
    """What differs between the EF and LVD pipelines.

    Each step looks its echokit functions up when called, so a caller
    that rebinds a module function (a tracer, a test) sees the call.
    """

    kind: str  # checkpoint model kind
    load_dataset: Callable  # data_dir -> samples
    load_model: Callable  # checkpoint dir -> (model, manifest)
    build: Callable  # (samples, args) -> untrained model
    train: Callable  # (model, samples, config, args) -> (model, result, metrics, extra)
    evaluate: Callable  # (model, samples, manifest) -> metrics


def _train_ef(model, samples, config, args):
    model, result = ef.train_ef(model, samples, config)
    baseline = ef.baseline_mae(
        result.val, constant=float(np.mean(ef.video_truths(result.train)))
    )
    return model, result, {"baseline_val_mae": baseline}, {}


def _eval_ef(model, samples, manifest):
    return {"mae": ef.evaluate_mae(model, samples), "baseline_mae": ef.baseline_mae(samples),
            "n_samples": len(samples)}


def _train_lvd(model, samples, config, args):
    model, result = lvd.train_lvd(model, samples, config, coord_coef=args.coord_coef)
    weights = result.weights.as_array().tolist()
    metrics = {"baseline_val_mae": lvd.constant_baseline_mae(result.val).mean_mae,
               "loss_weights": weights}
    return model, result, metrics, {"coord_coef": args.coord_coef, "loss_weights": weights}


def _eval_lvd(model, samples, manifest):
    metrics = lvd.evaluate_lvd(model, samples).as_dict()
    metrics["baseline_mae_mean"] = lvd.constant_baseline_mae(samples).mean_mae
    metrics["loss_weights"] = manifest.get("extra", {}).get("loss_weights")
    return metrics


EF = Task(
    "ef",
    load_dataset=lambda path: ef.load_ef_dataset(path),
    load_model=lambda path: checkpoint.load_ef_model(path),
    build=lambda samples, args: ef.EfModel.build(ef.EfModelConfig(
        frame_shape=samples[0].clip.sub_video.shape[:2], encoder_dim=args.encoder_dim,
        padding=args.padding, seed=args.seed,
    )),
    train=_train_ef,
    evaluate=_eval_ef,
)
LVD = Task(
    "lvd",
    load_dataset=lambda path: lvd.load_lvd_dataset(path),
    load_model=lambda path: checkpoint.load_lvd_model(path),
    build=lambda samples, args: lvd.LvdModel.build(
        lvd.LvdModelConfig(frame_shape=samples[0].frame.shape, seed=args.seed)
    ),
    train=_train_lvd,
    evaluate=_eval_lvd,
)


def cmd_train(task: Task, args) -> Report:
    if args.epochs < 1:  # no epoch means no validation MAE to select or report
        raise ConfigurationError(f"epochs must be >= 1, got {args.epochs}")
    samples = task.load_dataset(args.data)
    model = task.build(samples, args)
    config = TrainConfig(learning_rate=args.lr, batch_size=args.batch_size, epochs=args.epochs,
                         optimizer=args.optimizer, seed=args.seed,
                         loss=getattr(args, "loss", "mae"))
    model, result, metrics, extra = task.train(model, samples, config, args)
    best = {"best_epoch": result.best_epoch, "best_val_mae": result.best_val_mae}
    if args.out_dir:
        checkpoint.save_checkpoint(args.out_dir, task.kind, model.config, model.graph,
                                   extra={"train_config": asdict(config), **best, **extra})
    history = [s.as_dict() for s in result.history]
    return Report(metrics={"n_samples": len(samples), "n_params": model.graph.n_params(),
                           **best, "history": history, **metrics}, verdicts={"completed": True})


def cmd_eval(task: Task, args) -> Report:
    model, manifest = task.load_model(args.model)  # before the data: its errors come first
    samples = task.load_dataset(args.data)
    return Report(metrics=task.evaluate(model, samples, manifest), verdicts={"completed": True})


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
    p.set_defaults(fn=partial(cmd_train, EF))

    p = sub.add_parser("eval-ef", help="MAE of a trained EF model on a dataset")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--model", type=Path, required=True)
    common(p)
    p.set_defaults(fn=partial(cmd_eval, EF))

    p = sub.add_parser("train-lvd", help="train the keypoint/dimension model")
    train_common(p)
    p.add_argument("--coord-coef", type=float, default=1.0,
                   help="weight of the coordinate MSE term in the loss")
    common(p)
    p.set_defaults(fn=partial(cmd_train, LVD))

    p = sub.add_parser("eval-lvd", help="per-dimension MAE of a trained LVD model")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--model", type=Path, required=True)
    common(p)
    p.set_defaults(fn=partial(cmd_eval, LVD))

    return parser


def main(argv=None) -> int:
    """Run one subcommand; exit 0 if every verdict passed, 1 if one failed,
    and 2 if the run stopped on an echokit error (its report says which)
    or ``--out`` cannot be written (one line on stderr says why).

    Every report, failed or not, carries the subcommand and, as its
    config, every parsed flag but ``--out``."""
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        report = args.fn(args)
        code = 0 if report.passed else 1
    except EchokitError as exc:
        report = Report(
            metrics={"error": type(exc).__name__, "message": str(exc)},
            verdicts={"completed": False},
        )
        code = 2
    report.subcommand = args.subcommand
    report.config = {
        k: v for k, v in vars(args).items() if k not in ("fn", "out", "subcommand")
    }
    report.wall_clock_ms = (time.perf_counter() - started) * 1e3
    for line in report.summary_lines():
        print(line)
    if args.out is not None:
        try:
            tensorio.output_dir(Path(args.out).parent)
            Path(args.out).write_text(report.to_json())
        except (OSError, ValueError) as exc:  # ConfigurationError is a ValueError
            reason = getattr(exc, "strerror", None) or exc
            print(f"cannot write the report to {args.out}: {reason}", file=sys.stderr)
            return 2
        print(f"report written to {args.out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
