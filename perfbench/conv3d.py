"""conv3d: ``conv_factored`` over a fixed mix of videos and kernels.

The mix holds the paper's 64^3 video with a 7x7x7 kernel (the headline
case), an echo-sized 112x112x64 clip, a smaller kernel, and both paddings.
Video values and kernel taps come from the seed; shapes are fixed.  Setup
computes each reference output with ``conv3d_full`` once, as
``echokit bench`` and ``oracle-check`` do, and every timed output is
checked against it within the CLI's oracle tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from echokit import cli, convops

from .harness import Ledger, check, rate

# (video dims, kernel dims, padding); the first entry is the headline case.
MIX = (
    ((64, 64, 64), (7, 7, 7), "same"),
    ((112, 112, 64), (7, 7, 7), "same"),
    ((64, 64, 64), (3, 3, 3), "same"),
    ((64, 64, 64), (7, 7, 7), "valid"),
    ((112, 112, 64), (5, 5, 3), "valid"),
)
INPUTS_FILE = "conv3d_inputs.npz"


@dataclass
class ConvInput:
    video: np.ndarray
    sep: convops.SeparableKernel
    padding: str
    reference: np.ndarray

    @property
    def dims(self):
        return self.video.shape, self.sep.dims, self.padding


class Conv3dWorkload:
    name = "conv3d"
    throughput_name = "mvox_per_s"
    eval_throughput_name = "headline_mvox_per_s"
    reference_kernel = "stream"  # see calibrate.py
    traced_methods = (("setup", True), ("convolve", True))

    def __init__(self, mix=MIX):
        self.mix = tuple(mix)

    def setup(self, seed: int, workdir: Path) -> list[ConvInput]:
        """Draw videos and kernels, compute the reference outputs, save
        them all to one file, then load."""
        rng = np.random.default_rng(seed)
        arrays = {}
        for i, (video_dims, kernel_dims, padding) in enumerate(self.mix):
            video = rng.standard_normal(video_dims)
            sep = convops.SeparableKernel(
                spatial=rng.standard_normal(kernel_dims[:2]),
                temporal=rng.standard_normal(kernel_dims[2]),
            )
            counter = convops.OpCounter()
            reference = convops.conv3d_full(video, convops.kron_kernel(sep), padding, counter)
            check(counter.multiplies == convops.flop_model(video_dims, kernel_dims, "full", padding),
                  f"conv3d_full multiplies {counter.multiplies} differ from flop_model")
            arrays.update({f"video{i}": video, f"spatial{i}": sep.spatial,
                           f"temporal{i}": sep.temporal, f"reference{i}": reference})
        np.savez(workdir / INPUTS_FILE, **arrays)
        return self.load(seed, workdir)

    def load(self, seed: int, workdir: Path) -> list[ConvInput]:
        """Read the inputs and references that setup saved, and warm up."""
        with np.load(workdir / INPUTS_FILE) as saved:
            inputs = [
                ConvInput(saved[f"video{i}"],
                          convops.SeparableKernel(spatial=saved[f"spatial{i}"],
                                                  temporal=saved[f"temporal{i}"]),
                          padding, saved[f"reference{i}"])
                for i, (_, _, padding) in enumerate(self.mix)
            ]
        self.convolve(inputs[0], convops.OpCounter())
        return inputs

    def convolve(self, item: ConvInput, counter: convops.OpCounter) -> np.ndarray:
        return convops.conv_factored(item.video, item.sep, item.padding, counter)

    def rep(self, inputs: list[ConvInput], ledger: Ledger, timed) -> dict:
        """One pass over the mix; each input is one operation; *timed* times each call."""
        out = {"voxels": 0, "seconds": 0.0, "headline_voxels": 0, "headline_s": 0.0}
        for i, item in enumerate(inputs):
            with ledger.op(f"conv_factored {item.dims}"):
                counter = convops.OpCounter()
                result, dt = timed(self.convolve, item, counter)
                expected = convops.flop_model(item.video.shape, item.sep.dims, "factored",
                                              item.padding)
                check(counter.multiplies == expected,
                      f"{counter.multiplies} multiplies counted, flop_model gives {expected}")
                check(result.shape == item.reference.shape,
                      f"output shape {result.shape}, reference {item.reference.shape}")
                error = cli.relative_max_error(item.reference, result)
                check(error <= cli.ORACLE_TOLERANCE,
                      f"relative error {error:.3g} against conv3d_full")
                out["voxels"] += result.size / 1e6
                out["seconds"] += dt
                if i == 0:
                    out["headline_voxels"] += result.size / 1e6
                    out["headline_s"] += dt
        return out

    def summary(self, reps: list[dict]) -> dict:
        return {
            "mvox_per_s": (rate(reps, "voxels", "seconds"), "Mvox/s"),
            "headline_mvox_per_s": (rate(reps, "headline_voxels", "headline_s"), "Mvox/s"),
        }
