"""Host speed, measured by a fixed reference kernel between operations.

On a shared 2-vCPU host the speed of numpy and interpreter work swings
by up to a third within minutes, with the load of other tenants.  So
every timed call of an untraced run is bracketed by two timings of a
reference kernel, and its seconds are scaled by
``nominal seconds / mean reference time``: they read as seconds on a
host where the kernel takes its nominal time.  A workload names the
kernel whose work is like its own (``reference_kernel``):

``layers``  shifted-slice multiply-adds, a small matmul, exp and argmax
            over pooling windows on small arrays, like echokit's layers;
            for ef_train, lvd_train and recording.  In two sets of ten
            seeded runs, unscaled ef_train rates moved 26% between the
            sets' medians while scaled ones moved under 2%.
``stream``  shifted multiply-adds over an echo-sized clip, like the
            temporal pass of ``conv_factored``; for conv3d.  In one set
            of ten runs, conv3d rates spread 10% unscaled, 10% scaled by
            ``layers`` and 1% scaled by ``stream``.

Neither kernel calls echokit, so a change to the program moves the
workload's time and not the reference's.
"""

from __future__ import annotations

import time

import numpy as np

from .harness import timed


def _layers_kernel():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 34, 34, 8))
    k = rng.standard_normal((8, 3, 3))
    w = rng.standard_normal((8, 16))

    def run():
        for _ in range(5):
            out = None
            for i in range(3):
                for j in range(3):
                    term = x[:, i:i + 32, j:j + 32, :] * k[:, i, j]
                    out = term if out is None else out + term
            y = out @ w
            y = y / (1.0 + np.exp(-np.abs(y)))
            windows = y.reshape(8, 16, 2, 16, 2, 16).transpose(0, 1, 3, 2, 4, 5)
            np.argmax(windows.reshape(8, 16, 16, 4, 16), axis=3)

    return run


def _stream_kernel():
    video = np.random.default_rng(0).standard_normal((112, 112, 64))
    out = np.empty((112, 112, 58))

    def run():
        out[...] = 0.0
        for i in range(7):
            out[...] += video[:, :, i:i + 58] * (0.5 + i)

    return run


# name -> (kernel factory, nominal seconds: about the kernel's median on the reference host)
KERNELS = {"layers": (_layers_kernel, 0.02), "stream": (_stream_kernel, 0.008)}


class HostSpeed:
    """Times calls in seconds at the nominal host speed, judged by *kernel*."""

    def __init__(self, kernel: str) -> None:
        make, self.nominal_s = KERNELS[kernel]
        self._kernel = make()
        self._reference_seconds()  # first-touch costs stay out of the first timing
        self.raw_s = 0.0
        self.scaled_s = 0.0

    def _reference_seconds(self) -> float:
        t0 = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t0

    def timed(self, fn, *args):
        """(result, scaled seconds) of one call."""
        before = self._reference_seconds()
        result, seconds = timed(fn, *args)
        scaled = seconds * 2.0 * self.nominal_s / (before + self._reference_seconds())
        self.raw_s += seconds
        self.scaled_s += scaled
        return result, scaled

    @property
    def factor(self) -> float:
        """Raw over scaled seconds: how much slower than nominal the host ran."""
        return self.raw_s / self.scaled_s if self.scaled_s else 1.0
