"""Planted faults: each must raise failed_frac, not crash or pass silently.

``nonseparable_kernel``  conv3d: the first reference output comes from a
                         kernel that is not the Kronecker product of the
                         factors conv_factored gets.
``truncated_recording``  recording: the first mask file loses its tail.
``nan_prediction``       ef_train, recording: ``predict_ef`` returns NaN.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from echokit import convops, ef

APPLIES_TO = {
    "nonseparable_kernel": ("conv3d",),
    "truncated_recording": ("recording",),
    "nan_prediction": ("ef_train", "recording"),
}


@contextmanager
def planted(fault: str | None, workload_name: str, state):
    if fault is None:
        yield
        return
    if workload_name not in APPLIES_TO[fault]:
        raise ValueError(f"fault {fault} does not apply to workload {workload_name}")
    if fault == "nonseparable_kernel":
        item = state[0]
        broken = convops.kron_kernel(item.sep).copy()
        broken[0, 0, 0] += 0.5
        item.reference = convops.conv3d_full(item.video, broken, item.padding)
        yield
    elif fault == "truncated_recording":
        path = state.recordings[0].masks_path
        os.truncate(path, path.stat().st_size - 64)
        yield
    else:
        original = ef.predict_ef
        ef.predict_ef = lambda model, clip: float("nan")
        try:
            yield
        finally:
            ef.predict_ef = original
