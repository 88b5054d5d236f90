"""The echokit benchmark; run it with ``python3 perfbench/run.py``.

This module imports nothing heavy, so entry points can pin BLAS threads
through it before numpy is first imported.
"""

import functools
import json
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """One BLAS thread in this process and the ones it starts; it must run
    before numpy is first imported to take effect."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


@functools.cache
def spec() -> dict:
    """``BENCHMARK.json``: the one list of workloads and metrics."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())
