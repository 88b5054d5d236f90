"""Operation accounting and the timed loop shared by every workload."""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager


class CheckError(Exception):
    """A program output failed the benchmark's check."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


class Ledger:
    """Counts operations attempted and failed; a failure never stops the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @contextmanager
    def op(self, label: str):
        self.attempted += 1
        try:
            yield
        # Any failure of the program is counted, not fatal; the CLI functions
        # reject missing input paths with SystemExit.
        except (Exception, SystemExit) as exc:
            self.failed += 1
            message = f"{label}: {type(exc).__name__}: {exc}"
            self.errors.append(message)
            print(f"FAILED {message}", file=sys.stderr)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def rate(reps: list[dict], items: str, seconds: str) -> float:
    """Items per second over every repetition: total work / total time."""
    total_s = sum(r[seconds] for r in reps)
    return sum(r[items] for r in reps) / total_s if total_s > 0 else float("nan")


def timed(fn, *args, **kwargs):
    """(result, seconds) of one call."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def repeat_until(deadline: float, body) -> list:
    """Run *body()* at least once, then again while another run still fits
    before *deadline* (judged by the previous run's duration)."""
    results = []
    while True:
        t0 = time.perf_counter()
        results.append(body())
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            return results
