"""Run one workload in this process: set up, measure, check, summarise.

Untraced (``trace=False``): a child process sets up ``SETUP_REPEATS``
times, and ``setup_s`` is the median; running them there keeps the
synthesis's temporaries out of this process's peak RSS.  This process
then loads the last set-up's files and repeats the workload until
``seconds`` run out; rates are total work over total time of every
repetition.

Traced: set up once in this process with spans on, then alternate
untraced and traced repetitions.  The per-layer metrics come from the
traced ones, and the traced/untraced median ratio gives the tracing
overhead.
"""

from __future__ import annotations

import json
import os
import pickle
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from . import faults, metrics, probes, spec
from .calibrate import HostSpeed
from .conv3d import Conv3dWorkload
from .harness import Ledger, repeat_until, timed
from .recording import RecordingWorkload
from .spans import Tracer
from .training import EfTrain, LvdTrain

SETUP_REPEATS = 5

WORKLOADS = {
    "ef_train": EfTrain,
    "lvd_train": LvdTrain,
    "recording": RecordingWorkload,
    "conv3d": Conv3dWorkload,
}


@dataclass
class Result:
    ledger: Ledger
    metrics: dict  # name -> (value, unit)
    lines: list[str] = field(default_factory=list)  # human-readable report

    def as_json(self) -> dict:
        return {
            "correct": self.ledger.failed == 0,
            "attempted": self.ledger.attempted,
            "failed": self.ledger.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _fresh(workdir: Path) -> Path:
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workdir


def _setups(workload, seed: int, workdir: Path) -> list[float]:
    """Seconds of ``SETUP_REPEATS`` set-ups; the last one's files stay."""
    clock = HostSpeed(workload.reference_kernel)
    # Indexing drops each set-up's state before the next set-up starts.
    return [clock.timed(workload.setup, seed, _fresh(workdir))[1]
            for _ in range(SETUP_REPEATS)]


def _setups_in_child(workload, seed: int, workdir: Path) -> list[float]:
    """``_setups`` in a child process, waited for; see ``__main__`` below."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.run([sys.executable, "-m", "perfbench.runner", str(seed), str(workdir)],
                           input=pickle.dumps(workload), stdout=subprocess.PIPE, env=env,
                           check=True)
    return json.loads(child.stdout.splitlines()[-1])


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        fault: str | None = None, workload=None, trace_path: Path | None = None) -> Result:
    workload = workload or WORKLOADS[name]()
    if trace:
        return _run_traced(workload, seed, seconds, workdir, fault, trace_path)
    setup_s = _setups_in_child(workload, seed, workdir)
    state = workload.load(seed, workdir)
    clock = HostSpeed(workload.reference_kernel)
    rss_after_setup = peak_rss_mb()
    ledger = Ledger()
    with faults.planted(fault, name, state):
        deadline = time.perf_counter() + seconds
        reps = repeat_until(deadline, lambda: workload.rep(state, ledger, clock.timed))
    summary = workload.summary(reps)
    values = {
        "setup_s": median(setup_s),
        "throughput": summary[workload.throughput_name][0],
        "eval_throughput": summary[workload.eval_throughput_name][0],
        "peak_rss_mb": peak_rss_mb(),
    }
    result = Result(ledger, {m["name"]: (values[m["name"]], m["unit"])
                             for m in spec()["end_to_end"]})
    rates = (workload.throughput_name, workload.eval_throughput_name)
    report = [("setup_s", values["setup_s"], "s",
               f"median of {SETUP_REPEATS} set-ups in a child process")]
    report += [(k, v, u, f"over {len(reps)} repetitions" if k in rates else "")
               for k, (v, u) in summary.items()]
    report += [("peak_rss_mb", values["peak_rss_mb"], "MB",
                f"{rss_after_setup:.1f} MB before the first repetition"),
               ("failed_frac", ledger.failed_frac, "fraction",
                f"{ledger.failed} of {ledger.attempted} operations"),
               ("host_speed_factor", clock.factor, "x",
                f"raw / scaled seconds of the repetitions, {workload.reference_kernel} kernel")]
    for key, value, unit, note in report:
        note = f"  ({note})" if note else ""
        result.lines.append(f"{name:10s} {key:26s} {value:12.6g} {unit}{note}")
    return result


def _run_traced(workload, seed, seconds, workdir, fault, trace_path) -> Result:
    name = workload.name
    ledger = Ledger()
    tracer = Tracer()
    probes.install(tracer, workload)
    try:
        state = workload.setup(seed, _fresh(workdir))
    finally:
        tracer.uninstall()
    walls = {False: [], True: []}
    traced_results = []
    with faults.planted(fault, name, state):
        deadline = time.perf_counter() + seconds
        traced = False
        while True:
            if traced:
                probes.install(tracer, workload)
            try:
                rep, dt = timed(workload.rep, state, ledger, timed)
            finally:
                tracer.uninstall()
            walls[traced].append(dt)
            if traced:
                traced_results.append(rep)
            if walls[True] and time.perf_counter() + dt > deadline:
                break
            traced = not traced
    overhead = median(walls[True]) / median(walls[False]) - 1.0
    values = metrics.per_layer(name, tracer.spans, len(walls[True]), traced_results, overhead)
    units = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    result = Result(ledger, {k: (values[k], units[k]) for k in units})
    if trace_path is not None:
        tracer.write(trace_path)
        result.lines.append(f"{name} spans written to {trace_path}")
    result.lines += _self_time_table(name, tracer, sum(walls[True]))
    result.lines.append(
        f"{name} traced repetitions {len(walls[True])}, untraced {len(walls[False])}, "
        f"median wall {median(walls[True]):.4f} s vs {median(walls[False]):.4f} s"
    )
    for key, (value, unit) in result.metrics.items():
        if value:
            result.lines.append(f"{name:10s} {key:44s} {value:14.6g} {unit}")
    return result


def _self_time_table(name: str, tracer: Tracer, traced_wall: float, top: int = 12):
    """Where the traced repetitions' wall time went, by span self time."""
    stats = metrics.SpanStats(tracer.spans, keep_root=lambda root: root != "bench.setup")
    covered = sum(stats.self_s.values())
    lines = [f"{name} self time of traced repetitions: {covered:.3f} s in spans, "
             f"{traced_wall:.3f} s wall"]
    for span, seconds in sorted(stats.self_s.items(), key=lambda kv: -kv[1])[:top]:
        lines.append(f"{name}   {span:40s} {seconds:9.4f} s  {seconds / traced_wall:7.2%}")
    return lines


if __name__ == "__main__":  # the set-up child: a pickled workload on stdin
    print(json.dumps(_setups(pickle.load(sys.stdin.buffer), int(sys.argv[1]), Path(sys.argv[2]))))
