"""echokit benchmark: one command for every workload and metric.

    python3 perfbench/run.py                        # all workloads, one process each
    python3 perfbench/run.py --workload ef_train --seed 3 --seconds 25 --trace 0

A single workload runs in this process and prints a human report, then
as its last line one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  ``--fault`` plants a fault that
must show as failed operations.  The program is imported from ``src/``
of the checkout that holds this file; BLAS is pinned to one thread
before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
DEFAULT_SECONDS = 24


def parse_args(workload_names, argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workload_names, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fault", default=None,
                        choices=("nonseparable_kernel", "truncated_recording", "nan_prediction"))
    return parser.parse_args(argv)


def run_all(args, workload_names) -> int:
    """Each workload in its own process; print every report, then a summary."""
    failed = 0
    for name in workload_names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}")
            failed += 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        failed += not result["correct"]
    return 1 if failed else 0


def main(argv=None) -> int:
    if not (SRC / "echokit" / "__init__.py").is_file():
        print(f"error: no echokit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import pin_blas_threads

    pin_blas_threads()
    import echokit

    if Path(echokit.__file__).resolve().parent != SRC / "echokit":
        print(f"error: echokit imported from {echokit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import runner
    from perfbench.machine import describe

    args = parse_args(runner.WORKLOADS, argv)
    if args.workload == "all":
        return run_all(args, runner.WORKLOADS)

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    trace_path = None
    if args.trace:
        (WORK / "traces").mkdir(parents=True, exist_ok=True)
        trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    try:
        result = runner.run(args.workload, args.seed, args.seconds, bool(args.trace),
                            workdir, fault=args.fault, trace_path=trace_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("machine " + json.dumps(describe(), sort_keys=True))
    print("\n".join(result.lines))
    print(json.dumps(result.as_json()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
