"""The benchmark's calls into echokit keep working.

perfbench/ drives echokit through its public names (CLI parsers and
commands, dataset splits, loss weights, the LVD objective, value_and_grad,
checkpoint loaders).  Each training workload runs here, shrunk to a few
seconds, and must finish without a failed operation.  Every name its
traced runs wrap must still exist, since a missing one is skipped and its
span would silently drop out of the per-layer metrics, and the train and
eval paths must still call those names rather than references taken
before the tracer patched them.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import probes, runner  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402
from perfbench.training import EfTrain, LvdTrain  # noqa: E402


@pytest.mark.parametrize("name, workload", [
    ("ef_train", EfTrain(n_videos=12, encoder_dim=8)),
    ("lvd_train", LvdTrain(n_frames=24, frame_size=32, batch_size=8)),
])
def test_training_workload_has_no_failed_operations(tmp_path, name, workload):
    result = runner.run(name, seed=3, seconds=0.01, trace=False, workdir=tmp_path,
                        workload=workload)
    assert result.ledger.attempted > 0
    assert result.ledger.failed == 0, result.ledger.errors


class MissRecordingTracer(Tracer):
    """A Tracer that records the span name of every target it cannot find."""

    def __init__(self):
        super().__init__()
        self.misses = []

    def patch(self, owner, attr, name, **options):
        if not hasattr(owner, attr):
            self.misses.append(name)
        super().patch(owner, attr, name, **options)

    def patch_function(self, module, attr, name, **options):
        if getattr(module, attr, None) is None:
            self.misses.append(name)
        super().patch_function(module, attr, name, **options)


@pytest.mark.parametrize("name", sorted(runner.WORKLOADS))
def test_every_tracing_target_exists(name):
    tracer = MissRecordingTracer()
    try:
        probes.install(tracer, runner.WORKLOADS[name]())
        assert tracer.misses == []
        assert tracer._patches
    finally:
        tracer.uninstall()


def span_names_by_root(trace_path):
    """The names of the spans in a written trace, grouped by the name of their root."""
    spans = [json.loads(line) for line in trace_path.read_text().splitlines()]
    roots, grouped = [], {}
    for i, span in enumerate(spans):  # a parent is written before its children
        roots.append(i if span["parent"] == -1 else roots[span["parent"]])
        grouped.setdefault(spans[roots[i]]["name"], set()).add(span["name"])
    return grouped


@pytest.mark.parametrize("name, workload, module, train, evaluate", [
    ("ef_train", EfTrain(n_videos=12, encoder_dim=8), "ef", "train_ef", "evaluate_mae"),
    ("lvd_train", LvdTrain(n_frames=24, frame_size=32, batch_size=8), "lvd", "train_lvd",
     "evaluate_lvd"),
], ids=["ef_train", "lvd_train"])
def test_train_and_eval_paths_call_the_traced_functions(tmp_path, name, workload, module,
                                                        train, evaluate):
    trace_path = tmp_path / "spans.jsonl"
    result = runner.run(name, seed=3, seconds=0.01, trace=True, workdir=tmp_path / "work",
                        workload=workload, trace_path=trace_path)
    assert result.ledger.failed == 0, result.ledger.errors
    names = span_names_by_root(trace_path)
    loader = f"{module}.load_{module}_dataset"
    assert {"checkpoint.save", loader, f"{module}.{train}"} <= names["bench.train_path"]
    # fit's steps, and the optimizer of its caller's range of the parameters,
    # which fit makes through nn.train's module-level make_optimizer
    assert {"nn.value_and_grad", "nn.optimizer_step"} <= names["bench.train_path"]
    assert {"checkpoint.load", loader, f"{module}.{evaluate}"} <= names["bench.eval_path"]
