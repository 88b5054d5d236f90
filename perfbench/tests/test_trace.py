"""Spans, self times, patch/unpatch and the per-layer metrics."""

import time

from echokit import ef, nn

from perfbench import metrics, runner, spec
from perfbench.conv3d import MIX, Conv3dWorkload
from perfbench.spans import Span, Tracer, self_times
from perfbench.training import LvdTrain


def test_self_time_excludes_children():
    spans = [Span("a", 0.0, 10.0, -1, 1), Span("b", 1.0, 4.0, 0, 1), Span("c", 2.0, 3.0, 1, 1),
             Span("d", 5.0, 9.0, 0, 1)]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_nested_spans_record_parent_and_request():
    tracer = Tracer()

    def inner():
        time.sleep(0.001)

    traced_inner = tracer.traced(inner, "inner")
    outer = tracer.traced(lambda: traced_inner(), "outer", new_request=True)
    outer()
    outer()
    names = [(s.name, s.parent, s.request) for s in tracer.spans]
    assert names == [("outer", -1, 1), ("inner", 0, 1), ("outer", -1, 2), ("inner", 2, 2)]
    assert all(s.end >= s.start for s in tracer.spans)


def test_uninstall_restores_every_binding():
    originals = (ef.predict_ef, ef.value_and_grad, nn.value_and_grad, nn.Dense.forward)
    tracer = Tracer()
    tracer.patch_function(nn, "value_and_grad", "nn.value_and_grad")
    tracer.patch_function(ef, "predict_ef", "ef.predict_ef")
    tracer.patch(nn.Dense, "forward", "nn.dense.fwd")
    assert ef.value_and_grad is not originals[1] and nn.value_and_grad is not originals[2]
    tracer.uninstall()
    assert (ef.predict_ef, ef.value_and_grad, nn.value_and_grad, nn.Dense.forward) == originals


def test_traced_conv3d_counts_match_the_cost_model(tmp_path):
    workload = Conv3dWorkload(mix=MIX[:1] + (((20, 18, 16), (5, 3, 3), "valid"),))
    result = runner.run("conv3d", seed=2, seconds=0.01, trace=True, workdir=tmp_path,
                        workload=workload)
    values = {k: v for k, (v, _) in result.metrics.items()}
    assert set(values) == {m["name"] for m in spec()["per_layer"]}
    assert values["convops.count_ratio"] == 343 / 56 == 6.125
    per_pass = 64**3 * 56 + (16 * 16 * 16 * 15 + 16 * 16 * 14 * 3)
    assert values["convops.conv_factored.mult"] == per_pass
    assert values["convops.conv_spatial.ms"] > 0 and values["nn.dense.fwd_ms"] == 0
    assert result.ledger.failed == 0


def test_traced_training_attributes_layer_time(tmp_path):
    workload = LvdTrain(n_frames=24, frame_size=32, batch_size=8)
    result = runner.run("lvd_train", seed=2, seconds=0.01, trace=True, workdir=tmp_path,
                        workload=workload)
    values = {k: v for k, (v, _) in result.metrics.items()}
    assert result.ledger.failed == 0, result.ledger.errors
    shares = sum(values[f"nn.{kind}.share"] for kind in metrics.NN_KINDS)
    assert 0.9 < shares <= 1.0 + 1e-9
    assert values["nn.depthwise_separable2d.bwd_ms"] > 0
    assert values["nn.train_forwards"] == 19  # 80% of 24 frames, one epoch
    assert values["nn.eval_forwards"] == 24 + 2 * 24  # per-epoch evaluation, eval-lvd twice
    assert values["lvd.objective.ms"] > 0 and values["checkpoint.load.ms"] > 0
    assert values["lvd.val_mae"] > 0 and values["ef.val_mae"] == 0
