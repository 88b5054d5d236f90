"""The per-layer numbers, computed from a traced run's spans.  The metric
names and units are those of ``BENCHMARK.json``; README.md maps each
per-layer metric to the end-to-end metric it should move and the
workloads it shows on.

Every workload reports every per-layer metric; a layer that a workload
never reaches reads 0.

A ``.ms`` metric is self time per call (span duration minus its child
spans), except ``ef.predict_ef.ms``, which is inclusive: it is the whole
per-clip inference latency.  ``nn.<kind>.fwd_ms``/``bwd_ms`` sum self time
over every instance of the kind and divide by model passes, so they are
per sample.  ``ms_per_sample`` metrics are inclusive.  Counts are per
traced repetition.
"""

from __future__ import annotations

from collections import defaultdict

from .spans import ROOT_PARENT, self_times

NN_KINDS = ("depthwise_separable2d", "swish", "max_pool2d", "global_avg_pool2d",
            "flatten", "dense", "conv1d", "global_max_pool")

HEADLINE_KEY = "64x64x64/7x7x7/same"


class SpanStats:
    """Per-name call counts, inclusive and self seconds, and summed counts,
    over the spans whose root span's name *keep_root* accepts.

    By default that is every ``bench.*`` root, the benchmark's own calls
    into a workload; the output checks make their calls outside them.
    """

    def __init__(self, spans, keep_root=lambda name: name.startswith("bench.")):
        own = self_times(spans)
        root = list(range(len(spans)))
        in_train = []
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(lambda: defaultdict(float))
        self.by_key = defaultdict(list)  # (name, counts["key"]) -> [(seconds, counts)]
        self.train_forwards = 0
        for i, s in enumerate(spans):  # a parent always precedes its children
            under_train = s.parent != ROOT_PARENT and in_train[s.parent]
            in_train.append(under_train or s.name == "nn.value_and_grad")
            if s.parent != ROOT_PARENT:
                root[i] = root[s.parent]
            if not keep_root(spans[root[i]].name):
                continue
            self.calls[s.name] += 1
            self.total[s.name] += s.duration
            self.self_s[s.name] += own[i]
            for key, value in (s.counts or {}).items():
                if key == "key":
                    self.by_key[(s.name, value)].append((s.duration, s.counts))
                else:
                    self.counts[s.name][key] += value
            if s.name == "nn.model.fwd" and under_train:
                self.train_forwards += 1

    def self_ms(self, name: str) -> float:
        return 1e3 * self.self_s[name] / self.calls[name] if self.calls[name] else 0.0

    def keyed(self, name: str) -> dict:
        return {key: runs for (n, key), runs in self.by_key.items() if n == name}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(workload: str, spans, reps: int, rep_results: list[dict],
              overhead: float) -> dict:
    """Every per-layer metric from the spans of one traced run.

    Repetition spans give every number except the tensorio rates, which
    also cover setup's writes, and ``conv3d_full``, which runs in setup.
    """
    st = SpanStats(spans, keep_root=lambda name: name.startswith("bench.")
                   and name != "bench.setup")
    everything = SpanStats(spans)
    m = {}
    fwd_passes, bwd_passes = st.calls["nn.model.fwd"], st.calls["nn.model.bwd"]
    layer_self = sum(v for k, v in st.self_s.items()
                     if k.startswith("nn.") and k.endswith((".fwd", ".bwd")))
    for kind in NN_KINDS:
        f, b = st.self_s[f"nn.{kind}.fwd"], st.self_s[f"nn.{kind}.bwd"]
        m[f"nn.{kind}.fwd_ms"] = 1e3 * _ratio(f, fwd_passes)
        m[f"nn.{kind}.bwd_ms"] = 1e3 * _ratio(b, bwd_passes)
        m[f"nn.{kind}.share"] = _ratio(f + b, layer_self)
    m["nn.value_and_grad.ms"] = st.self_ms("nn.value_and_grad")
    m["nn.optimizer_step.ms"] = st.self_ms("nn.optimizer_step")
    m["nn.train_forwards"] = _ratio(st.train_forwards, reps)
    m["nn.eval_forwards"] = _ratio(fwd_passes - st.train_forwards, reps)
    for name in ("ef.evaluate_mae", "lvd.evaluate_lvd"):
        m[f"{name}.ms_per_sample"] = 1e3 * _ratio(st.total[name], st.counts[name]["samples"])
    m["lvd.objective.ms"] = st.self_ms("lvd.objective")
    m["ef.predict_ef.ms"] = 1e3 * _ratio(st.total["ef.predict_ef"], st.calls["ef.predict_ef"])
    val = [r["val_mae"] for r in rep_results if "val_mae" in r]
    for name, owner in (("ef.val_mae", "ef_train"), ("lvd.val_mae", "lvd_train")):
        m[name] = val[-1] if val and workload == owner else 0.0

    for name in ("area_signal", "detect_extrema", "extract_beats"):
        m[f"beats.{name}.ms"] = st.self_ms(f"beats.{name}")
    detect = st.keyed("beats.detect_extrema")  # frames -> runs

    def us_per_frame(frames):
        return 1e6 * sum(d for d, _ in detect[frames]) / (frames * len(detect[frames]))

    us_short = us_per_frame(min(detect)) if detect else 0.0
    us_long = us_per_frame(max(detect)) if detect else 0.0
    m["beats.detect_extrema.us_per_frame_short"] = us_short
    m["beats.detect_extrema.us_per_frame_long"] = us_long
    m["beats.detect_extrema.scaling"] = _ratio(us_long, us_short)
    clips = sum(r.get("clips", 0) for r in rep_results)
    m["beats.clip_yield"] = _ratio(clips, sum(r.get("true_beats", 0) for r in rep_results))

    for name in ("read_tensor", "write_tensor"):
        span = f"tensorio.{name}"
        m[f"{span}.mb_per_s"] = _ratio(
            everything.counts[span]["bytes"] / 1e6, everything.self_s[span])
    m["checkpoint.save.ms"] = st.self_ms("checkpoint.save")
    m["checkpoint.load.ms"] = st.self_ms("checkpoint.load")

    m["convops.conv_spatial.ms"] = st.self_ms("convops.conv_spatial")
    m["convops.conv_temporal.ms"] = st.self_ms("convops.conv_temporal")
    conv = st.counts["convops.conv_factored"]
    mult = _ratio(conv["mult"], reps)
    nbytes = _ratio(conv["bytes"], reps)
    m["convops.conv_factored.mult"] = mult
    m["convops.conv_factored.bytes_computed"] = nbytes
    m["convops.conv_factored.mult_per_byte"] = _ratio(mult, nbytes)
    m["convops.conv_factored.gb_per_s"] = _ratio(
        conv["bytes"] / 1e9, st.total["convops.conv_factored"])
    m["convops.conv3d_full.ms"] = everything.self_ms("convops.conv3d_full")
    full = everything.by_key[("convops.conv3d_full", HEADLINE_KEY)]
    factored = st.by_key[("convops.conv_factored", HEADLINE_KEY)]
    if full and factored:
        full_s = sum(d for d, _ in full) / len(full)
        factored_s = sum(d for d, _ in factored) / len(factored)
        m["convops.wall_ratio"] = full_s / factored_s
        m["convops.count_ratio"] = full[0][1]["mult"] / factored[0][1]["mult"]
    else:
        m["convops.wall_ratio"] = m["convops.count_ratio"] = 0.0

    m["trace_overhead_frac"] = overhead
    bench = [name for name in everything.calls if name.startswith("bench.")]  # all roots
    m["trace_unattributed_frac"] = _ratio(sum(everything.self_s[n] for n in bench),
                                          sum(everything.total[n] for n in bench))
    return m
