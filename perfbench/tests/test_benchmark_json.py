"""Every workload of BENCHMARK.json has a runner, and the README maps
every per-layer metric."""

from perfbench import ROOT, runner, spec


def test_every_workload_has_a_runner():
    assert [w["name"] for w in spec()["workloads"]] == list(runner.WORKLOADS)


def test_readme_maps_every_per_layer_metric():
    readme = (ROOT / "perfbench" / "README.md").read_text()
    for metric in spec()["per_layer"]:
        assert f"`{metric['name']}`" in readme
