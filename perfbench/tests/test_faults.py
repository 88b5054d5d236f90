"""Planted faults raise failed_frac; the clean run has no failures."""

import pytest

from perfbench import runner
from perfbench.conv3d import Conv3dWorkload
from perfbench.recording import RecordingWorkload
from perfbench.training import EfTrain

SMALL_MIX = (((16, 16, 12), (3, 3, 3), "same"), ((20, 18, 16), (5, 3, 3), "valid"))


def small(name):
    return {
        "conv3d": lambda: Conv3dWorkload(mix=SMALL_MIX),
        "recording": lambda: RecordingWorkload(beats_per_recording=(20, 30)),
        "ef_train": lambda: EfTrain(n_videos=12, encoder_dim=8),
    }[name]()


def run(name, tmp_path, fault=None):
    return runner.run(name, seed=3, seconds=0.01, trace=False, workdir=tmp_path / "work",
                      fault=fault, workload=small(name))


@pytest.mark.parametrize("name", ["conv3d", "recording", "ef_train"])
def test_clean_run_has_no_failures(name, tmp_path):
    result = run(name, tmp_path)
    assert result.ledger.attempted > 0
    assert result.ledger.failed == 0, result.ledger.errors
    assert result.as_json()["correct"] is True


@pytest.mark.parametrize("name, fault", [
    ("conv3d", "nonseparable_kernel"),
    ("recording", "truncated_recording"),
    ("recording", "nan_prediction"),
    ("ef_train", "nan_prediction"),
])
def test_planted_fault_raises_failed_frac(name, fault, tmp_path):
    result = run(name, tmp_path, fault)
    assert 0 < result.ledger.failed <= result.ledger.attempted
    assert result.as_json()["correct"] is False


def test_fault_on_a_workload_it_does_not_reach_is_refused(tmp_path):
    with pytest.raises(ValueError):
        run("conv3d", tmp_path, "truncated_recording")
