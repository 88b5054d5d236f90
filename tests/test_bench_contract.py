"""The benchmark's calls into echokit keep working.

perfbench/ drives echokit through its public names (CLI parsers and
commands, dataset splits, loss weights, the LVD objective, value_and_grad,
checkpoint loaders).  Each training workload runs here, shrunk to a few
seconds, and must finish without a failed operation.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import runner  # noqa: E402
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
