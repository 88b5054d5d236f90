"""Property tests of checkpoint loading from truncated files."""

import pytest

from echokit import checkpoint
from echokit.errors import EchokitError, InputNotFoundError
from echokit.lvd import LvdModel, LvdModelConfig

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SETTINGS = settings(max_examples=150, deadline=None)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A small saved LVD model's two files, and a directory to damage copies in."""
    model = LvdModel.build(
        LvdModelConfig(frame_shape=(16, 16), channels=(4, 8, 8), hidden=16, seed=3)
    )
    source = checkpoint.save_checkpoint(
        tmp_path_factory.mktemp("ck"), "lvd", model.config, model.graph
    )
    files = {name: (source / name).read_bytes() for name in ("manifest.json", "params.ctr")}
    return files, tmp_path_factory.mktemp("damaged")


def write_with_cut(saved, name, cut):
    files, target = saved
    for other, data in files.items():
        (target / other).write_bytes(data[:cut] if other == name else data)
    return target


@SETTINGS
@given(data=st.data())
def test_truncated_params_rejected(saved, data):
    size = len(saved[0]["params.ctr"])
    cut = data.draw(st.integers(0, size - 1))
    with pytest.raises(EchokitError):
        checkpoint.load_lvd_model(write_with_cut(saved, "params.ctr", cut))


@SETTINGS
@given(data=st.data())
def test_truncated_manifest_rejected(saved, data):
    manifest = saved[0]["manifest.json"]
    cut = data.draw(st.integers(0, len(manifest) - 1))
    path = write_with_cut(saved, "manifest.json", cut)
    if manifest[:cut].strip() == manifest.strip():  # only trailing whitespace is gone
        checkpoint.load_lvd_model(path)
    else:
        with pytest.raises(EchokitError):
            checkpoint.load_lvd_model(path)


def test_missing_params_file_rejected(saved):
    files, target = saved
    (target / "manifest.json").write_bytes(files["manifest.json"])
    (target / "params.ctr").unlink(missing_ok=True)
    with pytest.raises(InputNotFoundError):
        checkpoint.load_lvd_model(target)
