"""Property tests of the CTR1 reader and writer."""

import io

import numpy as np
import pytest

from echokit.tensorio import TensorFormatError, read_tensor_stream, write_tensor_stream

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

SETTINGS = settings(max_examples=200, deadline=None)

arrays = hnp.arrays(
    dtype=st.sampled_from([np.dtype("<f4"), np.dtype("<f8")]),
    shape=hnp.array_shapes(min_dims=0, max_dims=5, min_side=0, max_side=6),
    elements={"allow_nan": True, "allow_infinity": True, "allow_subnormal": True},
)


def _record(array):
    stream = io.BytesIO()
    write_tensor_stream(stream, array)
    return stream.getvalue()


@SETTINGS
@given(arrays)
def test_roundtrip_bit_exact(array):
    stream = io.BytesIO(_record(array) * 2)
    for _ in range(2):
        back = read_tensor_stream(stream)
        assert back.dtype == array.dtype and back.shape == array.shape
        assert back.tobytes() == array.tobytes()
    assert stream.read() == b""


@SETTINGS
@given(arrays, st.data())
def test_corrupt_header_raises_only_tensor_format_error(array, data):
    """Overwritten header bytes and a cut anywhere give a typed error or a consistent array."""
    blob = bytearray(_record(array))
    header_len = 6 + 4 * array.ndim
    for _ in range(data.draw(st.integers(1, 4))):
        blob[data.draw(st.integers(0, header_len - 1))] = data.draw(st.integers(0, 255))
    blob = bytes(blob[: data.draw(st.integers(0, len(blob)))])
    stream = io.BytesIO(blob)
    try:
        back = read_tensor_stream(stream)
    except TensorFormatError:
        return
    assert 6 + 4 * back.ndim + back.nbytes == stream.tell() <= len(blob)
