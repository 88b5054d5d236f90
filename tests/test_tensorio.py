import io

import numpy as np
import pytest

from echokit.tensorio import (
    MAGIC,
    TensorFormatError,
    read_tensor,
    read_tensor_stream,
    write_tensor,
)


@pytest.mark.parametrize("shape", [(5,), (3, 4), (4, 4, 6), (2, 3, 4, 5), ()])
def test_float64_roundtrip_bit_exact(tmp_path, shape):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal(shape)
    path = tmp_path / "t.ctr"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.dtype == np.float64
    assert back.shape == arr.shape
    assert back.tobytes() == arr.tobytes()


def test_float32_roundtrip_bit_exact(tmp_path):
    arr = np.random.default_rng(1).standard_normal((6, 7)).astype(np.float32)
    path = tmp_path / "t.ctr"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.dtype == np.float32
    assert back.tobytes() == arr.tobytes()


def test_header_layout(tmp_path):
    path = tmp_path / "t.ctr"
    write_tensor(path, np.zeros((2, 3), dtype=np.float64))
    blob = path.read_bytes()
    assert blob[:4] == MAGIC
    assert blob[4] == 2  # float64
    assert blob[5] == 2  # rank
    assert int.from_bytes(blob[6:10], "little") == 2
    assert int.from_bytes(blob[10:14], "little") == 3
    assert len(blob) == 14 + 6 * 8


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "t.ctr"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(TensorFormatError):
        read_tensor(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "t.ctr"
    write_tensor(path, np.zeros((4, 4)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(TensorFormatError):
        read_tensor(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "t.ctr"
    write_tensor(path, np.zeros(3))
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(TensorFormatError):
        read_tensor(path)


def _header(rank, dims, code=2):
    return MAGIC + bytes([code, rank]) + b"".join(d.to_bytes(4, "little") for d in dims)


@pytest.mark.parametrize("dims", [(2**32 - 1,) * 8, (0,) + (2**32 - 1,) * 3])
def test_dims_beyond_int64_rejected_before_reading(dims):
    header = _header(len(dims), dims)
    stream = io.BytesIO(header + b"\x00" * 64)
    with pytest.raises(TensorFormatError, match="int64"):
        read_tensor_stream(stream)
    assert stream.tell() == len(header)


def test_payload_longer_than_stream_rejected_before_reading(tmp_path):
    header = _header(2, (1000, 1000))
    path = tmp_path / "t.ctr"
    path.write_bytes(header + b"\x00" * 64)
    with open(path, "rb") as stream:
        with pytest.raises(TensorFormatError, match="8000000 bytes, 64 remain"):
            read_tensor_stream(stream)
        assert stream.tell() == len(header)
