import io
import re
import tracemalloc

import numpy as np
import pytest

from echokit.errors import InputNotFoundError, ValidationError
from echokit.tensorio import (
    MAGIC,
    TensorFormatError,
    read_finite_tensor,
    read_tensor,
    read_tensor_stream,
    write_tensor,
    write_tensor_stream,
)

from oracles import ctr1_record


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


def test_big_endian_float32_stored_as_float32(tmp_path):
    arr = np.arange(3, dtype=">f4")
    path = tmp_path / "t.ctr"
    write_tensor(path, arr)
    assert len(path.read_bytes()) == 22  # 10-byte header, 3 float32s
    back = read_tensor(path)
    assert back.dtype == np.float32
    np.testing.assert_array_equal(back, arr)


def test_directory_path_raises_input_not_found(tmp_path):
    message = f"is a directory, not a file: {tmp_path}"
    with pytest.raises(InputNotFoundError, match=re.escape(message)):
        read_tensor(tmp_path)


def test_path_below_a_file_raises_input_not_found(tmp_path):
    write_tensor(tmp_path / "t.ctr", np.zeros(2))
    with pytest.raises(InputNotFoundError, match="does not exist"):
        read_tensor(tmp_path / "t.ctr" / "inner.ctr")


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


_GRID = np.arange(60, dtype=np.float64).reshape(3, 4, 5) * 1.25 - 7.0

WRITE_INPUTS = {
    "c_float64": _GRID,
    "fortran": np.asfortranarray(_GRID),
    "strided_view": _GRID[::2, 1:, ::-2],
    "big_endian": _GRID.astype(">f8"),
    "float32": _GRID.astype(np.float32),
    "big_endian_float32": _GRID.astype(">f4"),
    "int64": np.arange(-6, 6, dtype=np.int64).reshape(3, 4),
    "float16": _GRID.astype(np.float16),
    "rank_0": np.array(-2.5),
    "empty": np.zeros((2, 0, 3)),
}


@pytest.mark.parametrize("name", WRITE_INPUTS)
def test_written_bytes_match_oracle(tmp_path, name):
    array = WRITE_INPUTS[name]
    stream = io.BytesIO()
    write_tensor_stream(stream, array)
    assert stream.getvalue() == ctr1_record(array)
    write_tensor(tmp_path / "t.ctr", array)
    assert (tmp_path / "t.ctr").read_bytes() == ctr1_record(array)


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_holds_no_payload_copy(tmp_path):
    array = np.random.default_rng(2).standard_normal(2**18)  # 2 MB
    peak = _traced_peak(lambda: write_tensor(tmp_path / "t.ctr", array))
    assert peak < array.nbytes / 8
    assert (tmp_path / "t.ctr").read_bytes() == ctr1_record(array)


def test_finite_check_runs_in_bounded_blocks(tmp_path):
    array = np.random.default_rng(3).standard_normal((64, 64, 128))  # 4 MB
    write_tensor(tmp_path / "t.ctr", array)
    peak = _traced_peak(lambda: read_finite_tensor(tmp_path / "t.ctr"))
    assert peak - array.nbytes < array.nbytes / 16
    assert read_finite_tensor(tmp_path / "t.ctr").tobytes() == array.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_value_in_last_block_rejected(tmp_path, bad):
    array = np.zeros((64, 64, 128))  # four 1 MB blocks
    array[-1, -1, -1] = bad
    path = tmp_path / "t.ctr"
    write_tensor(path, array)
    with pytest.raises(ValidationError, match=f"{path}: holds NaN or infinite values"):
        read_finite_tensor(path)
