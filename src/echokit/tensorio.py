"""CTR1 binary tensor container.

Layout: magic bytes ``CTR1``, one dtype byte (1 = float32, 2 = float64),
one rank byte, ``rank`` little-endian uint32 dims, then the row-major
little-endian payload.  Round-trips are bit-exact for both dtypes.
"""

from __future__ import annotations

import io
import math
import struct
from typing import BinaryIO

import numpy as np

from .errors import EchokitError

MAGIC = b"CTR1"

_DTYPE_CODES = {np.dtype("<f4"): 1, np.dtype("<f8"): 2}
_CODE_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_INT64_MAX = np.iinfo(np.int64).max


class TensorFormatError(EchokitError, IOError):
    """The byte stream is not a valid CTR1 record."""


def write_tensor_stream(stream: BinaryIO, array: np.ndarray) -> None:
    """Append one CTR1 record to an open binary stream."""
    array = np.asarray(array)
    dtype = np.dtype("<f4") if array.dtype == np.float32 else np.dtype("<f8")
    code = _DTYPE_CODES[dtype]
    data = np.asarray(array, dtype=dtype, order="C")  # ascontiguousarray would make rank 0 rank 1
    if data.ndim > 255:
        raise TensorFormatError(f"rank {data.ndim} exceeds the 1-byte rank field")
    stream.write(MAGIC)
    stream.write(struct.pack("<BB", code, data.ndim))
    stream.write(struct.pack(f"<{data.ndim}I", *data.shape))
    stream.write(data.tobytes(order="C"))


def read_tensor_stream(stream: BinaryIO) -> np.ndarray:
    """Read one CTR1 record from an open binary stream."""
    magic = stream.read(4)
    if magic != MAGIC:
        raise TensorFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    header = stream.read(2)
    if len(header) != 2:
        raise TensorFormatError("truncated header")
    code, rank = struct.unpack("<BB", header)
    if code not in _CODE_DTYPES:
        raise TensorFormatError(f"unknown dtype code {code}")
    dim_bytes = stream.read(4 * rank)
    if len(dim_bytes) != 4 * rank:
        raise TensorFormatError("truncated dims")
    shape = struct.unpack(f"<{rank}I", dim_bytes)
    dtype = _CODE_DTYPES[code]
    # numpy needs the nonzero dims to fit in int64 bytes even when another dim is 0.
    extent = math.prod(d for d in shape if d) * dtype.itemsize
    if extent > _INT64_MAX:
        raise TensorFormatError(f"dims {shape} span {extent} bytes, more than int64 can index")
    nbytes = extent if all(shape) else 0
    remaining = _remaining_bytes(stream)
    if remaining is not None and nbytes > remaining:
        raise TensorFormatError(
            f"truncated payload: expected {nbytes} bytes, {remaining} remain"
        )
    payload = stream.read(nbytes)
    if len(payload) != nbytes:
        raise TensorFormatError(
            f"truncated payload: expected {nbytes} bytes, got {len(payload)}"
        )
    return np.frombuffer(payload, dtype=dtype).reshape(shape).copy()


def _remaining_bytes(stream: BinaryIO) -> int | None:
    """Bytes left after the current position, or None if it cannot seek."""
    if not stream.seekable():
        return None
    position = stream.tell()
    end = stream.seek(0, io.SEEK_END)
    stream.seek(position)
    return end - position


def write_tensor(path, array: np.ndarray, single_precision: bool = False) -> None:
    """Write one tensor to *path*.

    Storage is float64 unless the array is already float32 or
    *single_precision* is set; single precision is a file-size option only.
    """
    array = np.asarray(array)
    if single_precision:
        array = array.astype(np.float32)
    with open(path, "wb") as stream:
        write_tensor_stream(stream, array)


def read_tensor(path) -> np.ndarray:
    """Read the single tensor stored at *path*."""
    with open(path, "rb") as stream:
        array = read_tensor_stream(stream)
        trailing = stream.read(1)
    if trailing:
        raise TensorFormatError(f"{path}: trailing bytes after tensor record")
    return array
