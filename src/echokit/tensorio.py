"""CTR1 binary tensor container.

Layout: magic bytes ``CTR1``, one dtype byte (1 = float32, 2 = float64),
one rank byte, ``rank`` little-endian uint32 dims, then the row-major
little-endian payload.  Round-trips are bit-exact for both dtypes.

The payload moves between file and array once: the writer hands the
stream a byte view of the array's own memory, and the reader reads into
the result array, so neither holds a payload-sized copy.

``open_input`` is the only place echokit opens an input path,
``read_json`` reads every JSON document through it, and ``output_dir``
makes every output directory.
"""

from __future__ import annotations

import io
import json
import math
import struct
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import ConfigurationError, EchokitError, InputNotFoundError, ValidationError

MAGIC = b"CTR1"

_DTYPE_CODES = {np.dtype("<f4"): 1, np.dtype("<f8"): 2}
_CODE_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_INT64_MAX = np.iinfo(np.int64).max
# read_finite_tensor() checks this many values at a time, so its boolean
# temporary stays 128 KB however large the payload is.
_FINITE_BLOCK_ITEMS = 1 << 17


class TensorFormatError(EchokitError, IOError):
    """The byte stream is not a valid CTR1 record."""


def write_tensor_stream(stream: BinaryIO, array: np.ndarray) -> None:
    """Append one CTR1 record to an open binary stream."""
    array = np.asarray(array)
    single = array.dtype.kind == "f" and array.dtype.itemsize == 4  # either byte order
    dtype = np.dtype("<f4") if single else np.dtype("<f8")
    code = _DTYPE_CODES[dtype]
    # Copies only input that is not already C-ordered in the stored dtype;
    # ascontiguousarray would make rank 0 rank 1.
    data = np.asarray(array, dtype=dtype, order="C")
    if data.ndim > 255:
        raise TensorFormatError(f"rank {data.ndim} exceeds the 1-byte rank field")
    stream.write(MAGIC)
    stream.write(struct.pack("<BB", code, data.ndim))
    stream.write(struct.pack(f"<{data.ndim}I", *data.shape))
    stream.write(memoryview(data.reshape(-1)).cast("B"))


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
    # Read straight into the result: one payload-sized buffer, not two.
    array = np.empty(shape, dtype=dtype)
    buffer = memoryview(array.reshape(-1)).cast("B")
    filled = 0
    while filled < nbytes:
        got = stream.readinto(buffer[filled:])
        if not got:
            raise TensorFormatError(
                f"truncated payload: expected {nbytes} bytes, got {filled}"
            )
        filled += got
    return array


def _remaining_bytes(stream: BinaryIO) -> int | None:
    """Bytes left after the current position, or None if it cannot seek."""
    if not stream.seekable():
        return None
    position = stream.tell()
    end = stream.seek(0, io.SEEK_END)
    stream.seek(position)
    return end - position


def write_tensor(path, array: np.ndarray) -> None:
    """Write one tensor to *path*: float32 arrays as float32, all else as float64."""
    with open(path, "wb") as stream:
        write_tensor_stream(stream, array)


def open_input(path) -> BinaryIO:
    """*path* opened for binary reading.  Any path ``open`` rejects (missing,
    a directory, a name over the OS limit, a symlink loop, a NUL byte, no
    permission) raises InputNotFoundError naming it."""
    try:
        return open(path, "rb")
    except (FileNotFoundError, NotADirectoryError):
        raise InputNotFoundError(f"input file does not exist: {path}") from None
    except IsADirectoryError:
        raise InputNotFoundError(f"input path is a directory, not a file: {path}") from None
    except (OSError, ValueError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise InputNotFoundError(f"cannot open input {path}: {reason}") from None


def read_json(path):
    """The JSON document at *path*; text that is not UTF-8 JSON raises
    ConfigurationError naming the file."""
    with open_input(path) as stream:
        data = stream.read()
    try:
        return json.loads(data.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise ConfigurationError(f"{path}: not valid JSON ({exc})") from None


def output_dir(path) -> Path:
    """Directory *path*, made with its parents if missing; a path that
    cannot be a directory raises ConfigurationError naming it."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigurationError(f"cannot create output directory {path}: {reason}") from None
    return Path(path)


def read_tensor(path) -> np.ndarray:
    """Read the single tensor stored at *path*."""
    with open_input(path) as stream:
        array = read_tensor_stream(stream)
        trailing = stream.read(1)
    if trailing:
        raise TensorFormatError(f"{path}: trailing bytes after tensor record")
    return array


def read_finite_tensor(path) -> np.ndarray:
    """read_tensor() for a video, clip or frame to compute on: a NaN or
    infinite value raises ValidationError naming the file."""
    array = read_tensor(path)
    flat = array.reshape(-1)
    for start in range(0, flat.size, _FINITE_BLOCK_ITEMS):
        if not np.isfinite(flat[start : start + _FINITE_BLOCK_ITEMS]).all():
            raise ValidationError(f"{path}: holds NaN or infinite values")
    return array
