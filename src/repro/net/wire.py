"""Binary wire format and payload size accounting.

Two jobs:

* :func:`encode` / :func:`decode` — an actual self-describing binary codec
  for the value types that cross module/service boundaries (None, bool, int,
  float, str, bytes, list, tuple, dict, numpy arrays). The realtime runtime
  and the tests use it to prove payloads survive a real serialization
  boundary.
* :func:`payload_size` — the byte size the simulator charges to the link for
  a payload, which is simply the length of its encoding (computed without
  materializing the buffer for large arrays).
"""

from __future__ import annotations

import struct
from itertools import chain
from typing import Any, Callable

import numpy as np

from ..errors import NetworkError

_MAGIC = b"VP"
_VERSION = 1

# Type tags
_T_NONE = 0
_T_TRUE = 1
_T_FALSE = 2
_T_INT = 3
_T_FLOAT = 4
_T_STR = 5
_T_BYTES = 6
_T_LIST = 7
_T_DICT = 8
_T_NDARRAY = 9
_T_TUPLE = 10

#: Fixed per-message envelope overhead in bytes (headers, framing); matches
#: a small ZeroMQ frame plus our envelope fields.
ENVELOPE_OVERHEAD = 64


class WireFormatError(NetworkError):
    """Raised when decoding malformed wire bytes."""


def _encode_into(value: Any, out: bytearray) -> None:
    if value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif isinstance(value, int):
        out.append(_T_INT)
        out += struct.pack("<q", value)
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out += struct.pack("<d", value)
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(_T_STR)
        out += struct.pack("<I", len(data))
        out += data
    elif isinstance(value, (bytes, bytearray, memoryview)):
        data = bytes(value)
        out.append(_T_BYTES)
        out += struct.pack("<I", len(data))
        out += data
    elif isinstance(value, (list, tuple)):
        out.append(_T_LIST if isinstance(value, list) else _T_TUPLE)
        out += struct.pack("<I", len(value))
        for item in value:
            _encode_into(item, out)
    elif isinstance(value, dict):
        out.append(_T_DICT)
        out += struct.pack("<I", len(value))
        for key, item in value.items():
            if not isinstance(key, str):
                raise WireFormatError(f"dict keys must be str, got {type(key).__name__}")
            _encode_into(key, out)
            _encode_into(item, out)
    elif isinstance(value, np.ndarray):
        header = value.dtype.str.encode("ascii")
        out.append(_T_NDARRAY)
        out += struct.pack("<B", len(header))
        out += header
        out += struct.pack("<B", value.ndim)
        out += struct.pack(f"<{value.ndim}q", *value.shape)
        data = np.ascontiguousarray(value).tobytes()
        out += struct.pack("<Q", len(data))
        out += data
    elif isinstance(value, (np.integer,)):
        _encode_into(int(value), out)
    elif isinstance(value, (np.floating,)):
        _encode_into(float(value), out)
    else:
        raise WireFormatError(f"unsupported wire type: {type(value).__name__}")


def encode(value: Any) -> bytes:
    """Serialize *value* to self-describing wire bytes."""
    out = bytearray()
    out += _MAGIC
    out.append(_VERSION)
    _encode_into(value, out)
    return bytes(out)


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            raise WireFormatError("truncated wire data")
        chunk = self.data[self.pos : self.pos + count]
        self.pos += count
        return chunk

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _decode_from(reader: _Reader) -> Any:
    tag = reader.take(1)[0]
    if tag == _T_NONE:
        return None
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_INT:
        return reader.unpack("<q")[0]
    if tag == _T_FLOAT:
        return reader.unpack("<d")[0]
    if tag == _T_STR:
        (length,) = reader.unpack("<I")
        return reader.take(length).decode("utf-8")
    if tag == _T_BYTES:
        (length,) = reader.unpack("<I")
        return bytes(reader.take(length))
    if tag in (_T_LIST, _T_TUPLE):
        (length,) = reader.unpack("<I")
        items = [_decode_from(reader) for _ in range(length)]
        return items if tag == _T_LIST else tuple(items)
    if tag == _T_DICT:
        (length,) = reader.unpack("<I")
        result = {}
        for _ in range(length):
            key = _decode_from(reader)
            result[key] = _decode_from(reader)
        return result
    if tag == _T_NDARRAY:
        (header_len,) = reader.unpack("<B")
        dtype = np.dtype(reader.take(header_len).decode("ascii"))
        (ndim,) = reader.unpack("<B")
        shape = reader.unpack(f"<{ndim}q") if ndim else ()
        (nbytes,) = reader.unpack("<Q")
        raw = reader.take(nbytes)
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    raise WireFormatError(f"unknown wire tag {tag}")


def decode(data: bytes) -> Any:
    """Deserialize wire bytes produced by :func:`encode`."""
    reader = _Reader(data)
    if reader.take(2) != _MAGIC:
        raise WireFormatError("bad magic; not VideoPipe wire data")
    version = reader.take(1)[0]
    if version != _VERSION:
        raise WireFormatError(f"unsupported wire version {version}")
    value = _decode_from(reader)
    if reader.pos != len(data):
        raise WireFormatError("trailing bytes after wire value")
    return value


def _size_of(value: Any) -> int:
    """Size of the encoding of *value*, without building the buffer.

    Exact built-in and numpy types dispatch on ``type(value)`` through
    :data:`_SIZERS`; anything else (subclasses, ``wire_size`` hints) takes
    :func:`_size_of_other`.
    """
    sizer = _SIZERS.get(type(value))
    if sizer is None:
        return _size_of_other(value)
    return sizer(value)


def _size_of_other(value: Any) -> int:
    if value is None or value is True or value is False:
        return 1
    if isinstance(value, (int, np.integer)):
        return 9
    if isinstance(value, (float, np.floating)):
        return 9
    if isinstance(value, str):
        return 5 + len(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray, memoryview)):
        return 5 + len(value)
    if isinstance(value, (list, tuple)):
        return 5 + sum(_size_of(item) for item in value)
    if isinstance(value, dict):
        return 5 + sum(_size_of(k) + _size_of(v) for k, v in value.items())
    if isinstance(value, np.ndarray):
        return _ndarray_size(value)
    # Objects with an explicit wire-size hint (e.g. encoded video frames
    # carry their compressed size without holding real pixel buffers).
    hint = getattr(value, "wire_size", None)
    if hint is not None:
        return int(hint)
    raise WireFormatError(f"unsupported wire type: {type(value).__name__}")


def _str_size(value: str) -> int:
    # an ASCII string encodes to one byte per character
    return 5 + (len(value) if value.isascii() else len(value.encode("utf-8")))


def _sequence_size(value: list | tuple) -> int:
    return 5 + sum(map(_size_of, value))


def _dict_size(value: dict) -> int:
    # key, value, key, value...: the order the isinstance chain sizes them
    return 5 + sum(map(_size_of, chain.from_iterable(value.items())))


def _ndarray_size(value: np.ndarray) -> int:
    dtype_len = len(value.dtype.str.encode("ascii"))
    return 1 + 1 + dtype_len + 1 + 8 * value.ndim + 8 + value.nbytes


def _one_byte(_value: Any) -> int:
    return 1


def _nine_bytes(_value: Any) -> int:
    return 9


def _bytes_size(value: bytes | bytearray | memoryview) -> int:
    return 5 + len(value)


#: Sizers for exact types; a subclass (``bool`` of ``int``, ``np.float64``
#: of ``float``) has its own entry or falls back to the ``isinstance`` chain.
_SIZERS: dict[type, Callable[[Any], int]] = {
    type(None): _one_byte,
    bool: _one_byte,
    int: _nine_bytes,
    float: _nine_bytes,
    str: _str_size,
    bytes: _bytes_size,
    bytearray: _bytes_size,
    memoryview: _bytes_size,
    list: _sequence_size,
    tuple: _sequence_size,
    dict: _dict_size,
    np.ndarray: _ndarray_size,
    **{scalar: _nine_bytes for scalar in (
        np.int8, np.int16, np.int32, np.int64,
        np.uint8, np.uint16, np.uint32, np.uint64,
        np.float16, np.float32, np.float64,
    )},
}


def payload_size(value: Any) -> int:
    """Bytes this payload occupies on the wire, including envelope overhead."""
    return ENVELOPE_OVERHEAD + 3 + _size_of(value)
