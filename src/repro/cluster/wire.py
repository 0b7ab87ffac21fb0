"""The statistics wire format: one compact binary frame per message.

A frame is one tagged value.  ``encode`` turns a message (nested dicts,
lists, ints, floats, strings, ``bytes``) into immutable ``bytes`` and
``decode`` is its exact inverse; the sink encodes once at enqueue, the
network charges ``len(frame)``, the master decodes what it was handed
(docs/ARCHITECTURE.md "Wire format" has the tag table and the measured
per-family sizes).  The catalog file (core/persistence.py) stores its
entry list as one frame of the same codec.

One rule does the shrinking: a non-empty list whose items are all
``int`` or all ``float`` packs as the raw bytes of the narrowest
``array`` typecode that holds it (little-endian), and an all-equal one
as a ``(count, value)`` run -- a histogram's 256 small counts cost one
byte each, an empty anti-matter twin's 256 zeros cost five bytes.
Everything else is tag + varint length + content.  Tuples travel as
lists, like JSON.

Frames arrive from outside the process (a lossy wire, a file on disk):
``decode`` of arbitrary bytes raises :class:`~repro.errors.WireError`
or returns a value.  No allocation is sized by a count the frame merely
claims: a length is honoured only as far as the bytes present, a run
only up to ``MAX_RUN`` items, nesting only to ``MAX_DEPTH``.
"""

from __future__ import annotations

import struct
import sys
from array import array
from typing import Any

from repro.errors import WireError

__all__ = ["encode", "decode", "MAX_RUN", "MAX_DEPTH"]

(_NONE, _FALSE, _TRUE, _INT, _BIGINT, _FLOAT,
 _STR, _BYTES, _LIST, _DICT, _PACKED, _RUN) = range(12)  # fmt: skip
_BYTE = [bytes([byte]) for byte in range(256)]  # tags and one-byte varints

MAX_RUN = 1 << 16
"""Longest ``(count, value)`` run; longer all-equal lists pack densely,
so a corrupt count costs ``decode`` at most this many list slots."""

MAX_DEPTH = 32
"""Deepest container nesting ``decode`` follows (messages use 4)."""

_FLOAT64 = struct.Struct("<d")
_ITEMSIZE = {code: array(code).itemsize for code in "BbHhIiQqd"}
# (typecode, lowest, highest) of the fixed-width integer forms, narrowest first.
_INT_CODES = [
    (code, 0, (1 << 8 * size) - 1)
    if code.isupper()
    else (code, -(1 << 8 * size - 1), (1 << 8 * size - 1) - 1)
    for code, size in _ITEMSIZE.items()
    if code != "d"
]
_SWAP = sys.byteorder != "little"


def _varint(n: int) -> bytes:
    if n < 0x80:
        return _BYTE[n]
    out = bytearray()
    while n > 0x7F:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)
    return bytes(out)


def _pack(code: str, items: Any) -> bytes:
    packed = array(code, items)
    if _SWAP:
        packed.byteswap()
    return packed.tobytes()


def _encode_list(items: Any, out: list[bytes]) -> None:
    count = len(items)
    kinds = set(map(type, items))
    if kinds == {int}:
        lo, hi = min(items), max(items)
        if lo == hi and 1 < count <= MAX_RUN:
            out += (_BYTE[_RUN], _varint(count))
            _encode(lo, out)
            return
        for code, lowest, highest in _INT_CODES:
            if lowest <= lo and hi <= highest:
                raw = _pack(code, items)
                out += (_BYTE[_PACKED], code.encode(), _varint(count), raw)
                return
    elif kinds == {float}:
        raw = _pack("d", items)
        if 1 < count <= MAX_RUN and raw == raw[:8] * count:  # bitwise: -0.0 != 0.0
            out += (_BYTE[_RUN], _varint(count), _BYTE[_FLOAT], raw[:8])
        else:
            out += (_BYTE[_PACKED], b"d", _varint(count), raw)
        return
    out += (_BYTE[_LIST], _varint(count))
    for item in items:
        _encode(item, out)


def _encode(value: Any, out: list[bytes]) -> None:
    kind = type(value)
    if kind is int:
        if -(1 << 63) <= value < 1 << 63:
            out += (_BYTE[_INT], _varint(value << 1 if value >= 0 else ~(value << 1)))
        else:
            raw = value.to_bytes(value.bit_length() // 8 + 1, "little", signed=True)
            out += (_BYTE[_BIGINT], _varint(len(raw)), raw)
    elif kind is str:
        raw = value.encode()
        out += (_BYTE[_STR], _varint(len(raw)), raw)
    elif kind is list or kind is tuple:
        _encode_list(value, out)
    elif kind is dict:
        out += (_BYTE[_DICT], _varint(len(value)))
        for key, item in value.items():
            if type(key) is not str:
                raise WireError(f"dict keys must be str, got {type(key).__name__}")
            raw = key.encode()
            out += (_varint(len(raw)), raw)
            _encode(item, out)
    elif kind is float:
        out += (_BYTE[_FLOAT], _FLOAT64.pack(value))
    elif kind is bytes:
        out += (_BYTE[_BYTES], _varint(len(value)), value)
    elif value is None:
        out.append(_BYTE[_NONE])
    elif kind is bool:
        out.append(_BYTE[_TRUE] if value else _BYTE[_FALSE])
    else:
        raise WireError(f"cannot encode {kind.__name__} on the wire")


def encode(value: Any) -> bytes:
    """The frame of ``value``; a pure function of its contents."""
    out: list[bytes] = []
    _encode(value, out)
    return b"".join(out)


def _read_varint(frame: bytes, at: int) -> tuple[int, int]:
    byte = frame[at]
    at += 1
    if byte < 0x80:
        return byte, at
    value = byte & 0x7F
    for shift in range(7, 70, 7):
        byte = frame[at]
        at += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, at
    raise WireError(f"varint longer than 64 bits at offset {at}")


def _read(frame: bytes, at: int, depth: int) -> tuple[Any, int]:
    """The value at ``frame[at:]`` and the offset after it.

    Reads past the end are not checked one by one: indexing raises
    ``IndexError``, a short slice leaves ``at`` beyond the frame, and
    :func:`decode` turns either into a :class:`WireError`.
    """
    tag = frame[at]
    at += 1
    if tag == _INT:
        zigzag, at = _read_varint(frame, at)
        return (~(zigzag >> 1) if zigzag & 1 else zigzag >> 1), at
    if tag == _STR or tag == _BYTES or tag == _BIGINT:
        size, at = _read_varint(frame, at)
        raw = frame[at : at + size]
        if tag == _STR:
            return raw.decode(), at + size
        if tag == _BYTES:
            return raw, at + size
        return int.from_bytes(raw, "little", signed=True), at + size
    if tag == _PACKED:
        code = chr(frame[at])
        if code not in _ITEMSIZE:
            raise WireError(f"unknown packed typecode {code!r}")
        count, at = _read_varint(frame, at + 1)
        size = count * _ITEMSIZE[code]
        packed = array(code)
        packed.frombytes(frame[at : at + size])  # ValueError on a partial item
        if _SWAP:
            packed.byteswap()
        return packed.tolist(), at + size
    if tag == _RUN:
        count, at = _read_varint(frame, at)
        if count > MAX_RUN:
            raise WireError(f"run of {count} items exceeds {MAX_RUN}")
        if frame[at] not in (_INT, _BIGINT, _FLOAT):
            raise WireError(f"run of a non-number at offset {at}")
        item, at = _read(frame, at, depth)
        return [item] * count, at
    if tag == _FLOAT:
        return _FLOAT64.unpack_from(frame, at)[0], at + 8
    if tag == _NONE:
        return None, at
    if tag == _FALSE or tag == _TRUE:
        return tag == _TRUE, at
    if tag != _LIST and tag != _DICT:
        raise WireError(f"unknown tag {tag} at offset {at - 1}")
    if depth >= MAX_DEPTH:
        raise WireError(f"containers nested deeper than {MAX_DEPTH}")
    count, at = _read_varint(frame, at)
    if tag == _LIST:
        items = []
        for _ in range(count):
            item, at = _read(frame, at, depth + 1)
            items.append(item)
        return items, at
    result = {}
    for _ in range(count):
        size, at = _read_varint(frame, at)
        key = frame[at : at + size].decode()
        result[key], at = _read(frame, at + size, depth + 1)
    return result, at


def decode(frame: bytes) -> Any:
    """Inverse of :func:`encode`; :class:`WireError` on anything else."""
    if not isinstance(frame, bytes):
        raise WireError(f"a frame is bytes, got {type(frame).__name__}")
    try:
        value, at = _read(frame, 0, 0)
    except (IndexError, ValueError, struct.error) as exc:
        raise WireError(f"truncated or malformed frame: {exc!r}") from exc
    if at != len(frame):
        raise WireError(
            f"frame of {len(frame)} bytes ends at offset {at} (truncated, or "
            f"trailing bytes)"
        )
    return value
