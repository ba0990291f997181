"""Compact binary wire format for log records.

The paper reports 36-byte lock acquisition messages; reproducing the
communication-volume economics requires an honest wire encoding rather
than pickled Python objects.  The format is self-describing and
deterministic:

* unsigned LEB128 varints for lengths and small integers;
* zigzag varints for signed integers;
* little-endian IEEE 754 doubles, and UTF-8 text behind a length;
* one tag byte per value for the tagged-value encoding used in native
  result records: ``0x00`` None, ``0x01`` int, ``0x02`` float,
  ``0x03`` str, ``0x04`` one generic list of tagged values (nested to
  any depth).  A bool crosses as an int.

The writer appends into one ``bytearray`` and the reader indexes its
input directly, because the checkpoint codec runs these per heap value.
:meth:`Reader.short_ints` decodes a run of small tagged ints, an int
array's body, at once.
``tests/replication/wire_spec.py`` writes the format down independently
and the wire tests hold both directions to it.
"""

from __future__ import annotations

import re
import struct
from typing import Any, List, Optional, Tuple

from repro.errors import ReplicationError

_F64 = struct.Struct("<d")

#: A run of ints as both value codecs tag them (0x01, then a zigzag
#: varint), each varint of one or two bytes; and one of them, its
#: varint captured.
_SHORT_INTS = re.compile(rb"(?:\x01(?:[\x00-\x7f]|[\x80-\xff][\x00-\x7f]))*")
_SHORT_INT = re.compile(rb"\x01([\x00-\x7f]|[\x80-\xff][\x00-\x7f])")


class _ShortSvarints(dict):
    """Memo: a one- or two-byte zigzag varint -> its value, as
    :meth:`Reader.svarint` reads it.  Its keys are what ``_SHORT_INT``
    captures, so it never holds more than 128 + 128 * 128 entries."""

    def __missing__(self, varint: bytes) -> int:
        raw = varint[0] & 0x7F
        if len(varint) == 2:
            raw |= varint[1] << 7
        value = self[varint] = (raw >> 1) ^ -(raw & 1)
        return value


_SHORT_SVARINTS = _ShortSvarints()


class Writer:
    """Append-only byte sink: one ``bytearray`` for the whole record."""

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def uvarint(self, value: int) -> "Writer":
        if value < 0:
            raise ReplicationError(f"uvarint of negative {value}")
        buf = self._buf
        while value > 0x7F:
            buf.append((value & 0x7F) | 0x80)
            value >>= 7
        buf.append(value)
        return self

    def svarint(self, value: int) -> "Writer":
        return self.uvarint((value << 1) ^ (value >> 63) if value >= 0
                            else ((-value) << 1) - 1)

    def f64(self, value: float) -> "Writer":
        self._buf += _F64.pack(value)
        return self

    def text(self, value: str) -> "Writer":
        data = value.encode("utf-8")
        self.uvarint(len(data))
        self._buf += data
        return self

    def raw(self, data: bytes) -> "Writer":
        self._buf += data
        return self

    @property
    def pos(self) -> int:
        """Bytes written so far."""
        return len(self._buf)

    def vid(self, vid: Tuple[int, ...]) -> "Writer":
        self.uvarint(len(vid))
        for part in vid:
            self.uvarint(part)
        return self

    def value(self, v: Any) -> "Writer":
        """Tagged runtime value (native results may be any scalar)."""
        if v is None:
            self.raw(b"\x00")
        elif isinstance(v, bool):
            self.raw(b"\x01").svarint(1 if v else 0)
        elif isinstance(v, int):
            self.raw(b"\x01").svarint(v)
        elif isinstance(v, float):
            self.raw(b"\x02").f64(v)
        elif isinstance(v, str):
            self.raw(b"\x03").text(v)
        elif isinstance(v, list):
            self.raw(b"\x04").uvarint(len(v))
            for item in v:
                self.value(item)
        else:
            raise ReplicationError(
                f"value {v!r} cannot cross the wire — references never "
                f"leave a replica"
            )
        return self

    def bytes(self) -> bytes:
        return bytes(self._buf)


class Reader:
    """Sequential byte source."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        pos = self._pos
        end = pos + n
        if end > len(self._data):
            raise ReplicationError("truncated log record")
        self._pos = end
        return self._data[pos:end]

    def uvarint(self) -> int:
        data = self._data
        pos = self._pos
        try:
            byte = data[pos]
            if byte < 0x80:
                self._pos = pos + 1
                return byte
            value = byte & 0x7F
            shift = 7
            while True:
                pos += 1
                byte = data[pos]
                value |= (byte & 0x7F) << shift
                if byte < 0x80:
                    self._pos = pos + 1
                    return value
                shift += 7
                if shift > 63:
                    raise ReplicationError("varint too long")
        except IndexError:
            raise ReplicationError("truncated log record") from None

    def svarint(self) -> int:
        raw = self.uvarint()
        return (raw >> 1) ^ -(raw & 1)

    def short_ints(self, n: int) -> Optional[List[int]]:
        """``n`` tagged ints whose varints are one or two bytes long,
        decoded at once.  ``None``, having consumed nothing, if the next
        ``n`` values are anything else: the caller then reads them one
        at a time, and fails wherever that read fails."""
        data = self._data
        pos = self._pos
        end = _SHORT_INTS.match(data, pos, pos + 3 * n).end()
        varints = _SHORT_INT.findall(data, pos, end)
        if len(varints) != n:
            return None
        self._pos = end
        return list(map(_SHORT_SVARINTS.__getitem__, varints))

    def f64(self) -> float:
        return _F64.unpack(self._take(8))[0]

    def raw(self, n: int) -> bytes:
        return self._take(n)

    def text(self) -> str:
        try:
            return self._take(self.uvarint()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ReplicationError(
                f"malformed UTF-8 text in log record: {exc.reason}"
            ) from exc

    def vid(self) -> Tuple[int, ...]:
        return tuple(self.uvarint() for _ in range(self.uvarint()))

    def value(self) -> Any:
        tag = self._take(1)[0]
        if tag == 0x00:
            return None
        if tag == 0x01:
            return self.svarint()
        if tag == 0x02:
            return self.f64()
        if tag == 0x03:
            return self.text()
        if tag == 0x04:
            return [self.value() for _ in range(self.uvarint())]
        raise ReplicationError(f"unknown value tag {tag:#x}")

    @property
    def pos(self) -> int:
        """Offset of the next unread byte."""
        return self._pos

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._data)
