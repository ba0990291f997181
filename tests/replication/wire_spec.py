"""The replication wire format, written down independently of the codec.

Tests compare the codec's bytes with these functions, so a rewrite of
``repro.replication.wire`` or of the checkpoint value codec that changes
one byte fails against a spec it could not have edited along with
itself."""

import struct


def spec_leb128(v):
    """Unsigned LEB128: 7-bit groups, least significant first, the high
    bit set on every byte but the last."""
    n = max(1, -(-v.bit_length() // 7))
    return bytes(((v >> 7 * i) & 0x7F) | (0x80 if i < n - 1 else 0)
                 for i in range(n))


def spec_zigzag(v):
    """Zigzag as the format has always written it.  A non-negative value
    keeps the ``^ (v >> 63)`` term, which only bites from 2**63 up; a
    negative one is ``-2v - 1``."""
    return (v << 1) ^ (v >> 63) if v >= 0 else ~(v << 1)


def spec_text(s):
    data = s.encode("utf-8")
    return spec_leb128(len(data)) + data


def spec_value(v):
    """``Writer.value``: one tag byte, then the payload.  Bools cross as
    ints; tag 0x04 is one generic nested list."""
    if v is None:
        return b"\x00"
    if isinstance(v, (bool, int)):
        return b"\x01" + spec_leb128(spec_zigzag(int(v)))
    if isinstance(v, float):
        return b"\x02" + struct.pack("<d", v)
    if isinstance(v, str):
        return b"\x03" + spec_text(v)
    return (b"\x04" + spec_leb128(len(v))
            + b"".join(spec_value(item) for item in v))


def spec_checkpoint_value(v):
    """The checkpoint value codec: a varint tag, then the payload.  Bools
    keep their own tag (4), references cross as oids (8)."""
    if v is None:
        return spec_leb128(0)
    if isinstance(v, bool):
        return spec_leb128(4) + spec_leb128(int(v))
    if isinstance(v, int):
        return spec_leb128(1) + spec_leb128(spec_zigzag(v))
    if isinstance(v, float):
        return spec_leb128(2) + struct.pack("<d", v)
    if isinstance(v, str):
        return spec_leb128(3) + spec_text(v)
    if isinstance(v, bytes):
        return spec_leb128(5) + spec_leb128(len(v)) + v
    if isinstance(v, (list, tuple)):
        return (spec_leb128(6) + spec_leb128(len(v))
                + b"".join(spec_checkpoint_value(item) for item in v))
    if isinstance(v, dict):
        return (spec_leb128(7) + spec_leb128(len(v))
                + b"".join(spec_checkpoint_value(key)
                           + spec_checkpoint_value(item)
                           for key, item in v.items()))
    return spec_leb128(8) + spec_leb128(v.oid)


def spec_array_body(values):
    """One array's body in a checkpoint payload: the element count, each
    element through the checkpoint value codec, then a zero monitor flag
    (no monitor block)."""
    return (spec_leb128(len(values))
            + b"".join(spec_checkpoint_value(v) for v in values) + b"\x00")


def spec_token(v, vid_of):
    """The state digest's token for one value.  A plain int is
    ``i<decimal>``, and so is a bool (``iTrue``), which is why the digest
    tells ``[True]`` from ``[1]``; references are named by visit id."""
    if v is None:
        return "null"
    if isinstance(v, (bool, int)):
        return f"i{v}"
    if isinstance(v, float):
        return f"f{v!r}"
    if isinstance(v, str):
        return f"s{v!r}"
    return f"@{vid_of(v)}"
