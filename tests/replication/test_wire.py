"""Wire format: varints, tagged values, round trips."""

import struct

import pytest
from hypothesis import given, strategies as st

from repro.errors import ReplicationError
from repro.replication.wire import Reader, Writer

from tests.replication.wire_spec import (
    spec_leb128, spec_text, spec_value, spec_zigzag,
)


def _round(write_fn, read_fn):
    w = Writer()
    write_fn(w)
    r = Reader(w.bytes())
    value = read_fn(r)
    assert r.exhausted
    return value


def test_uvarint_small():
    assert _round(lambda w: w.uvarint(0), lambda r: r.uvarint()) == 0
    assert _round(lambda w: w.uvarint(127), lambda r: r.uvarint()) == 127
    assert _round(lambda w: w.uvarint(128), lambda r: r.uvarint()) == 128


def test_uvarint_rejects_negative():
    with pytest.raises(ReplicationError):
        Writer().uvarint(-1)


def test_svarint_signs():
    for v in (0, 1, -1, 12345, -12345, 2**31 - 1, -(2**31)):
        assert _round(lambda w: w.svarint(v), lambda r: r.svarint()) == v


def test_text_unicode():
    s = "héllo wörld ✓"
    assert _round(lambda w: w.text(s), lambda r: r.text()) == s


def test_vid_round_trip():
    vid = (0, 3, 17)
    assert _round(lambda w: w.vid(vid), lambda r: r.vid()) == vid
    assert _round(lambda w: w.vid(()), lambda r: r.vid()) == ()


def test_tagged_values():
    for v in (None, 0, -5, 3.25, "text", [1, 2, 3], [1.5, "x", None],
              [[1], [2, 3]]):
        assert _round(lambda w: w.value(v), lambda r: r.value()) == v


def test_bool_values_become_ints():
    assert _round(lambda w: w.value(True), lambda r: r.value()) == 1


def test_references_refuse_to_cross_the_wire():
    from repro.runtime.values import JObject
    with pytest.raises(ReplicationError, match="never"):
        Writer().value(JObject("X", {}, 1))


def test_truncated_record_detected():
    w = Writer()
    w.text("hello")
    data = w.bytes()[:-2]
    with pytest.raises(ReplicationError, match="truncated"):
        Reader(data).text()


def test_unknown_value_tag():
    with pytest.raises(ReplicationError, match="tag"):
        Reader(b"\x7f").value()


def test_lock_record_is_compact():
    """Sanity against the paper's 36-byte records: a typical lock
    acquisition record should be well under 36 bytes on our wire."""
    from repro.replication.records import LockAcqRecord, encode
    data = encode(LockAcqRecord((0, 1), 1000, 12, 50000))
    assert len(data) <= 36


@given(st.lists(st.one_of(
    st.none(),
    st.integers(-2**60, 2**60),
    st.floats(allow_nan=False),
    st.text(max_size=40),
), max_size=10))
def test_value_list_round_trip_property(values):
    assert _round(lambda w: w.value(values), lambda r: r.value()) == values


@given(st.integers(0, 2**63 - 1))
def test_uvarint_round_trip_property(v):
    assert _round(lambda w: w.uvarint(v), lambda r: r.uvarint()) == v


# ----------------------------------------------------------------------
# The format against the spec in wire_spec.py, not read off the codec
# ----------------------------------------------------------------------
_BIG = st.integers(2**63 - 2, 2**64 + 2)
_INT64 = st.integers(-2**63, 2**63 - 1)


def _tagged(ints, floats):
    scalars = st.one_of(st.none(), st.booleans(), ints, floats, st.text())
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=4),
                        max_leaves=12)


@given(st.one_of(st.integers(0, 2**80), _BIG))
def test_uvarint_matches_spec(v):
    assert Writer().uvarint(v).bytes() == spec_leb128(v)


@given(st.one_of(st.integers(-2**80, 2**80), _BIG))
def test_svarint_matches_spec(v):
    assert Writer().svarint(v).bytes() == spec_leb128(spec_zigzag(v))


def test_svarint_keeps_the_high_term_from_2_pow_63():
    # Without ``^ (v >> 63)`` the zigzag of 2**63 would be 2**64.
    assert Writer().svarint(2**63).bytes() == spec_leb128(2**64 + 1)


@given(st.floats(allow_nan=True, allow_infinity=True))
def test_f64_matches_spec(v):
    assert Writer().f64(v).bytes() == struct.pack("<d", v)


@given(st.text())
def test_text_matches_spec(s):
    assert Writer().text(s).bytes() == spec_text(s)


@given(st.lists(st.integers(0, 2**40), max_size=6))
def test_vid_matches_spec(parts):
    expected = spec_leb128(len(parts)) + b"".join(map(spec_leb128, parts))
    assert Writer().vid(tuple(parts)).bytes() == expected


@given(_tagged(st.one_of(st.integers(), _BIG), st.floats()))
def test_tagged_value_matches_spec(v):
    assert Writer().value(v).bytes() == spec_value(v)


def _ints_of(v):
    if isinstance(v, list):
        return [_ints_of(item) for item in v]
    return int(v) if isinstance(v, bool) else v


@given(_tagged(_INT64, st.floats(allow_nan=False)))
def test_reader_decodes_spec_bytes(v):
    r = Reader(spec_value(v))
    assert r.value() == _ints_of(v)
    assert r.exhausted


@given(st.lists(st.one_of(st.integers(0, 2**70 - 1), _INT64), max_size=8))
def test_reader_decodes_spec_varints(values):
    data = b"".join(spec_leb128(v) if v >= 0 else
                    spec_leb128(spec_zigzag(v)) for v in values)
    r = Reader(data)
    assert [r.uvarint() if v >= 0 else r.svarint() for v in values] == values
    assert r.exhausted


def test_reader_accepts_a_ten_byte_varint():
    assert Reader(b"\xff" * 9 + b"\x7f").uvarint() == 2**70 - 1


@pytest.mark.parametrize("data", [b"", b"\x80", b"\x80\x80"],
                         ids=["empty", "one-continuation", "two-continuations"])
def test_truncated_varint(data):
    with pytest.raises(ReplicationError, match="truncated log record"):
        Reader(data).uvarint()


def test_ten_continuation_bytes_are_too_long():
    with pytest.raises(ReplicationError, match="varint too long"):
        Reader(b"\x80" * 10).uvarint()


@pytest.mark.parametrize("read", [
    lambda r: r.value(),
    lambda r: r.f64(),
    lambda r: r.raw(1),
    lambda r: r.svarint(),
], ids=["value", "f64", "raw", "svarint"])
def test_truncated_reads_on_empty_input(read):
    with pytest.raises(ReplicationError, match="truncated log record"):
        read(Reader(b""))


def test_truncated_fixed_width_reads():
    with pytest.raises(ReplicationError, match="truncated log record"):
        Reader(b"\x00" * 7).f64()
    with pytest.raises(ReplicationError, match="truncated log record"):
        Reader(b"ab").raw(3)
    with pytest.raises(ReplicationError, match="truncated log record"):
        Reader(b"\x05ab").text()


def test_junk_utf8_text_is_a_replication_error():
    with pytest.raises(ReplicationError, match="UTF-8"):
        Reader(b"\x02\xff\xfe").text()


def test_bit_flipped_text_field_fails_decode_record_typed():
    from repro.replication.records import (
        OutputIntentRecord, decode_record, encode,
    )
    data = bytearray(encode(OutputIntentRecord((0, 1), 3, "Console.print")))
    data[data.index(b"Console")] ^= 0x80     # 'C' -> 0xc3, a lone lead byte
    with pytest.raises(ReplicationError, match="UTF-8"):
        decode_record(bytes(data))
