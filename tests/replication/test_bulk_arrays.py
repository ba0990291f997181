"""Arrays through the checkpoint body codec and the state digest.

Heap arrays carry nearly every value a checkpoint holds, so the body
writer, the body reader and the digest's array token are the hottest
code on the checkpoint path.  Whatever shortcut they take for an array
of plain ints, every array must still encode to the bytes of the spec
in ``wire_spec.py``, decode to the same values of the same types, fail
on a torn body exactly as a per-value read does, and tokenize to the
per-value join.  The arrays below mix ints at every varint width edge
with the values an int shortcut must not take: bools, ``None``,
floats, strings and references.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from repro.errors import ReplicationError
from repro.replication.checkpoint import _read_object_body, _write_object_body
from repro.replication.wire import Reader, Writer
from repro.runtime.digest import _combine, _h, compute_state_digest
from repro.runtime.values import JArray, JObject

from tests.replication.wire_spec import (
    spec_array_body, spec_leb128, spec_token,
)

_REFS = [JObject("Kv", {}, 7), JArray("int", [], 300)]
_BY_OID = {ref.oid: ref for ref in _REFS}

#: Ints on both sides of each varint width: one zigzag byte holds
#: -64..63, two hold -8192..8191; then 32-bit and 64-bit edges.
_EDGES = sorted({sign * (e + d)
                 for e in (0, 63, 64, 8191, 8192, 2**31, 2**63)
                 for d in (-1, 0, 1) for sign in (1, -1)})
_INT64 = st.one_of(
    st.sampled_from([e for e in _EDGES if -2**63 <= e < 2**63]),
    st.integers(-2**31, 2**31 - 1),
    st.integers(-8192, 8191),
)
#: From 2**63 up the zigzag's ``^ (v >> 63)`` term bites, so these are
#: written as the format always has, but do not read back as themselves.
_INTS = st.one_of(_INT64, st.sampled_from(_EDGES),
                  st.integers(2**63, 2**64 + 2))
_OTHERS = st.one_of(
    st.booleans(), st.none(), st.floats(allow_nan=False),
    st.text(max_size=6), st.sampled_from(_REFS),
)


def _arrays(ints):
    return st.one_of(
        st.lists(ints, max_size=40),
        st.lists(st.one_of(ints, _OTHERS), max_size=40),
        # A run of plain ints with one value of another type somewhere.
        st.tuples(st.lists(ints, max_size=30), _OTHERS,
                  st.lists(ints, max_size=30)).map(
            lambda t: t[0] + [t[1]] + t[2]),
    )


_ARRAYS = _arrays(_INTS)
_ARRAYS64 = _arrays(_INT64)


def _body(values) -> bytes:
    w = Writer()
    _write_object_body(w, JArray("int", list(values), 1), None)
    return w.bytes()


def _resolve(oid):
    try:
        return _BY_OID[oid]
    except KeyError:
        raise ReplicationError(
            f"checkpoint references unknown oid {oid}") from None


def _read(data: bytes):
    r = Reader(data)
    shell = JArray("int", [], 1)
    monitors = []
    _read_object_body(r, shell, _resolve, monitors)
    assert r.exhausted and monitors == []
    return shell.data


# ----------------------------------------------------------------------
# Writer and reader against the spec
# ----------------------------------------------------------------------
@given(_ARRAYS)
def test_array_body_matches_spec(values):
    assert _body(values) == spec_array_body(values)


@given(_ARRAYS64)
def test_array_body_round_trips_values_and_types(values):
    decoded = _read(spec_array_body(values))
    assert decoded == values
    # ``True == 1``: equality alone would let a bool come back an int.
    assert [type(v) for v in decoded] == [type(v) for v in values]
    assert list(map(repr, decoded)) == list(map(repr, values))


@given(st.lists(_INTS, min_size=1, max_size=24))
def test_every_proper_prefix_of_an_int_array_body_is_truncated(values):
    body = spec_array_body(values)
    for cut in range(len(body)):
        with pytest.raises(ReplicationError,
                           match="^truncated log record$"):
            _read(body[:cut])


def test_a_full_size_int_array_round_trips():
    values = [(i * 7919) % 20011 - 10005 for i in range(512)]
    assert _body(values) == spec_array_body(values)
    assert _read(spec_array_body(values)) == values


def test_bool_and_int_elements_keep_their_tags():
    assert _body([True, 1, False, 0]) == (
        b"\x04" + b"\x04\x01" + b"\x01\x02" + b"\x04\x00" + b"\x01\x00"
        + b"\x00")
    decoded = _read(_body([1] * 8 + [True] + [0] * 8))
    assert [type(v) for v in decoded] == [int] * 8 + [bool] + [int] * 8


def test_an_int_subclass_is_written_as_an_int():
    class Port(int):
        pass
    assert _body([Port(5), 5]) == spec_array_body([5, 5])


def test_an_over_long_short_varint_decodes_as_uvarint_reads_it():
    # ``80 00`` is an over-long zero; ``Reader.uvarint`` accepts it.
    assert _read(b"\x03" + b"\x01\x80\x00" + b"\x01\x02" + b"\x01\xff\x01"
                 + b"\x00") == [0, 1, -128]


@pytest.mark.parametrize("body, message", [
    (b"\x02\x01\x02\x01" + b"\x80" * 10, "^varint too long$"),
    (b"\x02\x01\x02\x09\x00\x00", "^unknown checkpoint value tag 9$"),
    (b"\x02\x01\x02\x08\x63\x00", "^checkpoint references unknown oid 99$"),
    (b"\x02\x01\x02\x01\x80", "^truncated log record$"),
    (b"\x02\x01\x02\x01\x80\x80\x80", "^truncated log record$"),
], ids=["varint-too-long", "unknown-tag", "unknown-oid", "torn-2-byte",
        "torn-4-byte"])
def test_a_bad_element_fails_as_a_per_value_read(body, message):
    with pytest.raises(ReplicationError, match=message):
        _read(body)


# ----------------------------------------------------------------------
# The digest's array token
# ----------------------------------------------------------------------
def _machine(array):
    """The least a state walk reads: one static naming ``array``."""
    return SimpleNamespace(
        statics={("Main", "a"): array},
        scheduler=SimpleNamespace(threads=[]),
        uncaught=[], _class_locks={})


def _spec_heap(array) -> int:
    vids = {id(array): 0}
    order = []

    def vid_of(obj):
        if id(obj) not in vids:
            vids[id(obj)] = len(vids)
            order.append(obj)
        return vids[id(obj)]

    body = ",".join(spec_token(v, vid_of) for v in array.data)
    items = [_h("static:Main.a=@0"),
             _h(f"array:@0:{array.elem_type}:[{body}]")]
    for obj in order:
        if isinstance(obj, JArray):
            items.append(_h(f"array:@{vids[id(obj)]}:{obj.elem_type}:[]"))
        else:
            items.append(_h(f"object:@{vids[id(obj)]}:{obj.class_name}:{{}}"))
    return _combine(items)


@given(_ARRAYS)
def test_array_token_is_the_per_value_join(values):
    array = JArray("int", values, 1)
    heap = compute_state_digest(_machine(array), include_env=False)
    assert heap.as_dict()["heap"] == _spec_heap(array)


def test_a_full_size_int_array_digests_as_the_per_value_join():
    array = JArray("int", [(i * 7919) % 20011 - 10005 for i in range(512)],
                   1)
    heap = compute_state_digest(_machine(array), include_env=False)
    assert heap.as_dict()["heap"] == _spec_heap(array)


@pytest.mark.parametrize("a, b", [
    ([True], [1]), ([False], [0]), ([1] * 9 + [True], [1] * 10),
    ([1.0], [1]), (["1"], [1]), ([None], [0]),
])
def test_arrays_that_differ_only_in_element_type_digest_apart(a, b):
    def heap(values):
        digest = compute_state_digest(_machine(JArray("int", values, 1)),
                                      include_env=False)
        return digest.as_dict()["heap"]
    assert heap(a) != heap(b)


def test_an_empty_array_has_an_empty_body_and_token():
    array = JArray("int", [], 1)
    heap = compute_state_digest(_machine(array), include_env=False)
    assert heap.as_dict()["heap"] == _combine(
        [_h("static:Main.a=@0"), _h("array:@0:int:[]")])
    assert spec_leb128(0) + b"\x00" == _body([])
