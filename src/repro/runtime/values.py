"""Runtime value model.

The operand stack and local variables hold exactly these Python values:

* ``int`` — Java ``int``/``boolean`` (booleans are 0/1), kept in 32-bit
  two's-complement range by the arithmetic helpers below;
* ``float`` — Java ``double`` (we collapse float/double, as the paper's
  benchmarks never depend on the distinction);
* ``str`` — Java ``String``, modelled as an immutable *value* rather
  than a heap object (interning makes this observationally close);
* ``None`` — Java ``null``;
* :class:`JObject` / :class:`JArray` — references into the heap.

Keeping values this small makes interpreter dispatch cheap and state
digests canonical.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

_INT_MASK = 0xFFFFFFFF
_INT_SIGN = 0x80000000


def wrap_int(value: int) -> int:
    """Wrap a Python int into Java 32-bit two's-complement range."""
    value &= _INT_MASK
    return value - (_INT_MASK + 1) if value & _INT_SIGN else value


def java_div(a: int, b: int) -> int:
    """Java integer division (truncates toward zero)."""
    q = abs(a) // abs(b)
    return wrap_int(-q if (a < 0) != (b < 0) else q)


def java_rem(a: int, b: int) -> int:
    """Java integer remainder (sign of the dividend)."""
    return wrap_int(a - java_div(a, b) * b)


def java_shr(a: int, s: int) -> int:
    """Arithmetic shift right with Java's shift-count masking."""
    return wrap_int(a >> (s & 31))


def java_ushr(a: int, s: int) -> int:
    """Logical shift right."""
    return wrap_int((a & _INT_MASK) >> (s & 31))


def java_shl(a: int, s: int) -> int:
    return wrap_int(a << (s & 31))


class JObject:
    """A heap-allocated object instance.

    Attributes:
        class_name: name of the object's dynamic class.
        fields: instance field values keyed by name.
        oid: allocation sequence number.  Internal to one JVM — it is
            never shipped between replicas — but because correct replay
            reproduces the primary's allocation order, matching oids
            across replicas is a *consequence* of correct replication,
            which the integration tests exploit via state digests.
    """

    __slots__ = ("class_name", "fields", "oid", "monitor", "gc_mark",
                 "mut_era")

    def __init__(self, class_name: str, fields: Dict[str, Any], oid: int) -> None:
        self.class_name = class_name
        self.fields = fields
        self.oid = oid
        self.monitor = None  # lazily created Monitor
        self.gc_mark = False
        #: Heap era of the last mutation (allocation counts).  Never
        #: digested or shipped — delta checkpoints compare it against
        #: Heap.era to pick dirty objects.
        self.mut_era = 0

    def __repr__(self) -> str:
        return f"<{self.class_name}#{self.oid}>"


class JArray:
    """A heap-allocated array.

    Attributes:
        elem_type: one of ``int``, ``float``, ``str``, ``ref``.
        data: the backing list.
    """

    __slots__ = ("elem_type", "data", "oid", "monitor", "gc_mark",
                 "mut_era")

    def __init__(self, elem_type: str, data: List[Any], oid: int) -> None:
        self.elem_type = elem_type
        self.data = data
        self.oid = oid
        self.monitor = None
        self.gc_mark = False
        self.mut_era = 0

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"<{self.elem_type}[{len(self.data)}]#{self.oid}>"


def is_reference(value: Any) -> bool:
    """Whether a runtime value is a (non-null) heap reference."""
    return isinstance(value, (JObject, JArray))


def type_token_of(value: Any) -> str:
    """The field-type token a runtime value conforms to."""
    if value is None or is_reference(value):
        return "ref"
    if isinstance(value, bool):
        return "int"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "str"
    raise TypeError(f"not a runtime value: {value!r}")


def conforms(value: Any, type_token: str) -> bool:
    """Dynamic type check used by field stores and array stores."""
    if type_token == "ref":
        return value is None or is_reference(value)
    if type_token == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if type_token == "float":
        return isinstance(value, float)
    if type_token == "str":
        return isinstance(value, str)
    return False


def describe(value: Any) -> str:
    """Human-readable one-line description for error messages."""
    if value is None:
        return "null"
    if isinstance(value, (JObject, JArray)):
        return repr(value)
    return f"{type_token_of(value)} {value!r}"


#: The element types of an array the bulk codec and digest paths take.
#: ``type(v)``, not ``isinstance``: a bool is an int to ``isinstance``.
INT_ONLY = frozenset((int,))


class IntMemo(dict):
    """``fn(v)`` for plain ints ``v``, remembered for ``lo <= v < hi``
    only, so the memo never grows past ``hi - lo`` entries.  Keyed by
    value, and ``True == 1`` hash alike: pass it plain ints only."""

    __slots__ = ("_fn", "_lo", "_hi")

    def __init__(self, fn: Callable[[int], Any], lo: int, hi: int) -> None:
        super().__init__()
        self._fn, self._lo, self._hi = fn, lo, hi

    def __missing__(self, v: int) -> Any:
        out = self._fn(v)
        if self._lo <= v < self._hi:
            self[v] = out
        return out
