"""Class, method, and field model.

Instances of these classes are immutable *templates*, analogous to
loaded classfiles.  All mutable runtime state — static field values,
monitors, initialization flags — lives in the JVM instance
(:mod:`repro.runtime`), so the same program can be loaded once and run
by several JVMs (the unreplicated baseline, the primary, and the
backup) without sharing state.  That separation is what makes the
"identical initial state" requirement of the state-machine approach
trivially auditable.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ClassFormatError, VerifyError
from repro.bytecode.instructions import Code
from repro.bytecode.verifier import verify

#: Field/variable type tokens.  ``bool`` values are ints 0/1 at run time.
FIELD_TYPES = ("int", "float", "str", "ref")

#: Name of the implicit root class.
OBJECT_CLASS = "Object"

#: Name of the constructor method (mirrors the JVM's <init>).
CTOR_NAME = "<init>"

#: Name of the class initializer (mirrors the JVM's <clinit>).
CLINIT_NAME = "<clinit>"


def default_value(type_token: str):
    """The JVM default value for a field of the given type."""
    if type_token == "int":
        return 0
    if type_token == "float":
        return 0.0
    if type_token == "str":
        return ""
    if type_token == "ref":
        return None
    raise ClassFormatError(f"unknown field type {type_token!r}")


@dataclass(frozen=True)
class JField:
    """A declared field."""

    name: str
    type: str
    is_static: bool = False

    def __post_init__(self) -> None:
        if self.type not in FIELD_TYPES:
            raise ClassFormatError(
                f"field {self.name!r} has unknown type {self.type!r}"
            )


class JMethod:
    """A declared method (bytecode body or native stub).

    Attributes:
        name: simple method name.
        nargs: declared parameter count, excluding the receiver.
        returns: whether the method pushes a value on return.
        is_static / is_native / is_synchronized: flags per the JVM spec.
        code: the verified body; ``None`` exactly when ``is_native``.
        max_stack: operand-stack bound computed by the verifier.
        declaring_class: back-reference filled in by :class:`JClass`,
            held weakly (the class owns its methods).
    """

    def __init__(
        self,
        name: str,
        nargs: int,
        returns: bool,
        code: Optional[Code] = None,
        *,
        is_static: bool = False,
        is_native: bool = False,
        is_synchronized: bool = False,
    ) -> None:
        if nargs < 0:
            raise ClassFormatError(f"method {name!r} has negative arity")
        if is_native and code is not None:
            raise ClassFormatError(f"native method {name!r} must not carry code")
        if not is_native and code is None:
            raise ClassFormatError(f"method {name!r} has no body")
        self.name = name
        self.nargs = nargs
        self.returns = returns
        self.code = code
        self.is_static = is_static
        self.is_native = is_native
        self.is_synchronized = is_synchronized
        self._declaring_class = None
        if code is not None:
            try:
                self.max_stack = verify(code, is_static=is_static, nargs=nargs)
            except VerifyError as err:
                raise VerifyError(f"method {name!r}: {err}") from None
        else:
            self.max_stack = 0

    @property
    def declaring_class(self) -> Optional["JClass"]:
        ref = self._declaring_class
        return ref() if ref is not None else None

    @property
    def qualified_name(self) -> str:
        owner = self.declaring_class.name if self.declaring_class else "?"
        return f"{owner}.{self.name}"

    @property
    def signature(self) -> str:
        """Signature key used by the native registry and the paper's
        hash table of non-deterministic methods (class + name + arity)."""
        return f"{self.qualified_name}/{self.nargs}"

    def __repr__(self) -> str:
        return f"<JMethod {self.qualified_name}/{self.nargs}>"


class JClass:
    """A loaded class template."""

    def __init__(
        self,
        name: str,
        super_name: Optional[str] = OBJECT_CLASS,
        fields: Optional[Dict[str, JField]] = None,
        methods: Optional[Dict[str, JMethod]] = None,
    ) -> None:
        if not name:
            raise ClassFormatError("class must have a name")
        if name == OBJECT_CLASS:
            super_name = None
        elif not super_name:
            super_name = OBJECT_CLASS
        self.name = name
        self.super_name = super_name
        self.fields: Dict[str, JField] = dict(fields or {})
        #: Methods keyed by (name, nargs): overloading by arity only,
        #: which keeps method references resolvable without full
        #: descriptor matching.
        self.methods: Dict[tuple, JMethod] = {}
        #: Filled in by the registry once the hierarchy is linked.
        self.superclass: Optional["JClass"] = None
        for method in (methods or {}).values():
            self.add_method(method)

    def add_field(self, f: JField) -> None:
        if f.name in self.fields:
            raise ClassFormatError(f"duplicate field {self.name}.{f.name}")
        self.fields[f.name] = f

    def add_method(self, m: JMethod) -> None:
        key = (m.name, m.nargs)
        if key in self.methods:
            raise ClassFormatError(
                f"duplicate method {self.name}.{m.name}/{m.nargs}"
            )
        m._declaring_class = weakref.ref(self)
        self.methods[key] = m

    def method_names(self):
        return sorted({name for name, _ in self.methods})

    def __repr__(self) -> str:
        return f"<JClass {self.name}>"
