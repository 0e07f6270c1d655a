"""MiniC's type system.

Everything is a 32-bit scalar at the machine level; types exist to give
pointer arithmetic its scaling, struct fields their offsets, and the
compiler enough information to size storage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import CompileError

WORD_SIZE = 4


class Type:
    """Base class for MiniC types."""

    @property
    def size(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class IntType(Type):
    @property
    def size(self) -> int:
        return WORD_SIZE

    def __str__(self) -> str:
        return "int"


INT = IntType()


@dataclass(frozen=True)
class PointerType(Type):
    pointee: Type

    @property
    def size(self) -> int:
        return WORD_SIZE

    def __str__(self) -> str:
        return "%s*" % self.pointee


@dataclass(frozen=True)
class ArrayType(Type):
    element: Type
    count: int

    @property
    def size(self) -> int:
        return self.element.size * self.count

    def __str__(self) -> str:
        return "%s[%d]" % (self.element, self.count)


@dataclass
class StructType(Type):
    """A named struct; fields are (name, type) in declaration order."""

    tag: str
    fields: List[Tuple[str, Type]] = field(default_factory=list)

    @property
    def size(self) -> int:
        return sum(ftype.size for _, ftype in self.fields)

    def field_offset(self, name: str) -> int:
        offset = 0
        for fname, ftype in self.fields:
            if fname == name:
                return offset
            offset += ftype.size
        raise CompileError("struct %s has no field %r" % (self.tag, name))

    def field_type(self, name: str) -> Type:
        for fname, ftype in self.fields:
            if fname == name:
                return ftype
        raise CompileError("struct %s has no field %r" % (self.tag, name))

    def __str__(self) -> str:
        return "struct %s" % self.tag

    # StructType is mutable (fields list); identity-based hashing is what
    # we want: one struct tag, one type object per compilation unit.
    def __hash__(self) -> int:
        return id(self)

    def __eq__(self, other: object) -> bool:
        return self is other


class TypeTable:
    """Per-compilation-unit registry of struct tags."""

    def __init__(self) -> None:
        self._structs: Dict[str, StructType] = {}

    def declare_struct(self, tag: str) -> StructType:
        """Get-or-create a (possibly incomplete) struct type."""
        if tag not in self._structs:
            self._structs[tag] = StructType(tag=tag)
        return self._structs[tag]

    def define_struct(self, tag: str, fields: List[Tuple[str, Type]]) -> StructType:
        struct = self.declare_struct(tag)
        if struct.fields:
            raise CompileError("redefinition of struct %s" % tag)
        struct.fields = list(fields)
        return struct

    def struct(self, tag: str) -> StructType:
        if tag not in self._structs:
            raise CompileError("unknown struct %s" % tag)
        return self._structs[tag]


def element_type(of: Type) -> Optional[Type]:
    """The element type a pointer/array steps over, or None."""
    if isinstance(of, PointerType):
        return of.pointee
    if isinstance(of, ArrayType):
        return of.element
    return None
