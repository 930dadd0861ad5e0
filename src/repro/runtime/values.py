"""Runtime values: primitives and opaque objects.

Primitives map to Python ints/floats/bools/one-char strings. Opaque C++
objects (``String``, ``BorderInfo``, ...) become :class:`ObjectValue` —
a named bag of primitive members with value semantics (copied on
assignment and parameter passing, like the by-value objects in the
paper's language).
"""

from __future__ import annotations

from repro.errors import RuntimeFailure
from repro.ir.program import Program
from repro.ir.types import default_primitive, is_primitive


class ObjectValue:
    """A by-value opaque object (e.g. ``String`` with a ``Length``)."""

    __slots__ = ("class_name", "members")

    def __init__(self, class_name: str, members: dict):
        self.class_name = class_name
        self.members = members

    def copy(self) -> "ObjectValue":
        return ObjectValue(self.class_name, dict(self.members))

    def get(self, member: str):
        if member not in self.members:
            raise RuntimeFailure(
                f"object {self.class_name} has no member {member!r}"
            )
        return self.members[member]

    def set(self, member: str, value) -> None:
        if member not in self.members:
            raise RuntimeFailure(
                f"object {self.class_name} has no member {member!r}"
            )
        self.members[member] = value

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ObjectValue)
            and self.class_name == other.class_name
            and self.members == other.members
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.members.items())
        return f"{self.class_name}({inner})"


def default_value(program: Program, type_name: str):
    """The zero value a default-constructed field holds."""
    if is_primitive(type_name):
        return default_primitive(type_name)
    opaque = program.opaque_classes.get(type_name)
    if opaque is not None:
        return ObjectValue(
            type_name,
            {
                name: default_primitive(field.type_name)
                for name, field in opaque.fields.items()
            },
        )
    raise RuntimeFailure(f"no default value for type {type_name!r}")


def copy_value(value):
    """Value-semantics copy used for parameter passing and assignment."""
    if isinstance(value, ObjectValue):
        return value.copy()
    return value


def initial_globals(program: Program, overrides=None) -> dict:
    """Every global at its zero value, then *overrides* on top."""
    values = {
        var.name: default_value(program, var.type_name)
        for var in program.globals.values()
    }
    values.update(overrides or {})
    return values


def _cxx_div(lhs, rhs):
    """C++ division: integer division truncates toward zero."""
    if rhs == 0:
        raise RuntimeFailure("division by zero")
    if isinstance(lhs, bool) or isinstance(rhs, bool):
        lhs, rhs = int(lhs), int(rhs)
    if isinstance(lhs, int) and isinstance(rhs, int):
        quotient = abs(lhs) // abs(rhs)
        return quotient if (lhs < 0) == (rhs < 0) else -quotient
    return lhs / rhs


def _cxx_mod(lhs, rhs):
    """C++ %: result has the sign of the dividend."""
    if rhs == 0:
        raise RuntimeFailure("modulo by zero")
    return lhs - rhs * _cxx_div(lhs, rhs)
