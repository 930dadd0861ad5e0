"""Programmatic construction helpers shared by the frontend and tests.

The ergonomic way to write Grafter programs is the textual frontend
(:mod:`repro.frontend`), which mirrors the paper's C++ surface syntax. This
module holds the semantic layer underneath it: member-chain resolution
(turning ``this->Content.Width`` into a resolved :class:`AccessPath`) and a
small :class:`ProgramBuilder` for assembling programs directly from Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.errors import ValidationError
from repro.ir.access import AccessPath, Step
from repro.ir.method import Param, PureFunction, TraversalMethod
from repro.ir.program import EntryCall, Program
from repro.ir.types import TreeType


@dataclass(frozen=True)
class RawStep:
    """An unresolved member access: optional cast applied first, then the
    member name. ``static_cast<T*>(x)->m`` becomes RawStep(name="m",
    pre_cast="T")."""

    name: str
    pre_cast: Optional[str] = None


class ScopeInfo:
    """Types of locals/aliases in scope, needed to resolve local-based paths."""

    def __init__(self):
        self.locals: dict[str, str] = {}   # name -> primitive/opaque type
        self.aliases: dict[str, str] = {}  # name -> tree type

    def copy(self) -> "ScopeInfo":
        clone = ScopeInfo()
        clone.locals = dict(self.locals)
        clone.aliases = dict(self.aliases)
        return clone


def resolve_member_chain(
    program: Program,
    base: str,
    start_type: str,
    raw_steps: Iterable[RawStep],
    start_is_tree: bool,
) -> AccessPath:
    """Resolve a member chain into an :class:`AccessPath`.

    ``base`` is an AccessPath base string (``"this"``, ``"local:x"``,
    ``"global:g"``); ``start_type`` the static type of the base value;
    ``start_is_tree`` whether that type is a tree type (vs opaque class).
    """
    steps: list[Step] = []
    current_type = start_type
    is_tree = start_is_tree
    for raw in raw_steps:
        if raw.pre_cast is not None:
            if not is_tree:
                raise ValidationError(
                    f"cast to {raw.pre_cast} applied to non-tree value"
                )
            if raw.pre_cast not in program.tree_types:
                raise ValidationError(f"cast to unknown tree type {raw.pre_cast!r}")
            if not (
                program.is_subtype(raw.pre_cast, current_type)
                or program.is_subtype(current_type, raw.pre_cast)
            ):
                raise ValidationError(
                    f"cast from {current_type} to unrelated type {raw.pre_cast}"
                )
            current_type = raw.pre_cast
        if is_tree:
            field = program.resolve_field(current_type, raw.name)
        else:
            opaque = program.opaque_classes.get(current_type)
            if opaque is None or raw.name not in opaque.fields:
                raise ValidationError(
                    f"type {current_type} has no member {raw.name!r}"
                )
            field = opaque.fields[raw.name]
        steps.append(Step(field=field, pre_cast=raw.pre_cast))
        if field.is_child:
            current_type = field.type_name
            is_tree = True
        else:
            current_type = field.type_name
            is_tree = False
    return AccessPath(base, tuple(steps))


class ProgramBuilder:
    """Assemble a Program from Python, with two-stage finalization.

    Usage::

        b = ProgramBuilder("demo")
        element = b.tree_class("Element", abstract=True)
        element.add_child("Next", "Element")
        element.add_data("Width", "int")
        b.freeze_types()
        method = b.method("Element", "computeWidth", virtual=True)
        method.body.append(...)
        program = b.build()
    """

    def __init__(self, name: str = "program"):
        self.program = Program(name)
        self._frozen = False

    # -- type-level -------------------------------------------------------

    def tree_class(
        self,
        name: str,
        bases: Iterable[str] = (),
        abstract: bool = False,
    ) -> TreeType:
        tree_type = TreeType(name, bases=list(bases), abstract=abstract)
        return self.program.add_tree_type(tree_type)

    def pure(
        self,
        name: str,
        params: Iterable[tuple[str, str]],
        return_type: str,
        impl: Optional[Callable] = None,
        reads_globals: Iterable[str] = (),
    ) -> PureFunction:
        func = PureFunction(
            name=name,
            params=tuple(Param(n, t) for n, t in params),
            return_type=return_type,
            impl=impl,
            reads_globals=frozenset(reads_globals),
        )
        return self.program.add_pure_function(func)

    def freeze_types(self) -> None:
        self.program.finalize_types()
        self._frozen = True

    # -- method-level -------------------------------------------------------

    def method(
        self,
        owner: str,
        name: str,
        params: Iterable[tuple[str, str]] = (),
        virtual: bool = False,
    ) -> TraversalMethod:
        if not self._frozen:
            raise ValidationError("freeze_types() before adding methods")
        method = TraversalMethod(
            name=name,
            owner=owner,
            params=tuple(Param(n, t) for n, t in params),
            virtual=virtual,
        )
        self.program.tree_types[owner].add_method(method)
        return method

    def entry(self, root_type: str, calls: Iterable[tuple[str, tuple]]) -> None:
        self.program.set_entry(
            root_type,
            [EntryCall(method_name=m, args=tuple(a)) for m, a in calls],
        )

    def build(self) -> Program:
        self.program.finalize()
        return self.program
