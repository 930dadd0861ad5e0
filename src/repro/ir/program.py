"""The whole-program container and name/dispatch resolution.

A :class:`Program` owns the tree-type hierarchy, opaque data classes,
globals, pure functions and the entry sequence (the consecutive traversal
calls on the tree root that seed fusion, e.g. lines 51–52 of the paper's
Fig. 2). ``finalize()`` freezes the hierarchy and computes the resolution
tables used by analysis, fusion and the runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.errors import ValidationError
from repro.ir.exprs import Expr
from repro.ir.method import PureFunction, TraversalMethod
from repro.ir.types import (
    ChildField,
    DataField,
    Field,
    GlobalVar,
    OpaqueClass,
    TreeType,
    is_primitive,
)


@dataclass
class EntryCall:
    """One top-level traversal invocation on the root (paper Fig. 2, main)."""

    method_name: str
    args: tuple[Expr, ...] = ()


class Program:
    """A complete Grafter program."""

    def __init__(self, name: str = "program"):
        self.name = name
        self.tree_types: dict[str, TreeType] = {}
        self.opaque_classes: dict[str, OpaqueClass] = {}
        self.globals: dict[str, GlobalVar] = {}
        self.pure_functions: dict[str, PureFunction] = {}
        self.root_type_name: Optional[str] = None
        self.entry: list[EntryCall] = []
        self._types_ready = False
        self._finalized = False
        # resolution caches, built by finalize_types()/finalize()
        self._mro: dict[str, list[str]] = {}
        self._subtypes: dict[str, set[str]] = {}
        self._fields: dict[str, dict[str, Field]] = {}
        self._method_tables: dict[str, dict[str, TraversalMethod]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_tree_type(self, tree_type: TreeType) -> TreeType:
        self._check_mutable()
        if tree_type.name in self.tree_types or tree_type.name in self.opaque_classes:
            raise ValidationError(f"duplicate type name {tree_type.name!r}")
        self.tree_types[tree_type.name] = tree_type
        return tree_type

    def add_opaque_class(self, cls: OpaqueClass) -> OpaqueClass:
        self._check_mutable()
        if cls.name in self.opaque_classes or cls.name in self.tree_types:
            raise ValidationError(f"duplicate type name {cls.name!r}")
        self.opaque_classes[cls.name] = cls
        return cls

    def add_global(self, name: str, type_name: str) -> GlobalVar:
        self._check_mutable()
        if name in self.globals:
            raise ValidationError(f"duplicate global {name!r}")
        var = GlobalVar(name=name, type_name=type_name)
        self.globals[name] = var
        return var

    def add_pure_function(self, func: PureFunction) -> PureFunction:
        self._check_mutable()
        if func.name in self.pure_functions:
            raise ValidationError(f"duplicate pure function {func.name!r}")
        self.pure_functions[func.name] = func
        return func

    def set_entry(self, root_type_name: str, calls: Iterable[EntryCall]) -> None:
        self.root_type_name = root_type_name
        self.entry = list(calls)

    def _check_mutable(self) -> None:
        if self._finalized:
            raise ValidationError("program is finalized; no further mutation")

    # ------------------------------------------------------------------
    # finalization: hierarchy checks + resolution tables
    #
    # Two stages so that method *bodies* — which need field resolution —
    # can be constructed after the type hierarchy is frozen:
    #   finalize_types()  -> hierarchy, field tables, subtype sets
    #   finalize()        -> method (dispatch) tables; program is immutable
    # ------------------------------------------------------------------

    def finalize_types(self) -> "Program":
        if self._types_ready:
            return self
        for tree_type in self.tree_types.values():
            for base in tree_type.bases:
                if base not in self.tree_types:
                    raise ValidationError(
                        f"{tree_type.name}: unknown base tree type {base!r}"
                    )
        for name in self.tree_types:
            self._mro[name] = self._linearize(name, set())
        for name in self.tree_types:
            self._fields[name] = self._collect_fields(name)
        self._subtypes = {name: {name} for name in self.tree_types}
        for name in self.tree_types:
            for ancestor in self._mro[name]:
                self._subtypes[ancestor].add(name)
        self._check_field_types()
        self._types_ready = True
        return self

    def finalize(self) -> "Program":
        if self._finalized:
            return self
        self.finalize_types()
        for name in self.tree_types:
            self._method_tables[name] = self._collect_methods(name)
        self._finalized = True
        return self

    def refinalize(self) -> "Program":
        """Rebuild dispatch tables after a transformation added methods
        (used by :mod:`repro.fusion.transforms`)."""
        self._finalized = False
        self._method_tables.clear()
        return self.finalize()

    def _linearize(self, name: str, visiting: set[str]) -> list[str]:
        if name in visiting:
            raise ValidationError(f"inheritance cycle through {name!r}")
        if name in self._mro:
            return self._mro[name]
        visiting.add(name)
        order = [name]
        for base in self.tree_types[name].bases:
            for ancestor in self._linearize(base, visiting):
                if ancestor not in order:
                    order.append(ancestor)
        visiting.discard(name)
        self._mro[name] = order
        return order

    def _collect_fields(self, name: str) -> dict[str, Field]:
        fields: dict[str, Field] = {}
        # walk most-derived first; a repeated name is shadowing -> rejected
        for type_name in self._mro[name]:
            tree_type = self.tree_types[type_name]
            for field_obj in tree_type.own_fields():
                existing = fields.get(field_obj.name)
                if existing is not None and existing.owner != field_obj.owner:
                    raise ValidationError(
                        f"field shadowing of {field_obj.name!r} between "
                        f"{existing.owner} and {field_obj.owner} is not supported"
                    )
                fields.setdefault(field_obj.name, field_obj)
        return fields

    def _collect_methods(self, name: str) -> dict[str, TraversalMethod]:
        table: dict[str, TraversalMethod] = {}
        for type_name in self._mro[name]:  # most-derived first
            for method in self.tree_types[type_name].methods.values():
                if method.name not in table:
                    table[method.name] = method
                else:
                    override = table[method.name]
                    if override.signature_key() != method.signature_key():
                        raise ValidationError(
                            f"{override.qualified_name} overrides "
                            f"{method.qualified_name} with a different signature"
                        )
        return table

    def _check_field_types(self) -> None:
        for tree_type in self.tree_types.values():
            for child in tree_type.children.values():
                if child.type_name not in self.tree_types:
                    raise ValidationError(
                        f"{tree_type.name}.{child.name}: child type "
                        f"{child.type_name!r} is not a tree type"
                    )
            for data_field in tree_type.data.values():
                self._check_data_type(tree_type.name, data_field)
        for var in self.globals.values():
            if not is_primitive(var.type_name) and var.type_name not in self.opaque_classes:
                raise ValidationError(
                    f"global {var.name!r} has unknown type {var.type_name!r}"
                )

    def _check_data_type(self, owner: str, data_field: DataField) -> None:
        if is_primitive(data_field.type_name):
            return
        if data_field.type_name in self.opaque_classes:
            return
        if data_field.type_name in self.tree_types:
            raise ValidationError(
                f"{owner}.{data_field.name}: tree type "
                f"{data_field.type_name!r} used as a data field (use _child_)"
            )
        raise ValidationError(
            f"{owner}.{data_field.name}: unknown type {data_field.type_name!r}"
        )

    # ------------------------------------------------------------------
    # resolution queries (valid after finalize)
    # ------------------------------------------------------------------

    def _require_types(self) -> None:
        if not self._types_ready:
            raise ValidationError("program types must be finalized first")

    def mro(self, type_name: str) -> list[str]:
        self._require_types()
        return self._mro[type_name]

    def is_subtype(self, sub: str, sup: str) -> bool:
        self._require_types()
        return sup in self._mro[sub]

    def subtypes(self, type_name: str) -> set[str]:
        """All transitive subtypes, including the type itself."""
        self._require_types()
        return set(self._subtypes[type_name])

    def concrete_subtypes(self, type_name: str) -> list[str]:
        """Instantiable subtypes — the possible dynamic types of a child
        whose declared type is *type_name* (sorted for determinism)."""
        self._require_types()
        return sorted(
            name for name in self._subtypes[type_name]
            if not self.tree_types[name].abstract
        )

    def concrete_subtypes_all(self) -> list[str]:
        """Every instantiable tree type in the program (sorted)."""
        return sorted(
            name
            for name, tree_type in self.tree_types.items()
            if not tree_type.abstract
        )

    def fields_of(self, type_name: str) -> dict[str, Field]:
        self._require_types()
        return self._fields[type_name]

    def resolve_field(self, type_name: str, field_name: str) -> Field:
        self._require_types()
        fields = self._fields.get(type_name)
        if fields is None:
            raise ValidationError(f"unknown tree type {type_name!r}")
        if field_name not in fields:
            raise ValidationError(
                f"type {type_name} has no field {field_name!r}"
            )
        return fields[field_name]

    def resolve_method(self, type_name: str, method_name: str) -> TraversalMethod:
        """Dynamic dispatch: the most-derived override visible from
        *type_name*. Falls back to an MRO walk before full finalization so
        mutually-recursive bodies can be resolved while being built."""
        self._require_types()
        if self._finalized:
            table = self._method_tables.get(type_name)
            if table is None:
                raise ValidationError(f"unknown tree type {type_name!r}")
            if method_name not in table:
                raise ValidationError(
                    f"type {type_name} has no traversal {method_name!r}"
                )
            return table[method_name]
        for ancestor in self._mro[type_name]:
            method = self.tree_types[ancestor].methods.get(method_name)
            if method is not None:
                return method
        raise ValidationError(f"type {type_name} has no traversal {method_name!r}")

    def has_method(self, type_name: str, method_name: str) -> bool:
        self._require_types()
        if self._finalized:
            return method_name in self._method_tables.get(type_name, {})
        return any(
            method_name in self.tree_types[ancestor].methods
            for ancestor in self._mro.get(type_name, ())
        )

    def all_methods(self) -> Iterable[TraversalMethod]:
        for tree_type in self.tree_types.values():
            yield from tree_type.methods.values()

    def common_supertype(self, type_names: Iterable[str]) -> str:
        """Least common ancestor used for the fused traversed-node type
        (paper §3.4: 'a lattice for the types traversed ... is created')."""
        self._require_types()
        names = list(type_names)
        if not names:
            raise ValidationError("common_supertype of empty set")
        candidates = [t for t in self._mro[names[0]]]
        for name in names[1:]:
            ancestry = set(self._mro[name])
            candidates = [t for t in candidates if t in ancestry]
        if not candidates:
            raise ValidationError(f"types {names} share no common supertype")
        return candidates[0]
