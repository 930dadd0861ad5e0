"""Access paths: the paper's central location abstraction (§3.1, Fig. 3c).

An access path is a base (``this``, a local/alias, or a global) followed by
a sequence of member steps. Steps through *child* fields move between tree
nodes; a trailing run of *data* steps reaches a primitive or opaque value.

The three classifications from the paper map to:

* ``<on-tree>``  — base is ``this`` (or an alias, which analysis inlines
  back to a ``this``-rooted path): child steps then data steps.
* ``<off-tree>`` — base is a global.
* ``<tree-node>``— base is ``this``/alias and *all* steps are child fields
  (the path denotes a node, not a data value); appears in ``new``/``delete``
  statements, alias definitions and traverse receivers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ValidationError
from repro.ir.types import ChildField, DataField, Field

BASE_THIS = "this"


@dataclass(frozen=True)
class Step:
    """One member access. ``pre_cast`` records a ``static_cast`` applied to
    the value *before* this member was resolved (needed only for printing
    and validation; field identity is already resolved)."""

    field: Field
    pre_cast: Optional[str] = None


@dataclass(frozen=True)
class AccessPath:
    """A resolved access path.

    ``base`` is ``"this"``, ``("local", name)`` represented as the string
    ``"local:name"``, or ``("global", name)`` as ``"global:name"``. Strings
    keep the dataclass hashable and cheap to compare.
    """

    base: str
    steps: tuple[Step, ...] = ()

    # -- constructors -----------------------------------------------------

    @staticmethod
    def this(*steps: Step) -> "AccessPath":
        return AccessPath(BASE_THIS, tuple(steps))

    @staticmethod
    def local(name: str, *steps: Step) -> "AccessPath":
        return AccessPath(f"local:{name}", tuple(steps))

    # -- classification ---------------------------------------------------

    @property
    def is_on_tree(self) -> bool:
        return self.base == BASE_THIS

    @property
    def is_local(self) -> bool:
        return self.base.startswith("local:")

    @property
    def is_global(self) -> bool:
        return self.base.startswith("global:")

    @property
    def base_name(self) -> str:
        """Local or global name (without the kind prefix)."""
        if self.base == BASE_THIS:
            return BASE_THIS
        return self.base.split(":", 1)[1]

    @property
    def is_tree_node(self) -> bool:
        """True when the path denotes a tree node (all steps are children)."""
        return all(step.field.is_child for step in self.steps)

    @property
    def ends_in_data(self) -> bool:
        return bool(self.steps) and not self.steps[-1].field.is_child

    def check_well_formed(self) -> None:
        """Child steps must all precede data steps (grammar rules 17/20)."""
        seen_data = False
        for step in self.steps:
            if step.field.is_child:
                if seen_data:
                    raise ValidationError(
                        f"child access after data access in path {self}"
                    )
            else:
                seen_data = True

    # -- composition ------------------------------------------------------

    def extend(self, *steps: Step) -> "AccessPath":
        return AccessPath(self.base, self.steps + tuple(steps))

    def with_base_path(self, prefix: "AccessPath") -> "AccessPath":
        """Substitute this path's base with *prefix* (alias inlining)."""
        return AccessPath(prefix.base, prefix.steps + self.steps)

    # -- labels for automata ----------------------------------------------

    def labels(self) -> list[str]:
        return [step.field.label for step in self.steps]

    def __str__(self) -> str:
        text = "this" if self.base == BASE_THIS else self.base_name
        prev_was_node = self.base == BASE_THIS
        for step in self.steps:
            if step.pre_cast is not None:
                text = f"static_cast<{step.pre_cast}*>({text})"
                prev_was_node = True
            sep = "->" if prev_was_node else "."
            text += f"{sep}{step.field.name}"
            prev_was_node = step.field.is_child
        return text


@dataclass(frozen=True)
class Receiver:
    """The receiver of a traverse statement: ``this`` or ``this->child``.

    Fig. 3b rule 7 restricts traversal calls to the current node or a direct
    child; anything deeper has to be decomposed across traversal methods,
    which is exactly what makes the labeled call graph finite.
    """

    child: Optional[ChildField] = None  # None means `this`

    @property
    def is_this(self) -> bool:
        return self.child is None

    @property
    def key(self) -> str:
        """Grouping key: calls with the same key visit the same node."""
        return "this" if self.child is None else f"child:{self.child.label}"

    def __str__(self) -> str:
        if self.child is None:
            return "this"
        return f"this->{self.child.name}"
