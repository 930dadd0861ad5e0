"""Access summaries: raw access paths -> automata + interference test.

Implements the second half of paper §3.2.1. Each dependence-graph vertex
carries a :class:`StatementSummary` holding four languages:

* ``tree_reads`` / ``tree_writes`` — languages over
  ``ROOT · (field label)*``, rooted at the traversed node. The special
  first label :data:`ROOT_LABEL` is the paper's *traversed-node*
  transition; both sides of every dependence test are rooted at the same
  node, so the markers line up.
* ``env_reads`` / ``env_writes`` — languages over ``::global`` /
  ``local:NAME`` labels followed by member labels.

Each language is a :class:`Language`: a tuple of shared, immutable
automaton parts whose union it denotes. A statement's own accesses make
one part, with every path inserted in place; a traversing call adds the
parts of its Algorithm-1 summary (:mod:`repro.analysis.call_automata`)
by reference, so no automaton is ever copied into another. Intersection
distributes over union, so two statements interfere (need an edge) iff
some write part of one intersects some read or write part of the other,
on either side: :func:`interferes` tests part pairs and never builds a
union.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.automata import Automaton, intersects
from repro.analysis.accesses import AccessInfo

ROOT_LABEL = "⟨root⟩"


class Language(tuple):
    """One access language: the union of its automaton parts.

    Parts are shared by reference between summaries and never mutated
    after they are built; an empty language has no parts at all.
    """

    __slots__ = ()

    def accepts(self, path: Iterable[str]) -> bool:
        path = list(path)
        return any(part.accepts(path) for part in self)


def language(parts: Iterable[Automaton]) -> Language:
    """A :class:`Language` of *parts*, each kept once (by identity) and
    in first-seen order, with the empty ones left out."""
    return Language(
        {id(p): p for p in parts if not p.is_trivially_empty()}.values()
    )


@dataclass
class StatementSummary:
    """The four access languages of one dependence-graph vertex."""

    tree_reads: Language
    tree_writes: Language
    env_reads: Language
    env_writes: Language

    @staticmethod
    def from_accesses(
        tree_reads: list[AccessInfo],
        tree_writes: list[AccessInfo],
        env_reads: list[AccessInfo],
        env_writes: list[AccessInfo],
    ) -> "StatementSummary":
        return StatementSummary(
            tree_reads=_tree_language(tree_reads, is_write=False),
            tree_writes=_tree_language(tree_writes, is_write=True),
            env_reads=env_language(env_reads, is_write=False),
            env_writes=env_language(env_writes, is_write=True),
        )


def _tree_language(accesses: list[AccessInfo], is_write: bool) -> Language:
    """One part: a ROOT transition, then every path in place.

    Read languages accept the bare ``[ROOT]`` prefix (reading ``this``);
    this is harmless because no write language ever accepts it — every
    write path has at least one member label after ROOT.
    """
    if not accesses:
        return Language()
    automaton = Automaton()
    hub = automaton.add_state(accepting=not is_write)
    automaton.add_transition(automaton.start, ROOT_LABEL, hub)
    for info in accesses:
        automaton.add_path(
            hub,
            info.labels,
            accept_prefixes=not is_write,
            any_suffix=info.any_suffix,
        )
    return language([automaton])


def env_language(accesses: list[AccessInfo], is_write: bool) -> Language:
    """One part: every environment path in place at the start state."""
    automaton = Automaton()
    for info in accesses:
        automaton.add_path(
            automaton.start,
            info.labels,
            accept_prefixes=not is_write,
            any_suffix=info.any_suffix,
        )
    return language([automaton])


def languages_meet(first: Language, second: Language) -> bool:
    """Whether the two languages share a word: whether some pair of
    their parts does, tested through this module's :func:`intersects`."""
    return any(intersects(a, b) for a in first for b in second)


def interferes(a: StatementSummary, b: StatementSummary) -> bool:
    """The paper's dependence test: write/read or write/write overlap on
    either the tree or the environment languages."""
    return (
        languages_meet(a.tree_writes, b.tree_reads)
        or languages_meet(a.tree_writes, b.tree_writes)
        or languages_meet(b.tree_writes, a.tree_reads)
        or languages_meet(a.env_writes, b.env_reads)
        or languages_meet(a.env_writes, b.env_writes)
        or languages_meet(b.env_writes, a.env_reads)
    )


def merge_summaries(parts: list[StatementSummary]) -> StatementSummary:
    """Union several summaries into one (used for conditional call blocks
    in TreeFuser mode and for whole-call summaries): each language
    concatenates the parts' references, copying no automaton."""
    return StatementSummary(
        tree_reads=language(a for p in parts for a in p.tree_reads),
        tree_writes=language(a for p in parts for a in p.tree_writes),
        env_reads=language(a for p in parts for a in p.env_reads),
        env_writes=language(a for p in parts for a in p.env_writes),
    )
