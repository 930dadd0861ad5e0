"""Finite-automata substrate for access summaries.

The original Grafter prototype uses OpenFST to represent the sets of access
paths a statement (or a transitively-reachable traversal call) may touch, and
decides dependences by intersecting those automata and testing for emptiness
(paper §3.2). This package is a small, dependency-free replacement providing
exactly the operations Grafter needs:

* :class:`Automaton` — a nondeterministic finite automaton over string
  labels, with two special labels: :data:`EPSILON` (silent transition) and
  :data:`ANY` (wildcard that matches every concrete label, used for
  whole-object and whole-subtree accesses, paper §3.2.1).
* :meth:`Automaton.add_path` — a primitive access path inserted in place,
  which is how statement and call summaries are built.
* :func:`intersect` / :func:`intersects` — product construction respecting
  the ``ANY`` wildcard; :func:`intersects` is the emptiness test that
  implements the paper's dependence check, on automata that cache their
  own subset construction.
* :func:`union` / :func:`prune` — language union and dead-state removal.
  Summaries never build a union (they keep shared parts, see
  :mod:`repro.analysis.summaries`); these and :func:`intersect` are the
  materialized reference the tests compare against.
* :func:`enumerate_paths` — bounded language enumeration, used by the test
  suite to cross-check automaton algebra against brute force.
"""

from repro.automata.fsa import ANY, EPSILON, Automaton, from_path
from repro.automata.ops import (
    enumerate_paths,
    intersect,
    intersects,
    prune,
    union,
)

__all__ = [
    "ANY",
    "EPSILON",
    "Automaton",
    "from_path",
    "union",
    "intersect",
    "intersects",
    "prune",
    "enumerate_paths",
]
