"""Core NFA representation used for access summaries.

Labels are plain strings (field identities such as ``"Group.Content"``, the
traversed-node marker, global names, ...). Two sentinel labels get special
treatment by the algebra in :mod:`repro.automata.ops`:

* :data:`EPSILON` — the silent transition used when gluing machines together.
* :data:`ANY` — a wildcard transition that stands for *every* concrete
  member label. The paper introduces it for accesses that may touch any
  field below a location: whole-object reads of opaque C++ values, and the
  ``new``/``delete`` statements that (de)allocate entire subtrees.

Summaries share automata by reference, so one automaton meets many
others in the dependence test. Each automaton therefore determinizes
itself once, lazily: it caches every state's ε-closure and, per
ε-closed subset it has been stepped from, the subset's successor on
each label (:meth:`Automaton.subset_steps`). Both caches follow from
the transitions alone, and a new transition drops them, so a changed
automaton never answers from stale ones.
"""

from __future__ import annotations

from typing import Iterable, Iterator

EPSILON = "ε"  # ε
ANY = "⊤"  # ⊤ — matches any concrete label


def labels_compatible(a: str, b: str) -> bool:
    """True if transitions labeled *a* and *b* can fire on a common symbol."""
    if a == EPSILON or b == EPSILON:
        return False
    return a == b or a == ANY or b == ANY


def _merged_label(a: str, b: str) -> str:
    """The label of the product transition for compatible labels *a*, *b*."""
    if a == ANY:
        return b
    return a


class Automaton:
    """A mutable NFA over string labels.

    States are dense integers allocated by :meth:`add_state`. The automaton
    has a single start state and a set of accepting states. The language is
    the set of label sequences (never containing ``EPSILON``; possibly
    containing ``ANY`` which denotes the union over all concrete labels).
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._num_states = 1
        self.start = 0
        self.accepting: set[int] = set()
        # transitions[state] -> {label -> set(successor states)}
        self._transitions: list[dict[str, set[int]]] = [{}]
        # (state -> ε-closure, ε-closed subset -> its steps), built on
        # first use; both follow from the transitions alone, so each new
        # transition resets it to None
        self._cache: tuple[dict, dict] | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_state(self, accepting: bool = False) -> int:
        state = self._num_states
        self._num_states += 1
        self._transitions.append({})
        if accepting:
            self.accepting.add(state)
        return state

    def add_transition(self, src: int, label: str, dst: int) -> None:
        self._cache = None
        self._transitions[src].setdefault(label, set()).add(dst)

    def set_accepting(self, state: int, accepting: bool = True) -> None:
        if accepting:
            self.accepting.add(state)
        else:
            self.accepting.discard(state)

    def add_path(
        self,
        at: int,
        labels: Iterable[str],
        accept_prefixes: bool,
        any_suffix: bool = False,
    ) -> None:
        """Insert a primitive access path at state *at*, in place.

        The language from *at* gains exactly what gluing
        ``from_path(labels, accept_prefixes, any_suffix)`` there with
        :meth:`attach` adds, without the copy and the ε edge: a fresh
        chain of states from *at*, or, for an empty path, *at* itself
        accepting (with the ``ANY`` self-loop of an ``any_suffix``
        path; from an accepting state with that loop every word is
        accepted, so the loop admits nothing the glued copy would
        not).
        """
        current = at
        labels = tuple(labels)
        last = len(labels) - 1
        for index, label in enumerate(labels):
            nxt = self.add_state(accepting=accept_prefixes or index == last)
            self.add_transition(current, label, nxt)
            current = nxt
        if not labels:
            self.set_accepting(current)
        if any_suffix:
            self.add_transition(current, ANY, current)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def num_states(self) -> int:
        return self._num_states

    def transitions_from(self, state: int) -> dict[str, set[int]]:
        return self._transitions[state]

    def all_transitions(self) -> Iterator[tuple[int, str, int]]:
        for src in range(self._num_states):
            for label, dsts in self._transitions[src].items():
                for dst in dsts:
                    yield src, label, dst

    def alphabet(self) -> set[str]:
        """Concrete labels appearing on transitions (excludes sentinels)."""
        result: set[str] = set()
        for _, label, _ in self.all_transitions():
            if label not in (EPSILON, ANY):
                result.add(label)
        return result

    def is_trivially_empty(self) -> bool:
        """True when no accepting state exists at all (cheap pre-check)."""
        return not self.accepting

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------

    def _tables(self) -> tuple[dict, dict]:
        cache = self._cache
        if cache is None:
            cache = self._cache = ({}, {})
        return cache

    def _state_closure(self, state: int) -> frozenset[int]:
        closures = self._tables()[0]
        closure = closures.get(state)
        if closure is None:
            stack = [state]
            seen = {state}
            while stack:
                for dst in self._transitions[stack.pop()].get(EPSILON, ()):
                    if dst not in seen:
                        seen.add(dst)
                        stack.append(dst)
            closure = closures[state] = frozenset(seen)
        return closure

    def epsilon_closure(self, states: Iterable[int]) -> frozenset[int]:
        """The states reachable from *states* by ε edges alone: the
        union of the cached per-state closures."""
        result: set[int] = set()
        for state in states:
            # a state already in the result lies in the closure of one
            # taken before it, and so does its own closure
            if state not in result:
                result.update(self._state_closure(state))
        return frozenset(result)

    def subset_steps(
        self, subset: frozenset[int]
    ) -> tuple[dict[str, frozenset[int]], frozenset[int]]:
        """The deterministic moves of an ε-closed *subset*.

        Returns ``(moves, other)``: ``moves`` maps each concrete label
        some state of the subset names to its ε-closed successor
        (``ANY`` edges fire on it too), and ``other`` is the ε-closed
        successor on every label the subset does not name, which only
        ``ANY`` edges read (empty when there are none). Computed once
        per subset and cached until the automaton changes, so every
        dependence test on a shared automaton reuses the subset
        construction earlier tests built.
        """
        steps = self._tables()[1]
        entry = steps.get(subset)
        if entry is None:
            targets: dict[str, set[int]] = {}
            for state in subset:
                for label, dsts in self._transitions[state].items():
                    if label != EPSILON:
                        targets.setdefault(label, set()).update(dsts)
            wildcard = targets.pop(ANY, set())
            moves = {
                label: self.epsilon_closure(dsts | wildcard)
                for label, dsts in targets.items()
            }
            entry = steps[subset] = (moves, self.epsilon_closure(wildcard))
        return entry

    def step(self, states: Iterable[int], symbol: str) -> frozenset[int]:
        """One subset-construction step on a *concrete* input symbol.

        ``ANY`` transitions fire on every concrete symbol.
        """
        next_states: set[int] = set()
        for state in states:
            table = self._transitions[state]
            next_states.update(table.get(symbol, ()))
            next_states.update(table.get(ANY, ()))
        return self.epsilon_closure(next_states)

    def accepts(self, path: Iterable[str]) -> bool:
        """Whether the automaton accepts the given concrete label sequence."""
        current = self.epsilon_closure([self.start])
        for symbol in path:
            current = self.step(current, symbol)
            if not current:
                return False
        return any(state in self.accepting for state in current)

    # ------------------------------------------------------------------
    # composition helpers used by the access-summary builders
    # ------------------------------------------------------------------

    def attach(self, other: "Automaton", at_state: int) -> dict[int, int]:
        """Copy *other* into this automaton, gluing other's start to *at_state*.

        Returns the state remapping (other's state id -> new id here). The
        glue is an epsilon transition so that anything accepted by *other*
        is accepted as a suffix at ``at_state``. Used when attaching simple
        statement automata onto labeled call-graph nodes (paper Fig. 5b).
        """
        mapping: dict[int, int] = {}
        for state in range(other.num_states):
            mapping[state] = self.add_state(accepting=state in other.accepting)
        for src, label, dst in other.all_transitions():
            self.add_transition(mapping[src], label, mapping[dst])
        self.add_transition(at_state, EPSILON, mapping[other.start])
        return mapping

    def copy(self) -> "Automaton":
        clone = Automaton(self.name)
        clone._num_states = self._num_states
        clone.start = self.start
        clone.accepting = set(self.accepting)
        clone._transitions = [
            {label: set(dsts) for label, dsts in table.items()}
            for table in self._transitions
        ]
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Automaton({self.name!r}, states={self._num_states}, "
            f"accepting={sorted(self.accepting)})"
        )

    def to_dot(self) -> str:
        """Graphviz rendering, for debugging and documentation."""
        lines = ["digraph automaton {", "  rankdir=LR;"]
        for state in range(self._num_states):
            shape = "doublecircle" if state in self.accepting else "circle"
            lines.append(f'  {state} [shape={shape}];')
        lines.append(f"  __start [shape=point];")
        lines.append(f"  __start -> {self.start};")
        for src, label, dst in self.all_transitions():
            lines.append(f'  {src} -> {dst} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)


def from_path(
    labels: list[str],
    accept_prefixes: bool,
    any_suffix: bool = False,
    name: str = "",
) -> Automaton:
    """Build a primitive access-path automaton (paper §3.2.1).

    * ``accept_prefixes=True`` builds a *read* automaton: every non-empty
      prefix of the path is accepted (reading ``a.b.c`` reads ``a`` and
      ``a.b`` as well).
    * ``accept_prefixes=False`` builds a *write* automaton: only the full
      path is accepted.
    * ``any_suffix=True`` appends an ``ANY`` self-loop on the final state,
      used for whole-object accesses and for ``new``/``delete`` statements
      that touch every location below the manipulated node.
    """
    automaton = Automaton(name)
    current = automaton.start
    for index, label in enumerate(labels):
        is_last = index == len(labels) - 1
        accepting = accept_prefixes or is_last
        nxt = automaton.add_state(accepting=accepting)
        automaton.add_transition(current, label, nxt)
        current = nxt
    if not labels:
        automaton.set_accepting(current)
    if any_suffix:
        automaton.add_transition(current, ANY, current)
    return automaton
