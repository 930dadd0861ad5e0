"""Automaton algebra: union, intersection, emptiness, enumeration.

The dependence test of the paper (§3.2.1, "Finding dependences between
statements") is: intersect the write automaton of one statement with the
read/write automata of another and check emptiness. :func:`intersects`
implements that check on the product of the two subset constructions,
determinized on the fly and never materialized; :func:`intersect`
materializes the state-pair product instead (used by tests as the
independent reference, and by diagnostics that want to show a witness
access path).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

from repro.automata.fsa import ANY, EPSILON, Automaton, labels_compatible, _merged_label


def union(automata: Iterable[Automaton], name: str = "") -> Automaton:
    """Language union: a fresh start state with epsilon edges to each part."""
    result = Automaton(name)
    for automaton in automata:
        result.attach(automaton, result.start)
    return result


def _product_moves(
    a: Automaton, b: Automaton, pa: int, pb: int
) -> Iterator[tuple[str, int, int]]:
    """All joint moves of the product automaton from pair ``(pa, pb)``.

    Epsilon moves advance one side at a time; labeled moves advance both
    sides on compatible labels (``ANY`` matches anything concrete).
    """
    for label, dsts in a.transitions_from(pa).items():
        if label == EPSILON:
            for dst in dsts:
                yield EPSILON, dst, pb
    for label, dsts in b.transitions_from(pb).items():
        if label == EPSILON:
            for dst in dsts:
                yield EPSILON, pa, dst
    for label_a, dsts_a in a.transitions_from(pa).items():
        if label_a == EPSILON:
            continue
        for label_b, dsts_b in b.transitions_from(pb).items():
            if label_b == EPSILON:
                continue
            if not labels_compatible(label_a, label_b):
                continue
            merged = _merged_label(label_a, label_b)
            for dst_a in dsts_a:
                for dst_b in dsts_b:
                    yield merged, dst_a, dst_b


def _subset_moves(
    automaton: Automaton, subset: frozenset[int]
) -> dict[str, set[int]]:
    """Label -> successor states of a subset, ε excluded."""
    moves: dict[str, set[int]] = {}
    for state in subset:
        for label, dsts in automaton.transitions_from(state).items():
            if label != EPSILON:
                moves.setdefault(label, set()).update(dsts)
    return moves


def _joint_steps(
    a: Automaton, b: Automaton, sa: frozenset[int], sb: frozenset[int]
) -> Iterator[tuple[frozenset[int], frozenset[int]]]:
    """Successor pairs of ε-closed subsets ``(sa, sb)``: one per
    concrete label either side names, with ``ANY`` edges firing on each,
    and one for the labels neither side names, which only ``ANY`` edges
    read. This is exactly the label compatibility of
    :func:`_product_moves`."""
    moves_a, moves_b = _subset_moves(a, sa), _subset_moves(b, sb)
    any_a, any_b = moves_a.pop(ANY, set()), moves_b.pop(ANY, set())
    for label in moves_a.keys() | moves_b.keys():
        next_a = moves_a.get(label, set()) | any_a
        next_b = moves_b.get(label, set()) | any_b
        if next_a and next_b:
            yield a.epsilon_closure(next_a), b.epsilon_closure(next_b)
    if any_a and any_b:
        yield a.epsilon_closure(any_a), b.epsilon_closure(any_b)


def intersects(a: Automaton, b: Automaton) -> bool:
    """Emptiness test of the intersection language (the dependence check).

    A BFS over pairs of ε-closed state subsets — the product of the two
    subset constructions, determinized on the fly — that returns True as
    soon as both subsets of a pair hold an accepting state. Subsets
    merge the many state pairs that the same word reaches, so a pair of
    automata full of ε-glued unions is explored once per word class
    rather than once per state pair.
    """
    if a.is_trivially_empty() or b.is_trivially_empty():
        return False
    start = (a.epsilon_closure([a.start]), b.epsilon_closure([b.start]))
    seen = {start}
    queue: deque[tuple[frozenset[int], frozenset[int]]] = deque([start])
    while queue:
        sa, sb = queue.popleft()
        if not (a.accepting.isdisjoint(sa) or b.accepting.isdisjoint(sb)):
            return True
        for pair in _joint_steps(a, b, sa, sb):
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return False


def intersect(a: Automaton, b: Automaton, name: str = "") -> Automaton:
    """Materialized product automaton (used by tests and diagnostics)."""
    result = Automaton(name)
    start = (a.start, b.start)
    state_map: dict[tuple[int, int], int] = {start: result.start}
    if a.start in a.accepting and b.start in b.accepting:
        result.set_accepting(result.start)
    queue: deque[tuple[int, int]] = deque([start])
    while queue:
        pair = queue.popleft()
        pa, pb = pair
        src = state_map[pair]
        for label, na, nb in _product_moves(a, b, pa, pb):
            nxt = (na, nb)
            if nxt not in state_map:
                accepting = na in a.accepting and nb in b.accepting
                state_map[nxt] = result.add_state(accepting=accepting)
                queue.append(nxt)
            result.add_transition(src, label, state_map[nxt])
    return prune(result, name=name)


def prune(automaton: Automaton, name: str = "") -> Automaton:
    """Drop states that are unreachable or cannot reach an accepting state."""
    forward = _reachable_forward(automaton)
    backward = _reachable_backward(automaton)
    keep = forward & backward
    result = Automaton(name or automaton.name)
    if automaton.start not in keep:
        # Empty language: a single non-accepting start state.
        return result
    mapping = {automaton.start: result.start}
    if automaton.start in automaton.accepting:
        result.set_accepting(result.start)
    for state in sorted(keep):
        if state == automaton.start:
            continue
        mapping[state] = result.add_state(accepting=state in automaton.accepting)
    for src, label, dst in automaton.all_transitions():
        if src in keep and dst in keep:
            result.add_transition(mapping[src], label, mapping[dst])
    return result


def _reachable_forward(automaton: Automaton) -> set[int]:
    seen = {automaton.start}
    stack = [automaton.start]
    while stack:
        state = stack.pop()
        for _, dsts in automaton.transitions_from(state).items():
            for dst in dsts:
                if dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
    return seen


def _reachable_backward(automaton: Automaton) -> set[int]:
    predecessors: dict[int, set[int]] = {}
    for src, _, dst in automaton.all_transitions():
        predecessors.setdefault(dst, set()).add(src)
    seen = set(automaton.accepting)
    stack = list(automaton.accepting)
    while stack:
        state = stack.pop()
        for src in predecessors.get(state, ()):
            if src not in seen:
                seen.add(src)
                stack.append(src)
    return seen


def enumerate_paths(
    automaton: Automaton,
    alphabet: Iterable[str],
    max_length: int,
) -> set[tuple[str, ...]]:
    """All concrete accepted label sequences up to ``max_length``.

    ``ANY`` transitions are expanded over the supplied alphabet. Exponential
    in ``max_length`` — strictly a testing utility for cross-checking the
    automaton algebra against brute force.
    """
    alphabet = sorted(set(alphabet))
    results: set[tuple[str, ...]] = set()
    start = automaton.epsilon_closure([automaton.start])

    def explore(states: frozenset[int], path: tuple[str, ...]) -> None:
        if any(state in automaton.accepting for state in states):
            results.add(path)
        if len(path) >= max_length:
            return
        for symbol in alphabet:
            nxt = automaton.step(states, symbol)
            if nxt:
                explore(nxt, path + (symbol,))

    explore(start, ())
    return results
