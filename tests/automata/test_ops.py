"""Tests for automaton algebra: union, intersection, emptiness, pruning.

Includes hypothesis property tests cross-checking `intersects` against
the materialized product (`intersect`) and a brute-force enumeration of
both languages.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.automata import (
    ANY,
    EPSILON,
    Automaton,
    enumerate_paths,
    from_path,
    intersect,
    intersects,
    prune,
    union,
)


class TestUnion:
    def test_union_of_two_paths(self):
        a = from_path(["x"], accept_prefixes=False)
        b = from_path(["y"], accept_prefixes=False)
        u = union([a, b])
        assert u.accepts(["x"])
        assert u.accepts(["y"])
        assert not u.accepts(["z"])

    def test_union_empty_iterable_is_empty_language(self):
        u = union([])
        assert not u.accepts([])
        assert not u.accepts(["x"])

    def test_union_preserves_prefix_acceptance(self):
        a = from_path(["a", "b"], accept_prefixes=True)
        b = from_path(["c"], accept_prefixes=True)
        u = union([a, b])
        assert u.accepts(["a"])
        assert u.accepts(["a", "b"])
        assert u.accepts(["c"])


class TestIntersection:
    def test_disjoint_paths_do_not_intersect(self):
        a = from_path(["x"], accept_prefixes=False)
        b = from_path(["y"], accept_prefixes=False)
        assert not intersects(a, b)

    def test_identical_paths_intersect(self):
        a = from_path(["x", "y"], accept_prefixes=False)
        b = from_path(["x", "y"], accept_prefixes=False)
        assert intersects(a, b)

    def test_write_vs_read_prefix_dependence(self):
        # Writing a.b conflicts with reading a.b.c (prefix a.b is read).
        write = from_path(["a", "b"], accept_prefixes=False)
        read = from_path(["a", "b", "c"], accept_prefixes=True)
        assert intersects(write, read)

    def test_write_full_path_does_not_hit_shorter_write(self):
        # Writing a.b.c does not write a.b (prefixes are only read).
        write_deep = from_path(["a", "b", "c"], accept_prefixes=False)
        write_shallow = from_path(["a", "b"], accept_prefixes=False)
        assert not intersects(write_deep, write_shallow)

    def test_any_suffix_conflicts_with_deep_access(self):
        # delete this->c writes every path under c.
        delete_write = from_path(["c"], accept_prefixes=False, any_suffix=True)
        deep_read = from_path(["c", "x", "y"], accept_prefixes=True)
        assert intersects(delete_write, deep_read)

    def test_any_does_not_invent_missing_prefix(self):
        delete_write = from_path(["c"], accept_prefixes=False, any_suffix=True)
        other = from_path(["d", "x"], accept_prefixes=True)
        assert not intersects(delete_write, other)

    def test_empty_automaton_never_intersects(self):
        empty = Automaton()
        a = from_path(["x"], accept_prefixes=True)
        assert not intersects(empty, a)
        assert not intersects(a, empty)

    def test_intersect_materializes_witness_language(self):
        a = union(
            [
                from_path(["x"], accept_prefixes=False),
                from_path(["y"], accept_prefixes=False),
            ]
        )
        b = union(
            [
                from_path(["y"], accept_prefixes=False),
                from_path(["z"], accept_prefixes=False),
            ]
        )
        product = intersect(a, b)
        assert product.accepts(["y"])
        assert not product.accepts(["x"])
        assert not product.accepts(["z"])

    def test_any_vs_any(self):
        a = Automaton()
        end_a = a.add_state(accepting=True)
        a.add_transition(a.start, ANY, end_a)
        b = Automaton()
        end_b = b.add_state(accepting=True)
        b.add_transition(b.start, ANY, end_b)
        assert intersects(a, b)
        product = intersect(a, b)
        assert product.accepts(["anything"])

    def test_loops_terminate(self):
        # Mutual recursion produces loops in call automata; intersection
        # over looped machines must still terminate.
        a = Automaton()
        hub = a.add_state(accepting=True)
        a.add_transition(a.start, "next", hub)
        a.add_transition(hub, "next", hub)
        b = from_path(["next", "next", "next"], accept_prefixes=False)
        assert intersects(a, b)


class TestPrune:
    def test_prune_removes_dead_states(self):
        automaton = Automaton()
        live = automaton.add_state(accepting=True)
        dead = automaton.add_state()  # unreachable from start->accept path
        automaton.add_transition(automaton.start, "a", live)
        automaton.add_transition(dead, "b", dead)
        pruned = prune(automaton)
        assert pruned.num_states == 2
        assert pruned.accepts(["a"])

    def test_prune_empty_language(self):
        automaton = Automaton()
        sink = automaton.add_state()
        automaton.add_transition(automaton.start, "a", sink)
        pruned = prune(automaton)
        assert pruned.is_trivially_empty()
        assert not pruned.accepts(["a"])


class TestEnumerate:
    def test_enumeration_matches_accepts(self):
        automaton = union(
            [
                from_path(["a", "b"], accept_prefixes=True),
                from_path(["c"], accept_prefixes=False, any_suffix=True),
            ]
        )
        alphabet = {"a", "b", "c"}
        enumerated = enumerate_paths(automaton, alphabet, max_length=3)
        for length in range(4):
            for combo in itertools.product(sorted(alphabet), repeat=length):
                assert automaton.accepts(combo) == (combo in enumerated)


# ---------------------------------------------------------------------------
# Property tests: random automata, brute-force cross-checks.
# ---------------------------------------------------------------------------

_ALPHABET = ["a", "b", "c"]


@st.composite
def random_automaton(draw):
    n_states = draw(st.integers(min_value=1, max_value=4))
    automaton = Automaton()
    states = [automaton.start]
    for _ in range(n_states - 1):
        states.append(automaton.add_state())
    for state in states:
        if draw(st.booleans()):
            automaton.set_accepting(state)
    n_edges = draw(st.integers(min_value=0, max_value=6))
    for _ in range(n_edges):
        src = draw(st.sampled_from(states))
        dst = draw(st.sampled_from(states))
        label = draw(st.sampled_from(_ALPHABET + [ANY, EPSILON]))
        automaton.add_transition(src, label, dst)
    return automaton


@given(random_automaton(), random_automaton())
@settings(max_examples=120, deadline=None)
def test_intersects_agrees_with_bruteforce(a, b):
    # the materialized state-pair product is the independent reference:
    # it decides emptiness exactly, in both directions
    verdict = intersects(a, b)
    assert verdict == (not prune(intersect(a, b)).is_trivially_empty())
    # a shared short path is a witness the search must find
    paths_a = enumerate_paths(a, _ALPHABET, max_length=5)
    paths_b = enumerate_paths(b, _ALPHABET, max_length=5)
    if paths_a & paths_b:
        assert verdict


@given(random_automaton(), random_automaton())
@settings(max_examples=80, deadline=None)
def test_intersect_language_is_conjunction(a, b):
    product = intersect(a, b)
    for path in enumerate_paths(product, _ALPHABET, max_length=4):
        assert a.accepts(path)
        assert b.accepts(path)


@given(random_automaton(), random_automaton())
@settings(max_examples=80, deadline=None)
def test_union_language_is_disjunction(a, b):
    combined = union([a, b])
    paths = enumerate_paths(combined, _ALPHABET, max_length=4)
    expected = enumerate_paths(a, _ALPHABET, max_length=4) | enumerate_paths(
        b, _ALPHABET, max_length=4
    )
    assert paths == expected


@given(random_automaton())
@settings(max_examples=80, deadline=None)
def test_prune_preserves_language(automaton):
    pruned = prune(automaton)
    assert enumerate_paths(automaton, _ALPHABET, max_length=4) == enumerate_paths(
        pruned, _ALPHABET, max_length=4
    )
