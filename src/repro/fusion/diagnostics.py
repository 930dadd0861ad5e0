"""Fusion diagnostics: explain *why* calls did not fuse.

When Grafter leaves two calls on the same child unfused, the reason is
always a dependence chain that leaves the would-be group and returns to
it — contracting the group would create a cycle. This module surfaces
those chains in human-readable form, which is invaluable when massaging
a traversal into a fusible shape (the paper's §3.5 discussion of what
inhibits fusion).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.analysis.call_automata import AnalysisContext
from repro.analysis.dependence import DependenceGraph, build_dependence_graph
from repro.fusion.grouping import FusionLimits, greedy_group
from repro.ir.method import TraversalMethod
from repro.ir.program import Program


@dataclass
class BlockedPair:
    """Two same-receiver groups that could not merge, with a witness
    dependence chain (vertex descriptions, group members first/last)."""

    receiver: str
    first_group: list[str]
    second_group: list[str]
    chain: list[str] = field(default_factory=list)

    def describe(self) -> str:
        lines = [
            f"calls on {self.receiver} could not fuse:",
            f"  group A: {', '.join(self.first_group)}",
            f"  group B: {', '.join(self.second_group)}",
        ]
        if self.chain:
            lines.append("  blocking chain (A -> ... -> B):")
            for step in self.chain:
                lines.append(f"    {step}")
        return "\n".join(lines)


@dataclass
class FusionExplanation:
    members: list[str]
    groups: list[list[str]]
    blocked: list[BlockedPair]

    def describe(self) -> str:
        lines = [f"sequence: {' + '.join(self.members)}"]
        for index, group in enumerate(self.groups):
            lines.append(f"  group {index}: {', '.join(group)}")
        for pair in self.blocked:
            lines.append(pair.describe())
        if not self.blocked:
            lines.append("  (no blocked groupings)")
        return "\n".join(lines)


def explain_sequence(
    program: Program,
    members: list[TraversalMethod],
    limits: FusionLimits | None = None,
) -> FusionExplanation:
    """Group the sequence like the engine would, then, for every pair of
    same-receiver groups that stayed apart, find the blocking chain."""
    program.finalize()
    ctx = AnalysisContext(program)
    graph = build_dependence_graph(ctx, members)
    groups, assignment = greedy_group(graph, limits or FusionLimits(), ctx)
    vertex_desc = {
        v.index: f"[m{v.member}] {v.stmt}" for v in graph.vertices
    }
    explanation = FusionExplanation(
        members=[m.qualified_name for m in members],
        groups=[
            [vertex_desc[i] for i in group.vertex_indices] for group in groups
        ],
        blocked=[],
    )
    by_receiver: dict[str, list] = {}
    for group in groups:
        by_receiver.setdefault(group.receiver_key, []).append(group)
    for receiver, same_receiver in by_receiver.items():
        for first, second in zip(same_receiver, same_receiver[1:]):
            chain = _blocking_chain(
                graph,
                first.vertex_indices,
                second.vertex_indices,
            )
            explanation.blocked.append(
                BlockedPair(
                    receiver=receiver,
                    first_group=[vertex_desc[i] for i in first.vertex_indices],
                    second_group=[vertex_desc[i] for i in second.vertex_indices],
                    chain=[vertex_desc[i] for i in chain],
                )
            )
    return explanation


def _blocking_chain(
    graph: DependenceGraph, group_a: list[int], group_b: list[int]
) -> list[int]:
    """A dependence path that forbids scheduling the union adjacently:
    it exits the merged set and re-enters it. Returns the witness path
    (entry vertex, intermediates, exit vertex), or [] if none is found
    (the merge failed on a cutoff instead)."""
    merged = set(group_a) | set(group_b)
    # BFS from the out-neighbors of the set, avoiding the set, until we
    # re-enter it; track predecessors for path reconstruction.
    parents: dict[int, int] = {}
    queue: deque[int] = deque()
    for src in merged:
        for dst in graph.succ[src]:
            if dst not in merged and dst not in parents:
                parents[dst] = src
                queue.append(dst)
    while queue:
        node = queue.popleft()
        for dst in graph.succ[node]:
            if dst in merged:
                # reconstruct: inside -> (outside chain) -> back inside
                outside = [node]
                current = node
                while parents[current] not in merged:
                    current = parents[current]
                    outside.append(current)
                entry = parents[current]
                return [entry] + list(reversed(outside)) + [dst]
            if dst not in parents and dst not in merged:
                parents[dst] = node
                queue.append(dst)
    return []
