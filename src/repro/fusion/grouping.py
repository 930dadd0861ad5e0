"""Greedy grouping of call vertices (paper §3.3 step 4 and §4).

A *group* is a set of call vertices on the same receiver that will be
scheduled adjacently and replaced by one fused call. Grouping two calls is
safe exactly when the dependence graph, with the group contracted to a
single vertex, stays acyclic — that is the necessary and sufficient
condition for a topological order in which the group members are adjacent.

The paper uses a greedy strategy: pick an arbitrary ungrouped call, then
accumulate other ungrouped calls while safe; we iterate in program order
for determinism. Two cutoffs bound the process (§4): the maximum fused
sequence length and the maximum number of occurrences of one static
function in a group.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.call_automata import AnalysisContext
from repro.analysis.dependence import DependenceGraph, Vertex
from repro.automata import intersects
from repro.ir.stmts import If, TraverseStmt


@dataclass(frozen=True)
class FusionLimits:
    """Termination cutoffs (paper §4). The paper gives no defaults; these
    exceed anything the case studies need while keeping synthesis finite."""

    max_sequence: int = 12
    max_repeat: int = 4

    def __post_init__(self):
        # a fused sequence holds at least one call: below that the
        # planner fuses nothing (or fails deep inside planning)
        if self.max_sequence < 1:
            raise ValueError(
                f"FusionLimits.max_sequence must be at least 1, "
                f"got {self.max_sequence!r}"
            )


@dataclass
class Group:
    """Call vertices (indices into the dependence graph) fused together,
    in program order."""

    receiver_key: str
    vertex_indices: list[int]


def group_key(vertex: Vertex) -> str | None:
    """Vertices may group together iff they share this key.

    Plain traverse statements group by receiver. In TreeFuser mode, an
    ``if`` containing exactly one traverse call is a *conditional call
    block* (guarded recursion); blocks on the same receiver may group,
    with the guards carried into the fused call's member slots (mutually
    exclusive tag guards for the same member and method then merge into
    one slot — see engine synthesis). The dependence-graph contraction
    check makes any grouping safe regardless of the guards.
    """
    if vertex.call is not None:
        return f"call|{vertex.call.receiver.key}"
    conditional = conditional_call(vertex)
    if conditional is not None:
        _, call = conditional
        return f"cond|{call.receiver.key}"
    return None


def conditional_call(vertex: Vertex):
    """If the vertex is an ``if`` wrapping exactly one traverse call (and
    nothing else), return (guard expr, call); else None."""
    stmt = vertex.stmt
    if isinstance(stmt, If) and not stmt.else_body:
        if len(stmt.then_body) == 1 and isinstance(stmt.then_body[0], TraverseStmt):
            return stmt.cond, stmt.then_body[0]
    return None


def _argument_hazard(earlier: Vertex, candidate: Vertex) -> bool:
    """True when grouping would evaluate *candidate*'s call site too
    early.

    A fused call site evaluates every member's argument and guard
    expressions (the vertex's *site* accesses) before any member's
    callee runs; unfused execution evaluates a later call's site only
    after the earlier calls — and everything their subtree traversals
    wrote — completed. Hoisting is therefore unsound exactly when an
    earlier member's writes (its own or its callees', e.g. a global
    assignment deep in the traversal) may touch what the candidate's
    site reads (e.g. a global passed as an argument: ``this->c->f(G0)``
    after a call whose subtree writes ``G0`` — the seed-765 divergence).
    """
    site = candidate.site_summary
    if site is None:  # pragma: no cover - graphs always attach sites
        return True
    full = earlier.summary
    # part pairs through this module's intersects: intersection
    # distributes over each language's union of parts
    return any(
        intersects(write, read)
        for writes, reads in (
            (full.env_writes, site.env_reads),
            (full.tree_writes, site.tree_reads),
        )
        for write in writes
        for read in reads
    )


class Contraction:
    """The dependence graph with each group contracted to one node,
    kept across the candidates of one :func:`greedy_group` call.

    Nodes are named by a vertex index: a group by its leader's. The
    graph's edges run forward in program order, so it starts as a DAG,
    and only merges that keep it one are made. Merging two nodes of a
    DAG closes a cycle exactly when a path of length two or more joins
    them, in either direction (a direct edge becomes internal to the
    merged node), so each tentative grouping asks that one question
    instead of recoloring the whole contracted graph.
    """

    def __init__(self, graph: DependenceGraph):
        self.succ = {node: set(dsts) for node, dsts in graph.succ.items()}
        self.pred = {node: set(srcs) for node, srcs in graph.pred.items()}

    def would_cycle(self, first: int, second: int) -> bool:
        """Whether merging the two nodes would close a cycle."""
        return self._joined(first, second) or self._joined(second, first)

    def _joined(self, src: int, dst: int) -> bool:
        """Whether a path of two or more edges leads from *src* to
        *dst*."""
        stack = [node for node in self.succ[src] if node != dst]
        seen = set(stack)
        while stack:
            for nxt in self.succ[stack.pop()]:
                if nxt == dst:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def merge(self, keep: int, gone: int) -> None:
        """Contract node *gone* into node *keep*."""
        for dst in self.succ.pop(gone):
            self.pred[dst].discard(gone)
            if dst != keep:
                self.succ[keep].add(dst)
                self.pred[dst].add(keep)
        for src in self.pred.pop(gone):
            self.succ[src].discard(gone)
            if src != keep:
                self.pred[keep].add(src)
                self.succ[src].add(keep)


def greedy_group(
    graph: DependenceGraph, limits: FusionLimits, ctx: AnalysisContext
) -> tuple[list[Group], dict[int, int]]:
    """Group call vertices greedily.

    Returns the groups plus the final contraction assignment
    (vertex index -> representative id; grouped vertices share their
    group leader's index). Argument-hazard verdicts are memoized in
    ``ctx`` across every graph of the compile, like the interference
    verdicts.
    """
    assignment = {v.index: v.index for v in graph.vertices}
    contraction = Contraction(graph)
    keys = {v.index: group_key(v) for v in graph.vertices}
    grouped: set[int] = set()
    groups: list[Group] = []
    for vertex in graph.vertices:
        index = vertex.index
        if keys[index] is None or index in grouped:
            continue
        members = [index]
        grouped.add(index)
        # the *effective* fused sequence length is the number of distinct
        # member slots (mutually-exclusive conditional calls of one member
        # merge into one slot), so the cutoffs count slots, not vertices
        slots: set[tuple] = {_slot_key(vertex)}
        method_counts: dict[str, int] = {}
        for call in _vertex_static_calls(vertex):
            method_counts[call] = method_counts.get(call, 0) + 1
        for candidate in graph.vertices:
            cand_index = candidate.index
            if cand_index <= index or cand_index in grouped:
                continue
            if keys[cand_index] != keys[index]:
                continue
            cand_slot = _slot_key(candidate)
            if cand_slot not in slots and len(slots) >= limits.max_sequence:
                continue
            candidate_calls = _vertex_static_calls(candidate)
            if cand_slot not in slots and any(
                method_counts.get(call, 0) >= limits.max_repeat
                for call in candidate_calls
            ):
                continue
            if any(
                ctx.verdict(
                    "hazard", graph.vertices[m], candidate, _argument_hazard
                )
                for m in members
            ):
                continue
            if contraction.would_cycle(index, cand_index):
                continue
            contraction.merge(index, cand_index)
            assignment[cand_index] = index
            members.append(cand_index)
            grouped.add(cand_index)
            if cand_slot not in slots:
                slots.add(cand_slot)
                for call in candidate_calls:
                    method_counts[call] = method_counts.get(call, 0) + 1
        groups.append(
            Group(receiver_key=keys[index], vertex_indices=members)
        )
    return groups, assignment


def _slot_key(vertex: Vertex) -> tuple:
    """Slot identity within a group: conditional calls of the same member
    invoking the same method with the same arguments share a slot; plain
    calls are always distinct slots."""
    conditional = conditional_call(vertex)
    if conditional is None:
        return ("plain", vertex.index)
    _, call = conditional
    return (
        "cond",
        vertex.member,
        call.method_name,
        tuple(str(a) for a in call.args),
    )


def _vertex_static_calls(vertex: Vertex) -> list[str]:
    """Static method names called by a (possibly conditional) call vertex,
    used for the max_repeat cutoff."""
    return [call.method_name for call in vertex.nested_calls]
