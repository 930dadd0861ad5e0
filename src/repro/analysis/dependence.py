"""Dependence graphs for traversal sequences (paper §3.2).

Given a sequence of concrete traversal methods that will execute
back-to-back on the same tree node (the outlined-and-inlined fused
function), build a graph with one vertex per top-level statement and a
directed edge ``u -> v`` (u before v in program order) when:

* **data**: u and v may touch the same location with at least one write —
  decided by intersecting their access automata (statement summaries for
  simple statements; Algorithm-1 call summaries merged in for traversing
  calls); or
* **control**: u and v belong to the same traversal copy and either may
  ``return`` (truncating that traversal), so their relative order is fixed.

Locals are renamed per traversal copy (``local:<copy>:<name>``), so two
inlined copies of the same function never conflict through their frames,
while intra-copy flow through locals is preserved.

The fusion pass builds one graph per fused sequence it discovers, and
the same statements meet again and again across those sequences. The
compile's :class:`AnalysisContext` therefore runs each interference
test once per pair of statement origins plus whether the two share a
member slot (see :meth:`AnalysisContext.verdict`), and builds a
vertex's summaries only when such a test first reads them, once per
(method, statement position, member slot).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

from repro.analysis.accesses import AccessInfo, StatementAccesses
from repro.analysis.call_automata import AnalysisContext
from repro.analysis.summaries import StatementSummary, interferes, merge_summaries
from repro.ir.method import TraversalMethod
from repro.ir.stmts import (
    Stmt,
    TraverseStmt,
    contains_return,
    nested_traversals,
)


@dataclass
class Vertex:
    """One dependence-graph vertex: a top-level statement of one copy."""

    index: int  # position in the inlined program order
    member: int  # which traversal copy of the sequence this came from
    # (method qualified name, statement position): the statement's
    # identity across sequences, half of every memoized verdict's key
    origin: tuple[str, int]
    stmt: Stmt
    has_return: bool
    # call-vertex info (None for simple statements). A vertex is a *call
    # vertex* when the whole statement is a traverse call; in TreeFuser
    # mode an `if` wrapping calls is a conditional call block, which is
    # never groupable with plain calls (guards must match — see grouping).
    call: Optional[TraverseStmt] = None
    nested_calls: list[TraverseStmt] = field(default_factory=list)
    # returns (site summary, full summary), built on the first call and
    # kept in the compile's AnalysisContext (see build_vertices)
    summaries: Optional[
        Callable[[], tuple[StatementSummary, StatementSummary]]
    ] = field(default=None, repr=False, compare=False)

    @property
    def summary(self) -> Optional[StatementSummary]:
        """Everything the statement may access, its callees' Algorithm-1
        summaries included; None for a vertex built without a context."""
        return self.summaries()[1] if self.summaries else None

    @property
    def site_summary(self) -> Optional[StatementSummary]:
        """The statement's *own* accesses (arguments, guards, receiver
        pointer) without the transitive callee summary — what a fused
        call site evaluates in the caller's frame. Grouping hoists these
        above earlier group members, so it must check them separately
        (see grouping._argument_hazard). Same object as ``summary`` for
        non-call vertices."""
        return self.summaries()[0] if self.summaries else None

    @property
    def is_call(self) -> bool:
        return self.call is not None

    @property
    def receiver_key(self) -> Optional[str]:
        if self.call is None:
            return None
        return self.call.receiver.key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Vertex({self.index}, m{self.member}, {self.stmt})"


class DependenceGraph:
    """A DAG over statement vertices; edges always point forward in
    program order, so the graph is acyclic by construction."""

    def __init__(self, vertices: list[Vertex]):
        self.vertices = vertices
        self.succ: dict[int, set[int]] = {v.index: set() for v in vertices}
        self.pred: dict[int, set[int]] = {v.index: set() for v in vertices}

    def add_edge(self, src: int, dst: int) -> None:
        if src == dst:
            return
        self.succ[src].add(dst)
        self.pred[dst].add(src)

    def has_edge(self, src: int, dst: int) -> bool:
        return dst in self.succ[src]

    def to_dot(self) -> str:  # pragma: no cover - debugging aid
        lines = ["digraph dependences {"]
        for vertex in self.vertices:
            label = str(vertex.stmt).replace('"', "'")
            lines.append(f'  {vertex.index} [label="m{vertex.member}: {label}"];')
        for src, dsts in self.succ.items():
            for dst in sorted(dsts):
                lines.append(f"  {src} -> {dst};")
        lines.append("}")
        return "\n".join(lines)


def _rename_locals(info: AccessInfo, member: int) -> AccessInfo:
    if info.labels and info.labels[0].startswith("local:"):
        renamed = (f"local:{member}:{info.labels[0][6:]}",) + info.labels[1:]
        return AccessInfo(labels=renamed, any_suffix=info.any_suffix, on_tree=info.on_tree)
    return info


def _member_summary(
    ctx: AnalysisContext,
    method: TraversalMethod,
    accesses: StatementAccesses,
    member: int,
) -> tuple[StatementSummary, StatementSummary]:
    """(site summary, full summary) for one vertex: the statement's own
    accesses, and those merged with the Algorithm-1 summaries of any
    traversing calls it contains."""
    stmt_summary = StatementSummary.from_accesses(
        tree_reads=[_rename_locals(i, member) for i in accesses.tree_reads],
        tree_writes=[_rename_locals(i, member) for i in accesses.tree_writes],
        env_reads=[_rename_locals(i, member) for i in accesses.env_reads],
        env_writes=[_rename_locals(i, member) for i in accesses.env_writes],
    )
    calls = nested_traversals(accesses.stmt)
    if not calls:
        return stmt_summary, stmt_summary
    parts = [stmt_summary]
    for call in calls:
        parts.append(ctx.call_summary(method, call))
    return stmt_summary, merge_summaries(parts)


def _vertex_summaries(
    ctx: AnalysisContext,
    method: TraversalMethod,
    position: int,
    accesses: StatementAccesses,
    member: int,
) -> tuple[StatementSummary, StatementSummary]:
    key = (method.qualified_name, position, member)
    summaries = ctx.vertex_summaries.get(key)
    if summaries is None:
        summaries = ctx.vertex_summaries[key] = _member_summary(
            ctx, method, accesses, member
        )
    return summaries


def build_vertices(
    ctx: AnalysisContext, members: list[TraversalMethod]
) -> list[Vertex]:
    """The vertex list of the inlined sequence *members*, one per
    top-level statement in member order — the positional layout every
    cached dependence/grouping *structure* refers to.

    No automaton is built here. A vertex's summaries are built the
    first time a verdict that misses the memo reads them, and ``ctx``
    keeps them per (method, statement position, member slot): the
    member slot fixes the ``local:`` renaming, so the same statement in
    the same slot of any other sequence gets the very same parts. A
    caller replaying a cached edge/group structure reads none of them,
    so it builds none.
    """
    vertices: list[Vertex] = []
    for member_index, method in enumerate(members):
        name = method.qualified_name
        for position, accesses in enumerate(ctx.method_accesses(method)):
            stmt = accesses.stmt
            vertex = Vertex(
                index=len(vertices),
                member=member_index,
                origin=(name, position),
                stmt=stmt,
                has_return=contains_return(stmt),
                call=stmt if isinstance(stmt, TraverseStmt) else None,
                nested_calls=nested_traversals(stmt),
                summaries=partial(
                    _vertex_summaries,
                    ctx,
                    method,
                    position,
                    accesses,
                    member_index,
                ),
            )
            vertices.append(vertex)
    return vertices


def graph_from_edges(
    vertices: list[Vertex], edges
) -> DependenceGraph:
    """A DependenceGraph from prebuilt vertices and an edge list — how
    a cached structure is replayed over current statements."""
    graph = DependenceGraph(vertices)
    for src, dst in edges:
        graph.add_edge(src, dst)
    return graph


def build_dependence_graph(
    ctx: AnalysisContext, members: list[TraversalMethod]
) -> DependenceGraph:
    """Dependence graph for the inlined sequence *members* (paper §3.3:
    the graph :math:`G_L` for a sequence label L). Interference verdicts
    are memoized in ``ctx`` across every graph of the compile."""
    vertices = build_vertices(ctx, members)
    graph = DependenceGraph(vertices)
    for j, vj in enumerate(vertices):
        for i in range(j):
            vi = vertices[i]
            if vi.member == vj.member and (vi.has_return or vj.has_return):
                graph.add_edge(vi.index, vj.index)
                continue
            if ctx.verdict("interference", vi, vj, _vertices_interfere):
                graph.add_edge(vi.index, vj.index)
    return graph


def _vertices_interfere(first: Vertex, second: Vertex) -> bool:
    return interferes(first.summary, second.summary)
