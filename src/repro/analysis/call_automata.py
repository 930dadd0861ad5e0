"""Algorithm 1: access automata for traversing calls (paper §3.2.1).

A traversing call can reach an unbounded set of nodes through mutual
recursion and dynamic dispatch. The paper summarizes everything such a
call may access — *relative to the caller's traversed node* — by building
an automaton over the labeled call graph:

* the start state takes the traversed-node (ROOT) transition;
* each reachable concrete method gets one state (memoized — recursion
  becomes a loop, which is what makes unbounded trees finite here);
* an edge of the call graph labeled with child field ``c`` becomes a
  ``c``-transition between method states (epsilon for calls on ``this``);
* the (un-rooted) access paths of each method's simple statements are
  inserted in place at the method's state, so the regular language of a
  statement becomes the suffix of the path that reaches its function
  (Fig. 5b) without a copy of a per-statement automaton.

Read machines mark method states accepting — traversing into a child reads
the child pointer. Write machines accept only within inserted statement
write paths.

Each call shape's summary is built once per compile, and only when a
verdict first needs a vertex that contains the call. Its four automata
are the parts that every such vertex's summary shares by reference (see
:mod:`repro.analysis.summaries`); nothing copies them afterwards.

Environment (off-tree) accesses of reachable methods are not parameterized
by the receiver (paper: "regardless of when and where the function gets
called, those access paths will be the same"), so they are unioned
directly. Callee locals are frame-private and excluded; argument
expressions of nested calls are evaluated in the enclosing frame and are
attached at the enclosing method's state by the statement accesses.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.automata import EPSILON, Automaton
from repro.analysis.accesses import (
    AccessInfo,
    StatementAccesses,
    collect_method_accesses,
)
from repro.analysis.callgraph import call_targets
from repro.analysis.summaries import (
    ROOT_LABEL,
    StatementSummary,
    env_language,
    language,
)
from repro.ir.method import TraversalMethod
from repro.ir.program import Program
from repro.ir.stmts import TraverseStmt, nested_traversals


class AnalysisContext:
    """One compile's dependence facts, each computed once: raw accesses
    per method, summaries per call shape and per vertex origin, and
    verdicts per pair of vertex origins (see :meth:`verdict`). The
    caches live exactly as long as the context, which a compile creates
    for itself — nothing is shared across compiles."""

    def __init__(self, program: Program):
        self.program = program
        self._method_accesses: dict[str, list[StatementAccesses]] = {}
        self._call_summaries: dict[tuple, StatementSummary] = {}
        # (method, statement position, member slot) -> (site, full),
        # filled as verdicts first read each vertex's summaries
        self.vertex_summaries: dict[
            tuple[str, int, int], tuple[StatementSummary, StatementSummary]
        ] = {}
        self._verdicts: dict[tuple, bool] = {}
        # "<kind>_tests" / "<kind>_memo_hits" -> count, per verdict kind
        self.verdict_counts: Counter[str] = Counter()

    def method_accesses(self, method: TraversalMethod) -> list[StatementAccesses]:
        key = method.qualified_name
        if key not in self._method_accesses:
            self._method_accesses[key] = collect_method_accesses(
                self.program, method
            )
        return self._method_accesses[key]

    def seed_accesses(
        self, qualified_name: str, accesses: list[StatementAccesses]
    ) -> None:
        """Adopt precomputed (possibly unit-cache-loaded) raw accesses
        for one method, so later summary queries skip the collection."""
        self._method_accesses[qualified_name] = accesses

    def call_summary(
        self, caller: TraversalMethod, stmt: TraverseStmt
    ) -> StatementSummary:
        receiver_label = (
            None if stmt.receiver.is_this else stmt.receiver.child.label
        )
        static_type = (
            caller.owner if stmt.receiver.is_this else stmt.receiver.child.type_name
        )
        key = (static_type, stmt.method_name, receiver_label)
        if key not in self._call_summaries:
            self._call_summaries[key] = build_call_summary(
                self, caller, stmt
            )
        return self._call_summaries[key]

    def verdict(self, kind: str, first, second, test) -> bool:
        """``test(first, second)`` for two dependence-graph vertices,
        computed once per ``(kind, first.origin, second.origin, same
        member)`` — however many sequences the two statements meet in."""
        # Sound key: a vertex's summaries are fixed by its origin
        # (method, statement position) up to its `local:` labels, which
        # _rename_locals maps one-to-one onto `local:<member>:` labels
        # (call summaries carry no locals). Two vertices' locals can
        # coincide only when they share a member slot, and the renaming
        # keeps whether they do, so an automaton-intersection verdict
        # depends on the slots only through that one bit.
        key = (kind, first.origin, second.origin, first.member == second.member)
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._verdicts[key] = test(first, second)
            self.verdict_counts[f"{kind}_tests"] += 1
        else:
            self.verdict_counts[f"{kind}_memo_hits"] += 1
        return verdict


@dataclass
class _Builder:
    """Shared construction state for the read and write tree machines."""

    ctx: AnalysisContext
    reads: Automaton
    writes: Automaton
    read_states: dict[str, int]
    write_states: dict[str, int]
    env_reads: list[AccessInfo]
    env_writes: list[AccessInfo]

    def ensure_method(self, method: TraversalMethod) -> tuple[int, int]:
        """State pair for a concrete method, creating (and recursing) on
        first encounter. Returns (read_state, write_state)."""
        name = method.qualified_name
        if name in self.read_states:
            return self.read_states[name], self.write_states[name]
        # method states are accepting in the read machine: reaching a
        # function through child c reads the pointer this->...->c.
        read_state = self.reads.add_state(accepting=True)
        write_state = self.writes.add_state()
        self.read_states[name] = read_state
        self.write_states[name] = write_state
        for accesses in self.ctx.method_accesses(method):
            self._attach_statement(accesses, read_state, write_state)
            for call in nested_traversals(accesses.stmt):
                self._attach_call(method, call, read_state, write_state)
        return read_state, write_state

    def _attach_statement(
        self, accesses: StatementAccesses, read_state: int, write_state: int
    ) -> None:
        for info in accesses.tree_reads:
            self.reads.add_path(
                read_state,
                info.labels,
                accept_prefixes=True,
                any_suffix=info.any_suffix,
            )
        for info in accesses.tree_writes:
            self.writes.add_path(
                write_state,
                info.labels,
                accept_prefixes=False,
                any_suffix=info.any_suffix,
            )
        self.env_reads.extend(_globals_only(accesses.env_reads))
        self.env_writes.extend(_globals_only(accesses.env_writes))

    def _attach_call(
        self,
        caller: TraversalMethod,
        call: TraverseStmt,
        read_state: int,
        write_state: int,
    ) -> None:
        label = EPSILON if call.receiver.is_this else call.receiver.child.label
        for target in call_targets(self.ctx.program, caller, call):
            target_read, target_write = self.ensure_method(target)
            self.reads.add_transition(read_state, label, target_read)
            self.writes.add_transition(write_state, label, target_write)


def _globals_only(accesses: list[AccessInfo]) -> list[AccessInfo]:
    return [info for info in accesses if info.labels and info.labels[0].startswith("::")]


def build_call_summary(
    ctx: AnalysisContext, caller: TraversalMethod, stmt: TraverseStmt
) -> StatementSummary:
    """The access summary of everything a traversing call may do,
    relative to the caller's traversed node (Algorithm 1): one automaton
    per language, which vertex summaries share as parts.

    Note: the call statement's *own* argument reads and receiver-pointer
    read are site-specific (they involve caller locals) and are added by
    the dependence-graph builder from the statement's raw accesses; this
    summary covers the transitive callee behaviour.
    """
    reads = Automaton(f"call:{stmt.method_name}:reads")
    writes = Automaton(f"call:{stmt.method_name}:writes")
    read_hub = reads.add_state(accepting=False)
    write_hub = writes.add_state()
    reads.add_transition(reads.start, ROOT_LABEL, read_hub)
    writes.add_transition(writes.start, ROOT_LABEL, write_hub)
    builder = _Builder(
        ctx=ctx,
        reads=reads,
        writes=writes,
        read_states={},
        write_states={},
        env_reads=[],
        env_writes=[],
    )
    builder._attach_call(caller, stmt, read_hub, write_hub)
    return StatementSummary(
        tree_reads=language([reads]),
        tree_writes=language([writes]),
        env_reads=env_language(builder.env_reads, is_write=False),
        env_writes=env_language(builder.env_writes, is_write=True),
    )
