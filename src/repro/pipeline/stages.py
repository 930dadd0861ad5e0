"""The staged compilation pipeline (parse → … → emit).

This module is the former monolithic ``fusion/engine.py`` decomposed
into named, separately-timed passes:

* **parse** — Grafter surface text → resolved IR (skipped for trusted
  ``Program`` inputs).
* **validate** — the language restrictions of paper Fig. 3.
* **lower** — optional TreeFuser pre-pass (``options.lower``): the
  tagged-union twin replaces the program, so lowered compiles get the
  same per-pass timings and unit caching.
* **access-analysis** — per-statement read/write automata for every
  traversal method (paper §3.1–3.2), precomputed so later stages only
  hit warm caches.
* **dependence** — dependence graphs for the entry sequences (§3.3).
* **fusion** — the synthesis *plan*: greedy grouping with the
  contraction-acyclicity check, guard merging, and the worklist
  discovery of every reachable fused sequence (§3.3 step 4, §4).
* **schedule** — topological ordering of each planned unit and assembly
  of the final :class:`FusedProgram` (§3.4).
* **emit** — generated Python modules (the reproduction's analogue of
  Grafter's C++ output), exec'd and ready to run.

Planning (fusion) and body synthesis (schedule) are split: the fusion
pass's worklist discovers units and the planner groups each one, the
scheduler orders bodies. The split is faithful to the original engine
because both greedy grouping and the scheduler keep group members in
program order, so planning a group before knowing its scheduled
position cannot change its member slots.

These passes are the only code that plans, synthesizes and emits: the
CLI, sessions, benchmarks, tests and the differential fuzzer all fuse
through ``repro.pipeline.compile``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.analysis.call_automata import AnalysisContext
from repro.analysis.dependence import (
    DependenceGraph,
    Vertex,
    build_dependence_graph,
    build_vertices,
    graph_from_edges,
)
from repro.codegen.python_backend import module_methods
from repro.frontend.parser import parse_program
from repro.fusion.fused_ir import (
    EntryGroup,
    FusedProgram,
    FusedUnit,
    GroupCall,
    GuardedStmt,
    MemberCall,
    print_fused_program,
)
from repro.fusion.grouping import (
    FusionLimits,
    Group,
    conditional_call,
    greedy_group,
)
from repro.fusion.scheduling import schedule
from repro.ir.access import Receiver
from repro.ir.exprs import BinOp
from repro.ir.method import TraversalMethod
from repro.ir.program import Program
from repro.ir.validate import validate_program
from repro.layout.base import layout_backend
from repro.pipeline.manager import PassContext, Unit
from repro.pipeline.options import hash_program, hash_text

SequenceKey = tuple[str, ...]


# ===========================================================================
# cached structures (what the unit store holds for dependence/fusion)
# ===========================================================================


@dataclass
class DepStructure:
    """A dependence graph minus its vertices: the edge list over the
    sequence's positional statement layout (see ``build_vertices``).
    Keyed on the members' *analysis* closures, it replays over current
    statement objects — reusing the O(n²) interference testing while
    never caching a stale statement."""

    vertex_count: int
    edges: list[tuple[int, int]]

    @staticmethod
    def of(graph: DependenceGraph) -> "DepStructure":
        return DepStructure(
            vertex_count=len(graph.vertices),
            edges=[
                (src, dst)
                for src, dsts in sorted(graph.succ.items())
                for dst in sorted(dsts)
            ],
        )


@dataclass
class PlanStructure:
    """A unit plan minus everything body-bound: the dependence edges
    plus greedy grouping's decisions. Replaying it needs no access
    automata at all — vertices are rebuilt, their summaries are never
    read and so never built, and the group plans (slot merging,
    dispatch) recompute from current statements."""

    dep: DepStructure
    groups: list[tuple[str, list[int]]]  # (receiver key, vertex indices)
    assignment: dict[int, int]

    @staticmethod
    def of(plan: "UnitPlan") -> "PlanStructure":
        return PlanStructure(
            dep=DepStructure.of(plan.graph),
            groups=[
                (g.receiver_key, list(g.vertex_indices))
                for g in plan.groups
            ],
            assignment=dict(plan.assignment),
        )


# ===========================================================================
# fusion planning (the engine's synthesis decisions, minus body order)
# ===========================================================================


@dataclass
class GroupPlan:
    """One fused call site: merged member slots plus, per concrete
    receiver type, the key of the child unit the call dispatches to."""

    leader: int  # smallest vertex index in the group
    vertex_indices: list[int]
    receiver: Receiver
    calls: list[MemberCall]
    dispatch_keys: dict[str, SequenceKey] = field(default_factory=dict)


@dataclass
class UnitPlan:
    """Everything decided about one fused unit before body ordering."""

    key: SequenceKey
    label: str
    members: list[TraversalMethod]
    this_type: str
    graph: DependenceGraph | None = None
    groups: list[Group] = field(default_factory=list)
    assignment: dict[int, int] = field(default_factory=dict)
    group_plans: dict[int, GroupPlan] = field(default_factory=dict)
    # the child sequences this plan's groups dispatch to (deduplicated,
    # discovery order) — how a worklist continues planning without the
    # plan itself recursing, and how a *cached* plan tells the fusion
    # pass which units it still needs
    child_sequences: list[tuple[TraversalMethod, ...]] = field(
        default_factory=list
    )
    # the keys of child_sequences, which keep it deduplicated
    child_keys: set[SequenceKey] = field(default_factory=set)


@dataclass
class EntryPlan:
    """One chunk of the entry sequence with its per-type unit keys."""

    method_names: list[str]
    args_per_member: list[tuple]
    dispatch_keys: dict[str, SequenceKey] = field(default_factory=dict)


class FusionPlanner:
    """Planning state of one compile: dependence graphs (shared with the
    dependence pass), structures replayed from the unit store, and the
    plan of every sequence planned so far.

    It plans one sequence at a time (:meth:`plan_one`,
    :meth:`plan_from_structure`); the fusion pass's worklist discovers
    the sequences. The pass registers a sequence under its key *before*
    planning it, so self-referential sequences terminate as recursive
    references, and memoization on the key keeps the label space finite
    under the cutoffs (paper §4).
    """

    def __init__(
        self,
        program: Program,
        limits: FusionLimits,
        ctx: AnalysisContext,
    ):
        self.program = program
        self.limits = limits
        self.ctx = ctx
        self.graphs: dict[SequenceKey, DependenceGraph] = {}
        # cached DepStructures (from the dependence pass's unit layer):
        # graph_for replays their edges over fresh vertices instead of
        # re-running the O(n²) interference tests
        self.structures: dict[SequenceKey, DepStructure] = {}
        self.plans: dict[SequenceKey, UnitPlan] = {}

    # -- dependence graphs (shared with the dependence pass) ------------

    def graph_for(
        self, members: tuple[TraversalMethod, ...]
    ) -> DependenceGraph:
        key = tuple(m.qualified_name for m in members)
        if key not in self.graphs:
            structure = self.structures.get(key)
            if structure is not None:
                # summaries stay unbuilt until grouping's first hazard
                # verdict that misses the memo reads them
                vertices = build_vertices(self.ctx, list(members))
                # defensive: a structure whose layout disagrees with the
                # current statements (an aliased or corrupt cache entry)
                # must never be replayed — rebuild from scratch instead
                if structure.vertex_count != len(vertices):
                    structure = None
                else:
                    self.graphs[key] = graph_from_edges(
                        vertices, structure.edges
                    )
            if structure is None:
                self.graphs[key] = build_dependence_graph(
                    self.ctx, list(members)
                )
        return self.graphs[key]

    def entry_chunks(self):
        """The entry sequence chunked to ``max_sequence``, each chunk
        with its per-concrete-root-subtype member resolution: a list of
        ``(chunk, [(type_name, members), ...])``. Both the dependence
        pass (graph prewarming) and the fusion pass (entry planning)
        iterate this single resolution. A program with no entry (no
        ``main``, or no root type) has no chunks: it compiles to its
        unfused module and a fused program with no units."""
        program = self.program
        if program.root_type_name is None or not program.entry:
            return []
        chunks = []
        calls = program.entry
        chunk_size = self.limits.max_sequence
        for start in range(0, len(calls), chunk_size):
            chunk = calls[start : start + chunk_size]
            resolved = [
                (
                    type_name,
                    tuple(
                        program.resolve_method(type_name, c.method_name)
                        for c in chunk
                    ),
                )
                for type_name in program.concrete_subtypes(
                    program.root_type_name
                )
            ]
            chunks.append((chunk, resolved))
        return chunks

    def entry_sequences(self) -> list[tuple[TraversalMethod, ...]]:
        """The concrete member sequences the entry dispatches to: one per
        (entry chunk, concrete root subtype) pair."""
        return [
            members
            for _, resolved in self.entry_chunks()
            for _, members in resolved
        ]

    # -- planning -------------------------------------------------------

    def plan_one(
        self, members: tuple[TraversalMethod, ...]
    ) -> UnitPlan:
        """Plan exactly one sequence: groups, slot merging, and the
        *keys* of the child sequences its groups dispatch to — without
        planning the children (the fusion pass's worklist owns that)."""
        plan = UnitPlan(
            key=tuple(m.qualified_name for m in members),
            label=_label_for(tuple(m.qualified_name for m in members)),
            members=list(members),
            this_type=self.program.common_supertype(
                m.owner for m in members
            ),
        )
        graph = self.graph_for(members)
        plan.graph = graph
        plan.groups, plan.assignment = greedy_group(
            graph, self.limits, self.ctx
        )
        self._plan_groups(plan)
        return plan

    def plan_from_structure(
        self,
        members: tuple[TraversalMethod, ...],
        structure: PlanStructure,
    ) -> UnitPlan:
        """Replay a cached :class:`PlanStructure` over the *current*
        program: vertices are rebuilt from today's method bodies (so
        nothing stale is ever emitted or executed; their summaries are
        never read, so none is built), the
        cached edges/groups/assignment substitute for interference
        testing and greedy grouping, and the group plans (slot merging,
        dispatch resolution) recompute cheaply from the fresh
        statements."""
        key = tuple(m.qualified_name for m in members)
        vertices = build_vertices(self.ctx, list(members))
        if structure.dep.vertex_count != len(vertices):
            # defensive: layout disagreement means the cache entry does
            # not describe these statements — plan from scratch
            return self.plan_one(members)
        plan = UnitPlan(
            key=key,
            label=_label_for(key),
            members=list(members),
            this_type=self.program.common_supertype(
                m.owner for m in members
            ),
        )
        plan.graph = graph_from_edges(vertices, structure.dep.edges)
        plan.groups = [
            Group(receiver_key=receiver, vertex_indices=list(indices))
            for receiver, indices in structure.groups
        ]
        plan.assignment = dict(structure.assignment)
        self._plan_groups(plan)
        return plan

    def _plan_groups(self, plan: UnitPlan) -> None:
        vertex_by_index = {v.index: v for v in plan.graph.vertices}
        for group in plan.groups:
            vertices = [
                vertex_by_index[i] for i in sorted(group.vertex_indices)
            ]
            group_plan = self._plan_group(plan, vertices)
            plan.group_plans[group_plan.leader] = group_plan

    def _plan_group(
        self, plan: UnitPlan, vertices: list[Vertex]
    ) -> GroupPlan:
        """Merge a group's member slots and discover its child sequences.

        Conditional call blocks (TreeFuser mode) of the same member that
        invoke the same method with the same arguments under *mutually
        exclusive* tag guards collapse into one member slot with the
        guards OR-ed — the real TreeFuser's "one function per traversal"
        structure, which keeps the fused sequence from amplifying across
        type variants. Non-exclusive guards fall back to separate slots,
        which is always sound (each slot still fires per its own guard).
        """
        slots: dict[tuple, MemberCall] = {}
        receiver = None
        for vertex in vertices:
            if vertex.call is not None:
                call_stmt = vertex.call
                guard = None
            else:
                conditional = conditional_call(vertex)
                assert conditional is not None
                guard, call_stmt = conditional
            receiver = call_stmt.receiver
            member_call = MemberCall(
                member=vertex.member,
                method_name=call_stmt.method_name,
                args=call_stmt.args,
                guard=guard,
            )
            if guard is None:
                slots[("plain", vertex.index)] = member_call
                continue
            key = (
                "cond",
                vertex.member,
                call_stmt.method_name,
                tuple(str(a) for a in call_stmt.args),
            )
            existing = slots.get(key)
            if existing is None:
                slots[key] = member_call
            elif _guards_exclusive(existing.guard, guard):
                existing.guard = BinOp(
                    op="||", lhs=existing.guard, rhs=guard
                )
            else:
                slots[key + (len(slots),)] = member_call
        calls = list(slots.values())
        assert receiver is not None
        if receiver.is_this:
            static_type = plan.this_type
        else:
            static_type = receiver.child.type_name
        group_plan = GroupPlan(
            leader=vertices[0].index,
            vertex_indices=[v.index for v in vertices],
            receiver=receiver,
            calls=calls,
        )
        for type_name in self.program.concrete_subtypes(static_type):
            target = tuple(
                self.program.resolve_method(type_name, call.method_name)
                for call in calls
            )
            child_key = tuple(m.qualified_name for m in target)
            group_plan.dispatch_keys[type_name] = child_key
            if child_key not in plan.child_keys:
                plan.child_keys.add(child_key)
                plan.child_sequences.append(target)
        return group_plan


def synthesize_fused(
    program: Program,
    planner: FusionPlanner,
    entry_plans: list[EntryPlan],
    orders: dict[SequenceKey, list[list[int]]],
) -> FusedProgram:
    """Assemble the FusedProgram from every planned unit and its
    topological order of the contracted dependence graph (*orders*, one
    per plan key, computed unit by unit by the schedule pass): group
    leaders are replaced by their fused calls (paper §3.4)."""
    units: dict[SequenceKey, FusedUnit] = {}
    for key, plan in planner.plans.items():
        units[key] = FusedUnit(
            label=plan.label,
            key=key,
            members=plan.members,
            this_type=plan.this_type,
        )
    for key, plan in planner.plans.items():
        vertex_by_index = {v.index: v for v in plan.graph.vertices}
        body = []
        for unit_indices in orders[key]:
            leader = unit_indices[0]
            group_plan = plan.group_plans.get(leader)
            if group_plan is None:
                vertex = vertex_by_index[leader]
                body.append(GuardedStmt(vertex.member, vertex.stmt))
            else:
                group = GroupCall(
                    receiver=group_plan.receiver, calls=group_plan.calls
                )
                for type_name, child_key in group_plan.dispatch_keys.items():
                    group.dispatch[type_name] = units[child_key]
                body.append(group)
        units[key].body = body
    entry_groups: list[EntryGroup] = []
    for entry in entry_plans:
        group = EntryGroup(
            method_names=entry.method_names,
            args_per_member=entry.args_per_member,
        )
        for type_name, child_key in entry.dispatch_keys.items():
            group.dispatch[type_name] = units[child_key]
        entry_groups.append(group)
    return FusedProgram(
        program=program,
        root_type=program.root_type_name,
        entry_groups=entry_groups,
        units=units,
    )


# ===========================================================================
# guard exclusivity (TreeFuser tag dispatch)
# ===========================================================================


def _guards_exclusive(a, b) -> bool:
    """Provably mutually exclusive guards: both are disjunctions of
    equality tests of the *same* data path against constants, with
    disjoint constant sets — the exact shape the TreeFuser lowering
    produces for tag dispatch."""
    atoms_a = _tag_test_atoms(a)
    atoms_b = _tag_test_atoms(b)
    if atoms_a is None or atoms_b is None:
        return False
    path_a, consts_a = atoms_a
    path_b, consts_b = atoms_b
    return path_a == path_b and not (consts_a & consts_b)


def _tag_test_atoms(expr):
    """Decompose ``p == k1 || p == k2 || ...`` into (path text, {k...})."""
    from repro.ir.exprs import Const, DataAccess

    if isinstance(expr, BinOp) and expr.op == "==":
        if isinstance(expr.lhs, DataAccess) and isinstance(expr.rhs, Const):
            return str(expr.lhs.path), {expr.rhs.value}
        return None
    if isinstance(expr, BinOp) and expr.op == "||":
        left = _tag_test_atoms(expr.lhs)
        right = _tag_test_atoms(expr.rhs)
        if left is None or right is None or left[0] != right[0]:
            return None
        return left[0], left[1] | right[1]
    return None


def _label_for(key: SequenceKey) -> str:
    """A readable unique label like ``_fuse__TextBox_computeWidth__...``."""
    short = "__".join(name.replace("::", "_") for name in key)
    if len(short) > 120:
        import hashlib

        digest = hashlib.sha1(short.encode()).hexdigest()[:10]
        short = f"{short[:100]}__{digest}"
    return f"_fuse__{short}"


# ===========================================================================
# the passes
# ===========================================================================


class ParsePass:
    """Grafter surface text → resolved IR; one whole-program unit,
    skipped for trusted ``Program`` inputs."""

    name = "parse"

    def __init__(self):
        self.stats: dict[str, int] = {"skipped": 1}

    def discover(self, pctx: PassContext):
        if pctx.program is not None:
            return []
        return [Unit(kind="program", key=None, label=pctx.name)]

    def compute(self, pctx: PassContext, unit: Unit):
        return parse_program(
            pctx.source_text,
            name=pctx.name,
            pure_impls=pctx.pure_impls,
            mode=pctx.options.language_mode,
            validate=False,
        )

    def install(self, pctx: PassContext, unit: Unit, program) -> None:
        pctx.program = program
        self.stats = {
            "tree_types": len(program.tree_types),
            "methods": sum(1 for _ in program.all_methods()),
        }

    def finish(self, pctx: PassContext) -> dict[str, int]:
        return self.stats


class ValidatePass:
    """The language restrictions of paper Fig. 3 (whole program)."""

    name = "validate"

    def __init__(self):
        self.stats: dict[str, int] = {"skipped": 1}

    def discover(self, pctx: PassContext):
        if pctx.trusted_program:
            pctx.program.finalize()
            return []
        return [Unit(kind="program", key=None, label=pctx.name)]

    def compute(self, pctx: PassContext, unit: Unit):
        validate_program(pctx.program, pctx.options.language_mode)
        return True

    def install(self, pctx: PassContext, unit: Unit, artifact) -> None:
        self.stats = {
            "methods": sum(1 for _ in pctx.program.all_methods())
        }

    def finish(self, pctx: PassContext) -> dict[str, int]:
        return self.stats


class LowerPass:
    """Optional TreeFuser pre-pass: heterogeneous → tagged-union twin.

    Enabled by ``CompileOptions(lower=True)``; the lowered program
    replaces the context's program, so every later pass — and the unit
    index keys they cache under — sees the tagged union, with the same
    per-pass timings and caching the heterogeneous path gets (the
    lowering itself is one whole-program unit keyed on the input's
    content hash, replacing the old side-channel artifact layer).
    """

    name = "lower"
    persist_units = True

    def __init__(self):
        self.stats: dict[str, int] = {"skipped": 1}

    def discover(self, pctx: PassContext):
        if not pctx.options.lower:
            return []
        key = None
        if pctx.units is not None:
            key = hash_text(f"lower\x00{pctx.source_hash}")
        return [Unit(kind="program", key=key, label=pctx.name)]

    def compute(self, pctx: PassContext, unit: Unit):
        from repro.treefuser.lowering import lower_program

        return lower_program(pctx.program)

    def install(self, pctx: PassContext, unit: Unit, lowered) -> None:
        pctx.lowered = lowered
        pctx.program = lowered.program
        pctx.reset_unit_index()
        self.stats = {
            "tags": len(lowered.tags),
            "slots": len(set(lowered.slot_names.values())),
            "methods": sum(1 for _ in lowered.program.all_methods()),
        }

    def finish(self, pctx: PassContext) -> dict[str, int]:
        return self.stats


class AccessAnalysisPass:
    """Per-statement read/write automata (paper §3.1–3.2), one unit per
    traversal method, keyed on the method body + schema."""

    name = "access-analysis"

    def __init__(self):
        self.methods = 0
        self.statements = 0

    def discover(self, pctx: PassContext):
        pctx.analysis = AnalysisContext(pctx.program)
        units = []
        for method in pctx.program.all_methods():
            key = (
                pctx.unit_index.method_key(method, "access")
                if pctx.units is not None
                else None
            )
            units.append(
                Unit(
                    kind="method",
                    key=key,
                    label=method.qualified_name,
                    payload=method,
                )
            )
        return units

    def compute(self, pctx: PassContext, unit: Unit):
        from repro.analysis.accesses import collect_method_accesses

        return collect_method_accesses(pctx.program, unit.payload)

    def install(self, pctx: PassContext, unit: Unit, accesses) -> None:
        pctx.analysis.seed_accesses(unit.payload.qualified_name, accesses)
        self.methods += 1
        self.statements += len(accesses)

    def finish(self, pctx: PassContext) -> dict[str, int]:
        return {"methods": self.methods, "statements": self.statements}


def _verdict_detail(
    pctx: PassContext, before: Counter, kinds: tuple[str, ...]
) -> dict[str, int]:
    """A pass's share of the compile's memoized verdicts: the automaton
    tests it ran and the tests the context's memo answered instead."""
    counts = pctx.analysis.verdict_counts
    return {
        key: counts[key] - before[key]
        for kind in kinds
        for key in (f"{kind}_tests", f"{kind}_memo_hits")
    }


class DependencePass:
    """Dependence graphs for the entry sequences (§3.3), one unit per
    distinct concrete member sequence. The cached artifact is the graph
    *structure* (:class:`DepStructure`) keyed on the members' analysis
    closures (without the fusion limits), so a warm store skips the
    O(n²) interference testing while vertices always rebuild from the
    current statements. A cold graph's vertex summaries and
    interference verdicts stay in the compile's
    :class:`AnalysisContext`, where the fusion pass's graphs reuse them;
    the detail's ``interference_tests`` counts the verdicts this pass
    computed and ``interference_memo_hits`` those the memo answered."""

    name = "dependence"
    persist_units = True

    def discover(self, pctx: PassContext):
        self.verdicts_before = Counter(pctx.analysis.verdict_counts)
        pctx.planner = FusionPlanner(
            pctx.program, pctx.options.limits, pctx.analysis
        )
        units = []
        seen: set[SequenceKey] = set()
        for members in pctx.planner.entry_sequences():
            name_key = tuple(m.qualified_name for m in members)
            if name_key in seen:
                continue
            seen.add(name_key)
            key = (
                pctx.unit_index.sequence_key(
                    members,
                    "deps",
                    analysis_ctx=pctx.analysis,
                    with_limits=False,
                )
                if pctx.units is not None
                else None
            )
            units.append(
                Unit(
                    kind="sequence",
                    key=key,
                    label="+".join(name_key),
                    payload=members,
                )
            )
        return units

    def compute(self, pctx: PassContext, unit: Unit):
        graph = build_dependence_graph(pctx.analysis, list(unit.payload))
        name_key = tuple(m.qualified_name for m in unit.payload)
        pctx.planner.graphs[name_key] = graph
        return DepStructure.of(graph)

    def install(self, pctx: PassContext, unit: Unit, structure) -> None:
        name_key = tuple(m.qualified_name for m in unit.payload)
        pctx.planner.structures[name_key] = structure

    def finish(self, pctx: PassContext) -> dict[str, int]:
        # install records a structure for hit and miss alike, so the
        # structures are the one complete census (planner.graphs holds
        # only the freshly rebuilt ones)
        structures = pctx.planner.structures
        return {
            "graphs": len(structures),
            "vertices": sum(
                s.vertex_count for s in structures.values()
            ),
            "edges": sum(len(s.edges) for s in structures.values()),
            **_verdict_detail(
                pctx, self.verdicts_before, ("interference",)
            ),
        }


class FusionPass:
    """The synthesis plan (§3.3 step 4, §4), one unit per fused
    sequence. The unit set is *discovered*: planning a sequence names
    the child sequences its groups dispatch to, which ``install``
    enqueues — so a cached plan contributes its children without being
    re-planned, and only dirtied sequences re-run grouping.

    The cached artifact is the :class:`PlanStructure` (edges + greedy
    grouping's decisions), keyed on the members' analysis closures plus
    the fusion limits: replaying it needs neither summaries nor
    interference tests, and an edit that only changes computation
    (a constant, an operator) keeps hitting — the ROADMAP's
    dependence-summary memoization. Within one compile, the detail's
    ``interference_*`` and ``hazard_*`` (grouping's argument hazards)
    counts split each kind of verdict into tests run and memo hits.

    A freshly planned sequence's :class:`DepStructure` is published to
    the memory tier only, for a later compile in the same process that
    changes the limits alone: the plan unit already stores the same
    edges on disk, so the structure gets no file of its own. Vertex
    summaries are built only by the verdicts that miss the memo, a
    replayed structure included (see ``build_vertices``)."""

    name = "fusion"
    persist_units = True

    def __init__(self):
        self.pending: set[SequenceKey] = set()
        self._fresh: dict[SequenceKey, UnitPlan] = {}

    def discover(self, pctx: PassContext):
        self.verdicts_before = Counter(pctx.analysis.verdict_counts)
        planner = pctx.planner
        units = []
        entry_plans: list[EntryPlan] = []
        for chunk, resolved in planner.entry_chunks():
            entry = EntryPlan(
                method_names=[c.method_name for c in chunk],
                args_per_member=[c.args for c in chunk],
            )
            for type_name, members in resolved:
                entry.dispatch_keys[type_name] = tuple(
                    m.qualified_name for m in members
                )
                units.extend(self._unit_for(pctx, members))
            entry_plans.append(entry)
        pctx.entry_plans = entry_plans
        return units

    def _unit_for(self, pctx: PassContext, members) -> list[Unit]:
        name_key = tuple(m.qualified_name for m in members)
        if name_key in self.pending or name_key in pctx.planner.plans:
            return []
        self.pending.add(name_key)
        key = (
            pctx.unit_index.sequence_key(
                members, "plan", analysis_ctx=pctx.analysis
            )
            if pctx.units is not None
            else None
        )
        return [
            Unit(
                kind="sequence",
                key=key,
                label=_label_for(name_key),
                payload=members,
            )
        ]

    def compute(self, pctx: PassContext, unit: Unit):
        members = tuple(unit.payload)
        name_key = tuple(m.qualified_name for m in members)
        planner = pctx.planner
        deps_key = None
        if pctx.units is not None:
            # the plan is dirty, but its dependence *edges* may not be
            # (a limits sweep changes the plan key only): replay a
            # cached structure so plan_one skips the interference tests
            deps_key = pctx.unit_index.sequence_key(
                members,
                "deps",
                analysis_ctx=pctx.analysis,
                with_limits=False,
            )
            if name_key not in planner.structures:
                structure = pctx.units.lookup("dependence", deps_key)
                if structure is not None:
                    planner.structures[name_key] = structure
        had_structure = name_key in planner.structures
        plan = planner.plan_one(members)
        self._fresh[name_key] = plan
        if pctx.units is not None and not had_structure:
            # a freshly built graph doubles as a dependence structure
            # for exactly those future sweeps (known structures came
            # *from* the store — don't rewrite their pickles). Memory
            # only: the plan unit this compute publishes embeds the same
            # edges, and a file per structure would double the pass's
            # store writes
            pctx.units.publish(
                "dependence", deps_key, DepStructure.of(plan.graph)
            )
        return PlanStructure.of(plan)

    def install(self, pctx: PassContext, unit: Unit, structure) -> None:
        name_key = tuple(m.qualified_name for m in unit.payload)
        plan = self._fresh.pop(name_key, None)
        if plan is None:
            plan = pctx.planner.plan_from_structure(
                tuple(unit.payload), structure
            )
        pctx.planner.plans[plan.key] = plan
        for child in plan.child_sequences:
            for child_unit in self._unit_for(pctx, child):
                pctx.enqueue(child_unit)

    def finish(self, pctx: PassContext) -> dict[str, int]:
        plans = pctx.planner.plans
        return {
            "units": len(plans),
            "groups": sum(len(p.groups) for p in plans.values()),
            "graphs": len(pctx.planner.graphs),
            **_verdict_detail(
                pctx, self.verdicts_before, ("interference", "hazard")
            ),
        }


class SchedulePass:
    """Topological ordering of each planned unit (§3.4), one unit per
    plan; assembly of the FusedProgram happens in ``finish``. Ordering
    a contracted graph is cheap relative to planning it, so schedule
    units stay uncached — the win is the per-unit instrumentation."""

    name = "schedule"

    def __init__(self):
        self.orders: dict[SequenceKey, list[list[int]]] = {}

    def discover(self, pctx: PassContext):
        return [
            Unit(kind="sequence", key=None, label=plan.label, payload=plan)
            for plan in pctx.planner.plans.values()
        ]

    def compute(self, pctx: PassContext, unit: Unit):
        plan = unit.payload
        return schedule(plan.graph, plan.groups, plan.assignment)

    def install(self, pctx: PassContext, unit: Unit, order) -> None:
        self.orders[unit.payload.key] = order

    def finish(self, pctx: PassContext) -> dict[str, int]:
        pctx.fused = synthesize_fused(
            pctx.program,
            pctx.planner,
            pctx.entry_plans,
            orders=self.orders,
        )
        stats = pctx.fused.stats()
        return {
            "units": stats["units"],
            "max_width": stats["max_width"],
            "group_calls": stats["group_calls"],
            "body_items": sum(
                len(u.body) for u in pctx.fused.units.values()
            ),
        }


class EmitPass:
    """Generated Python, one unit per module function: every unfused
    method and every fused unit emits (or reloads) its own source text;
    ``finish`` stitches the pieces into the two modules. After an edit
    only the dirtied functions re-emit — the rest come from the unit
    store byte-identical.

    ``CompileOptions(layout=...)`` picks the backend from
    :data:`repro.layout.base.LAYOUTS`: its emitters, assemblers and
    module classes, the salt its pieces cache under (``emit`` /
    ``emit:pooled``) and the prefix of its module keys (``""`` /
    ``pooled-``), so the two layouts never alias in any storage tier
    (the unit index's schema hash does not see the layout knob — the
    salt carries it)."""

    name = "emit"
    persist_units = True

    def __init__(self):
        self.skipped = False
        self.backend = None
        self.method_sources: dict[str, str] = {}
        self.unit_sources: dict[SequenceKey, tuple[str, list[str]]] = {}
        self.fresh_units = 0

    def discover(self, pctx: PassContext):
        if not pctx.options.emit:
            self.skipped = True
            return []
        self.backend = layout_backend(pctx.options.layout)
        salt = self.backend.emit_salt
        units = []
        for qualified, method in module_methods(pctx.program).items():
            key = (
                pctx.unit_index.method_key(method, salt)
                if pctx.units is not None
                else None
            )
            units.append(
                Unit(kind="method", key=key, label=qualified, payload=method)
            )
        for seq_key in sorted(pctx.fused.units):
            fused_unit = pctx.fused.units[seq_key]
            key = (
                pctx.unit_index.sequence_key(fused_unit.members, salt)
                if pctx.units is not None
                else None
            )
            units.append(
                Unit(
                    kind="fused-unit",
                    key=key,
                    label=fused_unit.label,
                    payload=fused_unit,
                )
            )
        return units

    def compute(self, pctx: PassContext, unit: Unit):
        self.fresh_units += 1
        if unit.kind == "method":
            return self.backend.emit_method(pctx.program, unit.payload)
        return self.backend.emit_unit(pctx.program, unit.payload)

    def install(self, pctx: PassContext, unit: Unit, artifact) -> None:
        if unit.kind == "method":
            self.method_sources[unit.payload.qualified_name] = artifact
        else:
            self.unit_sources[unit.payload.key] = artifact

    def finish(self, pctx: PassContext) -> dict[str, int]:
        if self.skipped:
            return {"skipped": 1}
        backend = self.backend
        # module artifacts are keyed on the *program* hash (not the
        # source-text hash) so text-sourced and Program-sourced compiles
        # share one exec'd module per content; unlike unit keys, the
        # program hash includes the pure-impl signature — a module
        # object binds its program (and through it the impls), so impl
        # rebindings must not share one. A Program handed in and not
        # lowered is the one the source hash already printed.
        if pctx.trusted_program and pctx.lowered is None:
            program_hash = pctx.source_hash
        else:
            program_hash = hash_program(pctx.program)
        pctx.compiled_unfused = self._module(
            pctx,
            (f"{backend.module_prefix}unfused-module", program_hash),
            lambda: backend.unfused_module(pctx.program, self.method_sources),
        )
        pctx.unfused_source = pctx.compiled_unfused.source
        pctx.compiled_fused = self._module(
            pctx,
            (
                f"{backend.module_prefix}fused-module",
                program_hash,
                hash_text(print_fused_program(pctx.fused)),
            ),
            lambda: backend.fused_module(
                pctx.fused, self.method_sources, self.unit_sources
            ),
        )
        pctx.fused_source = pctx.compiled_fused.source
        return {
            "unfused_lines": len(pctx.unfused_source.splitlines()),
            "fused_lines": len(pctx.fused_source.splitlines()),
            "fresh_functions": self.fresh_units,
        }

    @staticmethod
    def _module(pctx: PassContext, key: tuple, build):
        """The store's memory tier's module under *key*, else
        ``build()``'s, stored there."""
        memory = pctx.store.memory if pctx.store is not None else None
        # `is not None`: an empty-looking tier (no results) may still
        # hold modules
        hit = memory.fetch("module", key) if memory is not None else None
        if hit:
            return hit[0]
        module = build()
        if pctx.units is None:
            # plain compiles keep the eager exec (surface bad codegen
            # immediately); unit-assembled modules build their namespace
            # lazily on first run, like an artifact restored from the
            # disk store
            module.namespace
        if memory is not None:
            memory.store("module", key, module)
        return module


def default_passes() -> list:
    """The staged flow, in order. A fresh list per compile: pass objects
    carry per-run unit state (sources, orders, pending sets), so
    managers stay independently instrumentable."""
    return [
        ParsePass(),
        ValidatePass(),
        LowerPass(),
        AccessAnalysisPass(),
        DependencePass(),
        FusionPass(),
        SchedulePass(),
        EmitPass(),
    ]
