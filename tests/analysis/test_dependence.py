"""Dependence-graph tests, including the paper's Fig. 1 scenario,
call automata (Fig. 5 / Algorithm 1) behaviour, and the soundness of
the per-compile memo of summaries and verdicts."""

import json
import pathlib

import pytest

from repro.analysis import (
    AnalysisContext,
    build_call_graph,
    build_dependence_graph,
)
from repro.frontend import parse_program
from repro.fusion.grouping import FusionLimits, greedy_group
from repro.fuzz import generate_case
from repro.pipeline import CompileOptions
from repro.pipeline import compile as pipeline_compile
from repro.pipeline.stages import DepStructure, FusionPlanner
from repro.workloads.astlang import astlang_workload
from repro.workloads.fmm import fmm_workload
from repro.workloads.kdtree import kdtree_workload
from repro.workloads.render import render_workload

from tests.fixtures import fig1_program, fig2_program

WORKLOADS = {
    "render": render_workload,
    "astlang": astlang_workload,
    "kdtree": kdtree_workload,
    "fmm": fmm_workload,
}

FUZZ_CORPUS = json.loads(
    (pathlib.Path(__file__).parents[1] / "fuzz" / "seeds.json").read_text()
)


def _graph_for(program, seq):
    ctx = AnalysisContext(program)
    members = [program.resolve_method(t, m) for t, m in seq]
    return build_dependence_graph(ctx, members)


class TestFig1:
    """Fig. 1: f1 writes this.x (s1), f2 reads this.x (s2) => s1 -> s2."""

    def test_s1_to_s2_dependence(self):
        program = fig1_program()
        graph = _graph_for(program, [("Inner", "f1"), ("Inner", "f2")])
        # vertex order: [f1: call f3, f1: s1 writes x] [f2: s2 reads x, f2: call f4]
        s1 = graph.vertices[1]
        s2 = graph.vertices[2]
        assert "x" in str(s1.stmt)
        assert graph.has_edge(s1.index, s2.index)

    def test_calls_on_same_child_are_independent_when_disjoint(self):
        # f3 only touches y below the child; f4 only touches x below the
        # child; the two calls don't conflict with each other.
        program = fig1_program()
        graph = _graph_for(program, [("Inner", "f1"), ("Inner", "f2")])
        call_f3 = graph.vertices[0]
        call_f4 = graph.vertices[3]
        assert call_f3.is_call and call_f4.is_call
        assert not graph.has_edge(call_f3.index, call_f4.index)

    def test_s2_depends_on_call_f4(self):
        # s2 reads this.x; f4 on the *child* writes child.x — disjoint
        # locations (different nodes), so no dependence; but f4's call
        # vertex and s1 (writes this.x at the same node)? also disjoint.
        # The only other required edge: s2 reads this.x while f4 writes
        # this.child.x — no edge. Assert exact edge set for the sequence.
        program = fig1_program()
        graph = _graph_for(program, [("Inner", "f1"), ("Inner", "f2")])
        edges = {
            (src, dst) for src, dsts in graph.succ.items() for dst in dsts
        }
        assert (1, 2) in edges  # s1 -> s2 through this.x

    def test_same_function_twice_copies_are_distinct(self):
        program = fig1_program()
        graph = _graph_for(program, [("Inner", "f1"), ("Inner", "f1")])
        # both copies write this.x -> write/write dependence across copies
        s1_first = graph.vertices[1]
        s1_second = graph.vertices[3]
        assert graph.has_edge(s1_first.index, s1_second.index)


class TestFig2:
    def test_width_before_height_dependences(self):
        program = fig2_program()
        graph = _graph_for(
            program, [("TextBox", "computeWidth"), ("TextBox", "computeHeight")]
        )
        # computeHeight reads this->Width which computeWidth writes
        width_assign = graph.vertices[1]
        height_assign = graph.vertices[4]
        assert "Width" in str(width_assign.stmt)
        assert "Height" in str(height_assign.stmt)
        assert graph.has_edge(width_assign.index, height_assign.index)

    def test_group_calls_on_different_children_independent(self):
        program = fig2_program()
        graph = _graph_for(
            program, [("Group", "computeWidth"), ("Group", "computeHeight")]
        )
        vertices = graph.vertices
        # Content->computeWidth() vs Next->computeHeight(): different
        # children, disjoint subtrees -> no dependence either way.
        content_w = vertices[0]
        next_h = vertices[5]
        assert content_w.call.receiver.child.name == "Content"
        assert next_h.call.receiver.child.name == "Next"
        assert not graph.has_edge(content_w.index, next_h.index)

    def test_calls_on_same_child_conflict_through_width(self):
        program = fig2_program()
        graph = _graph_for(
            program, [("Group", "computeWidth"), ("Group", "computeHeight")]
        )
        # Content->computeWidth() writes Content subtree widths;
        # Content->computeHeight() *reads* Width (TextBox height uses
        # Width) -> dependence between the two calls on the same child.
        content_w = graph.vertices[0]
        content_h = graph.vertices[4]
        assert content_h.call.receiver.child.name == "Content"
        assert graph.has_edge(content_w.index, content_h.index)


class TestControlDependence:
    SOURCE = """
    _tree_ class Node {
        _child_ Node* kid;
        int a = 0;
        int b = 0;
        int stop = 0;
        _traversal_ virtual void go() {}
        _traversal_ virtual void other() {}
    };
    _tree_ class Inner : public Node {
        _traversal_ void go() {
            if (this->stop == 1) return;
            this->a = 1;
            this->kid->go();
        }
        _traversal_ void other() {
            this->b = 2;
        }
    };
    _tree_ class Stop : public Node { };
    """

    def test_return_orders_same_copy_statements(self):
        program = parse_program(self.SOURCE)
        graph = _graph_for(program, [("Inner", "go"), ("Inner", "other")])
        guard = graph.vertices[0]
        assign_a = graph.vertices[1]
        call = graph.vertices[2]
        assert guard.has_return
        assert graph.has_edge(guard.index, assign_a.index)
        assert graph.has_edge(guard.index, call.index)

    def test_return_does_not_order_other_copies(self):
        program = parse_program(self.SOURCE)
        graph = _graph_for(program, [("Inner", "go"), ("Inner", "other")])
        guard = graph.vertices[0]
        assign_b = graph.vertices[3]
        assert assign_b.member == 1
        # different copy, disjoint data -> movable past the return
        assert not graph.has_edge(guard.index, assign_b.index)


class TestCallAutomata:
    def test_mutual_recursion_terminates_and_summarizes(self):
        source = """
        _tree_ class A {
            _child_ B* b;
            int x = 0;
            _traversal_ virtual void ping() {}
        };
        _tree_ class B {
            _child_ A* a;
            int y = 0;
            _traversal_ virtual void pong() {}
        };
        _tree_ class A2 : public A {
            _traversal_ void ping() {
                this->b->pong();
                this->x = 1;
            }
        };
        _tree_ class B2 : public B {
            _traversal_ void pong() {
                this->a->ping();
                this->y = 2;
            }
        };
        """
        program = parse_program(source)
        ctx = AnalysisContext(program)
        method = program.tree_types["A2"].methods["ping"]
        call = method.body[0]
        summary = ctx.call_summary(method, call)
        from repro.analysis import ROOT_LABEL

        # the call may write this->b.y, this->b->a.x, this->b->a->b.y, ...
        assert summary.tree_writes.accepts([ROOT_LABEL, "A.b", "B.y"])
        assert summary.tree_writes.accepts(
            [ROOT_LABEL, "A.b", "B.a", "A.x"]
        )
        assert summary.tree_writes.accepts(
            [ROOT_LABEL, "A.b", "B.a", "A.b", "B.y"]
        )
        assert not summary.tree_writes.accepts([ROOT_LABEL, "A.x"])

    def test_virtual_dispatch_unions_all_overrides(self):
        program = fig2_program()
        ctx = AnalysisContext(program)
        method = program.tree_types["Group"].methods["computeWidth"]
        call = method.body[0]  # this->Content->computeWidth()
        summary = ctx.call_summary(method, call)
        from repro.analysis import ROOT_LABEL

        # TextBox::computeWidth writes Width below Content...
        assert summary.tree_writes.accepts(
            [ROOT_LABEL, "Group.Content", "Element.Width"]
        )
        # ...and Group::computeWidth recurses through Content->Content
        assert summary.tree_writes.accepts(
            [ROOT_LABEL, "Group.Content", "Group.Content", "Element.TotalWidth"]
        )
        # reads the child pointer itself
        assert summary.tree_reads.accepts([ROOT_LABEL, "Group.Content"])

    def test_call_graph_contents(self):
        program = fig2_program()
        method = program.tree_types["Group"].methods["computeWidth"]
        graph = build_call_graph(program, [method])
        names = set(graph.methods)
        assert "Group::computeWidth" in names
        assert "TextBox::computeWidth" in names
        assert "Element::computeWidth" in names  # End inherits the no-op
        labels = {e.label for e in graph.edges}
        assert "Group.Content" in labels
        assert "Element.Next" in labels


class TestMemoSoundness:
    """One compile shares one AnalysisContext: vertex summaries per
    (method, statement position, member slot) and verdicts per (origin,
    origin, same member slot). Sharing must never change a graph."""

    @pytest.mark.parametrize(
        "kind, arg",
        [("workload", name) for name in WORKLOADS]
        + [("fuzz", seed) for seed in FUZZ_CORPUS["seeds"]],
    )
    def test_shared_context_matches_fresh_context(self, kind, arg):
        if kind == "workload":
            program = WORKLOADS[arg]().source
        else:
            case = generate_case(arg, max_depth=FUZZ_CORPUS["max_depth"])
            program = parse_program(case.source, name=f"fuzz-{arg}")
        program.finalize()
        limits = FusionLimits()
        planner = FusionPlanner(program, limits, AnalysisContext(program))
        planner.plan_entry()
        assert planner.plans
        for plan in planner.plans.values():
            # a fresh context per sequence: nothing memoized across graphs
            fresh_ctx = AnalysisContext(program)
            fresh = build_dependence_graph(fresh_ctx, plan.members)
            assert DepStructure.of(plan.graph) == DepStructure.of(fresh)
            groups, assignment = greedy_group(fresh, limits, fresh_ctx)
            assert [g.vertex_indices for g in plan.groups] == [
                g.vertex_indices for g in groups
            ]
            assert plan.assignment == assignment

    def test_locals_conflict_within_a_copy_only(self):
        # f writes local t, then reads it: an edge inside each copy of
        # [T.f, T.f], none across. A verdict key without the same-member
        # bit would reuse the in-copy verdict for the cross-copy pair.
        program = parse_program(
            """
            _tree_ class T {
                int a = 0;
                _traversal_ void f() {
                    int t = this->a;
                    int u = t + 1;
                }
            };
            """
        )
        f = program.resolve_method("T", "f")
        ctx = AnalysisContext(program)
        graph = build_dependence_graph(ctx, [f, f])
        edges = {
            (src, dst) for src, dsts in graph.succ.items() for dst in dsts
        }
        assert edges == {(0, 1), (2, 3)}
        assert ctx.verdict_counts["interference_memo_hits"] > 0

    def test_cold_astlang_compile_test_count(self):
        # a count guard, not a timing gate: the memo leaves one test per
        # distinct (origin, origin, same member) key of the compile
        result = pipeline_compile(
            astlang_workload(),
            options=CompileOptions(use_cache=False, emit=False),
        )
        detail = {t.name: t.detail for t in result.timings}
        tests = sum(
            detail[name]["interference_tests"]
            for name in ("dependence", "fusion")
        )
        assert 0 < tests <= 398
        assert detail["fusion"]["interference_memo_hits"] > tests
