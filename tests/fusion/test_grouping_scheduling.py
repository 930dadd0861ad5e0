"""Direct unit tests for grouping (contraction-acyclicity) and the
topological scheduler."""

from repro.analysis import AnalysisContext, build_dependence_graph
from repro.frontend import parse_program
from repro.fusion.grouping import (
    FusionLimits,
    Group,
    _contracted_has_cycle,
    greedy_group,
    group_key,
)
from repro.fusion.scheduling import schedule


def _graph(source, seq):
    program = parse_program(source)
    ctx = AnalysisContext(program)
    members = [program.resolve_method(t, m) for t, m in seq]
    return build_dependence_graph(ctx, members)


def _grouped(source, seq, limits=FusionLimits()):
    """(graph, groups, assignment), grouped in the graph's context."""
    program = parse_program(source)
    ctx = AnalysisContext(program)
    members = [program.resolve_method(t, m) for t, m in seq]
    graph = build_dependence_graph(ctx, members)
    return (graph, *greedy_group(graph, limits, ctx))


INDEPENDENT = """
_tree_ class N {
    _child_ N* kid;
    int a = 0;
    int b = 0;
    _traversal_ virtual void p1() {}
    _traversal_ virtual void p2() {}
};
_tree_ class I : public N {
    _traversal_ void p1() { this->kid->p1(); this->a = 1; }
    _traversal_ void p2() { this->kid->p2(); this->b = 2; }
};
_tree_ class L : public N { };
int main() { N* root = ...; root->p1(); root->p2(); }
"""


class TestContraction:
    def test_identity_assignment_never_cycles(self):
        graph = _graph(INDEPENDENT, [("I", "p1"), ("I", "p2")])
        assignment = {v.index: v.index for v in graph.vertices}
        assert not _contracted_has_cycle(graph, assignment)

    def test_contracting_dependent_endpoints_with_middle_cycles(self):
        graph = _graph(INDEPENDENT, [("I", "p1"), ("I", "p2")])
        # force an artificial chain 0 -> 1 -> 2 and contract {0, 2}
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        assignment = {v.index: v.index for v in graph.vertices}
        assignment[2] = 0
        assert _contracted_has_cycle(graph, assignment)

    def test_contracting_adjacent_dependents_is_fine(self):
        graph = _graph(INDEPENDENT, [("I", "p1"), ("I", "p2")])
        graph.add_edge(0, 1)
        assignment = {v.index: v.index for v in graph.vertices}
        assignment[1] = 0  # direct edge inside the group: no cycle
        assert not _contracted_has_cycle(graph, assignment)


class TestGreedyGroup:
    def test_same_receiver_calls_group(self):
        graph, groups, _ = _grouped(INDEPENDENT, [("I", "p1"), ("I", "p2")])
        call_groups = [g for g in groups if len(g.vertex_indices) == 2]
        assert len(call_groups) == 1

    def test_group_keys_distinguish_receivers(self):
        source = """
        _tree_ class N {
            _child_ N* left;
            _child_ N* right;
            int a = 0;
            _traversal_ virtual void p() {}
        };
        _tree_ class I : public N {
            _traversal_ void p() {
                this->left->p();
                this->right->p();
            }
        };
        _tree_ class L : public N { };
        int main() { N* root = ...; root->p(); root->p(); }
        """
        graph = _graph(source, [("I", "p"), ("I", "p")])
        keys = {group_key(v) for v in graph.vertices if v.is_call}
        assert len(keys) == 2  # left vs right

    def test_max_sequence_cutoff_respected(self):
        source = """
        _tree_ class N {
            _child_ N* kid;
            int a = 0;
            _traversal_ virtual void p() {}
        };
        _tree_ class I : public N {
            _traversal_ void p() { this->kid->p(); this->a = this->a + 1; }
        };
        _tree_ class L : public N { };
        int main() { N* root = ...; root->p(); }
        """
        program = parse_program(source)
        ctx = AnalysisContext(program)
        method = program.resolve_method("I", "p")
        graph = build_dependence_graph(ctx, [method] * 6)
        groups, _ = greedy_group(graph, FusionLimits(max_sequence=3), ctx)
        call_groups = [g for g in groups if g.receiver_key.startswith("call")]
        assert all(len(g.vertex_indices) <= 3 for g in call_groups)

    def test_max_repeat_cutoff_respected(self):
        source = """
        _tree_ class N {
            _child_ N* kid;
            int a = 0;
            _traversal_ virtual void p() {}
        };
        _tree_ class I : public N {
            _traversal_ void p() { this->kid->p(); this->a = this->a + 1; }
        };
        _tree_ class L : public N { };
        int main() { N* root = ...; root->p(); }
        """
        program = parse_program(source)
        ctx = AnalysisContext(program)
        method = program.resolve_method("I", "p")
        graph = build_dependence_graph(ctx, [method] * 6)
        groups, _ = greedy_group(graph, FusionLimits(max_repeat=2), ctx)
        for group in groups:
            names = [
                call.method_name
                for index in group.vertex_indices
                for call in graph.vertices[index].nested_calls
            ]
            assert names.count("p") <= 2


class TestScheduler:
    def test_schedule_covers_all_vertices_once(self):
        graph, groups, assignment = _grouped(
            INDEPENDENT, [("I", "p1"), ("I", "p2")]
        )
        order = schedule(graph, groups, assignment)
        flat = [i for unit in order for i in unit]
        assert sorted(flat) == [v.index for v in graph.vertices]

    def test_schedule_respects_dependences(self):
        graph, groups, assignment = _grouped(
            INDEPENDENT, [("I", "p1"), ("I", "p2")]
        )
        order = schedule(graph, groups, assignment)
        position = {}
        for slot, unit in enumerate(order):
            for index in unit:
                position[index] = slot
        for src, dsts in graph.succ.items():
            for dst in dsts:
                assert position[src] <= position[dst]

    def test_schedule_prefers_source_order_for_independents(self):
        graph, groups, assignment = _grouped(
            INDEPENDENT, [("I", "p1"), ("I", "p2")]
        )
        order = schedule(graph, groups, assignment)
        # the two assigns (a=1 from m0, b=2 from m1) are independent and
        # must keep source order: m0's before m1's
        singles = [unit[0] for unit in order if len(unit) == 1]
        members = [graph.vertices[i].member for i in singles]
        assert members == sorted(members)

    def test_grouped_calls_are_adjacent(self):
        graph, groups, assignment = _grouped(
            INDEPENDENT, [("I", "p1"), ("I", "p2")]
        )
        order = schedule(graph, groups, assignment)
        group_units = [unit for unit in order if len(unit) > 1]
        assert group_units  # the two calls fused into one schedule slot
