"""Direct tests of fused-execution semantics: active flags, per-frame
truncation isolation, guarded slots, argument passing for truncated
members (the paper's §3.4 runtime behaviour)."""

from repro.frontend import parse_program
from repro.runtime import Heap, Node
from tests.fixtures import compiled, metered

TRUNCATING = """
_tree_ class N {
    _child_ N* kid;
    int stopA = 0;
    int sawA = 0;
    int sawB = 0;
    _traversal_ virtual void passA(int d) {}
    _traversal_ virtual void passB(int d) {}
};
_tree_ class I : public N {
    _traversal_ void passA(int d) {
        if (this->stopA == 1) return;
        this->sawA = d;
        this->kid->passA(d + 1);
    }
    _traversal_ void passB(int d) {
        this->sawB = d;
        this->kid->passB(d + 10);
    }
};
_tree_ class L : public N { };
int main() { N* root = ...; root->passA(1); root->passB(1); }
"""


def _chain(program, heap, stops):
    node = Node.new(program, heap, "L")
    for stop in reversed(stops):
        node = Node.new(program, heap, "I", kid=node, stopA=stop)
    return node


def _run_fused(stops):
    program = parse_program(TRUNCATING)
    fused = compiled(program).fused
    heap = Heap(program)
    root = _chain(program, heap, stops)
    interp = metered(program, heap)
    interp.run_fused(fused, root)
    return program, root, interp


class TestActiveFlags:
    def test_truncated_member_stops_while_other_continues(self):
        program, root, _ = _run_fused([0, 1, 0, 0])
        nodes = [n for n in root.walk(program) if n.type_name == "I"]
        # passA truncates at node 1 (its own statements stop there)...
        assert [n.get("sawA") for n in nodes] == [1, 0, 0, 0]
        # ...but passB keeps descending through the whole chain
        assert [n.get("sawB") for n in nodes] == [1, 11, 21, 31]

    def test_truncation_is_per_frame(self):
        # truncation at depth 0 still runs passA nowhere but passB fully
        program, root, interp = _run_fused([1, 0])
        nodes = [n for n in root.walk(program) if n.type_name == "I"]
        assert [n.get("sawA") for n in nodes] == [0, 0]
        assert [n.get("sawB") for n in nodes] == [1, 11]
        assert interp.truncations == 1

    def test_all_flags_cleared_short_circuits(self):
        """Once every member truncates, the fused frame stops early; the
        subtree below is never visited."""
        source = TRUNCATING.replace("this->sawB = d;",
                                    "if (this->stopA == 1) return;\n"
                                    "        this->sawB = d;")
        program = parse_program(source)
        fused = compiled(program).fused
        heap = Heap(program)
        root = _chain(program, heap, [0, 1, 0, 0, 0])
        interp = metered(program, heap)
        interp.run_fused(fused, root)
        nodes = [n for n in root.walk(program) if n.type_name == "I"]
        # both passes truncate at node 1; nodes 2+ never visited
        assert [n.get("sawA") for n in nodes] == [1, 0, 0, 0, 0]
        assert [n.get("sawB") for n in nodes] == [1, 0, 0, 0, 0]
        # visits: node0 + node1 (where both truncate); not 5
        assert interp.node_visits <= 3

    def test_arguments_still_passed_after_truncation(self):
        """Paper §5.2: parameters of truncated traversals keep being
        passed — the fused call still carries passA's argument slot, and
        the instruction cost model charges for it."""
        program = parse_program(TRUNCATING)
        fused = compiled(program).fused
        unit = fused.units[("I::passA", "I::passB")]
        from repro.fusion.fused_ir import GroupCall

        group = next(i for i in unit.body if isinstance(i, GroupCall))
        assert len(group.calls) == 2
        assert all(len(c.args) == 1 for c in group.calls)


class TestVisitAccounting:
    def test_fused_visit_counts_once_per_node(self):
        program = parse_program(TRUNCATING)
        fused = compiled(program).fused
        heap = Heap(program)
        root = _chain(program, heap, [0, 0, 0])
        interp = metered(program, heap)
        interp.run_fused(fused, root)
        # 3 I nodes + 1 L node, each visited once by the fused traversal
        assert interp.node_visits == 4

    def test_unfused_visits_twice_per_node(self):
        program = parse_program(TRUNCATING)
        heap = Heap(program)
        root = _chain(program, heap, [0, 0, 0])
        interp = metered(program, heap)
        interp.run_entry(root)
        assert interp.node_visits == 8
