"""Tests for the §3.5 loop extension: `while` inside traversal bodies."""

import pytest

from repro.errors import ValidationError
from repro.frontend import parse_program
from repro.ir.printer import print_program
from repro.ir.stmts import While
from repro.pipeline.stages import plan_and_synthesize
from repro.runtime import Heap, Node
from repro.treefuser import lower_program, lower_tree
from tests.fixtures import metered

LOOP_SOURCE = """
_tree_ class N {
    _child_ N* kid;
    int value = 0;
    int total = 0;
    int steps = 0;
    _traversal_ virtual void sumDigits() {}
    _traversal_ virtual void scale() {}
};
_tree_ class I : public N {
    _traversal_ void sumDigits() {
        int v = this->value;
        int acc = 0;
        while (v > 0) {
            acc = acc + v % 10;
            v = v / 10;
            this->steps = this->steps + 1;
        }
        this->total = acc;
        this->kid->sumDigits();
    }
    _traversal_ void scale() {
        this->value = this->value * 2;
        this->kid->scale();
    }
};
_tree_ class L : public N { };
int main() { N* root = ...; root->sumDigits(); root->scale(); }
"""


def _chain(program, heap, values):
    node = Node.new(program, heap, "L")
    for value in reversed(values):
        node = Node.new(program, heap, "I", kid=node, value=value)
    return node


class TestWhileExtension:
    def test_parses_and_validates(self):
        program = parse_program(LOOP_SOURCE)
        body = program.tree_types["I"].methods["sumDigits"].body
        assert any(isinstance(s, While) for s in body)

    def test_loop_executes_correctly(self):
        program = parse_program(LOOP_SOURCE)
        heap = Heap(program)
        root = _chain(program, heap, [947, 55])
        interp = metered(program, heap)
        interp.run_entry(root)
        assert root.get("total") == 9 + 4 + 7
        assert root.get("steps") == 3
        assert root.get("kid").get("total") == 10

    def test_traverse_inside_while_rejected(self):
        source = """
        _tree_ class N {
            _child_ N* kid;
            int x = 0;
            _traversal_ virtual void go() {}
        };
        _tree_ class I : public N {
            _traversal_ void go() {
                while (this->x > 0) { this->kid->go(); }
            }
        };
        """
        with pytest.raises(ValidationError, match="loops may not invoke"):
            parse_program(source)

    def test_nonterminating_loop_caught(self):
        source = """
        _tree_ class N {
            int x = 0;
            _traversal_ void go() {
                while (1 > 0) { this->x = this->x + 1; }
            }
        };
        int main() { N* root = ...; root->go(); }
        """
        from repro.errors import RuntimeFailure

        program = parse_program(source)
        heap = Heap(program)
        root = Node.new(program, heap, "N")
        interp = metered(program, heap)
        with pytest.raises(RuntimeFailure, match="iterations"):
            interp.run_entry(root)

    def test_loops_fuse_with_neighbouring_passes(self):
        """The loop's accesses are summarized like a branch's, so the two
        traversals still fuse — and results agree with unfused."""
        program = parse_program(LOOP_SOURCE)
        fused = plan_and_synthesize(program)
        values = [12, 305, 7]
        heap_a = Heap(program)
        root_a = _chain(program, heap_a, values)
        metered(program, heap_a).run_entry(root_a)
        heap_b = Heap(program)
        root_b = _chain(program, heap_b, values)
        interp_b = metered(program, heap_b)
        interp_b.run_fused(fused, root_b)
        assert root_a.snapshot(program) == root_b.snapshot(program)
        # sumDigits+scale fused into one visit per node
        assert interp_b.node_visits * 2 <= len(values) * 2 + 4

    def test_loop_dependences_respected(self):
        """scale writes `value` which sumDigits' loop reads: fusion must
        keep sumDigits' loop before scale's write at each node."""
        program = parse_program(LOOP_SOURCE)
        fused = plan_and_synthesize(program)
        unit = fused.units[("I::sumDigits", "I::scale")]
        from repro.fusion.fused_ir import GuardedStmt

        positions = {}
        for index, item in enumerate(unit.body):
            if isinstance(item, GuardedStmt):
                text = str(item.stmt)
                if text.startswith("while"):
                    positions["loop"] = index
                if "value * 2" in text:
                    positions["scale_write"] = index
        assert positions["loop"] < positions["scale_write"]

    def test_printer_round_trips_loops(self):
        program = parse_program(LOOP_SOURCE)
        printed = print_program(program)
        assert "while ((v > 0)) {" in printed
        reparsed = parse_program(printed)
        assert any(
            isinstance(s, While)
            for s in reparsed.tree_types["I"].methods["sumDigits"].body
        )

    def test_treefuser_lowering_handles_loops(self):
        program = parse_program(LOOP_SOURCE)
        lowered = lower_program(program)
        heap = Heap(lowered.program)
        src_heap = Heap(program)
        twin = lower_tree(
            program, lowered, heap, _chain(program, src_heap, [947])
        )
        interp = metered(lowered.program, heap)
        interp.run_entry(twin)
        assert twin.get("total") == 20
