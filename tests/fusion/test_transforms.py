"""Tests for §3.5's conditional-call elimination (push_conditions)."""

import pytest

from repro.errors import FusionError
from repro.frontend import parse_program
from repro.fusion.transforms import push_conditions
from repro.ir.stmts import contains_traverse, If, TraverseStmt, walk_stmts
from repro.ir.validate import LanguageMode, validate_program
from repro.runtime import Heap, Node
from tests.fixtures import compiled, metered

SOURCE = """
_tree_ class N {
    _child_ N* kid;
    int flag = 0;
    int seen = 0;
    _traversal_ virtual void go(int depth) {}
};
_tree_ class I : public N {
    _traversal_ void go(int depth) {
        this->seen = depth;
        if (this->flag == 1) {
            this->kid->go(depth + 1);
        }
    }
};
_tree_ class L : public N { };
int main() { N* root = ...; root->go(0); }
"""


def _chain(program, heap, flags):
    node = Node.new(program, heap, "L")
    for flag in reversed(flags):
        node = Node.new(program, heap, "I", kid=node, flag=flag)
    return node


def _run(program, build, fused=None):
    heap = Heap(program)
    root = build(program, heap)
    interp = metered(program, heap)
    if fused is None:
        interp.run_entry(root)
    else:
        interp.run_fused(fused, root)
    return root, interp


class TestPushConditions:
    def test_rewritten_program_is_valid_grafter(self):
        program = parse_program(SOURCE, mode=LanguageMode.TREEFUSER)
        push_conditions(program)
        validate_program(program, LanguageMode.GRAFTER)
        body = program.tree_types["I"].methods["go"].body
        # no traverse statements remain under any `if`
        for stmt in body:
            if isinstance(stmt, If):
                assert not contains_traverse(stmt)

    def test_wrapper_created_with_guard_parameter(self):
        program = parse_program(SOURCE, mode=LanguageMode.TREEFUSER)
        push_conditions(program)
        wrapper = program.tree_types["N"].methods["go__when"]
        assert wrapper.params[0].name == "__go"
        assert wrapper.params[1].name == "depth"
        assert wrapper.virtual

    def test_semantics_preserved(self):
        # original (conditional calls executed directly by the interpreter)
        original = parse_program(SOURCE, mode=LanguageMode.TREEFUSER)
        flags = [1, 1, 0, 1]
        root_a, _ = _run(original, lambda p, h: _chain(p, h, flags))
        # transformed
        transformed = parse_program(SOURCE, mode=LanguageMode.TREEFUSER)
        push_conditions(transformed)
        root_b, _ = _run(transformed, lambda p, h: _chain(p, h, flags))
        seen_a = [n.get("seen") for n in root_a.walk(original)]
        seen_b = [n.get("seen") for n in root_b.walk(transformed)]
        assert seen_a == seen_b
        # the guard stopped recursion at the flag=0 node
        assert seen_a[:3] == [0, 1, 2]
        assert seen_a[3] == 0  # never visited past the guard

    def test_transformed_program_fuses(self):
        source = SOURCE.replace(
            "root->go(0);", "root->go(0);\n    root->go(100);"
        )
        program = parse_program(source, mode=LanguageMode.TREEFUSER)
        push_conditions(program)
        fused = compiled(program).fused
        flags = [1, 1, 1, 0, 1]
        root_a, stats_a = _run(program, lambda p, h: _chain(p, h, flags))
        root_b, stats_b = _run(
            program, lambda p, h: _chain(p, h, flags), fused=fused
        )
        assert root_a.snapshot(program) == root_b.snapshot(program)
        assert stats_b.node_visits < stats_a.node_visits

    def test_instruction_overhead_exists(self):
        """The paper: pushing conditions 'introduces instruction
        overhead' — the guard call visits the child even when false."""
        original = parse_program(SOURCE, mode=LanguageMode.TREEFUSER)
        transformed = parse_program(SOURCE, mode=LanguageMode.TREEFUSER)
        push_conditions(transformed)
        flags = [1, 0, 1, 1]
        _, interp_a = _run(original, lambda p, h: _chain(p, h, flags))
        _, interp_b = _run(transformed, lambda p, h: _chain(p, h, flags))
        assert interp_b.node_visits >= interp_a.node_visits
        assert interp_b.meter.instructions > interp_a.meter.instructions

    def test_calls_in_both_branches_rejected(self):
        source = """
        _tree_ class N {
            _child_ N* kid;
            int flag = 0;
            _traversal_ virtual void go() {}
        };
        _tree_ class I : public N {
            _traversal_ void go() {
                if (this->flag == 1) { this->kid->go(); }
                else { this->kid->go(); }
            }
        };
        _tree_ class L : public N { };
        """
        program = parse_program(source, mode=LanguageMode.TREEFUSER)
        with pytest.raises(FusionError, match="both branches"):
            push_conditions(program)

    def test_simple_statements_stay_conditional(self):
        source = """
        _tree_ class N {
            _child_ N* kid;
            int flag = 0;
            int touched = 0;
            _traversal_ virtual void go() {}
        };
        _tree_ class I : public N {
            _traversal_ void go() {
                if (this->flag == 1) {
                    this->touched = 1;
                    this->kid->go();
                }
            }
        };
        _tree_ class L : public N { };
        """
        program = parse_program(source, mode=LanguageMode.TREEFUSER)
        push_conditions(program)
        body = program.tree_types["I"].methods["go"].body
        # first statement: the residual guarded simple statement
        assert isinstance(body[0], If)
        assert not contains_traverse(body[0])
        # second: the unconditional guarded call
        assert isinstance(body[1], TraverseStmt)
        assert body[1].method_name == "go__when"
