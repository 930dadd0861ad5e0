"""TreeFuser lowering tests: structure, semantics, and fusion behaviour."""

import random

import pytest

from repro.frontend import parse_program
from repro.fusion.fused_ir import GroupCall
from repro.runtime import Heap, Node
from repro.runtime.values import ObjectValue
from repro.treefuser import lower_program, lower_tree

from tests.fixtures import compiled, fig2_program, metered
from tests.generators import random_program_source, random_tree


def _fig2_tree(program, heap):
    def textbox(n, nxt):
        return Node.new(
            program, heap, "TextBox",
            Text=ObjectValue("String", {"Length": n}), Next=nxt,
        )

    content = textbox(5, textbox(7, Node.new(program, heap, "End")))
    group = Node.new(program, heap, "Group")
    group.set("Content", content)
    group.set("Next", textbox(3, Node.new(program, heap, "End")))
    group.get("Border").set("Size", 2)
    return group


class TestLoweredStructure:
    def test_single_tree_type_with_tag(self):
        lowered = lower_program(fig2_program())
        assert set(lowered.program.tree_types) == {"TNode"}
        tnode = lowered.program.tree_types["TNode"]
        assert "tag" in tnode.data
        assert set(tnode.children) == {"Element_Next", "Group_Content"}

    def test_tags_cover_concrete_types(self):
        lowered = lower_program(fig2_program())
        assert set(lowered.tags) == {"End", "Group", "TextBox"}
        assert len(set(lowered.tags.values())) == 3

    def test_one_function_per_traversal_name(self):
        lowered = lower_program(fig2_program())
        tnode = lowered.program.tree_types["TNode"]
        assert set(tnode.methods) == {"computeWidth", "computeHeight"}
        assert not tnode.methods["computeWidth"].virtual

    def test_calls_become_conditional_blocks(self):
        from repro.ir.stmts import If, TraverseStmt

        lowered = lower_program(fig2_program())
        body = lowered.program.tree_types["TNode"].methods["computeWidth"].body
        assert all(isinstance(s, If) for s in body)
        calls = [
            s for s in body
            if len(s.then_body) == 1 and isinstance(s.then_body[0], TraverseStmt)
        ]
        assert len(calls) == 3  # Group: Content+Next, TextBox: Next

    def test_lowered_tree_mirrors_structure(self):
        program = fig2_program()
        lowered = lower_program(program)
        heap_src = Heap(program)
        root = _fig2_tree(program, heap_src)
        heap_dst = Heap(lowered.program)
        twin = lower_tree(program, lowered, heap_dst, root)
        assert twin.get("tag") == lowered.tag_of("Group")
        assert twin.get("Border").get("Size") == 2
        content = twin.get("Group_Content")
        assert content.get("tag") == lowered.tag_of("TextBox")
        assert content.get("Text").get("Length") == 5
        assert root.count_nodes(program) == twin.count_nodes(lowered.program)


class TestLoweredSemantics:
    def test_lowered_unfused_matches_heterogeneous(self):
        program = fig2_program()
        lowered = lower_program(program)
        # heterogeneous run
        heap_a = Heap(program)
        root_a = _fig2_tree(program, heap_a)
        interp_a = metered(program, heap_a)
        interp_a.globals["CHAR_WIDTH"] = 2
        interp_a.run_entry(root_a)
        # lowered run
        heap_b = Heap(lowered.program)
        root_b = lower_tree(program, lowered, heap_b, _fig2_tree(program, Heap(program)))
        interp_b = metered(lowered.program, heap_b)
        interp_b.globals["CHAR_WIDTH"] = 2
        interp_b.run_entry(root_b)
        assert root_a.get("Width") == root_b.get("Width")
        assert root_a.get("MaxHeight") == root_b.get("MaxHeight")
        # baselines do the same work: identical node visits (paper §5.1)
        assert interp_a.node_visits == interp_b.node_visits
        # ...but the tagged union pays conditional overhead
        assert interp_b.meter.instructions > interp_a.meter.instructions

    def test_lowered_fused_matches_lowered_unfused(self):
        program = fig2_program()
        lowered = lower_program(program)
        fused = compiled(lowered.program).fused
        heap_a = Heap(lowered.program)
        root_a = lower_tree(program, lowered, heap_a, _fig2_tree(program, Heap(program)))
        interp_a = metered(lowered.program, heap_a)
        interp_a.globals["CHAR_WIDTH"] = 2
        interp_a.run_entry(root_a)
        heap_b = Heap(lowered.program)
        root_b = lower_tree(program, lowered, heap_b, _fig2_tree(program, Heap(program)))
        interp_b = metered(lowered.program, heap_b)
        interp_b.globals["CHAR_WIDTH"] = 2
        interp_b.run_fused(fused, root_b)
        assert root_a.snapshot(lowered.program) == root_b.snapshot(lowered.program)
        assert interp_b.node_visits < interp_a.node_visits

    def test_grafter_fuses_more_than_treefuser(self):
        """The paper's central comparison: on the same workload, Grafter's
        type-specific fusion removes more node visits than the tagged-union
        baseline, whose branch-unioned dependences block some groups."""
        program = fig2_program()
        # Grafter
        fused_het = compiled(program).fused
        heap_g = Heap(program)
        root_g = _fig2_tree(program, heap_g)
        interp_g = metered(program, heap_g)
        interp_g.globals["CHAR_WIDTH"] = 2
        interp_g.run_fused(fused_het, root_g)
        # TreeFuser
        lowered = lower_program(program)
        fused_low = compiled(lowered.program).fused
        heap_t = Heap(lowered.program)
        root_t = lower_tree(program, lowered, heap_t, _fig2_tree(program, Heap(program)))
        interp_t = metered(lowered.program, heap_t)
        interp_t.globals["CHAR_WIDTH"] = 2
        interp_t.run_fused(fused_low, root_t)
        assert interp_g.node_visits < interp_t.node_visits

    def test_mutation_lowers_and_runs(self):
        source = """
        _tree_ class E {
            _child_ E* next;
            int kind = 0;
            _traversal_ virtual void rw() {}
        };
        _tree_ class C : public E {
            _traversal_ void rw() {
                this->next->rw();
                if (this->next.kind == 7) {
                    delete this->next;
                    this->next = new Z();
                }
            }
        };
        _tree_ class Z : public E { };
        int main() { E* root = ...; root->rw(); }
        """
        program = parse_program(source)
        lowered = lower_program(program)

        def build(p, heap):
            node = Node.new(p, heap, "Z")
            node = Node.new(p, heap, "C", kind=7, next=node)
            return Node.new(p, heap, "C", next=node)

        heap = Heap(lowered.program)
        root = lower_tree(program, lowered, heap, build(program, Heap(program)))
        interp = metered(lowered.program, heap)
        interp.run_entry(root)
        # the marked node was replaced by a fresh TNode tagged Z
        replacement = root.get("E_next")
        assert replacement.get("tag") == lowered.tag_of("Z")


class TestRandomLoweredPrograms:
    @pytest.mark.parametrize("seed", range(15))
    def test_lowered_fused_equivalence(self, seed):
        rng = random.Random(seed)
        source = random_program_source(rng)
        program = parse_program(source, name=f"rand{seed}")
        lowered = lower_program(program)

        def build_het():
            heap = Heap(program)
            return heap, random_tree(
                program, heap, random.Random(seed + 77), max_depth=3
            )

        # lowered unfused
        _, het_root_a = build_het()
        heap_a = Heap(lowered.program)
        root_a = lower_tree(program, lowered, heap_a, het_root_a)
        interp_a = metered(lowered.program, heap_a)
        interp_a.run_entry(root_a)
        # lowered fused
        _, het_root_b = build_het()
        heap_b = Heap(lowered.program)
        root_b = lower_tree(program, lowered, heap_b, het_root_b)
        interp_b = metered(lowered.program, heap_b)
        fused = compiled(lowered.program).fused
        interp_b.run_fused(fused, root_b)
        assert root_a.snapshot(lowered.program) == root_b.snapshot(
            lowered.program
        ), f"seed {seed}\n{source}"
        assert interp_a.globals == interp_b.globals
