"""TreeFuser-mode slot merging: mutually exclusive tag guards for one
member/method collapse into a single fused-call slot."""

from repro.frontend import parse_program
from repro.fusion.fused_ir import GroupCall
from repro.ir.access import AccessPath, Step
from repro.ir.exprs import BinOp, Const, DataAccess, UnaryOp
from repro.ir.types import DataField
from repro.ir.validate import LanguageMode
from repro.pipeline.stages import (
    _guards_exclusive,
    _tag_test_atoms,
)
from tests.fixtures import compiled, metered


def _tag_access():
    field = DataField(name="tag", owner="TNode", type_name="int")
    return DataAccess(path=AccessPath.this(Step(field=field)))


def _eq(value):
    return BinOp(op="==", lhs=_tag_access(), rhs=Const(value, "int"))


def _or(a, b):
    return BinOp(op="||", lhs=a, rhs=b)


class TestTagTestAtoms:
    def test_single_equality(self):
        assert _tag_test_atoms(_eq(3)) == ("this->tag", {3})

    def test_disjunction_merges_constants(self):
        atoms = _tag_test_atoms(_or(_eq(1), _or(_eq(2), _eq(5))))
        assert atoms == ("this->tag", {1, 2, 5})

    def test_non_tag_shapes_rejected(self):
        assert _tag_test_atoms(Const(1, "int")) is None
        assert _tag_test_atoms(BinOp(op=">", lhs=_tag_access(), rhs=Const(1, "int"))) is None
        assert _tag_test_atoms(UnaryOp(op="!", operand=_eq(1))) is None

    def test_mixed_paths_rejected(self):
        other_field = DataField(name="other", owner="TNode", type_name="int")
        other = DataAccess(path=AccessPath.this(Step(field=other_field)))
        mixed = _or(_eq(1), BinOp(op="==", lhs=other, rhs=Const(2, "int")))
        assert _tag_test_atoms(mixed) is None


class TestGuardExclusivity:
    def test_disjoint_constants_exclusive(self):
        assert _guards_exclusive(_eq(1), _eq(2))
        assert _guards_exclusive(_or(_eq(1), _eq(3)), _eq(2))

    def test_overlapping_constants_not_exclusive(self):
        assert not _guards_exclusive(_eq(1), _eq(1))
        assert not _guards_exclusive(_or(_eq(1), _eq(2)), _eq(2))

    def test_unknown_shapes_not_exclusive(self):
        assert not _guards_exclusive(_eq(1), Const(True, "bool"))


class TestSlotMergingEndToEnd:
    SOURCE = """
    _tree_ class TN {
        _child_ TN* kid;
        int tag = 0;
        int a = 0;
        _traversal_ void p1() {
            if (this->tag == 1) { this->kid->p1(); }
            if (this->tag == 2) { this->kid->p1(); }
            if (this->tag == 1) { this->a = 1; }
            if (this->tag == 2) { this->a = 2; }
        }
        _traversal_ void p2() {
            if (this->tag == 1) { this->kid->p2(); }
            if (this->tag == 2) { this->kid->p2(); }
        }
    };
    int main() { TN* root = ...; root->p1(); root->p2(); }
    """

    def test_exclusive_variants_share_one_slot(self):
        program = parse_program(self.SOURCE, mode=LanguageMode.TREEFUSER)
        fused = compiled(program).fused
        unit = fused.units[("TN::p1", "TN::p2")]
        groups = [i for i in unit.body if isinstance(i, GroupCall)]
        assert len(groups) == 1
        group = groups[0]
        # four conditional calls merged into two slots (one per member)
        assert len(group.calls) == 2
        members = sorted(c.member for c in group.calls)
        assert members == [0, 1]
        # each slot's guard is the OR of the exclusive variants
        for call in group.calls:
            atoms = _tag_test_atoms(call.guard)
            assert atoms is not None and atoms[1] == {1, 2}

    def test_merged_slots_execute_correct_variant(self):
        from repro.runtime import Heap, Node

        program = parse_program(self.SOURCE, mode=LanguageMode.TREEFUSER)
        fused = compiled(program).fused

        def build(p, heap):
            leaf = Node.new(p, heap, "TN", tag=0)
            mid = Node.new(p, heap, "TN", tag=2, kid=leaf)
            return Node.new(p, heap, "TN", tag=1, kid=mid)

        heap_a = Heap(program)
        root_a = build(program, heap_a)
        metered(program, heap_a).run_entry(root_a)
        heap_b = Heap(program)
        root_b = build(program, heap_b)
        interp_b = metered(program, heap_b)
        interp_b.run_fused(fused, root_b)
        assert root_a.snapshot(program) == root_b.snapshot(program)
        assert root_b.get("a") == 1
        assert root_b.get("kid").get("a") == 2
