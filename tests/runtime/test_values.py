"""Value-semantics tests: opaque objects, defaults, copying."""

import pytest

from repro.errors import RuntimeFailure
from repro.frontend import parse_program
from repro.runtime.values import ObjectValue, copy_value, default_value
from tests.fixtures import metered


def _program():
    return parse_program("""
    class Pair { int a; int b; };
    _tree_ class N { int x = 0; };
    """)


class TestObjectValue:
    def test_member_access(self):
        value = ObjectValue("Pair", {"a": 1, "b": 2})
        assert value.get("a") == 1
        value.set("b", 5)
        assert value.get("b") == 5

    def test_unknown_member_raises(self):
        value = ObjectValue("Pair", {"a": 1})
        with pytest.raises(RuntimeFailure):
            value.get("zzz")
        with pytest.raises(RuntimeFailure):
            value.set("zzz", 0)

    def test_copy_is_deep_for_members(self):
        value = ObjectValue("Pair", {"a": 1, "b": 2})
        clone = value.copy()
        clone.set("a", 99)
        assert value.get("a") == 1

    def test_equality_by_value(self):
        assert ObjectValue("Pair", {"a": 1}) == ObjectValue("Pair", {"a": 1})
        assert ObjectValue("Pair", {"a": 1}) != ObjectValue("Pair", {"a": 2})
        assert ObjectValue("Pair", {"a": 1}) != ObjectValue("Other", {"a": 1})

    def test_repr_readable(self):
        assert "Pair(a=1" in repr(ObjectValue("Pair", {"a": 1, "b": 2}))


class TestDefaults:
    def test_primitive_defaults(self):
        program = _program()
        assert default_value(program, "int") == 0
        assert default_value(program, "double") == 0.0
        assert default_value(program, "bool") is False
        assert default_value(program, "char") == "\0"

    def test_opaque_default_has_zeroed_members(self):
        program = _program()
        value = default_value(program, "Pair")
        assert value.get("a") == 0 and value.get("b") == 0

    def test_unknown_type_raises(self):
        program = _program()
        with pytest.raises(RuntimeFailure):
            default_value(program, "Mystery")


class TestCopyValue:
    def test_primitives_pass_through(self):
        assert copy_value(7) == 7
        assert copy_value(1.5) == 1.5
        assert copy_value(True) is True

    def test_objects_are_copied(self):
        value = ObjectValue("Pair", {"a": 1})
        clone = copy_value(value)
        assert clone == value and clone is not value


class TestByValueSemantics:
    def test_parameter_mutation_does_not_leak(self):
        """Opaque objects are passed by value (paper rule 4): mutating a
        parameter inside a pure function cannot affect the caller."""
        source = """
        class Box { int v; };
        _pure_ int bump(Box b);
        _tree_ class N {
            Box box;
            int out = 0;
            _traversal_ void go() {
                this->out = bump(this->box);
            }
        };
        int main() { N* root = ...; root->go(); }
        """

        def bump(box):
            box.set("v", box.get("v") + 100)  # mutate the copy
            return box.get("v")

        from repro.runtime import Heap, Node

        program = parse_program(source, pure_impls={"bump": bump})
        heap = Heap(program)
        root = Node.new(program, heap, "N", box=ObjectValue("Box", {"v": 5}))
        interp = metered(program, heap)
        interp.run_entry(root)
        assert root.get("out") == 105
        assert root.get("box").get("v") == 5  # caller's object untouched
