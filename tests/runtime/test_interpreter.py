"""Interpreter semantics tests (original, unfused execution)."""

import pytest

from repro.errors import RuntimeFailure
from repro.frontend import parse_program
from repro.runtime import ExecStats, Heap, Node
from repro.runtime.values import ObjectValue

from tests.fixtures import fig2_program, metered


def _run(source, build_tree, pure_impls=None, globals_init=None):
    program = parse_program(source, pure_impls=pure_impls or {})
    heap = Heap(program)
    root = build_tree(program, heap)
    interp = metered(program, heap)
    for name, value in (globals_init or {}).items():
        interp.globals[name] = value
    interp.run_entry(root)
    return program, root, interp


class TestArithmetic:
    SOURCE = """
    _tree_ class N {
        int a = 0; int b = 0; int q = 0; int r = 0; int neg = 0;
        _traversal_ void go() {
            this->a = 7; this->b = -2;
            this->q = this->a / this->b;
            this->r = this->a % this->b;
            this->neg = -this->a / 2;
        }
    };
    int main() { N* root = ...; root->go(); }
    """

    def test_cxx_trunc_division(self):
        _, root, _ = _run(self.SOURCE, lambda p, h: Node.new(p, h, "N"))
        assert root.get("q") == -3  # trunc toward zero
        assert root.get("r") == 1  # sign of dividend
        assert root.get("neg") == -3

    def test_division_by_zero_raises(self):
        source = """
        _tree_ class N { int a = 0;
            _traversal_ void go() { this->a = 1 / this->a; } };
        int main() { N* root = ...; root->go(); }
        """
        with pytest.raises(RuntimeFailure, match="division by zero"):
            _run(source, lambda p, h: Node.new(p, h, "N"))


class TestControlFlowAndTruncation:
    SOURCE = """
    _tree_ class N {
        _child_ N* kid;
        int depth = 0;
        int visited = 0;
        int limit = 0;
        _traversal_ virtual void go(int d) {}
    };
    _tree_ class Inner : public N {
        _traversal_ void go(int d) {
            if (d >= this->limit) return;
            this->visited = 1;
            this->depth = d;
            this->kid->go(d + 1);
        }
    };
    _tree_ class Stop : public N { };
    int main() { N* root = ...; root->go(0); }
    """

    @staticmethod
    def _chain(program, heap, length, limit):
        node = Node.new(program, heap, "Stop")
        for _ in range(length):
            node = Node.new(program, heap, "Inner", kid=node, limit=limit)
        return node

    def test_truncation_stops_recursion(self):
        program, root, interp = _run(
            self.SOURCE, lambda p, h: self._chain(p, h, 10, 3)
        )
        visited = [n.get("visited") for n in root.walk(program)
                   if n.type_name == "Inner"]
        assert visited == [1, 1, 1] + [0] * 7
        assert interp.truncations == 1

    def test_depth_parameter_flows(self):
        program, root, _ = _run(
            self.SOURCE, lambda p, h: self._chain(p, h, 5, 100)
        )
        depths = [n.get("depth") for n in root.walk(program)
                  if n.type_name == "Inner"]
        assert depths == [0, 1, 2, 3, 4]

    def test_node_visit_count(self):
        program, root, interp = _run(
            self.SOURCE, lambda p, h: self._chain(p, h, 5, 100)
        )
        # 5 Inner visits + the final call on Stop (inherited no-op)
        assert interp.node_visits == 6


class TestMutation:
    SOURCE = """
    _tree_ class E {
        _child_ E* next;
        int kind = 0;
        int payload = 0;
        _traversal_ virtual void rewrite() {}
    };
    _tree_ class Cons : public E {
        _traversal_ void rewrite() {
            this->next->rewrite();
            if (this->next->kind == 7) {
                delete this->next;
                this->next = new Nil();
                this->next->payload = 42;
            }
        }
    };
    _tree_ class Nil : public E { };
    int main() { E* root = ...; root->rewrite(); }
    """

    def test_delete_and_new_rewrites_topology(self):
        def build(program, heap):
            tail = Node.new(program, heap, "Nil")
            marked = Node.new(program, heap, "Cons", kind=7, next=tail)
            return Node.new(program, heap, "Cons", next=marked)

        program, root, _ = _run(self.SOURCE, build)
        replaced = root.get("next")
        assert replaced.type_name == "Nil"
        assert replaced.get("payload") == 42
        assert replaced.get("next") is None

    def test_new_node_gets_fresh_address(self):
        def build(program, heap):
            tail = Node.new(program, heap, "Nil")
            marked = Node.new(program, heap, "Cons", kind=7, next=tail)
            return Node.new(program, heap, "Cons", next=marked)

        program, root, interp = _run(self.SOURCE, build)
        assert root.get("next").address > root.address


class TestGlobalsAndPure:
    SOURCE = """
    int TOTAL;
    _pure_ int twice(int x);
    _tree_ class N {
        _child_ N* kid;
        int v = 0;
        _traversal_ virtual void sum() {}
    };
    _tree_ class I : public N {
        _traversal_ void sum() {
            TOTAL = TOTAL + twice(this->v);
            this->kid->sum();
        }
    };
    _tree_ class Z : public N { };
    int main() { N* root = ...; root->sum(); }
    """

    def test_global_accumulation_via_pure(self):
        def build(program, heap):
            node = Node.new(program, heap, "Z")
            for v in (3, 2, 1):
                node = Node.new(program, heap, "I", v=v, kid=node)
            return node

        _, root, interp = _run(
            self.SOURCE, build, pure_impls={"twice": lambda x: 2 * x}
        )
        assert interp.globals["TOTAL"] == 12

    def test_missing_child_raises(self):
        def build(program, heap):
            return Node.new(program, heap, "I", v=1, kid=None)

        with pytest.raises(RuntimeFailure, match="null"):
            _run(self.SOURCE, build, pure_impls={"twice": lambda x: 2 * x})


class TestStatsAndCache:
    def test_memory_traffic_counted(self):
        source = """
        _tree_ class N {
            int a = 0; int b = 0;
            _traversal_ void go() { this->a = this->b + 1; }
        };
        int main() { N* root = ...; root->go(); }
        """
        program = parse_program(source)
        heap = Heap(program)
        root = Node.new(program, heap, "N")
        from repro.cachesim import paper_hierarchy

        stats = ExecStats(cache=paper_hierarchy())
        interp = metered(program, heap, stats)
        interp.run_entry(root)
        assert stats.field_reads == 1
        assert stats.field_writes == 1
        # both fields share one 64B line -> 1 cold miss at each level
        assert stats.miss_counts()["L1"] == 1
        assert stats.modeled_cycles() > stats.instructions

    def test_alias_access_charges_traffic_once_resolved(self):
        source = """
        _tree_ class N {
            _child_ N* kid;
            int v = 0;
            _traversal_ virtual void go() {}
        };
        _tree_ class I : public N {
            _traversal_ void go() {
                N* const k = this->kid;
                k->v = 5;
            }
        };
        _tree_ class Z : public N { };
        int main() { N* root = ...; root->go(); }
        """
        program = parse_program(source)
        heap = Heap(program)
        kid = Node.new(program, heap, "Z")
        root = Node.new(program, heap, "I", kid=kid)
        interp = metered(program, heap)
        interp.run_entry(root)
        assert kid.get("v") == 5
        # one pointer read (alias def) + one field write
        assert interp.meter.field_reads == 1
        assert interp.meter.field_writes == 1

    def test_meter_prices_the_object_layout_only(self):
        from repro.interp import Interpreter, PooledTreeView

        program = fig2_program()
        with pytest.raises(RuntimeFailure, match="object layout"):
            Interpreter(
                program,
                PooledTreeView(program, Heap(program)),
                meter=ExecStats(),
            )


class TestFig2EndToEnd:
    def test_widths_and_heights(self):
        program = fig2_program()
        heap = Heap(program)
        end1 = Node.new(program, heap, "End")
        end2 = Node.new(program, heap, "End")
        inner = Node.new(
            program, heap, "TextBox",
            Text=ObjectValue("String", {"Length": 6}), Next=end1,
        )
        content = Node.new(
            program, heap, "TextBox",
            Text=ObjectValue("String", {"Length": 4}), Next=inner,
        )
        border = Node.new(program, heap, "Group")
        border.set("Content", content)
        border.set("Next", end2)
        border.get("Border").set("Size", 3)
        interp = metered(program, heap)
        interp.globals["CHAR_WIDTH"] = 2
        interp.run_entry(border)
        # widths: inner=6, content=4; group = content.Width + 2*3 = 10
        assert inner.get("Width") == 6
        assert content.get("Width") == 4
        assert border.get("Width") == 10
        # heights computed after widths (second pass order matters)
        assert inner.get("Height") == 6 * (6 // 2) + 1
        assert border.get("MaxHeight") == border.get("Height")
