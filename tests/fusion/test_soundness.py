"""Differential soundness tests: fused and unfused executions must be
observationally identical (final tree state + final global state), and
fusion must never *increase* node visits.

This is the reproduction's executable version of the paper's §3.3 proof
sketch — tested on the fixtures and on randomly generated programs/trees.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend import parse_program
from repro.runtime import Heap, Node
from repro.runtime.values import ObjectValue

from tests.fixtures import compiled, fig1_program, fig2_program, metered
from tests.generators import random_program_source, random_tree


def run_both(program, build_tree, globals_init=None):
    """Run unfused and fused; return (snap_unfused, snap_fused, stats...)."""
    heap_a = Heap(program)
    root_a = build_tree(program, heap_a)
    interp_a = metered(program, heap_a)
    for name, value in (globals_init or {}).items():
        interp_a.globals[name] = value
    interp_a.run_entry(root_a)

    fused = compiled(program).fused
    heap_b = Heap(program)
    root_b = build_tree(program, heap_b)
    interp_b = metered(program, heap_b)
    for name, value in (globals_init or {}).items():
        interp_b.globals[name] = value
    interp_b.run_fused(fused, root_b)

    return (
        root_a.snapshot(program),
        root_b.snapshot(program),
        interp_a,
        interp_b,
    )


class TestFixtures:
    def test_fig1_equivalence(self):
        program = fig1_program()

        def build(p, heap):
            node = Node.new(p, heap, "LeafEnd")
            for i in range(6):
                node = Node.new(p, heap, "Inner", child=node, x=i, y=2 * i)
            return node

        snap_a, snap_b, interp_a, interp_b = run_both(program, build)
        assert snap_a == snap_b
        assert interp_b.node_visits < interp_a.node_visits

    def test_fig2_equivalence_and_visit_halving(self):
        program = fig2_program()

        def build(p, heap):
            def textbox(n, nxt):
                return Node.new(
                    p, heap, "TextBox",
                    Text=ObjectValue("String", {"Length": n}), Next=nxt,
                )

            content = textbox(5, textbox(7, Node.new(p, heap, "End")))
            group = Node.new(p, heap, "Group")
            group.set("Content", content)
            group.set("Next", textbox(3, Node.new(p, heap, "End")))
            group.get("Border").set("Size", 2)
            return group

        snap_a, snap_b, interp_a, interp_b = run_both(
            program, build, globals_init={"CHAR_WIDTH": 2}
        )
        assert snap_a == snap_b
        # total fusion: two full traversals become one
        assert interp_b.node_visits * 2 == interp_a.node_visits
        assert interp_a.globals == interp_b.globals

    def test_truncation_equivalence(self):
        source = """
        _tree_ class N {
            _child_ N* kid;
            int stop = 0;
            int seen1 = 0;
            int seen2 = 0;
            _traversal_ virtual void t1() {}
            _traversal_ virtual void t2() {}
        };
        _tree_ class I : public N {
            _traversal_ void t1() {
                if (this->stop == 1) return;
                this->seen1 = 1;
                this->kid->t1();
            }
            _traversal_ void t2() {
                this->seen2 = 1;
                this->kid->t2();
            }
        };
        _tree_ class L : public N { };
        int main() { N* root = ...; root->t1(); root->t2(); }
        """
        program = parse_program(source)

        def build(p, heap):
            node = Node.new(p, heap, "L")
            # t1 truncates at depth 3; t2 runs to the leaf
            for depth in range(6, 0, -1):
                node = Node.new(
                    p, heap, "I", kid=node, stop=1 if depth == 3 else 0
                )
            return node

        snap_a, snap_b, interp_a, interp_b = run_both(program, build)
        assert snap_a == snap_b
        # the fused traversal keeps running t2 after t1 truncates
        assert interp_b.truncations == interp_a.truncations

    def test_mutation_equivalence(self):
        source = """
        _tree_ class E {
            _child_ E* next;
            int kind = 0;
            int sum = 0;
            _traversal_ virtual void desugar() {}
            _traversal_ virtual void tally() {}
        };
        _tree_ class Cons : public E {
            _traversal_ void desugar() {
                this->next->desugar();
                if (this->next.kind == 7) {
                    delete this->next;
                    this->next = new Nil();
                    this->next.kind = 99;
                }
            }
            _traversal_ void tally() {
                this->sum = this->kind + this->next.kind;
                this->next->tally();
            }
        };
        _tree_ class Nil : public E { };
        int main() { E* root = ...; root->desugar(); root->tally(); }
        """
        program = parse_program(source)

        def build(p, heap):
            node = Node.new(p, heap, "Nil")
            for kind in (7, 2, 7, 3):
                node = Node.new(p, heap, "Cons", kind=kind, next=node)
            return node

        snap_a, snap_b, interp_a, interp_b = run_both(program, build)
        assert snap_a == snap_b


class TestRandomPrograms:
    """Brute differential testing over generated programs and trees."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_program_equivalence(self, seed):
        rng = random.Random(seed)
        source = random_program_source(rng)
        program = parse_program(source, name=f"rand{seed}")

        def build(p, heap):
            return random_tree(p, heap, random.Random(seed + 1000), max_depth=4)

        snap_a, snap_b, interp_a, interp_b = run_both(program, build)
        assert snap_a == snap_b, f"seed {seed} diverged\n{source}"
        assert interp_a.globals == interp_b.globals, f"seed {seed}:\n{source}"
        assert interp_b.node_visits <= interp_a.node_visits


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_random_program_equivalence_hypothesis(seed):
    rng = random.Random(seed)
    source = random_program_source(rng)
    program = parse_program(source, name=f"hyp{seed}")

    def build(p, heap):
        return random_tree(p, heap, random.Random(seed ^ 0xABCDEF), max_depth=3)

    snap_a, snap_b, interp_a, interp_b = run_both(program, build)
    assert snap_a == snap_b
    assert interp_a.globals == interp_b.globals


def test_seed_765_global_argument_interleaving():
    """Regression for a fusion soundness gap found by hypothesis during
    PR 2: grouping two calls on one receiver evaluates both calls'
    arguments at the fused call site, but unfused execution evaluates a
    later call's arguments (here ``this->c1->f1(G0)``) only after the
    earlier call's subtree — which writes ``G0`` — completed. Grouping
    now refuses to hoist a call site over an earlier member's writes
    (``grouping._argument_hazard``), so fused and unfused runs agree."""
    seed = 765
    rng = random.Random(seed)
    source = random_program_source(rng)
    program = parse_program(source, name=f"hyp{seed}")

    def build(p, heap):
        return random_tree(p, heap, random.Random(seed ^ 0xABCDEF), max_depth=3)

    snap_a, snap_b, interp_a, interp_b = run_both(program, build)
    assert snap_a == snap_b
    assert interp_a.globals == interp_b.globals


def test_any_suffix_read_keeps_child_calls_apart():
    """An end-to-end guard on the ANY suffix of a whole-object read.
    ``weigh(this->kid.box)`` reads all of ``kid.box``, and the child's
    ``put`` writes ``kid.box.x``: only the ANY suffix of the read path
    makes the two intersect. That edge (put call → the ``weigh``
    statement → measure call) keeps the two child calls apart. Without
    it, fusion groups them, the statement runs before the child's
    ``put``, and the leaf's ``w`` reads ``10*0 + 2`` instead of
    ``10*1 + 2``."""
    source = """
    class Box { int x; int y; };
    _pure_ int weigh(Box b);
    _tree_ class N {
        _child_ N* kid;
        Box box;
        int v = 0;
        int w = 0;
        _traversal_ virtual void put() {}
        _traversal_ virtual void measure() {}
    };
    _tree_ class I : public N {
        _traversal_ void put() {
            this->kid->put();
            this->box.x = 1;
        }
        _traversal_ void measure() {
            this->v = this->w;
            this->kid.w = weigh(this->kid.box);
            this->kid->measure();
        }
    };
    _tree_ class L : public N {
        _traversal_ void put() { this->box.x = 1; }
        _traversal_ void measure() { this->v = this->w; }
    };
    int main() { N* root = ...; root->put(); root->measure(); }
    """
    program = parse_program(
        source,
        pure_impls={"weigh": lambda b: 10 * b.get("x") + b.get("y")},
    )

    def build(p, heap):
        box = ObjectValue("Box", {"x": 0, "y": 2})
        leaf = Node.new(p, heap, "L", box=box)
        return Node.new(p, heap, "I", kid=Node.new(p, heap, "I", kid=leaf))

    snap_a, snap_b, _, _ = run_both(program, build)
    assert snap_a == snap_b
    assert snap_b["kid"]["kid"]["w"] == 12
