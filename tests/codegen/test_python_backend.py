"""Code-generator tests: emitted Python must agree with the interpreter
on every workload and on random programs (triple differential: unfused
interpreter = compiled unfused = compiled fused)."""

import random

import pytest

from repro.layout.base import layout_backend
from repro.pipeline.stages import plan_and_synthesize
from repro.runtime import Heap, Node
from repro.runtime.values import ObjectValue

from tests.fixtures import fig1_program, fig2_program, metered
from tests.generators import random_program_source, random_tree

OBJECT = layout_backend("object")


def triple_run(program, build_tree, globals_map=None):
    """Interpreter vs compiled-unfused vs compiled-fused snapshots."""
    heap_a = Heap(program)
    root_a = build_tree(program, heap_a)
    interp = metered(program, heap_a)
    for name, value in (globals_map or {}).items():
        interp.globals[name] = value
    interp.run_entry(root_a)

    compiled = OBJECT.unfused_module(program)
    heap_b = Heap(program)
    root_b = build_tree(program, heap_b)
    ctx_b = compiled.run_entry(heap_b, root_b, globals_map)

    fused = plan_and_synthesize(program)
    compiled_fused = OBJECT.fused_module(fused)
    heap_c = Heap(program)
    root_c = build_tree(program, heap_c)
    ctx_c = compiled_fused.run_fused(heap_c, root_c, globals_map)

    snap = root_a.snapshot(program)
    assert snap == root_b.snapshot(program), "compiled unfused diverged"
    assert snap == root_c.snapshot(program), "compiled fused diverged"
    assert interp.globals == ctx_b.globals == ctx_c.globals
    return snap


class TestFixtures:
    def test_fig1(self):
        program = fig1_program()

        def build(p, heap):
            node = Node.new(p, heap, "LeafEnd")
            for i in range(5):
                node = Node.new(p, heap, "Inner", child=node, x=i, y=7 - i)
            return node

        triple_run(program, build)

    def test_fig2(self):
        program = fig2_program()

        def build(p, heap):
            def tb(n, nxt):
                return Node.new(
                    p, heap, "TextBox",
                    Text=ObjectValue("String", {"Length": n}), Next=nxt,
                )

            g = Node.new(p, heap, "Group")
            g.set("Content", tb(5, tb(7, Node.new(p, heap, "End"))))
            g.set("Next", tb(3, Node.new(p, heap, "End")))
            g.get("Border").set("Size", 2)
            return g

        triple_run(program, build, {"CHAR_WIDTH": 2})


class TestWorkloads:
    def test_render(self):
        from repro.workloads.render import (
            build_document, render_program, replicated_pages_spec,
        )
        from repro.workloads.render.schema import DEFAULT_GLOBALS

        program = render_program()
        spec = replicated_pages_spec(3)
        triple_run(
            program, lambda p, h: build_document(p, h, spec), DEFAULT_GLOBALS
        )

    def test_astlang(self):
        from repro.workloads.astlang import ast_program
        from repro.workloads.astlang.programs import replicated_functions

        program = ast_program()
        triple_run(program, lambda p, h: replicated_functions(p, h, 4))

    def test_kdtree(self):
        from repro.workloads.kdtree import (
            EQ1_SCHEDULE, KD_DEFAULT_GLOBALS, build_balanced_tree,
            equation_program,
        )

        program = equation_program(EQ1_SCHEDULE, "cg-eq1")
        triple_run(
            program,
            lambda p, h: build_balanced_tree(p, h, depth=5),
            KD_DEFAULT_GLOBALS,
        )

    def test_fmm(self):
        from repro.workloads.fmm import (
            FMM_DEFAULT_GLOBALS, build_fmm_tree, fmm_program, random_particles,
        )

        program = fmm_program()
        particles = random_particles(128)
        triple_run(
            program,
            lambda p, h: build_fmm_tree(p, h, particles),
            FMM_DEFAULT_GLOBALS,
        )


class TestRandomPrograms:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_triple_differential(self, seed):
        from repro.frontend import parse_program

        source = random_program_source(random.Random(seed))
        program = parse_program(source, name=f"cg{seed}")

        def build(p, heap):
            return random_tree(p, heap, random.Random(seed + 500), max_depth=3)

        triple_run(program, build)


class TestEmission:
    def test_emitted_source_is_valid_python(self):
        source = OBJECT.unfused_module(fig2_program()).source
        compile(source, "<test>", "exec")  # no SyntaxError
        assert "def m_TextBox_computeWidth(RT, this):" in source
        assert "_D_computeWidth" in source

    def test_dispatch_tables_cover_concrete_types(self):
        program = fig2_program()
        source = OBJECT.unfused_module(program).source
        for type_name in ("TextBox", "Group", "End"):
            assert f"'{type_name}': " in source

    def test_truncation_compiles_to_exception_only_when_needed(self):
        program = fig1_program()
        fused = plan_and_synthesize(program)
        source = OBJECT.fused_module(fused).source
        # fig1 has no returns -> no try/except blocks in units
        assert "except _Trunc" not in source

    def test_compiled_faster_than_interpreter(self):
        """The point of generating code: no metering overhead."""
        import time

        from repro.workloads.astlang import ast_program
        from repro.workloads.astlang.programs import replicated_functions

        program = ast_program()
        compiled = OBJECT.unfused_module(program)
        compiled.namespace  # built before the timed run

        heap_a = Heap(program)
        root_a = replicated_functions(program, heap_a, 30)
        start = time.perf_counter()
        interp = metered(program, heap_a)
        interp.run_entry(root_a)
        interpreted = time.perf_counter() - start

        heap_b = Heap(program)
        root_b = replicated_functions(program, heap_b, 30)
        start = time.perf_counter()
        compiled.run_entry(heap_b, root_b)
        compiled_time = time.perf_counter() - start

        assert root_a.snapshot(program) == root_b.snapshot(program)
        assert compiled_time < interpreted  # generous: any speedup at all


class TestTruncationLeak:
    """A truncating fused unit must not keep its tree alive: the unit
    raises a fresh ``_Trunc`` each time, so no traceback — and no frame
    holding the tree, its runtime context or its heap — outlives the
    run. (``Node`` has no ``__weakref__`` slot, so the test watches the
    heap, which every frame of the run reaches through its context.)"""

    SOURCE = """
    _tree_ class Item {
        _child_ Item* kid;
        int a = 0;
        int b = 0;
        int stop = 0;
        _traversal_ virtual void go() {}
        _traversal_ virtual void other() {}
    };
    _tree_ class Inner : public Item {
        _traversal_ void go() {
            if (this->stop == 1) return;
            this->a = 1;
            this->kid->go();
        }
        _traversal_ void other() {
            this->b = 2;
            this->kid->other();
        }
    };
    _tree_ class Leaf : public Item { };
    int main() {
        Item* root = ...;
        root->go();
        root->other();
    }
    """

    @pytest.mark.parametrize("layout", ["object", "pooled"])
    def test_truncated_tree_is_freed(self, layout):
        import gc
        import weakref

        from repro.pipeline import CompileOptions
        from repro.pipeline import compile as pipeline_compile

        result = pipeline_compile(
            self.SOURCE,
            options=CompileOptions(use_cache=False, layout=layout),
        )
        program = result.program
        assert "except _Trunc" in result.fused_source

        def run_once():
            heap = Heap(program)
            leaf = Node.new(program, heap, "Leaf")
            inner = Node.new(program, heap, "Inner", kid=leaf, stop=1)
            root = Node.new(program, heap, "Inner", kid=inner)
            result.compiled_fused.run_fused(heap, root)
            # the root ran; its kid truncated `go` and still ran `other`
            assert root.get("a") == 1 and inner.get("a") == 0
            assert inner.get("b") == 2
            return weakref.ref(heap)

        watched = [run_once() for _ in range(2)]
        gc.collect()
        assert all(ref() is None for ref in watched)
