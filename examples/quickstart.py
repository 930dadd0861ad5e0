"""Quickstart: write two traversals as typed Python, fuse them, run both.

This walks the paper's running example (Fig. 2): a render-tree fragment
whose elements compute widths and heights in two passes. The traversals
are written with the *embedded* API — ``@repro.schema`` classes and
``@repro.traversal`` methods that lower to the same IR (and the same
content hashes) as the Grafter string DSL — then bundled into a
:class:`repro.Workload` and compiled/run through one
:class:`repro.Session`. Grafter fuses the passes into one traversal —
same results, half the node visits.

Run:  python examples/quickstart.py
"""

import os

import repro
from repro.fusion.fused_ir import print_fused_unit
from repro.interp import Interpreter, ObjectTreeView
from repro.runtime import ExecStats, Heap, Node
from repro.runtime.values import ObjectValue

# --------------------------------------------------------- the program

CHAR_WIDTH = repro.Global(int, 2)


@repro.schema
class String:
    Length: int


@repro.schema(abstract=True)
class Element:
    Next: "Element"
    Height: int = 0
    Width: int = 0
    MaxHeight: int = 0
    TotalWidth: int = 0

    @repro.traversal(virtual=True)
    def computeWidth(this):
        pass

    @repro.traversal(virtual=True)
    def computeHeight(this):
        pass


@repro.schema
class TextBox(Element):
    Text: String

    @repro.traversal
    def computeWidth(this):
        this.Next.computeWidth()
        this.Width = this.Text.Length
        this.TotalWidth = this.Next.Width + this.Width

    @repro.traversal
    def computeHeight(this):
        this.Next.computeHeight()
        this.Height = this.Text.Length * (this.Width // CHAR_WIDTH) + 1
        this.MaxHeight = this.Height
        if this.Next.Height > this.Height:
            this.MaxHeight = this.Next.Height


@repro.schema
class End(Element):
    pass


@repro.entry(Element)
def entry(root):
    root.computeWidth()
    root.computeHeight()


# ----------------------------------------------------------- the input


def build_chain(program, heap, lengths):
    """A TextBox sibling chain with the given text lengths."""
    node = Node.new(program, heap, "End")
    for length in reversed(lengths):
        node = Node.new(
            program, heap, "TextBox",
            Text=ObjectValue("String", {"Length": length}),
            Next=node,
        )
    return node


def quickstart_workload() -> repro.Workload:
    """Everything the compiler and runtime need, as one object."""
    return repro.Workload.from_program(
        repro.lower_module(__name__, name="quickstart"),
        build_chain,
        globals_map=repro.default_globals(__name__),
    )


def run(program, root, fused=None):
    # metered: charge the paper's instruction cost model as it runs
    # (the heap here only supplies layouts; the tree carries its own
    # addresses)
    interp = Interpreter(
        program, ObjectTreeView(program, Heap(program)), meter=ExecStats()
    )
    interp.globals["CHAR_WIDTH"] = 2
    if fused is None:
        interp.run_entry(root)
    else:
        interp.run_fused(fused, root)
    return interp


def main():
    # 1. one Session.compile() call: lower the embedded definitions,
    #    then parse-free staged compilation (validate → analyze → fuse →
    #    schedule), with per-pass timings — a second compile of the
    #    same program is a cache hit
    workload = quickstart_workload()
    with repro.Session(cache_dir=os.environ.get("REPRO_CACHE_DIR")) as session:
        compiled = session.compile(workload, emit=False)
        program = compiled.result.program
        print(f"parsed {len(program.tree_types)} tree types, "
              f"{sum(1 for _ in program.all_methods())} traversal methods")
        print()
        print(compiled.result.timings_report())

        # 2. the fused form: computeWidth + computeHeight became one
        fused = compiled.fused
        print(f"\nsynthesized {fused.unit_count} fused traversal functions; "
              "the TextBox unit:")
        unit = fused.units[("TextBox::computeWidth", "TextBox::computeHeight")]
        print(print_fused_unit(unit))

        # 3. run unfused and fused on identical inputs
        heap_a = Heap(program)
        root_a = build_chain(program, heap_a, [5, 7, 3, 9])
        run_a = run(program, root_a)

        heap_b = Heap(program)
        root_b = build_chain(program, heap_b, [5, 7, 3, 9])
        run_b = run(program, root_b, fused=fused)

        # 4. identical results, fewer visits
        assert root_a.snapshot(program) == root_b.snapshot(program)
        print(f"\nunfused: {run_a.node_visits} node visits, "
              f"{run_a.meter.instructions} instructions")
        print(f"fused:   {run_b.node_visits} node visits, "
              f"{run_b.meter.instructions} instructions")
        print(f"visit ratio: {run_b.node_visits / run_a.node_visits:.2f} "
              "(two traversals -> one)")
        print(f"\nroot TotalWidth = {root_a.get('TotalWidth')}, "
              f"MaxHeight = {root_a.get('MaxHeight')}")

        # 5. the service path: the same workload through the session's
        #    batch executor (what `repro serve` does per request)
        outcome = session.run(workload, [[5, 7, 3, 9]])
        print(f"executor ran {len(outcome)} tree in "
              f"{outcome.wall_seconds * 1e3:.1f} ms")


if __name__ == "__main__":
    main()
