"""Document layout: the paper's §5.1 case study as an application.

Builds a multi-page document (headings, images, buttons, nested boxes),
runs the five layout passes unfused and fused — with the cache simulator
configured like the paper's Xeon — and reports the four metrics of the
evaluation, then prints a small ASCII rendering of the first page to show
the layout actually computed something sensible.

The render program here is the Python-*embedded* definition
(``repro.workloads.render.embedded``), reached through its
:class:`repro.Workload` bundle and a :class:`repro.Session` — it
compiles to byte-identical fused code as the string DSL.

Run:  python examples/document_layout.py [pages]
"""

import os
import sys

import repro
from repro.bench.runner import compare_workload
from repro.workloads.render import render_workload, replicated_pages_spec
from repro.interp import Interpreter, ObjectTreeView
from repro.runtime import Heap


def render_page_ascii(program, document, width=64, height=18):
    """Draw element boxes of the first page into a character grid."""
    page = document.get("Pages").get("Content")
    page_w = max(page.get("Width"), 1)
    page_h = max(page.get("Height"), 1)
    grid = [[" "] * width for _ in range(height)]

    def plot(node):
        for field_name, field in program.fields_of(node.type_name).items():
            if not field.is_child:
                continue
            child = node.fields[field_name]
            if child is not None:
                plot(child)
        if node.type_name in ("TextBox", "Image", "Button", "VerticalContainer"):
            x0 = node.get("PosX") * width // (page_w + 1)
            y0 = node.get("PosY") * height // (page_h + 1)
            w = max(1, node.get("Width") * width // (page_w + 1))
            h = max(1, node.get("Height") * height // (page_h + 1))
            mark = node.type_name[0].lower()
            for y in range(y0, min(y0 + h, height)):
                for x in range(x0, min(x0 + w, width)):
                    grid[y][x] = mark
    plot(page)
    border = "+" + "-" * width + "+"
    return "\n".join([border] + ["|" + "".join(row) + "|" for row in grid] + [border])


def main():
    pages = int(sys.argv[1]) if len(sys.argv) > 1 else 24
    workload = render_workload()
    spec = replicated_pages_spec(pages)

    print(f"document: {pages} pages "
          f"({spec.count_elements()} leaf elements)")

    with repro.Session(cache_dir=os.environ.get("REPRO_CACHE_DIR")) as session:
        compiled = session.compile(workload, emit=False)
        program = compiled.result.program
        print("passes:", ", ".join(c.method_name for c in program.entry))

        comparison = compare_workload(
            "document-layout", workload, spec,
            cache_scale=64, options=session.options,
        )
        unfused, fused = comparison.unfused, comparison.fused

        print(f"\n{'':>14}  {'unfused':>12}  {'fused':>12}  {'ratio':>6}")
        for label, a, b in [
            ("node visits", unfused.node_visits, fused.node_visits),
            ("instructions", unfused.instructions, fused.instructions),
            ("L2 misses", unfused.misses["L2"], fused.misses["L2"]),
            ("L3 misses", unfused.misses["L3"], fused.misses["L3"]),
            ("cycles", unfused.modeled_cycles, fused.modeled_cycles),
        ]:
            print(f"{label:>14}  {a:>12}  {b:>12}  {b / a:>6.2f}")

        # draw the first page from a fresh fused run
        heap = Heap(program)
        document = workload.build_tree(program, heap, spec)
        interp = Interpreter(program, ObjectTreeView(program, heap))
        interp.globals.update(workload.globals_map)
        interp.run_fused(compiled.fused, document)
        print("\nfirst page (t=text, i=image, b=button, v=nested box):")
        print(render_page_ascii(program, document))


if __name__ == "__main__":
    main()
