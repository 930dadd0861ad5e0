"""A fused compiler frontend: the paper's §5.2 case study as an application.

Builds an AST for a small imperative program, pretty-prints it, runs the
six optimization passes (desugaring, two-traversal constant propagation,
folding, dead-branch removal) through the *fused* pipeline, and shows the
optimized program plus the fusion statistics.

The program reaches the compiler through its :class:`repro.Workload`
bundle and a :class:`repro.Session` (the unified workload API).

Run:  python examples/ast_optimizer.py
"""

import os

import repro
from repro.interp import Interpreter, ObjectTreeView
from repro.runtime import Heap
from repro.workloads.astlang import (
    AstBuilder,
    K_ADD,
    K_CONST,
    K_DECR,
    K_INCR,
    K_MUL,
    K_SUB,
    K_VAR,
    S_ASSIGN,
    astlang_workload,
    evaluate_program,
)

_OPS = {K_ADD: "+", K_SUB: "-", K_MUL: "*"}


def show_expr(node) -> str:
    kind = node.get("kind")
    if kind == K_CONST:
        return str(node.get("value"))
    if kind == K_VAR:
        return f"v{node.get('varId')}"
    if kind == K_INCR:
        return f"{show_expr(node.get('Operand'))}++"
    if kind == K_DECR:
        return f"{show_expr(node.get('Operand'))}--"
    return (f"({show_expr(node.get('Left'))} {_OPS[kind]} "
            f"{show_expr(node.get('Right'))})")


def show_stmts(stmt_list, indent="  ") -> list[str]:
    lines = []
    node = stmt_list
    while node.type_name == "StmtListInner":
        stmt = node.get("S")
        if stmt.get("kind") == S_ASSIGN:
            lines.append(f"{indent}v{stmt.get('varId')} = "
                         f"{show_expr(stmt.get('Rhs'))};")
        else:
            lines.append(f"{indent}if ({show_expr(stmt.get('Cond'))}) {{")
            lines.extend(show_stmts(stmt.get("Then"), indent + "  "))
            lines.append(f"{indent}}} else {{")
            lines.extend(show_stmts(stmt.get("Else"), indent + "  "))
            lines.append(f"{indent}}}")
        node = node.get("Next")
    return lines


def show_program(root) -> str:
    lines = []
    fn_list = root.get("Functions")
    index = 0
    while fn_list.type_name == "FunctionListInner":
        lines.append(f"fn f{index}() {{")
        lines.extend(show_stmts(fn_list.get("Fn").get("Body")))
        lines.append("}")
        fn_list = fn_list.get("Next")
        index += 1
    return "\n".join(lines)


def main():
    workload = astlang_workload()
    with repro.Session(cache_dir=os.environ.get("REPRO_CACHE_DIR")) as session:
        compiled = session.compile(workload, emit=False)
    program = compiled.result.program
    heap = Heap(program)
    b = AstBuilder(program, heap)

    # v0 = 3; v1 = v0 + 4; v2 = v1++; if (v0 - v0) {...} else {...}; v3 = v2 * 2
    root = b.program_node([
        b.function([
            b.assign(0, b.const(3)),
            b.assign(1, b.add(b.var(0), b.const(4))),
            b.assign(2, b.incr(1)),
            b.if_stmt(
                b.sub(b.var(0), b.var(0)),
                [b.assign(3, b.const(111))],
                [b.assign(3, b.mul(b.var(2), b.const(2)))],
            ),
            b.assign(4, b.add(b.var(3), b.decr(2))),
        ])
    ])

    print("before optimization:")
    print(show_program(root))
    meaning_before = evaluate_program(program, root)

    fused = compiled.fused
    interp = Interpreter(program, ObjectTreeView(program, heap))
    interp.run_fused(fused, root)

    print("\nafter the fused optimization pipeline:")
    print(show_program(root))

    meaning_after = evaluate_program(program, root)
    assert meaning_before == meaning_after, "optimization changed semantics!"
    print("\nsemantics preserved:", meaning_after[0])
    print(f"fused pipeline: {fused.unit_count} synthesized traversals, "
          f"{interp.node_visits} node visits, "
          f"{interp.truncations} dynamic truncations")


if __name__ == "__main__":
    main()
