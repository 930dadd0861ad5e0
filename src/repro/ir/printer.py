"""Pretty printer: IR back to the Grafter surface syntax.

Round-trips with :mod:`repro.frontend`: ``parse(print(parse(text)))`` yields
the same program. Also used to render synthesized fused traversals in a
human-readable form (the reproduction's analogue of the paper's Fig. 6).
"""

from __future__ import annotations

from repro.ir.access import AccessPath
from repro.ir.exprs import BinOp, Const, DataAccess, Expr, PureCall, UnaryOp
from repro.ir.method import TraversalMethod
from repro.ir.program import Program
from repro.ir.stmts import (
    AliasDef,
    Assign,
    Delete,
    If,
    LocalDef,
    New,
    PureStmt,
    Return,
    Stmt,
    TraverseStmt,
    While,
)

_INDENT = "  "


def print_program(program: Program) -> str:
    """Render a full program as Grafter surface syntax."""
    chunks: list[str] = []
    for cls in program.opaque_classes.values():
        lines = [f"class {cls.name} {{"]
        for field in cls.fields.values():
            lines.append(f"{_INDENT}{field.type_name} {field.name};")
        lines.append("};")
        chunks.append("\n".join(lines))
    for var in program.globals.values():
        chunks.append(f"{var.type_name} {var.name};")
    for func in program.pure_functions.values():
        params = ", ".join(f"{p.type_name} {p.name}" for p in func.params)
        chunks.append(f"_pure_ {func.return_type} {func.name}({params});")
    for tree_type in program.tree_types.values():
        chunks.append(print_tree_type(tree_type))
    if program.root_type_name is not None:
        lines = ["int main() {", f"{_INDENT}{program.root_type_name}* root = ...;"]
        for call in program.entry:
            args = ", ".join(print_expr(a) for a in call.args)
            lines.append(f"{_INDENT}root->{call.method_name}({args});")
        lines.append("}")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"


def print_tree_type(tree_type) -> str:
    header = f"_tree_ class {tree_type.name}"
    if tree_type.bases:
        header += " : " + ", ".join(f"public {b}" for b in tree_type.bases)
    if tree_type.abstract:
        header = "_abstract_ " + header
    lines = [header + " {"]
    for child in tree_type.children.values():
        lines.append(f"{_INDENT}_child_ {child.type_name}* {child.name};")
    for data in tree_type.data.values():
        default = tree_type.data_defaults.get(data.name)
        init = "" if default is None else f" = {print_expr(Const(default))}"
        lines.append(f"{_INDENT}{data.type_name} {data.name}{init};")
    for method in tree_type.methods.values():
        lines.append(print_method(method, indent=1))
    lines.append("};")
    return "\n".join(lines)


def print_method(method: TraversalMethod, indent: int = 0) -> str:
    pad = _INDENT * indent
    params = ", ".join(f"{p.type_name} {p.name}" for p in method.params)
    virtual = "virtual " if method.virtual else ""
    lines = [f"{pad}_traversal_ {virtual}void {method.name}({params}) {{"]
    for stmt in method.body:
        lines.extend(print_stmt(stmt, indent + 1))
    lines.append(f"{pad}}}")
    return "\n".join(lines)


def print_stmt(stmt: Stmt, indent: int) -> list[str]:
    pad = _INDENT * indent
    if isinstance(stmt, Assign):
        return [f"{pad}{print_path(stmt.target)} = {print_expr(stmt.value)};"]
    if isinstance(stmt, LocalDef):
        if stmt.init is None:
            return [f"{pad}{stmt.type_name} {stmt.name};"]
        return [f"{pad}{stmt.type_name} {stmt.name} = {print_expr(stmt.init)};"]
    if isinstance(stmt, AliasDef):
        return [
            f"{pad}{stmt.type_name}* const {stmt.name} = {print_path(stmt.target)};"
        ]
    if isinstance(stmt, If):
        lines = [f"{pad}if ({print_expr(stmt.cond)}) {{"]
        for sub in stmt.then_body:
            lines.extend(print_stmt(sub, indent + 1))
        if stmt.else_body:
            lines.append(f"{pad}}} else {{")
            for sub in stmt.else_body:
                lines.extend(print_stmt(sub, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, While):
        lines = [f"{pad}while ({print_expr(stmt.cond)}) {{"]
        for sub in stmt.body:
            lines.extend(print_stmt(sub, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, Return):
        return [f"{pad}return;"]
    if isinstance(stmt, New):
        return [f"{pad}{print_path(stmt.target)} = new {stmt.type_name}();"]
    if isinstance(stmt, Delete):
        return [f"{pad}delete {print_path(stmt.target)};"]
    if isinstance(stmt, PureStmt):
        return [f"{pad}{print_expr(stmt.call)};"]
    if isinstance(stmt, TraverseStmt):
        args = ", ".join(print_expr(a) for a in stmt.args)
        return [f"{pad}{stmt.receiver}->{stmt.method_name}({args});"]
    raise TypeError(f"unknown statement {stmt!r}")  # pragma: no cover


def print_path(path: AccessPath) -> str:
    """Render a resolved path in surface syntax.

    The frontend treats ``->`` and ``.`` as interchangeable (member
    resolution is by name against the resolved static type), so the printer
    makes a canonical choice: ``->`` when the previous value is known to be
    a node (the ``this`` base, or any value reached through a child field),
    ``.`` otherwise (locals, globals, and members of data values).
    """
    text = "this" if path.base == "this" else path.base_name
    prev_was_node = path.base == "this"
    for step in path.steps:
        if step.pre_cast is not None:
            text = f"static_cast<{step.pre_cast}*>({text})"
            prev_was_node = True
        sep = "->" if prev_was_node else "."
        text += f"{sep}{step.field.name}"
        prev_was_node = step.field.is_child
    return text


def print_expr(expr: Expr) -> str:
    if isinstance(expr, Const):
        if isinstance(expr.value, bool):
            return "true" if expr.value else "false"
        if isinstance(expr.value, str):
            return f"'{expr.value}'"
        return str(expr.value)
    if isinstance(expr, DataAccess):
        return print_path(expr.path)
    if isinstance(expr, BinOp):
        return f"({print_expr(expr.lhs)} {expr.op} {print_expr(expr.rhs)})"
    if isinstance(expr, UnaryOp):
        return f"({expr.op}{print_expr(expr.operand)})"
    if isinstance(expr, PureCall):
        args = ", ".join(print_expr(a) for a in expr.args)
        return f"{expr.func_name}({args})"
    raise TypeError(f"unknown expression {expr!r}")  # pragma: no cover
