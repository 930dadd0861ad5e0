"""Reference semantics for the AST language.

``evaluate_program`` runs the mini-language with a straightforward
recursive evaluator, giving the observable meaning of an AST: the final
variable environment of every function. Optimization passes must preserve
it. The ``check_*`` predicates verify the structural postconditions of
each pass.
"""

from __future__ import annotations

from repro.ir.program import Program
from repro.runtime import Node
from repro.workloads.astlang.schema import (
    K_ADD,
    K_CONST,
    K_DECR,
    K_INCR,
    K_MUL,
    K_SUB,
    K_VAR,
    S_ASSIGN,
    S_IF,
)


def _stmt_nodes(stmt_list: Node):
    node = stmt_list
    while node.type_name == "StmtListInner":
        yield node.get("S")
        node = node.get("Next")


def _function_nodes(program_node: Node):
    node = program_node.get("Functions")
    while node.type_name == "FunctionListInner":
        yield node.get("Fn")
        node = node.get("Next")


def eval_expr(expr: Node, env: dict[int, int]) -> int:
    kind = expr.get("kind")
    if kind == K_CONST:
        return expr.get("value")
    if kind == K_VAR:
        return env.get(expr.get("varId"), 0)
    if kind == K_INCR:
        return eval_expr(expr.get("Operand"), env) + 1
    if kind == K_DECR:
        return eval_expr(expr.get("Operand"), env) - 1
    left = eval_expr(expr.get("Left"), env)
    right = eval_expr(expr.get("Right"), env)
    if kind == K_ADD:
        return left + right
    if kind == K_SUB:
        return left - right
    if kind == K_MUL:
        return left * right
    raise AssertionError(f"bad expression kind {kind}")


def eval_stmts(stmt_list: Node, env: dict[int, int]) -> None:
    for stmt in _stmt_nodes(stmt_list):
        if stmt.get("kind") == S_ASSIGN:
            env[stmt.get("varId")] = eval_expr(stmt.get("Rhs"), env)
        elif stmt.get("kind") == S_IF:
            if eval_expr(stmt.get("Cond"), env) != 0:
                eval_stmts(stmt.get("Then"), env)
            else:
                eval_stmts(stmt.get("Else"), env)
        else:
            raise AssertionError(f"bad statement kind {stmt.get('kind')}")


def evaluate_program(program: Program, root: Node) -> list[dict[int, int]]:
    """Final variable environments, one per function — the observable
    meaning the optimization passes must preserve."""
    results = []
    for function in _function_nodes(root):
        env: dict[int, int] = {}
        eval_stmts(function.get("Body"), env)
        results.append(env)
    return results


# ---------------------------------------------------------------------------
# structural postconditions
# ---------------------------------------------------------------------------


def check_desugared(program: Program, root: Node) -> bool:
    """After desugaring: no ++/-- nodes anywhere."""
    return all(
        node.type_name not in ("IncrExpr", "DecrExpr")
        and (node.type_name in ("Program", "Function", "FunctionListInner",
                                "FunctionListEnd", "StmtListInner",
                                "StmtListEnd", "AssignStmt", "IfStmt")
             or node.get("kind") not in (K_INCR, K_DECR))
        for node in root.walk(program)
        if node.type_name not in ("Program", "Function", "FunctionListInner",
                                  "FunctionListEnd", "StmtListInner",
                                  "StmtListEnd")
    ) and not any(
        node.type_name in ("IncrExpr", "DecrExpr")
        for node in root.walk(program)
    )


def check_folded(program: Program, root: Node) -> bool:
    """After folding: no operator node has two literal children (it
    would have been folded and collapsed into a literal)."""
    for node in root.walk(program):
        if node.type_name in ("AddExpr", "SubExpr", "MulExpr"):
            left = node.get("Left")
            right = node.get("Right")
            if left.get("kind") == K_CONST and right.get("kind") == K_CONST:
                return False
    return True


def check_pruned(program: Program, root: Node) -> bool:
    """After branch removal: every if with a literal condition has an
    empty dead arm."""
    for node in root.walk(program):
        if node.type_name != "IfStmt":
            continue
        cond = node.get("Cond")
        if cond.get("kind") == K_CONST and cond.get("isLit") == 1:
            dead = node.get("Else") if cond.get("value") != 0 else node.get("Then")
            if dead.type_name != "StmtListEnd":
                return False
    return True
