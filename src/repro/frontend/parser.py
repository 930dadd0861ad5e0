"""Recursive-descent parser: Grafter surface syntax -> resolved IR.

Parsing runs in two passes, mirroring how Clang resolves C++:

1. *Declarations*: tree classes (fields), opaque classes, globals and pure
   declarations are collected; traversal method bodies are captured as raw
   token spans. The type hierarchy is then frozen (``finalize_types``).
2. *Bodies*: each captured body is parsed with full member resolution
   against the frozen hierarchy, so forward references between tree types
   and mutually-recursive traversals work naturally.

``->`` and ``.`` are interchangeable member separators; resolution is by
name against the resolved static type of the value to the left.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import FrontendError, ValidationError
from repro.ir.access import AccessPath, Receiver
from repro.ir.builder import RawStep, ScopeInfo, resolve_member_chain
from repro.ir.exprs import BinOp, Const, DataAccess, Expr, PureCall, UnaryOp
from repro.ir.method import Param, PureFunction, TraversalMethod
from repro.ir.program import EntryCall, Program
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
from repro.ir.types import OpaqueClass, TreeType, is_primitive
from repro.ir.validate import LanguageMode, validate_program
from repro.frontend.lexer import Token, tokenize

# Binary operator precedence (higher binds tighter).
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}


@dataclass
class _PendingMethod:
    owner: str
    name: str
    params: tuple[Param, ...]
    virtual: bool
    body_tokens: list[Token]


@dataclass
class _Chain:
    """An unresolved postfix chain: base name (or ``this``), member steps,
    and — when the chain ends in ``(`` — the trailing call name.
    ``pending_cast`` carries a ``static_cast`` wrapping the chain so far;
    it is attached to the next member step parsed."""

    base: str  # "this" or an identifier
    steps: list[RawStep]
    call_name: Optional[str] = None
    pending_cast: Optional[str] = None


class _Cursor:
    """Token-stream navigation with positioned errors."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self._last = len(tokens) - 1  # reads past the end see this token

    def peek(self, offset: int = 0) -> Token:
        index = self.pos + offset
        return self.tokens[index if index < self._last else self._last]

    def next(self) -> Token:
        pos = self.pos
        token = self.tokens[pos if pos < self._last else self._last]
        if token.kind != "eof":
            self.pos = pos + 1
        return token

    def at(self, text: str, offset: int = 0) -> bool:
        index = self.pos + offset
        token = self.tokens[index if index < self._last else self._last]
        return token.text == text and token.kind != "eof"

    def at_kind(self, kind: str, offset: int = 0) -> bool:
        return self.peek(offset).kind == kind

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text: str) -> Token:
        token = self.peek()
        if not self.at(text):
            raise self.error(f"expected {text!r}, found {token.text!r}")
        return self.next()

    def expect_ident(self) -> str:
        token = self.peek()
        if token.kind != "ident":
            raise self.error(f"expected identifier, found {token.text!r}")
        self.next()
        return token.text

    def error(self, message: str) -> FrontendError:
        token = self.peek()
        return FrontendError(message, token.line, token.column)


def parse_program(
    source: str,
    name: str = "program",
    pure_impls: Optional[dict[str, Callable]] = None,
    mode: LanguageMode = LanguageMode.GRAFTER,
    validate: bool = True,
) -> Program:
    """Parse Grafter surface syntax into a finalized (and by default
    validated) :class:`~repro.ir.program.Program`.

    ``pure_impls`` binds ``_pure_`` declarations to Python callables.
    """
    parser = _Parser(source, name, pure_impls or {}, mode)
    program = parser.parse()
    if validate:
        validate_program(program, mode)
    return program


class _Parser:
    def __init__(self, source: str, name: str, pure_impls: dict, mode: LanguageMode):
        self.cursor = _Cursor(tokenize(source))
        self.program = Program(name)
        self.pure_impls = pure_impls
        self.mode = mode
        self.pending_methods: list[_PendingMethod] = []
        self.main_tokens: Optional[list[Token]] = None

    # ==================================================================
    # pass 1: declarations
    # ==================================================================

    def parse(self) -> Program:
        cursor = self.cursor
        while not cursor.at_kind("eof"):
            if cursor.at("_abstract_") or cursor.at("_tree_"):
                self._parse_tree_class()
            elif cursor.at("class"):
                self._parse_opaque_class()
            elif cursor.at("_pure_"):
                self._parse_pure_decl()
            elif self._at_main():
                self._capture_main()
            else:
                self._parse_global()
        self.program.finalize_types()
        # Register every method signature first so that bodies can resolve
        # forward references and mutual recursion, then parse bodies.
        registered: list[TraversalMethod] = []
        for pending in self.pending_methods:
            method = TraversalMethod(
                name=pending.name,
                owner=pending.owner,
                params=pending.params,
                virtual=pending.virtual,
            )
            self.program.tree_types[pending.owner].add_method(method)
            registered.append(method)
        for pending, method in zip(self.pending_methods, registered):
            method.body = self._parse_method_body(pending)
        self._fixup_virtual_flags()
        if self.main_tokens is not None:
            self._parse_main()
        self.program.finalize()
        return self.program

    def _at_main(self) -> bool:
        return (
            self.cursor.at_kind("ident")
            or self.cursor.peek().text in ("int",)
        ) and self.cursor.peek(1).text == "main"

    def _parse_tree_class(self) -> None:
        cursor = self.cursor
        abstract = cursor.accept("_abstract_")
        cursor.expect("_tree_")
        cursor.expect("class")
        name = cursor.expect_ident()
        bases: list[str] = []
        if cursor.accept(":"):
            while True:
                cursor.expect("public")
                bases.append(cursor.expect_ident())
                if not cursor.accept(","):
                    break
        tree_type = self.program.add_tree_type(
            TreeType(name, bases=bases, abstract=abstract)
        )
        cursor.expect("{")
        while not cursor.at("}"):
            if cursor.accept("_child_"):
                child_type = cursor.expect_ident()
                cursor.expect("*")
                child_name = cursor.expect_ident()
                cursor.expect(";")
                tree_type.add_child(child_name, child_type)
            elif cursor.at("_traversal_"):
                self._parse_traversal_decl(name)
            else:
                field_type = self._expect_type_name()
                field_name = cursor.expect_ident()
                default = None
                if cursor.accept("="):
                    default = self._parse_const_literal()
                cursor.expect(";")
                tree_type.add_data(field_name, field_type, default=default)
        cursor.expect("}")
        cursor.expect(";")

    def _parse_traversal_decl(self, owner: str) -> None:
        cursor = self.cursor
        cursor.expect("_traversal_")
        virtual = cursor.accept("virtual")
        cursor.expect("void")
        method_name = cursor.expect_ident()
        params = self._parse_params()
        cursor.expect("{")
        body_tokens = self._capture_balanced_braces()
        self.pending_methods.append(
            _PendingMethod(
                owner=owner,
                name=method_name,
                params=params,
                virtual=virtual,
                body_tokens=body_tokens,
            )
        )

    def _parse_params(self) -> tuple[Param, ...]:
        cursor = self.cursor
        cursor.expect("(")
        params: list[Param] = []
        while not cursor.at(")"):
            type_name = self._expect_type_name()
            param_name = cursor.expect_ident()
            params.append(Param(param_name, type_name))
            if not cursor.accept(","):
                break
        cursor.expect(")")
        return tuple(params)

    def _capture_balanced_braces(self) -> list[Token]:
        """Consume tokens up to the matching '}' (exclusive); assumes the
        opening '{' was already consumed."""
        cursor = self.cursor
        depth = 1
        captured: list[Token] = []
        while depth > 0:
            token = cursor.next()
            if token.kind == "eof":
                raise cursor.error("unterminated body")
            if token.text == "{" and token.kind == "punct":
                depth += 1
            elif token.text == "}" and token.kind == "punct":
                depth -= 1
                if depth == 0:
                    break
            captured.append(token)
        captured.append(Token("eof", "", 0, 0))
        return captured

    def _parse_opaque_class(self) -> None:
        cursor = self.cursor
        cursor.expect("class")
        name = cursor.expect_ident()
        cls = self.program.add_opaque_class(OpaqueClass(name))
        cursor.expect("{")
        while not cursor.at("}"):
            field_type = self._expect_type_name()
            field_name = cursor.expect_ident()
            cursor.expect(";")
            cls.add_field(field_name, field_type)
        cursor.expect("}")
        cursor.expect(";")

    def _parse_pure_decl(self) -> None:
        cursor = self.cursor
        cursor.expect("_pure_")
        return_type = self._expect_type_name()
        name = cursor.expect_ident()
        params = self._parse_params()
        cursor.expect(";")
        impl = self.pure_impls.get(name)
        self.program.add_pure_function(
            PureFunction(name=name, params=params, return_type=return_type, impl=impl)
        )

    def _parse_global(self) -> None:
        cursor = self.cursor
        type_name = self._expect_type_name()
        name = cursor.expect_ident()
        cursor.expect(";")
        self.program.add_global(name, type_name)

    def _capture_main(self) -> None:
        cursor = self.cursor
        cursor.next()  # return type
        cursor.expect("main")
        cursor.expect("(")
        cursor.expect(")")
        cursor.expect("{")
        self.main_tokens = self._capture_balanced_braces()

    def _expect_type_name(self) -> str:
        token = self.cursor.peek()
        if token.kind == "ident":
            self.cursor.next()
            return token.text
        raise self.cursor.error(f"expected type name, found {token.text!r}")

    def _parse_const_literal(self):
        cursor = self.cursor
        token = cursor.peek()
        negate = False
        if cursor.at("-"):
            cursor.next()
            negate = True
            token = cursor.peek()
        if token.kind == "number":
            cursor.next()
            value = float(token.text) if "." in token.text or "e" in token.text.lower() else int(token.text)
            return -value if negate else value
        if token.text == "true":
            cursor.next()
            return True
        if token.text == "false":
            cursor.next()
            return False
        if token.kind == "char":
            cursor.next()
            return token.text
        raise cursor.error(f"expected constant, found {token.text!r}")

    # ==================================================================
    # virtual-flag fixup
    # ==================================================================

    def _fixup_virtual_flags(self) -> None:
        """A method overriding a virtual base method is itself virtual.
        Types are processed base-most first so flags propagate down."""
        order = sorted(
            self.program.tree_types,
            key=lambda name: len(self.program.mro(name)),
        )
        for type_name in order:
            tree_type = self.program.tree_types[type_name]
            for method in tree_type.methods.values():
                if method.virtual:
                    continue
                for ancestor_name in self.program.mro(type_name)[1:]:
                    ancestor = self.program.tree_types[ancestor_name]
                    base_method = ancestor.methods.get(method.name)
                    if base_method is not None and base_method.virtual:
                        method.virtual = True
                        break

    # ==================================================================
    # pass 2: method bodies
    # ==================================================================

    def _parse_method_body(self, pending: _PendingMethod) -> list[Stmt]:
        body_parser = _BodyParser(
            program=self.program,
            owner=pending.owner,
            params=pending.params,
            tokens=pending.body_tokens,
            mode=self.mode,
        )
        return body_parser.parse_body()

    # ==================================================================
    # main / entry sequence
    # ==================================================================

    def _parse_main(self) -> None:
        cursor = _Cursor(self.main_tokens)
        root_type = None
        root_name = None
        calls: list[EntryCall] = []
        while not cursor.at_kind("eof"):
            if cursor.at_kind("ident") and cursor.at("*", 1):
                root_type = cursor.expect_ident()
                cursor.expect("*")
                root_name = cursor.expect_ident()
                cursor.expect("=")
                cursor.expect("...")
                cursor.expect(";")
                continue
            if cursor.at_kind("ident"):
                name = cursor.expect_ident()
                if name != root_name:
                    raise cursor.error(
                        f"entry calls must target the root variable {root_name!r}"
                    )
                if cursor.accept("->") or cursor.accept("."):
                    method_name = cursor.expect_ident()
                else:
                    raise cursor.error("expected '->' in entry call")
                cursor.expect("(")
                args: list[Expr] = []
                while not cursor.at(")"):
                    args.append(self._parse_entry_arg(cursor))
                    if not cursor.accept(","):
                        break
                cursor.expect(")")
                cursor.expect(";")
                calls.append(EntryCall(method_name=method_name, args=tuple(args)))
                continue
            if cursor.at("return"):
                cursor.next()
                cursor.accept("0")
                cursor.expect(";")
                continue
            raise cursor.error(f"unexpected token {cursor.peek().text!r} in main")
        if root_type is None:
            raise cursor.error("main must declare the tree root: `T* root = ...;`")
        if root_type not in self.program.tree_types:
            raise ValidationError(f"main root type {root_type!r} is not a tree type")
        self.program.set_entry(root_type, calls)

    def _parse_entry_arg(self, cursor: _Cursor) -> Expr:
        token = cursor.peek()
        negate = cursor.accept("-")
        token = cursor.peek()
        if token.kind == "number":
            cursor.next()
            if "." in token.text or "e" in token.text.lower():
                value = float(token.text)
                return Const(-value if negate else value, "double")
            value = int(token.text)
            return Const(-value if negate else value, "int")
        if token.text in ("true", "false"):
            cursor.next()
            return Const(token.text == "true", "bool")
        raise cursor.error("entry-call arguments must be constants")


class _BodyParser:
    """Parses one traversal body with scope tracking and path resolution."""

    def __init__(self, program: Program, owner: str, params, tokens, mode):
        self.program = program
        self.owner = owner
        self.mode = mode
        self.cursor = _Cursor(tokens)
        self.scope = ScopeInfo()
        for param in params:
            self.scope.locals[param.name] = param.type_name

    # -- entry ----------------------------------------------------------

    def parse_body(self) -> list[Stmt]:
        body: list[Stmt] = []
        while not self.cursor.at_kind("eof"):
            body.append(self._parse_stmt())
        return body

    def _parse_block_or_single(self) -> list[Stmt]:
        if self.cursor.accept("{"):
            body: list[Stmt] = []
            while not self.cursor.at("}"):
                if self.cursor.at_kind("eof"):
                    raise self.cursor.error("unterminated block")
                body.append(self._parse_stmt())
            self.cursor.expect("}")
            return body
        return [self._parse_stmt()]

    # -- statements -------------------------------------------------------

    def _parse_stmt(self) -> Stmt:
        cursor = self.cursor
        if cursor.at("if"):
            return self._parse_if()
        if cursor.at("while"):
            return self._parse_while()
        if cursor.accept("return"):
            cursor.expect(";")
            return Return()
        if cursor.accept("delete"):
            chain = self._parse_chain(allow_call=False)
            cursor.expect(";")
            return Delete(target=self._resolve_chain(chain))
        if cursor.at("this") or cursor.at("static_cast"):
            return self._parse_access_stmt()
        if cursor.at_kind("ident"):
            return self._parse_ident_stmt()
        raise cursor.error(f"unexpected token {cursor.peek().text!r}")

    def _parse_if(self) -> If:
        cursor = self.cursor
        cursor.expect("if")
        cursor.expect("(")
        cond = self._parse_expr()
        cursor.expect(")")
        then_body = self._parse_block_or_single()
        else_body: list[Stmt] = []
        if cursor.accept("else"):
            else_body = self._parse_block_or_single()
        return If(cond=cond, then_body=then_body, else_body=else_body)

    def _parse_while(self) -> While:
        cursor = self.cursor
        cursor.expect("while")
        cursor.expect("(")
        cond = self._parse_expr()
        cursor.expect(")")
        body = self._parse_block_or_single()
        return While(cond=cond, body=body)

    def _parse_ident_stmt(self) -> Stmt:
        """Statement starting with an identifier: local/alias definition,
        pure call, assignment through a local/alias/global, or nothing we
        know about."""
        cursor = self.cursor
        name = cursor.peek().text
        # alias definition: T* const l = <tree-node>;
        if name in self.program.tree_types and cursor.at("*", 1):
            cursor.next()
            cursor.expect("*")
            cursor.expect("const")
            alias_name = cursor.expect_ident()
            cursor.expect("=")
            chain = self._parse_chain(allow_call=False)
            cursor.expect(";")
            target = self._resolve_chain(chain)
            stmt = AliasDef(name=alias_name, type_name=name, target=target)
            self.scope.aliases[alias_name] = name
            return stmt
        # local definition: prim/opaque IDENT [= expr];
        if (
            is_primitive(name) or name in self.program.opaque_classes
        ) and cursor.at_kind("ident", 1):
            cursor.next()
            local_name = cursor.expect_ident()
            init = None
            if cursor.accept("="):
                init = self._parse_expr()
            cursor.expect(";")
            self.scope.locals[local_name] = name
            return LocalDef(name=local_name, type_name=name, init=init)
        # pure call statement: p(args);
        if name in self.program.pure_functions and cursor.at("(", 1):
            cursor.next()  # consume the function name
            call = self._parse_pure_call(name)
            cursor.expect(";")
            return PureStmt(call=call)
        return self._parse_access_stmt()

    def _parse_access_stmt(self) -> Stmt:
        """Assignment, new-statement or traverse call, all of which start
        with a postfix chain."""
        cursor = self.cursor
        chain = self._parse_chain(allow_call=True)
        if chain.call_name is not None:
            args: list[Expr] = []
            cursor.expect("(")
            while not cursor.at(")"):
                args.append(self._parse_expr())
                if not cursor.accept(","):
                    break
            cursor.expect(")")
            cursor.expect(";")
            return self._make_traverse(chain, tuple(args))
        cursor.expect("=")
        if cursor.accept("new"):
            type_name = cursor.expect_ident()
            cursor.expect("(")
            cursor.expect(")")
            cursor.expect(";")
            return New(target=self._resolve_chain(chain), type_name=type_name)
        value = self._parse_expr()
        cursor.expect(";")
        return Assign(target=self._resolve_chain(chain), value=value)

    def _make_traverse(self, chain: _Chain, args: tuple[Expr, ...]) -> TraverseStmt:
        if chain.base != "this":
            raise self.cursor.error(
                "traversal calls must be invoked on `this` or a direct child"
            )
        if len(chain.steps) == 0:
            receiver = Receiver(child=None)
            receiver_type = self.owner
        elif len(chain.steps) == 1:
            field = self.program.resolve_field(self.owner, chain.steps[0].name)
            if not field.is_child:
                raise self.cursor.error(
                    f"{chain.steps[0].name!r} is not a child field"
                )
            receiver = Receiver(child=field)
            receiver_type = field.type_name
        else:
            raise self.cursor.error(
                "traversal receivers are `this` or one child hop (rule 7)"
            )
        if not self.program.has_method(receiver_type, chain.call_name):
            raise self.cursor.error(
                f"type {receiver_type} has no traversal {chain.call_name!r}"
            )
        return TraverseStmt(
            receiver=receiver, method_name=chain.call_name, args=args
        )

    # -- chains -----------------------------------------------------------

    def _parse_chain(self, allow_call: bool) -> _Chain:
        """Parse a postfix chain. When ``allow_call`` and a member is
        followed by ``(``, that member becomes the chain's call name."""
        cursor = self.cursor
        chain = self._parse_chain_base()
        while cursor.at("->") or cursor.at("."):
            cursor.next()
            member = cursor.expect_ident()
            if allow_call and cursor.at("("):
                chain.call_name = member
                return chain
            chain.steps.append(RawStep(name=member, pre_cast=chain_pending_cast(chain)))
        return chain

    def _parse_chain_base(self) -> _Chain:
        cursor = self.cursor
        if cursor.accept("this"):
            return _Chain(base="this", steps=[])
        if cursor.at("static_cast"):
            return self._parse_cast_chain()
        name = cursor.expect_ident()
        return _Chain(base=name, steps=[])

    def _parse_cast_chain(self) -> _Chain:
        cursor = self.cursor
        cursor.expect("static_cast")
        cursor.expect("<")
        cast_type = cursor.expect_ident()
        cursor.expect("*")
        cursor.expect(">")
        cursor.expect("(")
        inner = self._parse_chain(allow_call=False)
        cursor.expect(")")
        inner.pending_cast = cast_type
        return inner

    def _resolve_chain(self, chain: _Chain) -> AccessPath:
        if chain.base == "this":
            return resolve_member_chain(
                self.program, "this", self.owner, chain.steps, start_is_tree=True
            )
        name = chain.base
        if name in self.scope.aliases:
            return resolve_member_chain(
                self.program,
                f"local:{name}",
                self.scope.aliases[name],
                chain.steps,
                start_is_tree=True,
            )
        if name in self.scope.locals:
            return resolve_member_chain(
                self.program,
                f"local:{name}",
                self.scope.locals[name],
                chain.steps,
                start_is_tree=False,
            )
        if name in self.program.globals:
            return resolve_member_chain(
                self.program,
                f"global:{name}",
                self.program.globals[name].type_name,
                chain.steps,
                start_is_tree=False,
            )
        raise self.cursor.error(f"unknown name {name!r}")

    # -- expressions --------------------------------------------------------

    def _parse_expr(self, min_precedence: int = 1) -> Expr:
        lhs = self._parse_unary()
        while True:
            op = self.cursor.peek().text
            precedence = _PRECEDENCE.get(op)
            if (
                precedence is None
                or precedence < min_precedence
                or self.cursor.peek().kind != "punct"
            ):
                return lhs
            self.cursor.next()
            rhs = self._parse_expr(precedence + 1)
            lhs = BinOp(op=op, lhs=lhs, rhs=rhs)

    def _parse_unary(self) -> Expr:
        cursor = self.cursor
        if cursor.accept("!"):
            return UnaryOp(op="!", operand=self._parse_unary())
        if cursor.at("-") and cursor.peek().kind == "punct":
            cursor.next()
            return UnaryOp(op="-", operand=self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        cursor = self.cursor
        token = cursor.peek()
        if token.kind == "number":
            cursor.next()
            if "." in token.text or "e" in token.text.lower():
                return Const(float(token.text), "double")
            return Const(int(token.text), "int")
        if token.text == "true":
            cursor.next()
            return Const(True, "bool")
        if token.text == "false":
            cursor.next()
            return Const(False, "bool")
        if token.kind == "char":
            cursor.next()
            return Const(token.text, "char")
        if cursor.accept("("):
            inner = self._parse_expr()
            cursor.expect(")")
            return inner
        if token.text == "this" or token.text == "static_cast":
            chain = self._parse_chain(allow_call=False)
            return DataAccess(path=self._resolve_chain(chain))
        if token.kind == "ident":
            if token.text in self.program.pure_functions and cursor.at("(", 1):
                cursor.next()
                return self._parse_pure_call(token.text)
            chain = self._parse_chain(allow_call=False)
            return DataAccess(path=self._resolve_chain(chain))
        raise cursor.error(f"unexpected token {token.text!r} in expression")

    def _parse_pure_call(self, name: str) -> PureCall:
        cursor = self.cursor
        cursor.expect("(")
        args: list[Expr] = []
        while not cursor.at(")"):
            args.append(self._parse_expr())
            if not cursor.accept(","):
                break
        cursor.expect(")")
        return PureCall(func_name=name, args=tuple(args))


def chain_pending_cast(chain: _Chain) -> Optional[str]:
    """Pop a pending cast recorded by ``static_cast<T*>(...)`` wrapping."""
    pending = chain.pending_cast
    chain.pending_cast = None
    return pending
