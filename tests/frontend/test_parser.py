"""Frontend tests: lexing, parsing, resolution, error reporting."""

import random
import string

import pytest

from repro.errors import FrontendError, ValidationError
from repro.frontend import parse_program, tokenize
from repro.frontend.lexer import _tokenize_chars
from repro.ir import Assign, Delete, If, New, Return, TraverseStmt
from repro.ir.exprs import BinOp, Const, DataAccess, PureCall
from repro.ir.printer import print_program
from repro.workloads.astlang.schema import AST_SOURCE
from repro.workloads.fmm.schema import FMM_SOURCE
from repro.workloads.kdtree.schema import KD_SOURCE
from repro.workloads.render.schema import RENDER_SOURCE

from tests.fixtures import FIG2_SOURCE, fig1_program, fig2_program


class TestLexer:
    def test_tokens_with_positions(self):
        tokens = tokenize("this->x = 1;\n  y")
        texts = [t.text for t in tokens]
        assert texts == ["this", "->", "x", "=", "1", ";", "y", ""]
        assert tokens[0].line == 1
        assert tokens[-2].line == 2
        assert tokens[-2].column == 3

    def test_comments_are_skipped(self):
        tokens = tokenize("a // line comment\n/* block\ncomment */ b")
        assert [t.text for t in tokens][:-1] == ["a", "b"]

    def test_float_and_exponent_literals(self):
        tokens = tokenize("1.5 2e3 7")
        assert [t.text for t in tokens][:-1] == ["1.5", "2e3", "7"]

    def test_maximal_munch_punctuation(self):
        tokens = tokenize("a->b ... <= == &&")
        assert [t.text for t in tokens][:-1] == ["a", "->", "b", "...", "<=", "==", "&&"]

    def test_char_literal(self):
        tokens = tokenize("'x'")
        assert tokens[0].kind == "char"
        assert tokens[0].text == "x"

    def test_unterminated_comment_raises(self):
        with pytest.raises(FrontendError, match="unterminated"):
            tokenize("/* never closed")

    def test_unexpected_character_raises(self):
        with pytest.raises(FrontendError, match="unexpected character"):
            tokenize("a @ b")

    def test_eof_after_trailing_line_comment_keeps_comment_column(self):
        assert tokenize("a // c")[-1] == ("eof", "", 1, 3)
        assert tokenize("a /* c */  ")[-1] == ("eof", "", 1, 12)

    def test_non_ascii_identifiers_take_the_character_rules(self):
        # str.isalpha accepts letters beyond the fast path's ASCII classes
        tokens = tokenize("café = 1;")
        assert [(t.kind, t.text) for t in tokens][:2] == [
            ("ident", "café"),
            ("punct", "="),
        ]

    def test_fast_path_agrees_with_character_rules(self):
        """The regex path must give the character loop's tokens,
        positions and errors on every ASCII input: seeded random
        snippets, and random edits of the four workload sources."""
        rng = random.Random(13)
        pieces = list(string.printable) + [
            "...", "//", "/*", "*/", "->", "::", "&&", "||", "1.5",
            "2e3", "1e+", "7...", "'x'", "'''", "class", "_tree_", "\n\n",
        ]
        sources = [
            "".join(rng.choice(pieces) for _ in range(rng.randint(0, 40)))
            for _ in range(3000)
        ]
        for base in (RENDER_SOURCE, AST_SOURCE, FMM_SOURCE, KD_SOURCE):
            sources.append(base)
            for _ in range(50):
                chars = list(base)
                for _ in range(rng.randint(1, 4)):
                    chars[rng.randrange(len(chars))] = rng.choice(pieces)
                sources.append("".join(chars))
        for source in sources:
            assert source.isascii()
            assert _lex_outcome(tokenize, source) == _lex_outcome(
                _tokenize_chars, source
            ), source


def _lex_outcome(tokenizer, source):
    try:
        return tokenizer(source)
    except FrontendError as error:
        return (str(error), error.line, error.column)


class TestParseFig2:
    def test_fig2_parses_and_validates(self):
        program = fig2_program()
        assert program.name == "fig2"

    def test_textbox_width_body_shape(self):
        program = fig2_program()
        body = program.tree_types["TextBox"].methods["computeWidth"].body
        assert isinstance(body[0], TraverseStmt)
        assert body[0].receiver.child.name == "Next"
        assert isinstance(body[1], Assign)
        assert body[1].target.steps[-1].field.name == "Width"
        assert isinstance(body[2], Assign)

    def test_group_width_reads_cross_child_data(self):
        program = fig2_program()
        body = program.tree_types["Group"].methods["computeWidth"].body
        assign = body[2]
        access_paths = [
            sub.path
            for sub in _walk(assign.value)
        ]
        rendered = sorted(str(p) for p in access_paths)
        assert "this->Content->Width" in rendered
        assert "this->Border.Size" in rendered

    def test_if_statement_parsed(self):
        program = fig2_program()
        body = program.tree_types["TextBox"].methods["computeHeight"].body
        assert isinstance(body[-1], If)
        assert isinstance(body[-1].cond, BinOp)

    def test_global_read_in_expression(self):
        program = fig2_program()
        body = program.tree_types["TextBox"].methods["computeHeight"].body
        height_assign = body[1]
        globals_read = [
            sub.path.base_name
            for sub in _walk(height_assign.value)
            if sub.path.is_global
        ]
        assert globals_read == ["CHAR_WIDTH"]


def _walk(expr):
    from repro.ir.exprs import walk_expr

    return [s for s in walk_expr(expr) if isinstance(s, DataAccess)]


class TestStatements:
    def test_new_delete_and_cast(self):
        source = """
        _tree_ class Expr {
            _child_ Expr* left;
            int kind = 0;
            _traversal_ virtual void rewrite() {}
        };
        _tree_ class Add : public Expr {
            _child_ Expr* right;
            _traversal_ void rewrite() {
                this->left->rewrite();
                if (this->left->kind == 1) {
                    delete this->left;
                    this->left = new Add();
                    static_cast<Add*>(this->left)->kind = 2;
                }
            }
        };
        """
        program = parse_program(source)
        body = program.tree_types["Add"].methods["rewrite"].body
        if_stmt = body[1]
        assert isinstance(if_stmt.then_body[0], Delete)
        assert isinstance(if_stmt.then_body[1], New)
        assert if_stmt.then_body[1].type_name == "Add"
        cast_assign = if_stmt.then_body[2]
        # the cast wraps `this->left`, so it attaches to the `kind` step
        assert cast_assign.target.steps[-1].pre_cast == "Add"
        assert cast_assign.target.steps[0].field.name == "left"

    def test_cast_step_records_pre_cast(self):
        source = """
        _tree_ class Expr {
            _child_ Expr* left;
            int kind = 0;
            _traversal_ virtual void rewrite() {}
        };
        _tree_ class Add : public Expr {
            _child_ Expr* right;
            int extra = 0;
            _traversal_ void rewrite() {
                static_cast<Add*>(this->left)->extra = 1;
            }
        };
        """
        program = parse_program(source)
        body = program.tree_types["Add"].methods["rewrite"].body
        target = body[0].target
        assert target.steps[1].pre_cast == "Add"
        assert target.steps[1].field.owner == "Add"

    def test_locals_aliases_params_and_pure_calls(self):
        source = """
        _pure_ int clamp(int v, int lo, int hi);
        _tree_ class Node {
            _child_ Node* kid;
            int value = 0;
            _traversal_ virtual void go(int bias) {}
        };
        _tree_ class Inner : public Node {
            _traversal_ void go(int bias) {
                int tmp = this->value + bias;
                Node* const k = this->kid;
                k->value = clamp(tmp, 0, 100);
                this->kid->go(tmp);
            }
        };
        _tree_ class Stop : public Node { };
        """
        program = parse_program(source, pure_impls={"clamp": lambda v, lo, hi: max(lo, min(v, hi))})
        body = program.tree_types["Inner"].methods["go"].body
        assert body[0].name == "tmp"
        assert body[1].name == "k"
        assign = body[2]
        assert assign.target.base == "local:k"
        assert isinstance(assign.value, PureCall)
        call = body[3]
        assert isinstance(call, TraverseStmt)
        assert isinstance(call.args[0], DataAccess)

    def test_conditional_return_for_truncation(self):
        source = """
        _tree_ class Node {
            _child_ Node* kid;
            int stop = 0;
            _traversal_ virtual void go() {}
        };
        _tree_ class Inner : public Node {
            _traversal_ void go() {
                if (this->stop == 1) return;
                this->kid->go();
            }
        };
        _tree_ class Stop2 : public Node { };
        """
        program = parse_program(source)
        body = program.tree_types["Inner"].methods["go"].body
        assert isinstance(body[0], If)
        assert isinstance(body[0].then_body[0], Return)


class TestErrors:
    def test_traverse_inside_if_rejected_in_grafter_mode(self):
        source = """
        _tree_ class Node {
            _child_ Node* kid;
            int flag = 0;
            _traversal_ virtual void go() {}
        };
        _tree_ class Inner : public Node {
            _traversal_ void go() {
                if (this->flag == 1) { this->kid->go(); }
            }
        };
        """
        with pytest.raises(ValidationError, match="conditional return"):
            parse_program(source)

    def test_deep_receiver_rejected(self):
        source = """
        _tree_ class Node {
            _child_ Node* kid;
            _traversal_ virtual void go() {}
        };
        _tree_ class Inner : public Node {
            _traversal_ void go() {
                this->kid->kid->go();
            }
        };
        """
        with pytest.raises(FrontendError, match="one child hop"):
            parse_program(source)

    def test_unknown_member_rejected(self):
        source = """
        _tree_ class Node {
            int x = 0;
            _traversal_ void go() { this->y = 1; }
        };
        """
        with pytest.raises(ValidationError, match="no field 'y'"):
            parse_program(source)

    def test_assign_to_tree_node_rejected(self):
        source = """
        _tree_ class Node {
            _child_ Node* kid;
            _traversal_ void go() { this->kid = this->kid; }
        };
        """
        with pytest.raises((ValidationError, FrontendError)):
            parse_program(source)

    def test_unknown_traversal_on_receiver(self):
        source = """
        _tree_ class Node {
            _child_ Node* kid;
            _traversal_ void go() { this->kid->missing(); }
        };
        """
        with pytest.raises(FrontendError, match="no traversal"):
            parse_program(source)

    def test_entry_on_unknown_method(self):
        source = """
        _tree_ class Node { int x = 0; };
        int main() {
            Node* root = ...;
            root->nope();
        }
        """
        with pytest.raises(ValidationError, match="unknown traversal"):
            parse_program(source)


class TestRoundTrip:
    def test_print_then_reparse_fig2(self):
        program = fig2_program()
        printed = print_program(program)
        reparsed = parse_program(printed, name="fig2rt")
        assert set(reparsed.tree_types) == set(program.tree_types)
        for type_name, tree_type in program.tree_types.items():
            other = reparsed.tree_types[type_name]
            assert set(tree_type.methods) == set(other.methods)
            for method_name, method in tree_type.methods.items():
                other_method = other.methods[method_name]
                assert len(method.body) == len(other_method.body)

    def test_print_then_reparse_fig1(self):
        program = fig1_program()
        printed = print_program(program)
        reparsed = parse_program(printed)
        assert set(reparsed.tree_types) == set(program.tree_types)
