"""Printer coverage: every statement/expression form renders and
round-trips through the parser."""

from repro.frontend import parse_program
from repro.ir.printer import print_method, print_program

KITCHEN_SINK = """
int G;

class Pair { int a; int b; };

_pure_ int helper(int v);

_abstract_ _tree_ class Base {
    _child_ Base* kid;
    int x = 0;
    double d = 0;
    bool flag = false;
    Pair pair;
    _traversal_ virtual void go(int p) {}
};

_tree_ class Mid : public Base {
    int extra = 0;
    _traversal_ void go(int p) {
        int local = p + 1;
        double ratio = this->d / 2.0;
        Base* const k = this->kid;
        k->x = helper(local);
        this->pair.a = this->pair.b + G;
        G = G + 1;
        if (this->flag && (this->x > 3 || local != 0)) {
            this->x = -this->x;
        } else {
            this->x = this->x % 5;
        }
        if (this->extra >= 10) return;
        delete this->kid;
        this->kid = new Leaf();
        static_cast<Leaf*>(this->kid)->x = 7;
        this->kid->go(local * 2);
        this->go(local - 1);
    }
};

_tree_ class Leaf : public Base { };

int main() {
    Base* root = ...;
    root->go(3);
    root->go(-1);
}
"""


def _impls():
    return {"helper": lambda v: v}


class TestPrinter:
    def test_kitchen_sink_round_trips(self):
        program = parse_program(KITCHEN_SINK, pure_impls=_impls())
        printed = print_program(program)
        reparsed = parse_program(printed, pure_impls=_impls())
        assert set(reparsed.tree_types) == set(program.tree_types)
        reprinted = print_program(reparsed)
        # fixpoint: printing the reparsed program is stable
        assert reprinted == printed

    def test_all_statement_forms_render(self):
        program = parse_program(KITCHEN_SINK, pure_impls=_impls())
        text = print_method(program.tree_types["Mid"].methods["go"])
        for fragment in [
            "int local = (p + 1);",
            "Base* const k =",
            "this->pair.a",
            "G = (G + 1);",
            "} else {",
            "return;",
            "delete this->kid;",
            "this->kid = new Leaf();",
            "static_cast<Leaf*>(this->kid)->x = 7;",
            "this->kid->go((local * 2));",
            "this->go((local - 1));",
        ]:
            assert fragment in text, fragment

    def test_type_declarations_render(self):
        program = parse_program(KITCHEN_SINK, pure_impls=_impls())
        text = print_program(program)
        assert "_abstract_ _tree_ class Base {" in text
        assert "_child_ Base* kid;" in text
        assert "class Pair {" in text
        assert "_pure_ int helper(int v);" in text
        assert "int G;" in text
        assert "root->go(3);" in text
        assert "root->go(-1);" in text

    def test_entry_args_round_trip(self):
        program = parse_program(KITCHEN_SINK, pure_impls=_impls())
        reparsed = parse_program(print_program(program), pure_impls=_impls())
        args = [call.args[0].value for call in reparsed.entry]
        assert args == [3, -1]

    def test_bool_and_char_constants(self):
        source = """
        _tree_ class A {
            bool flag = false;
            char c = 'x';
            _traversal_ void go() {
                this->flag = true;
                this->c = 'y';
            }
        };
        """
        program = parse_program(source)
        printed = print_program(program)
        assert "this->flag = true;" in printed
        assert "'y'" in printed
        reparsed = parse_program(printed)
        assert "A" in reparsed.tree_types


DEFAULTS_SOURCE = """
_tree_ class Node_ {
    _child_ Node_* next;
    int Value = VALUE;
    int Neg = -3;
    double Ratio = 0.5;
    double Small = -0.25;
    bool Flag = true;
    char Mark = 'q';
    int Plain;
    _traversal_ void go() {
        this->Plain = this->Value;
    }
};
int main() {
    Node_* root = ...;
    root->go();
}
"""


class TestDataDefaults:
    """Data-field defaults are part of the printed (and so hashed)
    program: dropping them let two programs that differ only in a
    default share one compile key."""

    def test_defaults_survive_print_parse_round_trip(self):
        program = parse_program(DEFAULTS_SOURCE.replace("VALUE", "7"))
        printed = print_program(program)
        assert "int Value = 7;" in printed
        assert "int Plain;" in printed
        reparsed = parse_program(printed)
        defaults = program.tree_types["Node_"].data_defaults
        assert defaults == {
            "Value": 7,
            "Neg": -3,
            "Ratio": 0.5,
            "Small": -0.25,
            "Flag": True,
            "Mark": "q",
        }
        assert reparsed.tree_types["Node_"].data_defaults == defaults
        assert print_program(reparsed) == printed

    def test_default_only_variants_get_distinct_keys(self):
        from repro.pipeline import CompileOptions, hash_program
        from repro.pipeline import compile as pipeline_compile
        from repro.storage import MemoryTier

        one, seven = (
            parse_program(DEFAULTS_SOURCE.replace("VALUE", value))
            for value in ("1", "7")
        )
        assert hash_program(one) != hash_program(seven)
        cache = MemoryTier()
        options = CompileOptions(emit=False)
        pipeline_compile(one, options=options, cache=cache)
        result = pipeline_compile(seven, options=options, cache=cache)
        assert not result.cache_hit
        assert result.program.tree_types["Node_"].data_defaults["Value"] == 7
