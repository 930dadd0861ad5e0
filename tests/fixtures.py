"""Shared program fixtures used across the test suite.

``FIG2_SOURCE`` is the paper's running example (Fig. 2): a render-tree
fragment where elements compute widths and heights. ``FIG1_SOURCE``
reproduces the schematic example of Fig. 1 (two traversals with a
dependence through ``this.x``).
"""

from repro.frontend import parse_program

FIG2_SOURCE = """
int CHAR_WIDTH;

class String { int Length; };
class BorderInfo { int Size; };

_abstract_ _tree_ class Element {
    _child_ Element* Next;
    int Height = 0;
    int Width = 0;
    int MaxHeight = 0;
    int TotalWidth = 0;
    _traversal_ virtual void computeWidth() {}
    _traversal_ virtual void computeHeight() {}
};

_tree_ class TextBox : public Element {
    String Text;
    _traversal_ void computeWidth() {
        this->Next->computeWidth();
        this->Width = this->Text.Length;
        this->TotalWidth = this->Next->Width + this->Width;
    }
    _traversal_ void computeHeight() {
        this->Next->computeHeight();
        this->Height = this->Text.Length * (this->Width / CHAR_WIDTH) + 1;
        this->MaxHeight = this->Height;
        if (this->Next->Height > this->Height) {
            this->MaxHeight = this->Next->Height;
        }
    }
};

_tree_ class Group : public Element {
    _child_ Element* Content;
    BorderInfo Border;
    _traversal_ void computeWidth() {
        this->Content->computeWidth();
        this->Next->computeWidth();
        this->Width = this->Content->Width + this->Border.Size * 2;
        this->TotalWidth = this->Width + this->Next->Width;
    }
    _traversal_ void computeHeight() {
        this->Content->computeHeight();
        this->Next->computeHeight();
        this->Height = this->Content->MaxHeight + this->Border.Size * 2;
        this->MaxHeight = this->Height;
        if (this->Next->Height > this->Height) {
            this->MaxHeight = this->Next->Height;
        }
    }
};

_tree_ class End : public Element {
};

int main() {
    Element* ElementsList = ...;
    ElementsList->computeWidth();
    ElementsList->computeHeight();
}
"""


FIG1_SOURCE = """
_tree_ class Node {
    _child_ Node* child;
    int x = 0;
    int y = 0;
    int stop = 0;
    _traversal_ virtual void f1() {}
    _traversal_ virtual void f2() {}
    _traversal_ virtual void f3() {}
    _traversal_ virtual void f4() {}
};

_tree_ class Inner : public Node {
    _traversal_ void f1() {
        this->child->f3();
        this->x = this->y + 1;
    }
    _traversal_ void f2() {
        this->y = this->x;
        this->child->f4();
    }
    _traversal_ void f3() {
        this->child->f3();
        this->y = this->y * 2;
    }
    _traversal_ void f4() {
        this->child->f4();
        this->x = this->x + 3;
    }
};

_tree_ class LeafEnd : public Node {
};

int main() {
    Node* root = ...;
    root->f1();
    root->f2();
}
"""


def fig2_program():
    return parse_program(FIG2_SOURCE, name="fig2")


def fig1_program():
    return parse_program(FIG1_SOURCE, name="fig1")


def metered(program, heap, stats=None):
    """The interpreter over *heap*'s object graph, charging the paper's
    cost model into *stats* (a fresh :class:`ExecStats` by default)."""
    from repro.interp import Interpreter, ObjectTreeView
    from repro.runtime import ExecStats

    return Interpreter(
        program,
        ObjectTreeView(program, heap),
        meter=stats if stats is not None else ExecStats(),
    )


def source_workload(source, pure_impls=None, name="program"):
    """Grafter *source* bundled with its pure impls as a compile-only
    :class:`~repro.api.Workload` (no tree builder)."""
    from repro.api import Workload

    return Workload(
        name=name, source=source, build_tree=None, pure_impls=pure_impls
    )
