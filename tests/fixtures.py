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


def fresh_store(cache_dir=None, peers=(), persist=True):
    """A :class:`~repro.storage.TieredStore` over a fresh memory tier,
    so no result an earlier test compiled in this process can serve it,
    then the disk store at *cache_dir* and each of *peers*."""
    from repro.storage import (
        MemoryTier,
        TieredStore,
        disk_tier_for,
        peer_tier_for,
    )

    return TieredStore(
        [
            MemoryTier(),
            disk_tier_for(str(cache_dir)) if cache_dir is not None else None,
            *(peer_tier_for(str(peer)) for peer in peers),
        ],
        persist=persist,
    )


def compiled(program, **fields):
    """``pipeline.compile`` of *program* (a ``Program``, Grafter text or
    a ``Workload``) into a :func:`fresh_store`, under
    ``CompileOptions(**fields)``: the one way tests fuse a program
    (``.fused``) or build its generated modules (``.compiled_unfused``,
    ``.compiled_fused``)."""
    from repro.pipeline import CompileOptions
    from repro.pipeline import compile as pipeline_compile

    return pipeline_compile(
        program, options=CompileOptions(**fields), store=fresh_store()
    )


def stored(cache_dir) -> dict[str, set]:
    """What the disk store at *cache_dir* holds: ``"result"`` maps to
    its results' ``ResultKey``s, and each pass name to the unit keys
    its packs hold, read through a fresh, read-only pack index (so no
    test globs the store's layout)."""
    from pathlib import Path

    from repro.storage import FORMAT_VERSION, ResultKey, artifact_path
    from repro.storage.disk import PackIndex

    root = Path(cache_dir) / f"v{FORMAT_VERSION}"
    held: dict[str, set] = PackIndex(root).units()
    held["result"] = {
        ResultKey(*path.stem.split("-"))
        for path in root.glob(artifact_path("result", ("*", "*")))
    }
    return held
