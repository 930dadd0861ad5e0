"""Unit tests for statement summaries and the interference test."""

from repro.analysis.accesses import AccessInfo
from repro.analysis.summaries import (
    ROOT_LABEL,
    StatementSummary,
    interferes,
    merge_summaries,
)


def summary(tree_reads=(), tree_writes=(), env_reads=(), env_writes=()):
    def infos(specs):
        return [
            AccessInfo(labels=tuple(labels), any_suffix=any_suffix)
            for labels, any_suffix in specs
        ]

    return StatementSummary.from_accesses(
        tree_reads=infos(tree_reads),
        tree_writes=infos(tree_writes),
        env_reads=infos(env_reads),
        env_writes=infos(env_writes),
    )


class TestInterference:
    def test_read_read_never_interferes(self):
        a = summary(tree_reads=[(("x",), False)])
        b = summary(tree_reads=[(("x",), False)])
        assert not interferes(a, b)

    def test_write_read_same_field(self):
        a = summary(tree_writes=[(("x",), False)])
        b = summary(tree_reads=[(("x",), False)])
        assert interferes(a, b)
        assert interferes(b, a)  # symmetric

    def test_write_write_same_field(self):
        a = summary(tree_writes=[(("x",), False)])
        b = summary(tree_writes=[(("x",), False)])
        assert interferes(a, b)

    def test_disjoint_fields_independent(self):
        a = summary(tree_writes=[(("x",), False)])
        b = summary(tree_reads=[(("y",), False)])
        assert not interferes(a, b)

    def test_write_conflicts_with_deeper_read_prefix(self):
        # writing c conflicts with reading c.x (the read touches c's cell
        # via its prefix)
        a = summary(tree_writes=[(("c",), False)])
        b = summary(tree_reads=[(("c", "x"), False)])
        assert interferes(a, b)

    def test_deep_write_conflicts_with_shallow_write_via_prefix_read(self):
        # the access collector adds a prefix read for every deep write
        # (navigating to c.x reads the pointer c); with it, writing the
        # pointer cell c conflicts
        a = summary(
            tree_writes=[(("c", "x"), False)],
            tree_reads=[(("c",), False)],
        )
        b = summary(tree_writes=[(("c",), False)])
        assert interferes(a, b)

    def test_deep_write_alone_is_a_different_location(self):
        # without the prefix read, c.x and the pointer cell c are
        # disjoint locations (write automata accept only full paths)
        a = summary(tree_writes=[(("c", "x"), False)])
        b = summary(tree_writes=[(("c",), False)])
        assert not interferes(a, b)

    def test_any_suffix_covers_subtree(self):
        delete = summary(tree_writes=[(("c",), True)])
        deep = summary(tree_reads=[(("c", "q", "z"), False)])
        assert interferes(delete, deep)

    def test_whole_object_read_conflicts_with_member_write(self):
        # only the read's ANY suffix holds the written path: no prefix
        # of either side is shared without it
        whole = summary(tree_reads=[(("o",), True)])
        member = summary(tree_writes=[(("o", "f"), False)])
        assert interferes(member, whole)
        assert interferes(whole, member)
        env_whole = summary(env_reads=[(("::g",), True)])
        env_member = summary(env_writes=[(("::g", "Pair.a"), False)])
        assert interferes(env_member, env_whole)

    def test_env_and_tree_namespaces_are_separate(self):
        # a global named like a field never collides with the field
        a = summary(tree_writes=[(("x",), False)])
        b = summary(env_reads=[(("::x",), False)])
        assert not interferes(a, b)

    def test_local_copies_distinguished_by_rename(self):
        a = summary(env_writes=[(("local:0:t",), False)])
        b = summary(env_reads=[(("local:1:t",), False)])
        assert not interferes(a, b)
        c = summary(env_reads=[(("local:0:t",), False)])
        assert interferes(a, c)

    def test_global_write_conflicts_with_member_read(self):
        a = summary(env_writes=[(("::g",), True)])
        b = summary(env_reads=[(("::g", "Pair.a"), False)])
        assert interferes(a, b)


class TestMergeSummaries:
    def test_merge_unions_languages(self):
        a = summary(tree_writes=[(("x",), False)])
        b = summary(tree_writes=[(("y",), False)])
        merged = merge_summaries([a, b])
        reader_x = summary(tree_reads=[(("x",), False)])
        reader_y = summary(tree_reads=[(("y",), False)])
        assert interferes(merged, reader_x)
        assert interferes(merged, reader_y)

    def test_root_label_in_languages(self):
        a = summary(tree_writes=[(("x",), False)])
        assert a.tree_writes.accepts([ROOT_LABEL, "x"])
        assert not a.tree_writes.accepts(["x"])
