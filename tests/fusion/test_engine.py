"""Fusion engine structure tests: grouping, memoization, recursion,
type-specific dispatch, cutoffs."""

from repro.frontend import parse_program
from repro.fusion import FusionLimits
from repro.fusion.fused_ir import GroupCall, GuardedStmt, print_fused_unit

from tests.fixtures import compiled, fig1_program, fig2_program


class TestFig1Fusion:
    def test_two_traversals_fuse_into_recursive_unit(self):
        fused = compiled(fig1_program()).fused
        key = ("Inner::f1", "Inner::f2")
        assert key in fused.units
        unit = fused.units[key]
        groups = [i for i in unit.body if isinstance(i, GroupCall)]
        assert len(groups) == 1
        # the child group bundles f3 and f4
        assert [c.method_name for c in groups[0].calls] == ["f3", "f4"]
        # f3+f4 unit is recursive: its own group dispatches back to itself
        inner_key = ("Inner::f3", "Inner::f4")
        inner_unit = fused.units[inner_key]
        inner_group = next(
            i for i in inner_unit.body if isinstance(i, GroupCall)
        )
        assert inner_group.dispatch["Inner"] is inner_unit

    def test_dependence_preserved_in_order(self):
        fused = compiled(fig1_program()).fused
        unit = fused.units[("Inner::f1", "Inner::f2")]
        stmts = [i for i in unit.body if isinstance(i, GuardedStmt)]
        # s1 (member 0, writes x) must precede s2 (member 1, reads x)
        member_order = [s.member for s in stmts]
        assert member_order == sorted(member_order)

    def test_memoization_shares_units(self):
        fused = compiled(fig1_program()).fused
        # Node::f3/Node::f4 (empty bodies, reached from dispatch on Leaf
        # and on Node) must be one unit, not two
        empty_keys = [k for k in fused.units if k == ("Node::f3", "Node::f4")]
        assert len(empty_keys) == 1


class TestFig2Fusion:
    def test_type_specific_units_exist(self):
        fused = compiled(fig2_program()).fused
        assert ("TextBox::computeWidth", "TextBox::computeHeight") in fused.units
        assert ("Group::computeWidth", "Group::computeHeight") in fused.units
        assert (
            "Element::computeWidth",
            "Element::computeHeight",
        ) in fused.units  # End's inherited no-ops

    def test_groups_formed_on_both_children(self):
        fused = compiled(fig2_program()).fused
        unit = fused.units[("Group::computeWidth", "Group::computeHeight")]
        groups = [i for i in unit.body if isinstance(i, GroupCall)]
        receivers = sorted(g.receiver.child.name for g in groups)
        assert receivers == ["Content", "Next"]
        for group in groups:
            assert len(group.calls) == 2  # width+height fused on each child

    def test_entry_dispatch_covers_concrete_types(self):
        fused = compiled(fig2_program()).fused
        assert len(fused.entry_groups) == 1
        dispatch = fused.entry_groups[0].dispatch
        assert set(dispatch) == {"TextBox", "Group", "End"}

    def test_print_fused_unit_readable(self):
        fused = compiled(fig2_program()).fused
        unit = fused.units[("TextBox::computeWidth", "TextBox::computeHeight")]
        text = print_fused_unit(unit)
        assert "active_flags" in text
        assert "__stub" in text


class TestCutoffs:
    def test_max_sequence_chunks_entry(self):
        source = """
        _tree_ class N {
            _child_ N* kid;
            int v = 0;
            _traversal_ virtual void f() {}
        };
        _tree_ class I : public N {
            _traversal_ void f() { this->kid->f(); this->v = this->v + 1; }
        };
        _tree_ class L : public N { };
        int main() {
            N* root = ...;
            root->f(); root->f(); root->f(); root->f(); root->f();
        }
        """
        program = parse_program(source)
        fused = compiled(program, limits=FusionLimits(max_sequence=2)).fused
        assert len(fused.entry_groups) == 3  # 2 + 2 + 1
        widths = [u.width for u in fused.units.values()]
        assert max(widths) <= 2

    def test_max_repeat_limits_group_multiplicity(self):
        source = """
        _tree_ class N {
            _child_ N* kid;
            int v = 0;
            _traversal_ virtual void f() {}
        };
        _tree_ class I : public N {
            _traversal_ void f() {
                this->kid->f();
                this->kid->f();
            }
        };
        _tree_ class L : public N { };
        int main() { N* root = ...; root->f(); }
        """
        program = parse_program(source)
        fused = compiled(program, limits=FusionLimits(max_repeat=2)).fused
        # Each level doubles the calls; max_repeat caps any one group at 2
        # occurrences of I::f, so unit widths stay bounded.
        assert all(u.width <= 2 for u in fused.units.values())

    def test_fusion_terminates_on_amplifying_recursion(self):
        # two calls on the same child per level with two traversals at the
        # root would amplify without cutoffs (paper §4's motivation)
        source = """
        _tree_ class N {
            _child_ N* kid;
            int v = 0;
            _traversal_ virtual void f() {}
            _traversal_ virtual void g() {}
        };
        _tree_ class I : public N {
            _traversal_ void f() { this->kid->f(); this->kid->g(); }
            _traversal_ void g() { this->kid->g(); this->kid->f(); }
        };
        _tree_ class L : public N { };
        int main() { N* root = ...; root->f(); root->g(); }
        """
        program = parse_program(source)
        fused = compiled(
            program, limits=FusionLimits(max_sequence=4, max_repeat=2)
        ).fused
        assert fused.unit_count < 100
        assert all(u.width <= 4 for u in fused.units.values())


class TestBlockedFusion:
    def test_conflicting_calls_stay_separate(self):
        # The classic unfusable pair: an upward reduction (a computed
        # bottom-up) feeding a downward distribution (b pushed top-down
        # using the child's a). p2 at the child needs kid.b, which the
        # parent's p2 computes from kid.a, which p1-at-the-child computes:
        # p1@kid < s2@parent < p2@kid. Grouping the two child calls would
        # contract that chain into a cycle, so Grafter must keep them
        # separate (partial fusion only).
        source = """
        _tree_ class N {
            _child_ N* kid;
            int a = 0;
            int b = 0;
            _traversal_ virtual void p1() {}
            _traversal_ virtual void p2() {}
        };
        _tree_ class I : public N {
            _traversal_ void p1() {
                this->kid->p1();
                this->a = this->kid.a + 1;
            }
            _traversal_ void p2() {
                this->kid.b = this->b + this->kid.a;
                this->kid->p2();
            }
        };
        _tree_ class L : public N { };
        int main() { N* root = ...; root->p1(); root->p2(); }
        """
        program = parse_program(source)
        fused = compiled(program).fused
        unit = fused.units[("I::p1", "I::p2")]
        groups = [i for i in unit.body if isinstance(i, GroupCall)]
        assert len(groups) == 2
        assert all(len(g.calls) == 1 for g in groups)
