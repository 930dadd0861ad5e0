"""The fuzzing harness itself: determinism, the committed seed corpus,
repro-file round trips, error handling, and the minimizer."""

import json
import pathlib

import pytest

from repro.fuzz import (
    BASELINE,
    LABELS,
    FuzzCase,
    generate_case,
    load_repro,
    minimize_case,
    run_case,
    save_repro,
)

CORPUS = json.loads(
    (pathlib.Path(__file__).parent / "seeds.json").read_text()
)


class TestDeterminism:
    def test_same_seed_same_case(self):
        assert generate_case(7).to_json() == generate_case(7).to_json()

    def test_different_seeds_differ(self):
        assert generate_case(1).to_json() != generate_case(2).to_json()

    def test_case_is_json_round_trippable(self):
        case = generate_case(11)
        again = FuzzCase.from_json(case.to_json())
        assert again.to_json() == case.to_json()


class TestCorpus:
    @pytest.mark.parametrize("seed", CORPUS["seeds"])
    def test_corpus_seed_has_no_divergence(self, seed):
        result = run_case(
            generate_case(seed, max_depth=CORPUS["max_depth"])
        )
        assert result.ok, result.report()
        # all eight executions actually ran and were compared
        assert len(LABELS) == 8
        assert set(result.records) | set(result.errors) == set(LABELS)


class TestReproFiles:
    def test_save_load_round_trip(self, tmp_path):
        case = generate_case(5)
        path = save_repro(case, str(tmp_path / "repro.json"))
        loaded = load_repro(path)
        assert loaded.to_json() == case.to_json()
        assert run_case(loaded).ok

    def test_replay_via_cli(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "repro.json")
        save_repro(generate_case(3), path)
        assert main(["fuzz", "--replay", path]) == 0
        assert "OK" in capsys.readouterr().out


class TestErrorHandling:
    def test_errors_on_every_executor_are_not_divergences(self):
        # every executor dereferences the same null child; the raised
        # types differ (the interpreter's RuntimeFailure vs whatever
        # the generated code trips over), but error *presence* agrees —
        # that's agreement, not divergence
        source = "\n".join(
            [
                "_abstract_ _tree_ class N {",
                "    _child_ N* c0;",
                "    _child_ N* c1;",
                "    int d0 = 0;",
                "    _traversal_ virtual void f0(int p0) {}",
                "};",
                "_tree_ class A : public N {",
                "    _traversal_ void f0(int p0) {",
                "        this->c0->f0(p0);",
                "    }",
                "};",
                "_tree_ class Leaf : public N { };",
                "int main() {",
                "    N* root = ...;",
                "    root->f0(0);",
                "}",
            ]
        )
        tree = {
            "__type__": "A",
            "d0": 1,
            "c0": None,
            "c1": None,
        }
        case = FuzzCase(seed=-1, source=source, tree=tree, globals_map={})
        result = run_case(case)
        assert result.ok, result.report()
        assert BASELINE in result.errors
        assert len(result.errors) == len(LABELS)


class TestMinimizer:
    def test_shrinks_tree_and_source_under_synthetic_predicate(self):
        case = generate_case(9)
        original_nodes = json.dumps(case.tree).count("__type__")
        # a predicate that's always true lets the minimizer cut
        # everything cuttable: the result is the floor of the shrink
        small = minimize_case(case, diverges=lambda c: True)
        shrunk_nodes = json.dumps(small.tree).count("__type__")
        assert shrunk_nodes < original_nodes
        # every child slot ended up a bare Leaf
        for child in ("c0", "c1"):
            value = small.tree.get(child)
            if isinstance(value, dict):
                assert value["__type__"] == "Leaf"
        assert len(small.source) < len(case.source)

    def test_keeps_case_when_nothing_shrinks(self):
        case = generate_case(9)
        # a predicate that's never true rejects every variant
        same = minimize_case(case, diverges=lambda c: False)
        assert same.to_json() == case.to_json()

    def test_minimized_case_still_diverges_by_its_own_predicate(self):
        case = generate_case(4)
        # divergence := a hazard global-assignment line survives
        predicate = lambda c: "G0 = G0" in c.source  # noqa: E731
        if not predicate(case):
            pytest.skip("seed 4 stopped generating a G0 write")
        small = minimize_case(case, diverges=predicate)
        assert predicate(small)
        assert len(small.source) <= len(case.source)
