"""Workload bundles and the Session facade."""

import pickle

import pytest

import repro
from repro.errors import WorkloadError
from repro.pipeline import CompileOptions
from repro.workloads.astlang import astlang_workload
from repro.workloads.fmm import fmm_workload
from repro.workloads.kdtree import kdtree_workload
from repro.workloads.render import render_workload


class TestWorkload:
    def test_specs_from_count_and_sequence(self):
        w = render_workload()
        assert len(w.specs(3, pages=1)) == 3
        explicit = [w.spec(pages=1)]
        assert w.specs(explicit) == explicit
        with pytest.raises(WorkloadError, match="count"):
            w.specs(explicit, pages=2)

    def test_request_carries_the_bundle(self):
        w = render_workload()
        request = w.request(2, pages=1)
        assert request.workload is w
        assert request.compile_key()[0] == w.source_hash()
        assert len(request.trees) == 2

    def test_program_source_rejects_loose_impls(self):
        w = render_workload()
        with pytest.raises(WorkloadError, match="already binds"):
            repro.Workload(
                name="bad",
                source=w.source,
                build_tree=w.build_tree,
                pure_impls={"imax": max},
            )

    def test_workloads_pickle(self):
        # the service's process backend ships requests (and therefore
        # workload bundles) to spawned/forked workers
        for workload in (
            render_workload(),
            astlang_workload(),
            kdtree_workload(),
            fmm_workload(),
        ):
            clone = pickle.loads(pickle.dumps(workload))
            assert clone.name == workload.name
            assert clone.source_hash() == workload.source_hash()

    def test_compile_shortcut(self):
        result = render_workload().compile(
            options=CompileOptions(emit=False)
        )
        assert result.fused is not None


class TestSession:
    def test_compile_then_run(self):
        with repro.Session(workers=1, backend="inline") as session:
            compiled = session.compile(render_workload())
            outcome = compiled.run(trees=2, pages=1)
        assert len(outcome) == 2
        assert outcome.wall_seconds > 0

    def test_second_compile_hits_the_cache(self):
        with repro.Session() as session:
            first = session.compile(render_workload())
            second = session.compile(render_workload())
        assert second.source_hash == first.source_hash
        assert second.cache_hit

    def test_all_four_workloads_run(self):
        sizes = {
            "render": {"pages": 1},
            "astlang": {"functions": 2},
            "kdtree-eq1": {"depth": 2},
            "fmm": {"particles": 16},
        }
        with repro.Session(workers=1, backend="inline") as session:
            for workload in (
                render_workload(),
                astlang_workload(),
                kdtree_workload(),
                fmm_workload(),
            ):
                outcome = session.run(
                    workload, 1, **sizes[workload.name]
                )
                assert len(outcome) == 1

    def test_cache_dir_reaches_the_store(self, tmp_path):
        with repro.Session(cache_dir=str(tmp_path)) as session:
            session.run(render_workload(), 1, pages=1)
            stats = session.stats()
        assert stats["store"]["spills"] >= 1
        assert "executor" in stats

    def test_inline_source_compiles(self):
        source = """
_tree_ class N { _child_ N* kid;
    int x = 0;
    _traversal_ void go() { this->x = 1; this->kid->go(); } };
int main() { N* root = ...; root->go(); }
"""
        with repro.Session() as session:
            compiled = session.compile(source, emit=False)
        assert compiled.fused is not None

    def test_submit_is_async(self):
        with repro.Session(workers=1) as session:
            ticket = session.submit(render_workload(), 1, pages=1)
            result = ticket.result(60)
        assert result.ok
