"""Workload bundles and the Session facade."""

import pickle

import pytest

import repro
from repro.errors import WorkloadError
from repro.pipeline import CompileOptions
from repro.storage import disk_tier_for
from repro.workloads.astlang import astlang_workload
from repro.workloads.fmm import fmm_workload
from repro.workloads.kdtree import kdtree_workload
from repro.workloads.render import render_workload

from tests.fixtures import stored


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
        # a memory tier of its own: the process-wide one may already
        # hold render's result, which would serve it before the store
        with _private_session(cache_dir=str(tmp_path)) as session:
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


def _private_session(**kwargs):
    """A session on its own empty memory tier, so no result another
    test compiled can serve it and every miss reaches its stores."""
    return repro.Session(
        memory_budget=1 << 30, workers=1, backend="inline", **kwargs
    )


def _call(session, name, options=None):
    workload = render_workload()
    if name == "run":
        session.run(workload, 1, options=options, pages=1)
    elif name == "submit":
        ticket = session.submit(workload, 1, options=options, pages=1)
        assert ticket.result(120).ok
    else:
        getattr(session, name)(workload, options=options)


class TestCacheDirFlows:
    def test_session_cache_dir_reaches_the_store(self, tmp_path):
        with _private_session(cache_dir=str(tmp_path)) as session:
            session.run(render_workload(), 1, pages=1)
        assert len(disk_tier_for(str(tmp_path))) == 1

    def test_cache_dir_spelling_is_normalized(self, tmp_path, monkeypatch):
        absolute = repro.Session(cache_dir=str(tmp_path))
        monkeypatch.chdir(tmp_path.parent)
        relative = repro.Session(cache_dir=tmp_path.name)
        assert relative.store is absolute.store, (
            "relative and absolute spellings of one dir must agree"
        )
        # a loaded store (what a process worker gets) names the same
        # directory wherever the loading process stands
        monkeypatch.chdir(tmp_path)
        loaded = pickle.loads(pickle.dumps(relative.tiers))
        assert loaded.tiers[1] is absolute.store

    def test_the_executor_runs_on_the_session_store(self, tmp_path):
        with _private_session(cache_dir=str(tmp_path)) as session:
            assert session.executor.store is session.tiers
            session.run(render_workload(), 1, pages=1)
            assert session.stats()["store"]["spills"] >= 1


CALLS = ["compile", "recompile", "run", "submit"]


class TestOptionsRule:
    """One rule for ``options=`` across compile, recompile, run and
    submit: explicit options are taken verbatim, else the template."""

    @pytest.mark.parametrize("call", CALLS)
    def test_explicit_options_are_taken_verbatim(self, tmp_path, call):
        with _private_session(
            cache_dir=str(tmp_path), layout="pooled"
        ) as session:
            _call(session, call, options=CompileOptions())
        # the template's layout was not merged into the options: the
        # one result in the session's store is keyed on the object layout
        [key] = stored(tmp_path)["result"]
        assert key.options_hash == CompileOptions().options_hash()

    @pytest.mark.parametrize("call", CALLS)
    def test_template_applies_without_options(self, tmp_path, call):
        store = str(tmp_path / "session-store")
        with _private_session(cache_dir=store) as session:
            _call(session, call)
        assert len(disk_tier_for(store)) == 1

    def test_overrides_patch_the_template(self):
        with repro.Session(layout="pooled") as session:
            assert session.options_for(emit=False).layout == "pooled"
            assert session.options_for(CompileOptions()).layout == "object"
            assert session.options_for() is session.options


class TestStats:
    def test_one_store_walk_per_call(self, tmp_path, monkeypatch):
        from repro.storage.disk import DiskTier

        walks = []
        original = DiskTier.stats

        def counting(self):
            walks.append(self.root)
            return original(self)

        monkeypatch.setattr(DiskTier, "stats", counting)
        with repro.Session(cache_dir=str(tmp_path)) as session:
            stats = session.stats()
        assert len(walks) == 1
        assert stats["store"]["entries"] == 0
        assert [record["kind"] for record in stats["storage"]] == [
            "memory",
            "disk",
        ]

    def test_store_is_none_without_a_cache_dir(self):
        with repro.Session() as session:
            stats = session.stats()
        assert stats["store"] is None
        assert set(stats) == {"compile_cache", "executor", "store", "storage"}
