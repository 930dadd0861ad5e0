"""Generated modules' bytecode as units of the tiered store.

A compiled module's first build looks up its ``("bytecode", key)`` unit
in the store that resolved it. On a hit it runs the stored code; on a
miss it compiles the source and publishes the bytecode, so a later
process over the same store runs stored fused code without compiling it
again. A session with a memory tier of its own over the same disk stands
in for a new process here (one case starts a real one). ``compile()`` of
generated source is counted by patching the name where the backend
looks it up.
"""

import dataclasses
import json
import marshal
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time
from types import CodeType

import pytest

import repro
from repro.codegen import python_backend
from repro.codegen.python_backend import BYTECODE_PASS, bytecode_key
from repro.frontend import parse_program
from repro.ir.printer import print_program
from repro.pipeline import CompileOptions
from repro.pipeline import compile as pipeline_compile
from repro.runtime import Heap
from repro.storage import MemoryTier, TieredStore, disk_tier_for
from repro.workloads.astlang import astlang_spec, astlang_workload
from repro.workloads.fmm import fmm_spec, fmm_workload
from repro.workloads.kdtree import kdtree_spec, kdtree_workload
from repro.workloads.render import render_spec, render_workload

WORKLOADS = {
    "render": (render_workload, [render_spec(pages=2, seed=1),
                                 render_spec(pages=3, seed=4)]),
    "astlang": (astlang_workload, [astlang_spec(functions=4, seed=2),
                                   astlang_spec(functions=3, seed=7)]),
    "kdtree": (kdtree_workload, [kdtree_spec(depth=4, seed=3),
                                 kdtree_spec(depth=5, seed=6)]),
    "fmm": (fmm_workload, [fmm_spec(particles=40, seed=4),
                           fmm_spec(particles=64, seed=8)]),
}
FMM_SPECS = WORKLOADS["fmm"][1]
BUDGET = 64 * 1024 * 1024

# one literal of fmm's potential update, edited
FMM_ANCHOR = (
    "this->Potential = ((this->Local * this->Multipole) + "
    "selfInteract(this->P0, this->P1, this->P2, this->P3));"
)
FMM_EDIT = (
    "this->Potential = (((this->Local * this->Multipole) + "
    "selfInteract(this->P0, this->P1, this->P2, this->P3)) + 2.0);"
)


@pytest.fixture
def compiles(monkeypatch):
    """The module names ``compile()`` of generated source ran for."""
    names = []

    def counting(source, filename, *args, **kwargs):
        names.append(filename)
        return compile(source, filename, *args, **kwargs)

    monkeypatch.setattr(python_backend, "compile", counting, raising=False)
    return names


@pytest.fixture
def lookups(monkeypatch):
    """The bytecode keys looked up through any tiered store."""
    keys = []
    original = TieredStore.get_unit

    def counting(self, pass_name, key):
        if pass_name == BYTECODE_PASS:
            keys.append(key)
        return original(self, pass_name, key)

    monkeypatch.setattr(TieredStore, "get_unit", counting)
    return keys


def session(store, **kwargs) -> repro.Session:
    """A session over *store* with a memory tier of its own: to the
    modules it resolves, a process that has compiled nothing yet."""
    return repro.Session(
        cache_dir=str(store), memory_budget=BUDGET, workers=1, **kwargs
    )


def stored_units(store) -> set[str]:
    """The keys of every bytecode unit on *store*'s disk."""
    root = pathlib.Path(store) / "v1" / "units" / BYTECODE_PASS
    return {path.stem for path in root.glob("*/*.pkl")}


def unit_key(module) -> str:
    return bytecode_key(module._module_name(), module.source)


def edited_fmm():
    workload = fmm_workload()
    text = print_program(workload.source)
    assert text.count(FMM_ANCHOR) == 1
    impls = {
        name: func.impl
        for name, func in workload.source.pure_functions.items()
        if func.impl is not None
    }
    program = parse_program(
        text.replace(FMM_ANCHOR, FMM_EDIT),
        name=workload.source.name,
        pure_impls=impls,
    )
    return dataclasses.replace(workload, source=program)


class TestPublication:
    @pytest.mark.parametrize("layout", ["object", "pooled"])
    def test_one_unit_per_exec_module(self, tmp_path, layout):
        workload = fmm_workload()
        with session(tmp_path, layout=layout) as first:
            compiled = first.compile(workload)
            # the cold compile execs nothing, so it writes no bytecode
            assert stored_units(tmp_path) == set()
            first.run(workload, FMM_SPECS)
            fused = compiled.result.compiled_fused
            unfused = compiled.result.compiled_unfused
            assert stored_units(tmp_path) == {unit_key(fused)}
            # exec_ahead builds the unfused module too
            first.recompile(workload, exec_ahead=True)
            assert stored_units(tmp_path) == {
                unit_key(fused), unit_key(unfused),
            }
            first.run(workload, FMM_SPECS, fused=False)
        assert len(stored_units(tmp_path)) == 2

    def test_layouts_and_forms_never_share_a_unit(self, tmp_path):
        workload = fmm_workload()
        for layout in ("object", "pooled"):
            with session(tmp_path, layout=layout) as each:
                each.recompile(workload, exec_ahead=True)
        assert len(stored_units(tmp_path)) == 4

    @pytest.mark.parametrize("off", ["persist", "use_cache"])
    def test_runs_that_may_not_persist_write_no_bytecode(self, tmp_path, off):
        workload = fmm_workload()
        options = CompileOptions(cache_dir=str(tmp_path), **{off: False})
        with repro.Session(
            options=options, memory_budget=BUDGET, workers=1
        ) as first:
            compiled = first.recompile(workload, exec_ahead=True)
            first.run(workload, FMM_SPECS)
            key = unit_key(compiled.result.compiled_fused)
            kept = first.memory.fetch("unit", (BYTECODE_PASS, key))
        assert stored_units(tmp_path) == set()
        # a persist=False run still keeps the bytecode in its own memory
        assert (kept is not None) == (off == "persist")


class TestLoading:
    @pytest.mark.parametrize("layout", ["object", "pooled"])
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_a_new_process_runs_the_stored_bytecode(
        self, tmp_path, compiles, lookups, name, layout
    ):
        factory, specs = WORKLOADS[name]
        workload = factory()
        with session(tmp_path, layout=layout) as first:
            built = first.run(workload, specs).summaries
            fused = first.compile(workload).result.compiled_fused
        assert compiles == [fused._module_name()]
        compiles.clear()
        disk = disk_tier_for(str(tmp_path))
        loads = disk.counts["unit_loads"]
        with session(tmp_path, layout=layout) as second:
            assert second.compile(workload).cache_hit
            loaded = second.run(workload, specs).summaries
        assert compiles == []
        assert loaded == built
        assert disk.counts["unit_loads"] == loads + 1
        assert lookups[-1] == unit_key(fused)

    def test_a_new_process_compiles_nothing(self, tmp_path):
        specs = WORKLOADS["render"][1]
        workload = render_workload()
        with session(tmp_path) as first:
            built = first.run(workload, specs).summaries
        script = (
            "import json, sys\n"
            "import repro\n"
            "from repro.codegen import python_backend\n"
            "from repro.workloads.render import render_spec, "
            "render_workload\n"
            "names = []\n"
            "def counting(source, filename, *args, **kwargs):\n"
            "    names.append(filename)\n"
            "    return compile(source, filename, *args, **kwargs)\n"
            "python_backend.compile = counting\n"
            "specs = [render_spec(pages=2, seed=1), "
            "render_spec(pages=3, seed=4)]\n"
            "with repro.Session(cache_dir=sys.argv[1]) as session:\n"
            "    summaries = session.run(render_workload(), specs).summaries\n"
            "    store = session.stats()['store']\n"
            "print(json.dumps({'compiles': names, 'summaries': summaries,\n"
            "                  'unit_loads': store['unit_loads'],\n"
            "                  'unit_spills': store['unit_spills']}))\n"
        )
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out == {
            "compiles": [], "summaries": built, "unit_loads": 1,
            "unit_spills": 0,
        }

    def test_an_edited_workload_never_runs_the_old_bytecode(
        self, tmp_path, compiles
    ):
        workload, edited = fmm_workload(), edited_fmm()
        with session(tmp_path) as first:
            original = first.run(workload, FMM_SPECS).summaries
        (old_key,) = stored_units(tmp_path)
        with session(tmp_path) as second:
            answer = second.run(edited, FMM_SPECS).summaries
            expected = second.run(
                edited, FMM_SPECS, mode="interpret"
            ).summaries
            fused = second.compile(edited).result.compiled_fused
        assert answer == expected
        assert answer != original
        assert "+ 2.0)" in fused.source
        assert stored_units(tmp_path) == {old_key, unit_key(fused)}
        assert len(compiles) == 2

    @pytest.mark.parametrize(
        "payload",
        [
            b"not marshal data",
            marshal.dumps(compile("x = 1", "<t>", "exec"))[:9],
            marshal.dumps("a string, not a code object"),
        ],
        ids=["garbage", "truncated", "not-code"],
    )
    def test_a_unit_that_holds_no_code_is_compiled_again(
        self, tmp_path, compiles, payload
    ):
        workload = fmm_workload()
        with session(tmp_path) as first:
            fused = first.compile(workload).result.compiled_fused
            key = unit_key(fused)
            disk = disk_tier_for(str(tmp_path))
            assert disk.store("unit", (BYTECODE_PASS, key), payload)
            answer = first.run(workload, FMM_SPECS).summaries
            expected = first.run(
                workload, FMM_SPECS, mode="interpret"
            ).summaries
        assert answer == expected
        assert compiles == [fused._module_name()]
        # the fresh bytecode replaced the bad unit
        artifact, _ = disk.fetch("unit", (BYTECODE_PASS, key))
        assert isinstance(marshal.loads(artifact), CodeType)

    def test_a_peer_unit_is_promoted_onto_the_local_disk(
        self, tmp_path, compiles
    ):
        workload = fmm_workload()
        with session(tmp_path / "a") as first:
            built = first.run(workload, FMM_SPECS).summaries
        (key,) = stored_units(tmp_path / "a")
        compiles.clear()
        with session(tmp_path / "b", peers=(str(tmp_path / "a"),)) as second:
            answer = second.run(workload, FMM_SPECS).summaries
        assert compiles == []
        assert answer == built
        assert stored_units(tmp_path / "b") == {key}
        relative = f"v1/units/{BYTECODE_PASS}/{key[:2]}/{key}.pkl"
        assert (tmp_path / "b" / relative).read_bytes() == (
            tmp_path / "a" / relative
        ).read_bytes()


def test_gc_of_the_bytecode_pass_removes_only_bytecode(tmp_path):
    workload = fmm_workload()
    with session(tmp_path) as first:
        first.recompile(workload, exec_ahead=True)
        others = sorted(
            path for path in tmp_path.rglob("*.pkl")
            if f"/units/{BYTECODE_PASS}/" not in str(path)
        )
        units = first.memory.stats()["units"]
        assert len(stored_units(tmp_path)) == 2
        summary = first.gc(pass_name=BYTECODE_PASS)
        assert stored_units(tmp_path) == set()
        assert sorted(tmp_path.rglob("*.pkl")) == others
        assert first.memory.stats()["units"] == units - 2
        assert summary["memory"]["removed"] == 2
        assert summary["total"]["removed"] == 4
        # with its units gone, the same modules keep running
        assert first.run(workload, FMM_SPECS).summaries


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_threads_racing_on_a_first_run_build_the_module_once(
    tmp_path, compiles, lookups, warm
):
    workload = render_workload()
    options = CompileOptions(cache_dir=str(tmp_path))
    if warm:
        pipeline_compile(
            workload, options=options, cache=MemoryTier()
        ).compiled_fused.namespace
        compiles.clear()
        lookups.clear()
    result = pipeline_compile(workload, options=options, cache=MemoryTier())
    module = result.compiled_fused
    program = result.program
    barrier = threading.Barrier(8)
    done, errors = [], []

    def first_run():
        try:
            heap = Heap(program)
            root = workload.build_tree(program, heap, render_spec(pages=1))
            barrier.wait(timeout=10)
            module.run_fused(heap, root, workload.globals_map)
            done.append(root)
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=first_run) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(done) == 8
    assert lookups == [unit_key(module)]
    assert compiles == ([] if warm else [module._module_name()])


class _SlowStore:
    """A store whose first bytecode lookup blocks until released (or 30
    seconds pass, so a broken lock fails a test rather than hanging
    it). A child forked during that lookup copies the count, so its own
    lookups do not block."""

    def __init__(self, store):
        self.store = store
        self.entered = threading.Event()
        self.release = threading.Event()
        self.lookups = 0

    def get_unit(self, pass_name, key):
        self.lookups += 1
        if self.lookups == 1:
            self.entered.set()
            self.release.wait(timeout=30)
        return self.store.get_unit(pass_name, key)

    def put_unit(self, pass_name, key, artifact, spill=False):
        self.store.put_unit(pass_name, key, artifact, spill=spill)


def _blocked_first_build(tmp_path):
    """A render result whose fused module's first build is blocked in
    its store lookup on another thread: ``(result, slow, thread)``."""
    result = pipeline_compile(
        render_workload(),
        options=CompileOptions(cache_dir=str(tmp_path)),
        cache=MemoryTier(),
    )
    module = result.compiled_fused
    slow = _SlowStore(module._store)
    module.attach_store(slow)
    thread = threading.Thread(target=lambda: module.namespace)
    thread.start()
    assert slow.entered.wait(timeout=10)
    return result, slow, thread


def test_a_build_waiting_on_its_store_holds_up_no_other_module(
    tmp_path, compiles
):
    result, slow, blocked = _blocked_first_build(tmp_path)
    other = threading.Thread(target=lambda: result.compiled_unfused.namespace)
    try:
        other.start()
        other.join(timeout=10)
        finished_first = not other.is_alive()
    finally:
        slow.release.set()
        blocked.join(timeout=10)
        other.join(timeout=10)
    assert finished_first
    assert not blocked.is_alive()
    assert compiles == [
        result.compiled_unfused._module_name(),
        result.compiled_fused._module_name(),
    ]
    assert result.compiled_fused._namespace is not None


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_builds_a_module_a_parent_thread_is_building(
    tmp_path,
):
    result, slow, blocked = _blocked_first_build(tmp_path)
    module = result.compiled_fused
    workload = render_workload()
    program = result.program
    try:
        pid = os.fork()
        if pid == 0:  # a parent thread holds the module's build lock
            status = 1
            try:
                heap = Heap(program)
                root = workload.build_tree(
                    program, heap, render_spec(pages=1)
                )
                module.run_fused(heap, root, workload.globals_map)
                status = 0
            finally:
                os._exit(status)
        deadline = time.monotonic() + 30
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        if not done:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    finally:
        slow.release.set()
        blocked.join(timeout=10)
    assert done, "the child's first build waited on a lock it inherited"
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    assert not blocked.is_alive()
    assert module._namespace is not None


def test_pickled_modules_carry_no_store(tmp_path):
    import pickle

    result = pipeline_compile(
        fmm_workload(),
        options=CompileOptions(cache_dir=str(tmp_path)),
        cache=MemoryTier(),
    )
    module = result.compiled_fused
    assert module._store is not None
    restored = pickle.loads(pickle.dumps(module))
    assert restored._store is None
    assert restored._namespace is None
    assert restored.source == module.source
