"""Per-layer timing for the traced run, measured from the benchmark's side.

The program is not edited and ``repro.obs`` stays off. Instead the
traced run wraps the public calls into each layer, patching each name
where its caller looks it up: a module attribute that a caller imported
by name (``intersects`` in ``repro.analysis.summaries`` and
``repro.fusion.grouping``), or a class attribute that callers reach
through the class (``ForestPool.from_tree``, ``TieredStore.put_unit``).
``Layers.install`` applies the patches and ``uninstall`` restores the
originals. Only traced runs install them, so end-to-end numbers never
carry the wrappers' cost.

Time is accumulated per layer into the open frame; the caller closes a
frame around each operation with ``take``.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict

# (module, attribute, layer): functions imported by name into a caller
FUNCTION_PATCHES = (
    ("repro.service.executor", "group_requests", "service.group"),
    ("repro.service.executor", "pipeline_compile", "service.lookup"),
    ("repro.analysis.summaries", "intersects", "automata.intersects"),
    ("repro.fusion.grouping", "intersects", "automata.intersects"),
    ("repro.analysis.dependence", "interferes", "analysis.interferes"),
    (
        "repro.pipeline.stages",
        "build_dependence_graph",
        "analysis.dependence_graph",
    ),
    # the executor imports it from the package at call time
    ("repro.interp", "resolve_program", "interp.resolve"),
)

# (module, class, attribute, layer): methods reached through the class
METHOD_PATCHES = (
    ("repro.interp.module", "InterpretedModule", "run_entry", "interp.run"),
    ("repro.codegen.python_backend", "CompiledFused", "run_fused",
     "codegen.run_fused"),
    ("repro.codegen.pooled_backend", "CompiledPooledFused", "run_fused",
     "codegen.run_fused"),
    ("repro.layout.pool", "ForestPool", "from_tree", "layout.ingest"),
    ("repro.layout.pool", "ForestPool", "write_back", "layout.writeback"),
    ("repro.storage.tiered", "TieredStore", "put_result",
     "storage.put_result"),
    ("repro.storage.tiered", "TieredStore", "put_unit", "storage.put_unit"),
    ("repro.storage.tiered", "TieredStore", "get_result",
     "storage.get_result"),
)


class Layers:
    """Accumulates ``{layer: [seconds, calls]}`` for the open frame."""

    def __init__(self):
        # the executor's worker thread and the caller both record
        self._lock = threading.Lock()
        self._frame = defaultdict(lambda: [0.0, 0])
        self._saved: list = []

    def add(self, layer: str, seconds: float) -> None:
        with self._lock:
            entry = self._frame[layer]
            entry[0] += seconds
            entry[1] += 1

    def take(self) -> dict:
        """Close the open frame: its totals, and a fresh frame."""
        with self._lock:
            frame = {k: tuple(v) for k, v in self._frame.items()}
            self._frame.clear()
        return frame

    def wrap(self, layer: str, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(layer, time.perf_counter() - start)

        return timed

    def install(self) -> None:
        for module_name, attr, layer in FUNCTION_PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(layer, original))
        for module_name, cls_name, attr, layer in METHOD_PATCHES:
            cls = getattr(importlib.import_module(module_name), cls_name)
            descriptor = cls.__dict__[attr]
            self._saved.append((cls, attr, descriptor))
            if isinstance(descriptor, classmethod):
                # callers use Class.attr(...): keep it callable that way
                bound = descriptor.__get__(None, cls)
                setattr(cls, attr, staticmethod(self.wrap(layer, bound)))
            else:
                setattr(cls, attr, self.wrap(layer, descriptor))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def seconds(frame: dict, layer: str) -> float:
    return frame.get(layer, (0.0, 0))[0]


def calls(frame: dict, layer: str) -> int:
    return frame.get(layer, (0.0, 0))[1]
