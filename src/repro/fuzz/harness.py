"""Differential fuzzing harness: interpreter vs compiled, original vs
fused, object vs pooled.

A :class:`FuzzCase` is a fully serialized experiment — seed, program
source, tree (as a snapshot-style dict), and initial globals — so any
failure replays byte-identically from a JSON file (``repro fuzz
--replay``). :func:`run_case` executes the case eight ways:

=========================  ==========================================
label                      executor
=========================  ==========================================
``interp/object``          :class:`repro.interp.InterpretedModule` (baseline)
``interp/pooled``          same, through a ``ForestPool`` view
``interp-fused/object``    the interpreter running the fused program
``interp-fused/pooled``    same, through a ``ForestPool`` view
``unfused/object``         the object backend's generated Python
``fused/object``           same, for the fused program
``unfused/pooled``         the pooled backend's (SoA columns)
``fused/pooled``           same, for the fused program
=========================  ==========================================

and diffs every execution against the interpreter/object baseline on
snapshot + globals + write-set (:func:`repro.interp.diff_report`). Each
label's layout names its backend in :data:`repro.layout.base.LAYOUTS`,
which builds the generated modules with no store. The
interpreter running the original program is the semantics; everything
else is an optimization that must be observationally invisible. The
fused program is synthesized once per case and shared by the four
executions that run it.

On divergence, :func:`minimize_case` shrinks the tree (subtree →
``Leaf``) and then the program (dropping body statements) while the
divergence persists, so the committed repro is small enough to read.
"""

from __future__ import annotations

import functools
import json
import random
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.fuzz.generators import (
    build_tree_from_dict,
    random_globals,
    random_program_source,
    random_tree_dict,
)
from repro.interp import (
    ExecutionRecord,
    InterpretedModule,
    diff_report,
    make_record,
)
from repro.layout.base import layout_backend
from repro.runtime.heap import Heap

BASELINE = "interp/object"
LABELS = (
    BASELINE,
    "interp/pooled",
    "interp-fused/object",
    "interp-fused/pooled",
    "unfused/object",
    "fused/object",
    "unfused/pooled",
    "fused/pooled",
)


@dataclass
class FuzzCase:
    """One fully replayable differential experiment."""

    seed: int
    source: str
    tree: dict
    globals_map: dict
    max_depth: int = 4

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "max_depth": self.max_depth,
                "globals": self.globals_map,
                "tree": self.tree,
                "source": self.source,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "FuzzCase":
        data = json.loads(text)
        return cls(
            seed=data["seed"],
            source=data["source"],
            tree=data["tree"],
            globals_map=data["globals"],
            max_depth=data.get("max_depth", 4),
        )


def generate_case(seed: int, max_depth: int = 4) -> FuzzCase:
    """Deterministic: the same seed always yields the same case."""
    rng = random.Random(seed)
    return FuzzCase(
        seed=seed,
        source=random_program_source(rng),
        tree=random_tree_dict(rng, max_depth=max_depth),
        globals_map=random_globals(rng),
        max_depth=max_depth,
    )


@dataclass
class CaseResult:
    """Outcome of running one case across the execution matrix."""

    case: FuzzCase
    records: dict = field(default_factory=dict)  # label -> ExecutionRecord
    errors: dict = field(default_factory=dict)  # label -> error text
    divergences: list = field(default_factory=list)  # (label, report)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def report(self) -> str:
        if self.ok:
            return f"seed {self.case.seed}: OK"
        lines = [f"seed {self.case.seed}: {len(self.divergences)} divergence(s)"]
        for label, text in self.divergences:
            lines.append(f"--- {BASELINE} vs {label} ---")
            lines.append(text)
        return "\n".join(lines)


def _execute(
    program, fused, case: FuzzCase, label: str
) -> ExecutionRecord:
    """One execution of *case* under *label*'s executor; records
    snapshot + final globals + derived write-set. *fused* is a callable
    returning the case's fused program."""
    heap = Heap(program)
    root = build_tree_from_dict(program, heap, case.tree)
    before = root.snapshot(program)
    globals_map = dict(case.globals_map)
    mode, layout = label.split("/")
    if mode == "interp":
        module = InterpretedModule(program, layout=layout)
        context = module.run_entry(heap, root, globals_map)
    elif mode == "interp-fused":
        module = InterpretedModule(program, layout=layout, fused=fused())
        context = module.run_fused(heap, root, globals_map)
    elif mode == "unfused":
        module = layout_backend(layout).unfused_module(program)
        context = module.run_entry(heap, root, globals_map)
    else:  # fused
        module = layout_backend(layout).fused_module(fused())
        context = module.run_fused(heap, root, globals_map)
    return make_record(
        label,
        before,
        root.snapshot(program),
        case.globals_map,
        context.globals,
    )


def run_case(case: FuzzCase) -> CaseResult:
    """Run the full execution matrix and diff everything against the
    interpreter/object baseline. An executor error is itself a
    divergence (unless the baseline fails identically — then the case
    is reported as a baseline error and nothing is compared)."""
    from repro.frontend import parse_program
    from repro.pipeline.stages import plan_and_synthesize

    result = CaseResult(case)
    program = parse_program(case.source, name=f"fuzz-{case.seed}")
    # fused on first use, so a fusion failure is reported by each label
    # that needed it; later labels reuse the one fused program
    fused = functools.cache(lambda: plan_and_synthesize(program))
    for label in LABELS:
        try:
            result.records[label] = _execute(program, fused, case, label)
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            result.errors[label] = f"{type(exc).__name__}: {exc}"
    baseline = result.records.get(BASELINE)
    baseline_error = result.errors.get(BASELINE)
    for label in LABELS[1:]:
        if label in result.errors:
            # error *presence* must agree; the failure detail is
            # implementation-defined (the interpreter raises a clean
            # RuntimeFailure where generated code may surface a
            # TypeError from the same null dereference)
            if baseline_error is None:
                result.divergences.append(
                    (
                        label,
                        f"{label} raised {result.errors[label]} but "
                        f"{BASELINE} succeeded",
                    )
                )
            continue
        if baseline is None:
            result.divergences.append(
                (
                    label,
                    f"{BASELINE} raised {baseline_error} but {label} "
                    "succeeded",
                )
            )
            continue
        report = diff_report(baseline, result.records[label])
        if report is not None:
            result.divergences.append((label, report))
    return result


def case_diverges(case: FuzzCase) -> bool:
    return not run_case(case).ok


# ===========================================================================
# minimization
# ===========================================================================


def _leaf_dict() -> dict:
    return {
        "__type__": "Leaf",
        "d0": 0,
        "d1": 0,
        "d2": 0,
        "c0": None,
        "c1": None,
    }


def _subtree_slots(tree: dict, prefix: tuple = ()) -> list[tuple]:
    """Paths (as key tuples) of every non-Leaf subtree, deepest last so
    shrinking walks bottom-up replacements after trying the big cuts."""
    slots: list[tuple] = []
    for key, value in tree.items():
        if isinstance(value, dict):
            child = prefix + (key,)
            if value.get("__type__") != "Leaf":
                slots.append(child)
            slots.extend(_subtree_slots(value, child))
    return slots


def _replace_subtree(tree: dict, path: tuple, replacement: dict) -> dict:
    clone = json.loads(json.dumps(tree))
    target = clone
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = replacement
    return clone


_BODY_STMT = re.compile(r"^        \S")


def _source_variants(source: str):
    """Smaller programs: drop one body statement line at a time (the
    only lines a generated program has at 8-space indent)."""
    lines = source.split("\n")
    for index, line in enumerate(lines):
        if _BODY_STMT.match(line):
            yield "\n".join(lines[:index] + lines[index + 1 :])


def minimize_case(
    case: FuzzCase,
    diverges: Callable[[FuzzCase], bool] = case_diverges,
) -> FuzzCase:
    """Greedy shrink: prune the tree subtree-by-subtree, then drop body
    statements, keeping every variant that still diverges. ``diverges``
    is injectable for tests."""
    from repro.frontend import parse_program

    current = case
    # 1. tree: replace whole subtrees with a bare Leaf
    changed = True
    while changed:
        changed = False
        for path in _subtree_slots(current.tree):
            candidate = FuzzCase(
                seed=current.seed,
                source=current.source,
                tree=_replace_subtree(current.tree, path, _leaf_dict()),
                globals_map=current.globals_map,
                max_depth=current.max_depth,
            )
            if diverges(candidate):
                current = candidate
                changed = True
                break
    # 2. source: drop statements while the program still parses and the
    # divergence persists
    changed = True
    while changed:
        changed = False
        for variant in _source_variants(current.source):
            try:
                parse_program(variant, name=f"fuzz-{current.seed}-min")
            except Exception:  # noqa: BLE001 - invalid shrink, skip
                continue
            candidate = FuzzCase(
                seed=current.seed,
                source=variant,
                tree=current.tree,
                globals_map=current.globals_map,
                max_depth=current.max_depth,
            )
            if diverges(candidate):
                current = candidate
                changed = True
                break
    return current


# ===========================================================================
# campaigns + repro files
# ===========================================================================


def save_repro(case: FuzzCase, path: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(case.to_json() + "\n")
    return path


def load_repro(path: str) -> FuzzCase:
    with open(path, "r", encoding="utf-8") as handle:
        return FuzzCase.from_json(handle.read())


def run_campaign(
    count: int,
    start_seed: int = 0,
    max_depth: int = 4,
    minimize: bool = True,
    progress: Optional[Callable[[CaseResult], None]] = None,
) -> list[CaseResult]:
    """Run *count* seeded cases; return the failing results (with their
    cases already minimized unless ``minimize=False``)."""
    failures: list[CaseResult] = []
    for seed in range(start_seed, start_seed + count):
        result = run_case(generate_case(seed, max_depth=max_depth))
        if not result.ok:
            if minimize:
                small = minimize_case(result.case)
                result = run_case(small)
                if result.ok:  # shrink raced away the bug; keep original
                    result = run_case(generate_case(seed, max_depth=max_depth))
            failures.append(result)
        if progress is not None:
            progress(result)
    return failures
