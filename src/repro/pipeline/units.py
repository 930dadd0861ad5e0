"""Compilation units: content keys and the per-unit artifact layer.

The unit-granular pass contract (see :mod:`repro.pipeline.manager`)
keys every pass artifact on the *content* it was derived from, so a
recompile after an edit reloads every artifact whose inputs did not
change — across methods, fused sequences, and emitted module functions.

Two pieces live here:

* :class:`UnitIndex` — content keys for one program under one set of
  options. The **schema hash** covers everything *except* method bodies
  and the entry sequence (type hierarchy, fields, globals, pure
  declarations, method signatures, language mode); a **method hash** is
  the canonical print of one body; a **closure hash** folds in every
  method transitively reachable through the labeled call graph — the
  dependence-summary memoization ROADMAP asked for: a sequence's plan
  (and its scheduled, emitted form) depends on exactly its members'
  closures plus the schema, so editing one traversal dirties only the
  sequences that can reach it.

  Pure-function *impls* are deliberately excluded: plans, graphs, and
  emitted text never embed an impl (generated code calls
  ``RT.pure[name]`` at run time), so unit artifacts are shared across
  impl rebindings — only the final :class:`CompileResult` and the
  exec'd module objects are impl-bound, and their keys (the driver's
  source hash, ``hash_program``) already include the impl signature.

* :class:`UnitArtifacts` — one compilation's window onto the unit
  layer of its :class:`~repro.storage.TieredStore` (memory tier, the
  ``cache_dir`` disk store, any read-only peers), with per-pass
  hit/miss/disk/peer counters that land in the pass timing details
  (and from there in ``repro compile --explain``).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

from repro.pipeline.options import hash_text


class UnitIndex:
    """Content keys for the units of one (program, options) pair."""

    def __init__(self, program, options):
        self.program = program
        self.options = options
        self._method_hashes: dict[str, str] = {}
        self._analysis_hashes: dict[str, str] = {}
        self._closure_hashes: dict[str, str] = {}
        self._analysis_closure_hashes: dict[str, str] = {}
        self._adjacency: Optional[dict[str, tuple[str, ...]]] = None
        self.schema_hash = self._schema_hash()
        self.plan_sig = self._plan_sig()

    # -- the schema (everything but bodies and entry) -------------------

    def _schema_hash(self) -> str:
        program = self.program
        parts: list[str] = [f"mode={self.options.mode}"]
        for cls in program.opaque_classes.values():
            fields = ",".join(
                f"{f.name}:{f.type_name}" for f in cls.fields.values()
            )
            parts.append(f"opaque {cls.name}{{{fields}}}")
        for var in program.globals.values():
            parts.append(f"global {var.type_name} {var.name}")
        for func in program.pure_functions.values():
            params = ",".join(
                f"{p.name}:{p.type_name}" for p in func.params
            )
            reads = ",".join(sorted(func.reads_globals))
            parts.append(
                f"pure {func.name}({params})->{func.return_type}"
                f" reads[{reads}]"
            )
        for tree_type in program.tree_types.values():
            bases = ",".join(tree_type.bases)
            fields = ",".join(
                f"{f.name}:{f.type_name}:{int(f.is_child)}"
                for f in tree_type.own_fields()
            )
            defaults = ",".join(
                f"{name}={value!r}"
                for name, value in tree_type.data_defaults.items()
            )
            parts.append(
                f"tree {tree_type.name}({bases})"
                f"{'!' if tree_type.abstract else ''}"
                f"{{{fields}}}[{defaults}]"
            )
        for method in self.program.all_methods():
            params = ",".join(
                f"{p.name}:{p.type_name}" for p in method.params
            )
            parts.append(
                f"sig {method.qualified_name}({params})"
                f"{'v' if method.virtual else ''}"
            )
        return hash_text("\n".join(parts))

    def _plan_sig(self) -> str:
        """The option fields fusion planning depends on (the limits;
        the mode already sits in the schema hash)."""
        from dataclasses import fields

        limits = self.options.limits
        return ";".join(
            f"{spec.name}={getattr(limits, spec.name)}"
            for spec in fields(limits)
        )

    # -- per-method hashes ----------------------------------------------

    def method_hash(self, method) -> str:
        """Content hash of one method's canonical print (signature is in
        the schema hash; this pins the body)."""
        name = method.qualified_name
        cached = self._method_hashes.get(name)
        if cached is None:
            from repro.ir.printer import print_method

            cached = hash_text(print_method(method))
            self._method_hashes[name] = cached
        return cached

    def analysis_hash(self, method, analysis_ctx) -> str:
        """Content hash of the method's *analysis-relevant projection*:
        per-top-level-statement raw access paths, truncation flags, and
        — for statements containing traversal calls — the exact printed
        text (grouping keys off guards, receivers, and argument
        expressions). Two bodies with the same projection produce the
        same summaries, the same dependence edges, and the same
        grouping, so dependence/fusion units keyed on it survive edits
        that only touch computation (a constant, an operator) without
        touching what is read or written.
        """
        name = method.qualified_name
        cached = self._analysis_hashes.get(name)
        if cached is not None:
            return cached
        from repro.ir.printer import print_stmt
        from repro.ir.stmts import contains_return, nested_traversals

        parts: list[str] = []
        for accesses in analysis_ctx.method_accesses(method):
            stmt = accesses.stmt
            parts.append(type(stmt).__name__)
            if contains_return(stmt):
                parts.append("R")
            if nested_traversals(stmt):
                parts.extend(print_stmt(stmt, 0))
            for tag, infos in (
                ("tr", accesses.tree_reads),
                ("tw", accesses.tree_writes),
                ("er", accesses.env_reads),
                ("ew", accesses.env_writes),
            ):
                for info in infos:
                    parts.append(
                        f"{tag}:{'/'.join(info.labels)}"
                        f"~{int(info.any_suffix)}{int(info.on_tree)}"
                    )
            parts.append(";")
        cached = hash_text("\n".join(parts))
        self._analysis_hashes[name] = cached
        return cached

    def _adjacency_map(self) -> dict[str, tuple[str, ...]]:
        """Qualified name -> qualified names its traverse statements may
        dispatch to (the labeled call graph, labels dropped)."""
        if self._adjacency is None:
            from repro.analysis.callgraph import call_targets
            from repro.ir.stmts import TraverseStmt, walk_stmts

            adjacency: dict[str, tuple[str, ...]] = {}
            for method in self.program.all_methods():
                targets: list[str] = []
                for stmt in walk_stmts(method.body):
                    if isinstance(stmt, TraverseStmt):
                        targets.extend(
                            t.qualified_name
                            for t in call_targets(
                                self.program, method, stmt
                            )
                        )
                adjacency[method.qualified_name] = tuple(targets)
            self._adjacency = adjacency
        return self._adjacency

    def _reachable(self, name: str) -> set[str]:
        adjacency = self._adjacency_map()
        reachable = {name}
        queue = deque([name])
        while queue:
            for target in adjacency.get(queue.popleft(), ()):
                if target not in reachable:
                    reachable.add(target)
                    queue.append(target)
        return reachable

    def closure_hash(self, method) -> str:
        """Hash of the method's transitive call closure at *text* level
        — every body whose edit could change this method's emitted
        fused form."""
        name = method.qualified_name
        cached = self._closure_hashes.get(name)
        if cached is not None:
            return cached
        by_name = {
            m.qualified_name: m for m in self.program.all_methods()
        }
        digest = hash_text(
            "\n".join(
                f"{n}={self.method_hash(by_name[n])}"
                for n in sorted(self._reachable(name))
            )
        )
        self._closure_hashes[name] = digest
        return digest

    def analysis_closure_hash(self, method, analysis_ctx) -> str:
        """The transitive call closure at *analysis* level — the
        dependence-summary memoization key: it changes only when some
        reachable body's access structure (not its computation)
        changes."""
        name = method.qualified_name
        cached = self._analysis_closure_hashes.get(name)
        if cached is not None:
            return cached
        by_name = {
            m.qualified_name: m for m in self.program.all_methods()
        }
        digest = hash_text(
            "\n".join(
                f"{n}={self.analysis_hash(by_name[n], analysis_ctx)}"
                for n in sorted(self._reachable(name))
            )
        )
        self._analysis_closure_hashes[name] = digest
        return digest

    # -- unit keys -------------------------------------------------------

    def method_key(self, method, salt: str) -> str:
        """Key for artifacts derived from one method body alone (access
        summaries, the unfused emitted function)."""
        return hash_text(
            f"{salt}\x00{self.schema_hash}\x00{method.qualified_name}"
            f"\x00{self.method_hash(method)}"
        )

    def sequence_key(
        self,
        members: Iterable,
        salt: str,
        *,
        analysis_ctx=None,
        with_limits: bool = True,
    ) -> str:
        """Key for artifacts derived from a member sequence and its
        transitive callees.

        With ``analysis_ctx`` the closures hash the members' *analysis
        projections* (dependence structures and fusion plans depend on
        access structure, not computation); without it they hash full
        body text (emitted fused units embed the bodies).
        ``with_limits=False`` drops the fusion-cutoff signature —
        dependence graphs don't depend on the limits, so a limits sweep
        keeps hitting them.
        """
        if analysis_ctx is not None:
            closures = "\x00".join(
                f"{m.qualified_name}"
                f"={self.analysis_closure_hash(m, analysis_ctx)}"
                for m in members
            )
        else:
            closures = "\x00".join(
                f"{m.qualified_name}={self.closure_hash(m)}"
                for m in members
            )
        sig = self.plan_sig if with_limits else "-"
        return hash_text(
            f"{salt}\x00{self.schema_hash}\x00{sig}\x00{closures}"
        )


class UnitArtifacts:
    """One compilation's view over the unit layer of a
    :class:`~repro.storage.TieredStore`.

    Lookup walks the tiers in order (memory, then the disk store, then
    any peers); the store promotes lower-tier hits upward, and this
    view attributes each hit to the tier that served it — the
    ``unit_disk_hits`` / ``unit_peer_hits`` numbers in the pass timing
    details. Publishing lands in memory always and spills to disk only
    for passes that opt in (``persist_units``) on persisting compiles.
    """

    def __init__(self, tiers):
        self.tiers = tiers
        self.counts: dict[str, dict[str, int]] = {}

    def _count(self, pass_name: str) -> dict[str, int]:
        return self.counts.setdefault(
            pass_name,
            {
                "unit_hits": 0,
                "unit_misses": 0,
                "unit_disk_hits": 0,
                "unit_peer_hits": 0,
            },
        )

    def lookup(self, pass_name: str, key: str):
        count = self._count(pass_name)
        hit = self.tiers.get_unit(pass_name, key)
        if hit is None:
            count["unit_misses"] += 1
            return None
        artifact, tier = hit
        count["unit_hits"] += 1
        if tier.kind == "disk":
            count["unit_disk_hits"] += 1
        elif tier.kind == "peer":
            count["unit_peer_hits"] += 1
        return artifact

    def publish(
        self, pass_name: str, key: str, artifact, spill: bool = False
    ) -> None:
        self.tiers.put_unit(pass_name, key, artifact, spill=spill)

    def counters(self, pass_name: str) -> dict[str, int]:
        """The pass's counters — hit/miss always, the per-tier
        attributions only when nonzero (empty when the pass saw no
        keyed units)."""
        count = self.counts.get(pass_name)
        if count is None:
            return {}
        return {
            k: v
            for k, v in count.items()
            if v or k in ("unit_hits", "unit_misses")
        }
