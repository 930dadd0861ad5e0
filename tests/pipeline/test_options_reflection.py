"""Every CompileOptions field must participate in the cache key.

``canonical()`` is derived by reflection over the dataclass fields, so
a newly added knob joins the key automatically — but that only holds
while ``canonical()`` stays reflective. These tests pin the contract
from the outside: for *every* field (present and future), (a) the field
name appears in the canonical text, and (b) changing the field's value
changes the options hash. A failure here means a knob was added whose
settings would silently alias cache entries — the exact bug class the
ROADMAP warned about after PR 1.
"""

import dataclasses

import pytest

from repro.fusion.grouping import FusionLimits
from repro.pipeline import CompileOptions
from repro.pipeline import compile as pipeline_compile

from tests.fixtures import FIG2_SOURCE, fresh_store, stored


def _variant(name: str, value):
    """A value for field *name* that must produce a different hash."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, FusionLimits):
        return dataclasses.replace(
            value, max_sequence=value.max_sequence + 1
        )
    if name == "mode":
        return "treefuser" if value != "treefuser" else "grafter"
    if name == "layout":
        return "pooled" if value != "pooled" else "object"
    raise AssertionError(
        f"no variant rule for field {name!r} of type {type(value)!r}; "
        f"extend _variant so the new knob stays covered"
    )


FIELDS = [f.name for f in dataclasses.fields(CompileOptions)]


class TestEveryFieldParticipates:
    @pytest.mark.parametrize("name", FIELDS)
    def test_field_named_in_canonical(self, name):
        options = CompileOptions()
        canonical = options.canonical()
        if name == "limits":
            # the limits dataclass is inlined field by field
            for limit in dataclasses.fields(FusionLimits):
                assert f"{limit.name}=" in canonical
        else:
            assert f"{name}=" in canonical

    @pytest.mark.parametrize("name", FIELDS)
    def test_changing_field_changes_hash(self, name):
        base = CompileOptions()
        changed = dataclasses.replace(
            base, **{name: _variant(name, getattr(base, name))}
        )
        assert changed.options_hash() != base.options_hash(), (
            f"field {name!r} does not participate in canonical(): "
            f"two compiles differing only in {name!r} would alias"
        )

    def test_nested_limits_fields_all_participate(self):
        base = CompileOptions()
        for limit in dataclasses.fields(FusionLimits):
            bumped = dataclasses.replace(
                base.limits,
                **{limit.name: getattr(base.limits, limit.name) + 1},
            )
            changed = dataclasses.replace(base, limits=bumped)
            assert changed.options_hash() != base.options_hash(), limit.name


class TestLayoutSeparation:
    """``layout`` must split the key space: pooled modules are different
    code, not a different view of the same artifact."""

    def test_layout_changes_the_hash(self):
        base = CompileOptions()
        pooled = dataclasses.replace(base, layout="pooled")
        assert pooled.options_hash() != base.options_hash()

    def test_layout_is_an_output_field(self, tmp_path):
        # one store, both layouts: the pooled compile must not be served
        # the object result, and each lands under its own options hash
        store = fresh_store(tmp_path)
        base = CompileOptions()
        pooled = dataclasses.replace(base, layout="pooled")
        pipeline_compile(FIG2_SOURCE, options=base, store=store)
        second = pipeline_compile(FIG2_SOURCE, options=pooled, store=store)
        assert not second.cache_hit
        assert second.options.layout == "pooled"
        written = sorted(
            key.options_hash for key in stored(tmp_path)["result"]
        )
        assert written == sorted(
            [base.options_hash(), pooled.options_hash()]
        )


class TestCanonicalStability:
    def test_equal_options_hash_alike(self):
        assert (
            CompileOptions().options_hash()
            == CompileOptions().options_hash()
        )
