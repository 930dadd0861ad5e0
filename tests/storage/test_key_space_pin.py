"""Pins of the durable key space: where a compile result lands in a store.

A result file's ``v2/`` path is ``<source[:2]>/<source>-<options>.pkl``:
the content hash of the source and the hash of the options that shape
the output. Every store on disk, every peer and every ``/artifact``
route is addressed this way, so a refactor of the options or of the
tiers that moves one byte of either hash orphans every stored result.

The test compiles the paper's Fig. 2 program into fresh stores under
three option sets and finds the result file by globbing the store, so
it goes through no key API: the literals below are the paths the
storage layer wrote when they were taken. The default options' digest
is ``fc75f0111c9c4b346480a7e478f758420798882c62ca268a20ca3fab4de0b109``.
"""

import pytest

import repro
from tests.fixtures import FIG2_SOURCE

_SOURCE = "2810e4b2c2427f515a7eb6ad4178efebdaa150b132daf5551272865e6089ae30"

CASES = {
    "default": (
        {},
        {},
        f"v2/28/{_SOURCE}-"
        "fc75f0111c9c4b346480a7e478f758420798882c62ca268a20ca3fab4de0b109.pkl",
    ),
    "pooled": (
        {"layout": "pooled"},
        {},
        f"v2/28/{_SOURCE}-"
        "eb6b960185e6dec3c28d510ec2948e3f695f7a3e7457f659f2537a655019a2ea.pkl",
    ),
    "treefuser": (
        {},
        {"mode": "treefuser"},
        f"v2/28/{_SOURCE}-"
        "e9cc81a4a7027375a831c2c3c42afd33ec81cdc7dd74efe26992f7772a7308a8.pkl",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_result_path_is_pinned(tmp_path, case):
    session_kwargs, overrides, expected = CASES[case]
    # a memory tier of its own, so no earlier in-process compile of
    # Fig. 2 can serve this one from memory before it reaches the store
    with repro.Session(
        str(tmp_path),
        memory_budget=1 << 30,
        workers=1,
        backend="inline",
        **session_kwargs,
    ) as session:
        compiled = session.compile(FIG2_SOURCE, **overrides)
    assert not compiled.cache_hit
    written = [
        path.relative_to(tmp_path).as_posix()
        for path in tmp_path.glob("v2/??/*.pkl")
    ]
    assert written == [expected]
