"""perfbench's traced run times each layer by patching named functions
and class-body methods in ``src/`` (``perfbench/layers.py``). A rename,
a move, or a method that becomes inherited instead of defined in its own
class body breaks those patches; this test notices in tier-1 rather than
only in a traced benchmark run.

``layers.py`` is loaded by path and used as it is: ``Layers().install()``
must wrap every listed name, and ``uninstall()`` must put each original
object back.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS_PATH = Path(__file__).resolve().parents[2] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers_under_test", LAYERS_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets(layers_module):
    """``(owner, attribute, current object)`` for every patch point:
    module attributes for function patches, class ``__dict__`` entries
    for method patches (what ``install`` replaces)."""
    targets = []
    for module_name, attr, _layer in layers_module.FUNCTION_PATCHES:
        module = importlib.import_module(module_name)
        targets.append((module, attr, getattr(module, attr)))
    for module_name, cls_name, attr, _layer in layers_module.METHOD_PATCHES:
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert attr in cls.__dict__, (
            f"{cls_name}.{attr} is not defined in its own class body"
        )
        targets.append((cls, attr, cls.__dict__[attr]))
    return targets


def _current(owner, attr):
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def test_install_wraps_every_patch_point_and_uninstall_restores_it():
    layers_module = _load_layers()
    originals = _targets(layers_module)
    assert originals
    layers = layers_module.Layers()
    layers.install()
    try:
        for owner, attr, original in originals:
            assert _current(owner, attr) is not original, (
                f"{owner.__name__}.{attr} was not wrapped"
            )
    finally:
        layers.uninstall()
    for owner, attr, original in originals:
        assert _current(owner, attr) is original, (
            f"{owner.__name__}.{attr} was not restored"
        )
