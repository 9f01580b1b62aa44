"""Every name a ``fracdyn`` module lists in ``__all__`` exists, so a deleted
function cannot linger as a stale export.  Standard library only."""

import importlib
import pkgutil

import fracdyn


def test_every_exported_name_resolves():
    modules = [fracdyn] + [
        importlib.import_module(f"fracdyn.{info.name}")
        for info in pkgutil.iter_modules(fracdyn.__path__)
    ]
    checked = [m for m in modules if hasattr(m, "__all__")]
    # the package and its six library modules declare their exports
    assert len(checked) >= 7
    missing = [
        f"{m.__name__}.{name}"
        for m in checked
        for name in m.__all__
        if not hasattr(m, name)
    ]
    assert missing == []
