"""Every name a gwi module lists in ``__all__`` resolves on that module.

Tools that walk the public API, such as the benchmark tracer, call
``getattr`` on each of these names, so a stale entry breaks them.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import gwi

MODULES = [importlib.import_module(f"gwi.{info.name}") for info in pkgutil.iter_modules(gwi.__path__)]
EXPORTING = [module for module in MODULES if hasattr(module, "__all__")]


def test_the_core_modules_declare_their_exports():
    names = {module.__name__ for module in EXPORTING}
    assert {"gwi.harness", "gwi.model", "gwi.moments", "gwi.sde", "gwi.simulate"} <= names


@pytest.mark.parametrize("module", EXPORTING, ids=lambda module: module.__name__)
def test_every_name_in_all_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == [], f"{module.__name__}.__all__ names {missing}, which it does not define"
    assert len(set(module.__all__)) == len(module.__all__)
