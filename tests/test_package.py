"""Every name a module exports in `__all__` exists, so `import *` works."""

import importlib
import pkgutil

import pytest

import artifactgen

MODULES = sorted(m.name for m in pkgutil.walk_packages(artifactgen.__path__, "artifactgen.")
                 if not m.name.endswith("__main__"))


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}, which {name} does not define"
