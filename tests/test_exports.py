"""Every public name the package and its modules export resolves.

A name left in an ``__all__`` after its object is deleted imports
cleanly until something runs ``from ... import *``; this catches it
first.
"""

import importlib
import pkgutil

import pytest

import critspec

MODULES = ["critspec"] + [
    f"critspec.{info.name}"
    for info in pkgutil.iter_modules(critspec.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), name
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)

