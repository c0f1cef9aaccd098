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


# The modules critspec/__init__.py star-imports, in import order.
REEXPORTED = ["errors", "spectra", "polynomial", "moments", "realizers", "differentiator", "harness"]


def test_package_exports_exactly_its_modules_all():
    joined = [
        attr
        for name in REEXPORTED
        for attr in importlib.import_module(f"critspec.{name}").__all__
    ]
    assert critspec.__all__ == joined + ["__version__"]
    namespace: dict = {}
    exec("from critspec import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(critspec.__all__)
