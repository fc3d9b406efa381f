import importlib
import pkgutil

import pytest

import trishift

MODULES = ["trishift"] + [
    f"trishift.{info.name}" for info in pkgutil.iter_modules(trishift.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_name(name):
    # a stale __all__ entry makes the star import raise AttributeError
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    exported = importlib.import_module(name).__all__
    assert len(set(exported)) == len(exported)
    assert set(exported) <= namespace.keys()
