"""Every exported name resolves: a name deleted from a module must leave
its ``__all__`` too."""

import importlib
import pkgutil

import pytest

import casecross

MODULES = ["casecross"] + [
    f"casecross.{m.name}" for m in pkgutil.iter_modules(casecross.__path__) if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ names {missing}"


def test_star_import_binds_linkers():
    # demos import the exposure linkers from the package
    namespace = {}
    exec("from casecross import *", namespace)
    assert {"link_pm25", "link_temperature"} <= namespace.keys()
