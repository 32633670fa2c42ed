"""Every name the package and its modules export through __all__ exists, so
`from exacthom import *` and `from exacthom.<module> import *` never fail
on a stale entry."""

import importlib
import pkgutil

import pytest

import exacthom

MODULES = ["exacthom"] + [f"exacthom.{m.name}" for m in pkgutil.iter_modules(exacthom.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    assert [x for x in getattr(module, "__all__", ()) if not hasattr(module, x)] == []

