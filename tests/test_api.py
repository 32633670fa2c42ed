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



# the modules whose __all__ the package re-exports, in its import order
EXPORTED = ["abelian", "errors", "grouphom", "koszul", "linalg", "powers", "presets"]


def test_package_all_is_the_modules_lists():
    lists = [importlib.import_module(f"exacthom.{m}").__all__ for m in EXPORTED]
    assert exacthom.__all__ == ["__version__"] + [x for names in lists for x in names]


def test_no_name_is_declared_by_two_modules():
    # a star-import lets the later module shadow the earlier one silently
    names = [x for m in EXPORTED for x in importlib.import_module(f"exacthom.{m}").__all__]
    assert len(names) == len(set(names))


def test_every_package_name_is_the_declaring_modules_object():
    for m in EXPORTED:
        module = importlib.import_module(f"exacthom.{m}")
        for x in module.__all__:
            assert getattr(exacthom, x) is getattr(module, x), (m, x)
