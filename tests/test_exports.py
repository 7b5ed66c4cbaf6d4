import importlib
import pkgutil

import pytest

import crossfuzzy

MODULES = ["crossfuzzy"] + [
    f"crossfuzzy.{info.name}" for info in pkgutil.iter_modules(crossfuzzy.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(mod, name)] == []
