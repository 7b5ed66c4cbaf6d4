import importlib
import pkgutil

import pytest

import crossfuzzy

# The modules whose ``__all__`` lists, in this order, make up the package's.
PUBLIC_MODULES = ["crossbar", "device", "fuzzy", "harness", "relation", "system"]
MODULES = ["crossfuzzy"] + [
    f"crossfuzzy.{info.name}" for info in pkgutil.iter_modules(crossfuzzy.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(mod, name)] == []


def test_the_package_exports_its_modules_all_lists_and_nothing_else():
    """``crossfuzzy.__all__`` is the public modules' ``__all__`` lists concatenated,
    each name bound to the module's own object; no other public name but a
    submodule's is bound in the package."""
    mods = [importlib.import_module(f"crossfuzzy.{name}") for name in PUBLIC_MODULES]
    assert crossfuzzy.__all__ == [name for mod in mods for name in mod.__all__]
    for mod in mods:
        for name in mod.__all__:
            assert getattr(crossfuzzy, name) is getattr(mod, name), (mod.__name__, name)
    public = {name for name in dir(crossfuzzy) if not name.startswith("_")}
    submodules = {info.name for info in pkgutil.iter_modules(crossfuzzy.__path__)}
    assert public - set(crossfuzzy.__all__) <= submodules
