"""Each engine package exports exactly the public names of its modules."""

import importlib
import pkgutil

import pytest


@pytest.mark.parametrize("package", ["entropylab.findim", "entropylab.lattice"])
def test_package_exports_are_the_union_of_its_modules(package):
    pkg = importlib.import_module(package)
    modules = [
        importlib.import_module(f"{package}.{info.name}")
        for info in pkgutil.iter_modules(pkg.__path__)
    ]
    union = {name for module in modules for name in module.__all__}
    assert len(pkg.__all__) == len(set(pkg.__all__))
    assert set(pkg.__all__) == union
    assert all(getattr(pkg, name) is getattr(m, name) for m in modules for name in m.__all__)
