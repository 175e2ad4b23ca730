"""Each engine package exports exactly the public names of its modules,
and README's library example runs against them."""

import importlib
import pkgutil
from pathlib import Path

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


def _readme_python() -> str:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    return readme.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs():
    namespace = {}
    exec(compile(_readme_python(), "README.md", "exec"), namespace)
    assert namespace["values"].shape == (8,)
