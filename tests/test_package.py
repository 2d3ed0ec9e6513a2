import inspect
import sys

import peelsim


def test_package_exports_each_modules_public_names_once():
    modules = [sys.modules[f"peelsim.{name}"] for name in ("decode", "experiment", "graph", "theory", "witness")]
    owner = {name: module for module in modules for name in module.__all__}
    assert peelsim.__all__ == sorted(name for module in modules for name in module.__all__)
    assert len(owner) == len(peelsim.__all__)  # no name is listed by two modules
    for name, module in owner.items():
        assert getattr(peelsim, name) is getattr(module, name), name
    # The star import binds the function over the submodule of that name.
    assert inspect.isfunction(peelsim.decode)
    assert peelsim.decode is sys.modules["peelsim.decode"].decode
