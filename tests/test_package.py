import importlib
import inspect
import sys

import pytest

import peelsim

# The names the benchmark's traced sweep swaps by setattr
# (perfbench/workloads.py, _patched).  Renaming one would otherwise show
# only as a failed benchmark run.
BENCHMARK_PATCHED = [
    ("experiment", "run_trial"),
    ("experiment", "sample_bipartite"),
    ("experiment", "decode"),
    ("experiment", "decode_fixpoint"),
    ("experiment", "threshold_p"),
    ("experiment", "asymptotic_success"),
    ("experiment", "linear_regime_prediction"),
    ("cli", "main"),
    ("cli", "run_sweep"),
    ("cli", "load_spec"),
    ("cli", "write_results"),
]


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


@pytest.mark.parametrize("module,name", BENCHMARK_PATCHED, ids=[".".join(pair) for pair in BENCHMARK_PATCHED])
def test_each_name_the_benchmark_patches_is_callable(module, name):
    assert callable(getattr(importlib.import_module(f"peelsim.{module}"), name, None))
