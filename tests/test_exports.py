"""The package namespace re-exports every public name of its submodules."""

import importlib

import pytest

import hyperlin

SUBMODULES = ("errors", "hypergraph", "linalg", "structures", "spectra", "randwalk", "centrality")


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_names_are_exported(name):
    module = importlib.import_module(f"hyperlin.{name}")
    for attr in module.__all__:
        assert attr in hyperlin.__all__
        assert getattr(hyperlin, attr) is getattr(module, attr)


def test_package_extras_are_exported():
    assert {"fixtures", "__version__"} <= set(hyperlin.__all__)
    assert len(hyperlin.__all__) == len(set(hyperlin.__all__))
