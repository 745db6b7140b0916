"""Every name a package exports in ``__all__`` exists."""

import importlib

import pytest


@pytest.mark.parametrize("package", ["flowsentinel.nn", "flowsentinel.data", "flowsentinel.features"])
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
