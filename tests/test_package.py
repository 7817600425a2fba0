"""The package's public surface."""

import inspect

import minann


def test_all_lists_exactly_the_imported_public_names():
    imported = {
        name
        for name, value in vars(minann).items()
        if not inspect.ismodule(value) and (not name.startswith("_") or name == "__version__")
    }
    assert set(minann.__all__) == imported
    namespace: dict = {}
    exec("from minann import *", namespace)
    assert "sweep_scenario" in namespace
