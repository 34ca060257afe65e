"""The package's public names."""

import importlib

import hamcircle


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from hamcircle import *", namespace)
    assert [name for name in hamcircle.__all__ if name not in namespace] == []


# the twist-seeded staged search and its helpers, kept in their modules as
# the tests' reference for the shape run
REFERENCE = {
    "hamcircle.blowups": ("all_blowups",),
    "hamcircle.enumeration": ("GraphStore", "blowup_stage", "initial_graphs"),
    "hamcircle.graphs": ("are_equivalent", "canonical_sort_key"),
}


def test_the_reference_search_is_not_exported():
    for module, names in REFERENCE.items():
        for name in names:
            assert name not in hamcircle.__all__ and not hasattr(hamcircle, name)
            assert callable(getattr(importlib.import_module(module), name))
