"""The package's public names, and the README's tour of them."""

import ast
import importlib
import re
from fractions import Fraction
from pathlib import Path

import hamcircle
from hamcircle import BlowupVector, E


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


README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_readme_quick_start_shows_what_its_comments_say():
    block = re.search(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M).group(1)
    # run the block statement by statement, keeping the value of each bare expression
    namespace, shown = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            shown.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert shown == [
        True,  # in the cone
        BlowupVector(3, 2, (1, 1)),  # the reduced vector
        (BlowupVector(2, 1, (1,)),),  # k <= 1: one step
        3,  # the count
        2,  # the graphs
        (Fraction(3), False),  # the width pair
        2,  # the packing number
        frozenset({E(2)}),  # the minimal classes
    ]
