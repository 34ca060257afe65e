"""The benchmark's trace names still name functions of the program.

``perfbench/spans.py`` patches program functions by module and attribute
name, and skips a name that no longer resolves; a rename would then show up
only as zero per-layer counts.  This module loads that file by path and only
reads it: nothing is patched here.  ``COUNTED`` is not checked, since its one
entry names ``graphs.graph_key``, which the class-key dedup removed.
"""

import importlib
import importlib.util
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

from hamcircle import BlowupVector, enumerate_actions
from hamcircle.blowups import all_blowups

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


def resolve(module_name, attr):
    """The object ``spans.tracing`` would patch: a module attribute, or a member of a class's own dict."""
    owner = importlib.import_module(module_name)
    owner_name, _, member = attr.rpartition(".")
    if owner_name:
        owner = getattr(owner, owner_name)
        assert isinstance(owner, type)
        return vars(owner)[member]
    return getattr(owner, member)


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _, _ in spans.SPANS])
def test_every_span_names_a_callable(module_name, attr):
    assert callable(resolve(module_name, attr))


def test_the_insert_span_is_listed():
    assert ("hamcircle.enumeration", "GraphStore.add_if_new") in {(m, a) for m, a, _, _ in spans.SPANS}


def test_blowup_sites_are_the_fat_vertices_and_every_chain_vertex():
    # each of the k blowups of an enumerated graph left one chain vertex
    v = BlowupVector(1, 2, (F(1, 4), F(1, 16), F(1, 64)))
    graphs, _ = enumerate_actions(v)
    assert graphs
    for g in graphs:
        counts = Counter()
        blown = all_blowups(g, F(1, 256))
        spans._blowups(counts, (g, F(1, 256)), blown)
        assert counts["blowups.sites"] == 2 + v.k
        assert counts["blowups.generated"] == len(blown) > 0
