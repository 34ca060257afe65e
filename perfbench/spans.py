"""Spans around the public functions of each hamcircle module, from outside the program.

``tracing(tracer)`` replaces each function listed in ``SPANS`` by a wrapper
that records a span (name, start, end, parent, solve id) while a solve is
open, then puts the originals back.  Every module of the package that holds
the function under some name is patched, so names that a module imported
directly (``enumeration`` imports ``are_equivalent``, ``cli`` imports
``count_actions``, ...) are traced too.  A function that no longer exists is
skipped and counts as zero calls.  ``graph_key`` is called hundreds of
thousands of times per solve, so it is only counted; its time stays in the
caller's self time.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter


def _seeds(counts, args, result):
    counts["enumeration.seeds"] += len(result)


def _stage(counts, args, result):
    counts["enumeration.stage_peak_graphs"] = max(counts["enumeration.stage_peak_graphs"], len(result))


def _insert(counts, args, result):
    if not result:
        counts["enumeration.merged"] += 1


def _blowups(counts, args, result):
    graph = args[0]
    counts["blowups.sites"] += 2 + sum(len(chain.heights) for chain in graph.chains)
    counts["blowups.generated"] += len(result)


def _moves(counts, args, result):
    counts["vectors.cremona_reduce.moves"] += result.iterations


def _json_bytes(counts, args, result):
    counts["graphs.serialize.bytes"] += len(result)


# (module, attribute, span name, hook run on the result)
SPANS = (
    ("hamcircle.cli", "main", "cli.main", None),
    ("hamcircle.cli", "parse_vector", "cli.parse", None),
    ("hamcircle.cli", "_crosscheck", "formulas.crosscheck", None),
    ("hamcircle.enumeration", "count_actions", "enumeration.solve", None),
    ("hamcircle.enumeration", "enumerate_actions", "enumeration.solve", None),
    ("hamcircle.enumeration", "initial_graphs", "enumeration.seed", _seeds),
    ("hamcircle.enumeration", "blowup_stage", "enumeration.stage", _stage),
    ("hamcircle.enumeration", "GraphStore.add_if_new", "enumeration.insert", _insert),
    ("hamcircle.blowups", "all_blowups", "blowups.all_blowups", _blowups),
    ("hamcircle.graphs", "are_equivalent", "graphs.are_equivalent", None),
    ("hamcircle.graphs", "canonical_sort_key", "graphs.canonical_sort", None),
    ("hamcircle.graphs", "to_json_dict", "graphs.serialize", None),
    ("hamcircle.graphs", "canonical_json", "graphs.serialize", _json_bytes),
    ("hamcircle.vectors", "check_cone", "vectors.check_cone", None),
    ("hamcircle.vectors", "cremona_reduce", "vectors.cremona_reduce", _moves),
    ("hamcircle.vectors", "volume", "vectors.invariants", None),
    ("hamcircle.vectors", "gromov_width", "vectors.invariants", None),
    ("hamcircle.vectors", "packing_number", "vectors.invariants", None),
    ("hamcircle.vectors", "emin", "vectors.invariants", None),
    ("hamcircle.formulas", "count_ruled", "formulas.closed_form", None),
    ("hamcircle.formulas", "count_equal_sizes", "formulas.closed_form", None),
    ("hamcircle.formulas", "max_count", "formulas.closed_form", None),
    ("hamcircle.formulas", "max_count_conditions", "formulas.closed_form", None),
)

# (module, attribute, counter): counted, no span
COUNTED = (("hamcircle.graphs", "graph_key", "graphs.graph_key.calls"),)

SOLVE = "solve"


class Tracer:
    """Spans in flat arrays, kept in memory until the run ends.

    Nothing is recorded outside a solve, so the benchmark's own checks, which
    call the closed forms, do not show up as program work.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.solve = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._solve_id = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.solve.append(self._solve_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def begin_solve(self, solve_id: int) -> None:
        self._solve_id = solve_id
        self.open(self.name_id(SOLVE))

    def end_solve(self) -> None:
        self.close(self._stack[-1])

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name,start,end,parent,solve\n")
            for i in range(len(self.name)):
                out.write(
                    f"{self.names[self.name[i]]},{self.start[i]:.9f},{self.end[i]:.9f},{self.parent[i]},{self.solve[i]}\n"
                )


def _span(tracer: Tracer, fn, name: str, hook):
    name_id = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer._stack:
            return fn(*args, **kwargs)
        i = tracer.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if hook is not None:
            hook(tracer.counts, args, result)
        return result

    return traced


def _counted(tracer: Tracer, fn, counter: str):
    counts = tracer.counts

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        if tracer._stack:
            counts[counter] += 1
        return fn(*args, **kwargs)

    return counted


@contextlib.contextmanager
def tracing(tracer: Tracer):
    """Patch every listed function for the duration of the block."""
    modules = [m for n, m in list(sys.modules.items()) if n == "hamcircle" or n.startswith("hamcircle.")]
    undo: list[tuple[object, str, object]] = []

    def patch(module_name, attr, make):
        module = sys.modules.get(module_name)
        owner_name, _, member = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = vars(owner).get(member) if isinstance(owner, type) else None
            if callable(original):
                undo.append((owner, member, original))
                setattr(owner, member, make(original))
            return
        original = getattr(module, member, None)
        if not callable(original):
            return
        wrapper = make(original)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, name, original))
                    setattr(mod, name, wrapper)

    try:
        for module_name, attr, span, hook in SPANS:
            patch(module_name, attr, lambda fn, span=span, hook=hook: _span(tracer, fn, span, hook))
        for module_name, attr, counter in COUNTED:
            patch(module_name, attr, lambda fn, counter=counter: _counted(tracer, fn, counter))
        yield tracer
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    Children may nest or overlap each other; the covered part is the union of
    their intervals, clipped to the parent's.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    result = [end[i] - start[i] for i in range(len(start))]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        run_lo = run_hi = None
        for a, b in sorted((max(start[k], lo), min(end[k], hi)) for k in kids):
            if b <= a:
                continue
            if run_hi is None or a > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = a, b
            else:
                run_hi = max(run_hi, b)
        if run_hi is not None:
            covered += run_hi - run_lo
        result[p] -= covered
    return result


def layer_metrics(tracer: Tracer, rounds: int) -> tuple[dict[str, tuple[float, str]], dict[str, float]]:
    """Per-layer metrics, per round of the workload, and each span name's share of solve time."""
    own = self_times(tracer.start, tracer.end, tracer.parent)
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for i, name_id in enumerate(tracer.name):
        name = tracer.names[name_id]
        calls[name] += 1
        self_s[name] += own[i]
    solve_id = tracer._ids.get(SOLVE)
    solve_total = sum(tracer.end[i] - tracer.start[i] for i, n in enumerate(tracer.name) if n == solve_id)

    crosscheck = tracer._ids.get("formulas.crosscheck")
    closed_form = tracer._ids.get("formulas.closed_form")
    applied = {tracer.parent[i] for i, n in enumerate(tracer.name) if n == closed_form}
    applied_crosschecks = sum(1 for i, n in enumerate(tracer.name) if n == crosscheck and i in applied)

    c = tracer.counts
    inserts = calls["enumeration.insert"]
    crosschecks = calls["formulas.crosscheck"]
    sites = c["blowups.sites"]

    def ratio(a, b):
        return a / b if b else 0.0

    r = rounds
    metrics = {
        "enumeration.insert.calls": (inserts / r, "count"),
        "enumeration.insert.self_s": (self_s["enumeration.insert"] / r, "s"),
        "enumeration.merged": (c["enumeration.merged"] / r, "count"),
        "enumeration.merge_frac": (ratio(c["enumeration.merged"], inserts), "ratio"),
        "enumeration.equiv_per_insert": (ratio(calls["graphs.are_equivalent"], inserts), "ratio"),
        "enumeration.stage.self_s": (self_s["enumeration.stage"] / r, "s"),
        "enumeration.stage_peak_graphs": (c["enumeration.stage_peak_graphs"], "count"),
        "enumeration.seed.self_s": (self_s["enumeration.seed"] / r, "s"),
        "enumeration.seeds": (c["enumeration.seeds"] / r, "count"),
        "graphs.graph_key.calls": (c["graphs.graph_key.calls"] / r, "count"),
        "graphs.are_equivalent.calls": (calls["graphs.are_equivalent"] / r, "count"),
        "graphs.are_equivalent.self_s": (self_s["graphs.are_equivalent"] / r, "s"),
        "graphs.canonical_sort.self_s": (self_s["graphs.canonical_sort"] / r, "s"),
        "graphs.serialize.self_s": (self_s["graphs.serialize"] / r, "s"),
        "graphs.serialize.bytes": (c["graphs.serialize.bytes"] / r, "bytes"),
        "blowups.all_blowups.calls": (calls["blowups.all_blowups"] / r, "count"),
        "blowups.all_blowups.self_s": (self_s["blowups.all_blowups"] / r, "s"),
        "blowups.sites": (sites / r, "count"),
        "blowups.generated": (c["blowups.generated"] / r, "count"),
        "blowups.valid_frac": (ratio(c["blowups.generated"], sites), "ratio"),
        "vectors.cremona_reduce.calls": (calls["vectors.cremona_reduce"] / r, "count"),
        "vectors.cremona_reduce.self_s": (self_s["vectors.cremona_reduce"] / r, "s"),
        "vectors.cremona_reduce.moves": (c["vectors.cremona_reduce.moves"] / r, "count"),
        "vectors.check_cone.self_s": (self_s["vectors.check_cone"] / r, "s"),
        "vectors.invariants.self_s": (self_s["vectors.invariants"] / r, "s"),
        "formulas.oracle.calls": (crosschecks / r, "count"),
        "formulas.oracle.self_s": ((self_s["formulas.crosscheck"] + self_s["formulas.closed_form"]) / r, "s"),
        "formulas.oracle.applied_frac": (ratio(applied_crosschecks, crosschecks), "ratio"),
        "cli.main.calls": (calls["cli.main"] / r, "count"),
        "cli.parse.self_s": (self_s["cli.parse"] / r, "s"),
        "cli.main.self_s": (self_s["cli.main"] / r, "s"),
        "cli.output_bytes": (c["cli.output_bytes"] / r, "bytes"),
        "trace.dedup_share": (
            ratio(self_s["enumeration.insert"] + self_s["graphs.are_equivalent"], solve_total),
            "ratio",
        ),
    }
    shares = {name: ratio(t, solve_total) for name, t in sorted(self_s.items(), key=lambda kv: -kv[1])}
    return metrics, shares
