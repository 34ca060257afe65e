"""Command-line front end.

Vectors are written as "lambda_f,lambda_b;d1,d2,...,dk" where each scalar is
an integer, a fraction "p/q", or a finite decimal (parsed exactly).  k = 0 is
written "lambda_f,lambda_b" or "lambda_f,lambda_b;".

Subcommands::

    hamcircle check      -v "3,3;2,2"                 cone membership and reduced status
    hamcircle reduce     -v "2,10;1.9,1.9,1.9,1.9"    normal form with the step trace
    hamcircle count      -v "1,1;1/4,1/16"            number of inequivalent circle actions
    hamcircle enumerate  -v "1,1;1/4" --format dot    the decorated graphs themselves
    hamcircle invariants -v "2,1;1"                   volume, width, packing, minimal classes

Exit codes: 0 success, 1 the vector does not encode a blowup form, 2 usage
or I/O error (any failed write to stdout included, a reader that closed it
too), input beyond MAX_SCALAR_DIGITS or MAX_VECTOR_DIGITS, or an
``enumerate`` of more graphs than enumeration.MAX_GRAPHS, 3 internal
consistency failure: a ``count`` or ``enumerate`` whose count disagrees with
the closed form that applies, found before anything is written.  ``count``
takes any lambda_b.

All numeric output is exact; decimal approximations appear only in fields
named "approx".

Every output is written piece by piece, never joined whole.  A
``--format json`` output is one object written by ``_json_text``: one key
per line, each value compact from the C encoder, and the graphs of
``enumerate`` one per line, each the ``canonical_json`` line that
``enumerate_json`` spells straight from the lattice rows, without building a
graph, and written as it is spelled.  ``to_dot`` yields the ``dot`` text the
same way, one graph per piece, from the graphs of ``enumerate_actions``.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import Iterable, Iterator

from .enumeration import CountReport, TooManyGraphsError, count_actions, enumerate_actions, enumerate_json
from .formulas import count_equal_sizes, count_ruled, max_count, max_count_conditions
from .graphs import DecoratedGraph, compact_json
from .vectors import (
    BlowupVector,
    BundleType,
    NotBlowupFormError,
    check_cone,
    cremona_reduce,
    defect,
    emin,
    gromov_width,
    is_g_reduced,
    packing_number,
    volume,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_BUG = 3


# Most digits a scalar may be written with, and the largest decimal exponent
# it may carry: beyond these ``Fraction`` would build integers too long to print.
MAX_SCALAR_DIGITS = 100
# Most digits the numerators and denominators of a whole vector may have
# together, so that sums and products over many deltas stay printable.
MAX_VECTOR_DIGITS = 1000


def parse_scalar(text: str) -> Fraction:
    """Parse an integer, "p/q" fraction, or finite decimal exactly, within MAX_SCALAR_DIGITS."""
    text = text.strip()
    if sum(ch.isdigit() for ch in text) > MAX_SCALAR_DIGITS:
        raise ValueError(f"scalar {text[:20]}... has more than {MAX_SCALAR_DIGITS} digits")
    exponent = text.lower().partition("e")[2].lstrip("+-").replace("_", "")
    if exponent.isdecimal() and int(exponent) > MAX_SCALAR_DIGITS:
        raise ValueError(f"scalar {text!r} has an exponent beyond {MAX_SCALAR_DIGITS}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse scalar {text!r}") from exc


def parse_vector(
    text: str, bundle: BundleType = BundleType.TRIVIAL, genus: int = 1
) -> BlowupVector:
    """Parse "lambda_f,lambda_b;d1,...,dk" into an exact vector (k = 0 allowed)."""
    head, _, tail = text.partition(";")
    parts = head.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'lambda_f,lambda_b;deltas', got {text!r}")
    lf, lb = parse_scalar(parts[0]), parse_scalar(parts[1])
    deltas = tuple(parse_scalar(p) for p in tail.split(",")) if tail.strip() else ()
    digits = sum(len(str(abs(n))) for q in (lf, lb, *deltas) for n in q.as_integer_ratio())
    if digits > MAX_VECTOR_DIGITS:
        raise ValueError(f"vector has {digits} digits, more than {MAX_VECTOR_DIGITS}")
    return BlowupVector(lf, lb, deltas, bundle, genus)


def format_vector(v: BlowupVector) -> str:
    head = f"{v.lambda_f},{v.lambda_b}"
    if not v.deltas:
        return head
    return head + ";" + ",".join(str(d) for d in v.deltas)


def to_dot(graphs: Iterable[DecoratedGraph]) -> Iterator[str]:
    """Render graphs in Graphviz dot, one piece per graph: fat vertices as
    labeled boxes, interior vertices as nodes labeled by height, edges
    annotated with their isotropy."""
    yield "graph actions {\n"
    for gi, g in enumerate(graphs):
        bot, top = f"g{gi}_bottom", f"g{gi}_top"
        lines = [
            f"  subgraph cluster_{gi} {{",
            f'    label="graph {gi}";',
            f'    {bot} [shape=box, label="area {g.bottom_area}, genus {g.genus}"];',
            f'    {top} [shape=box, label="area {g.top_area}, genus {g.genus}"];',
        ]
        for pos, chain in enumerate(g.chains):
            names = [f"g{gi}_c{pos}_v{vi}" for vi in range(len(chain.heights))]
            for name, h in zip(names, chain.heights):
                lines.append(f'    {name} [label="{h}"];')
            lines.append(f'    {bot} -- {names[0]} [label="1"];')
            for vi, label in enumerate(chain.labels):
                lines.append(f'    {names[vi]} -- {names[vi + 1]} [label="{label}"];')
            lines.append(f'    {names[-1]} -- {top} [label="1"];')
        lines.append("  }\n")
        yield "\n".join(lines)
    yield "}\n"


def _twist_range(twists: range) -> dict:
    """The twists as three numbers, counted without ``len``, which overflows past sys.maxsize."""
    return {"first": twists.start, "step": twists.step, "number": (twists.stop - twists.start + 1) // 2}


class _CountMismatchError(Exception):
    """The enumerator and a closed form disagree on a count."""


def _report_json(report: CountReport) -> dict:
    """The report with the closed form that checked its count; a mismatch raises."""
    value, kind = _crosscheck(report)
    if value not in (None, report.count):
        raise _CountMismatchError(f"enumerator found {report.count} actions but the closed form gives {value}")
    return {
        "input": format_vector(report.input_vector),
        "bundle": report.input_vector.bundle.value,
        "genus": report.input_vector.genus,
        "reduced": format_vector(report.reduced_vector),
        "auto_reduced": report.auto_reduced,
        "initial_twists": _twist_range(report.initial_twists),
        "stage_counts": list(report.stage_counts),
        "count": report.count,
        "formula_count": value,
        "formula_kind": kind,
    }


def _json_text(payload: dict) -> Iterator[str]:
    """``payload`` as JSON with one key per line and each value compact, in pieces.

    ``graphs`` holds the graphs' canonical JSON lines, written one per line,
    one piece each, so the whole text is never held at once; no graphs is
    ``[]``.  Any indented layout would send ``json.dumps`` to its pure-Python
    encoder.
    """
    yield "{"
    for i, (key, value) in enumerate(payload.items()):
        yield f"{',' if i else ''}\n  {compact_json(key)}: "
        if key == "graphs":
            lines = iter(value)
            first = next(lines, None)
            if first is None:
                yield "[]"
                continue
            yield "[\n    " + first
            for line in lines:
                yield ",\n    " + line
            yield "\n  ]"
        else:
            yield compact_json(value)
    yield "\n}\n"


def _emit(pieces: Iterable[str], out_path: str | None) -> int:
    if out_path is None:
        sys.stdout.writelines(pieces)
        return EXIT_OK
    try:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    v = args.vector
    report = check_cone(v)
    print(f"vector: {format_vector(v)} ({v.bundle.value}, genus {v.genus})")
    print(f"in cone: {'yes' if report else 'no'}")
    if not report:
        print("violated: " + ", ".join(report.violations))
    reduced = is_g_reduced(v)
    if v.k >= 2:
        print(f"g-reduced: {'yes' if reduced else 'no'} (defect {defect(v)})")
    else:
        print("g-reduced: yes (vacuous for k <= 1)")
    return EXIT_OK if report else EXIT_DOMAIN


def cmd_reduce(args: argparse.Namespace) -> int:
    v = args.vector
    result = cremona_reduce(v)
    if args.format == "json":
        payload = {
            "input": format_vector(v),
            "reduced": format_vector(result.vector),
            "steps": [format_vector(s) for s in result.steps],
            "iterations": result.iterations,
        }
        _emit(_json_text(payload), None)
    else:
        print(f"input:   {format_vector(v)}")
        print(f"reduced: {format_vector(result.vector)}")
        print(f"iterations: {result.iterations}")
        for i, step in enumerate(result.steps):
            print(f"  {i}: {format_vector(step)}")
    return EXIT_OK


def _crosscheck(report: CountReport) -> tuple[int | None, str]:
    """Closed-form count for the reduced vector, when one applies."""
    w = report.reduced_vector
    if w.k == 0:
        return count_ruled(w.lambda_f, w.lambda_b, w.bundle), "ruled"
    if len(set(w.deltas)) == 1 and 2 * w.deltas[0] <= w.lambda_f:
        value = count_equal_sizes(w.lambda_f, w.lambda_b, w.deltas[0], w.k, w.bundle)
        return value, "equal sizes"
    if w.bundle is BundleType.TRIVIAL and max_count_conditions(w):
        return max_count(w.lambda_f, w.lambda_b, w.k), "max_count"
    return None, "no closed form applies (unequal sizes or 2*delta > lambda_f)"


def cmd_count(args: argparse.Namespace) -> int:
    payload = _report_json(count_actions(args.vector))
    if args.format == "json":
        return _emit(_json_text(payload), None)
    print(f"input: {payload['input']} ({payload['bundle']}, genus {payload['genus']})")
    print(f"reduced: {payload['reduced']} (auto-reduced: {'yes' if payload['auto_reduced'] else 'no'})")
    print("initial twists: " + ", ".join(f"{name} {value}" for name, value in payload["initial_twists"].items()))
    print(f"stage counts: {payload['stage_counts']}")
    print(f"actions: {payload['count']}")
    value, kind = payload["formula_count"], payload["formula_kind"]
    print(f"crosscheck: {kind}" if value is None else f"crosscheck ({kind}): {value}")
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    if args.format == "dot":
        graphs, report = enumerate_actions(args.vector)
        _report_json(report)  # the check, before the first piece is written
        return _emit(to_dot(graphs), args.out)
    lines, report = enumerate_json(args.vector)
    payload = _report_json(report)
    payload["graphs"] = lines
    return _emit(_json_text(payload), args.out)


def cmd_invariants(args: argparse.Namespace) -> int:
    v = args.vector
    width = gromov_width(v)
    packing = packing_number(v)
    emin_vector = cremona_reduce(v).vector
    emin_notice = f" (computed on auto-reduced {format_vector(emin_vector)})" if emin_vector != v else ""
    minimal = emin(emin_vector) if v.k >= 1 else None
    if args.format == "json":
        payload = {
            "vector": format_vector(v),
            "bundle": v.bundle.value,
            "genus": v.genus,
            "volume": str(volume(v)),
            "width_squared": str(width.width_squared),
            "width_capped_by_fiber": width.capped_by_fiber,
            "width_approx": width.approx,
            "packing_number": packing,
            "emin": None
            if minimal is None
            else {
                "classes": sorted(str(c) for c in minimal.classes),
                "case": minimal.case.value,
                "tail_start": minimal.tail_start,
                "vector": format_vector(emin_vector),
            },
        }
        return _emit(_json_text(payload), None)
    print(f"vector: {format_vector(v)} ({v.bundle.value}, genus {v.genus})")
    print(f"volume: {volume(v)}")
    branch = "capped by fiber" if width.capped_by_fiber else "volume bound"
    print(f"gromov width^2: {width.width_squared} ({branch}, approx {width.approx:.6f})")
    print(f"packing number: {packing}")
    if minimal is None:
        print("E_min: none (no blowups)")
    else:
        classes = "{" + ", ".join(sorted(str(c) for c in minimal.classes)) + "}"
        print(f"E_min: {classes} (case {minimal.case.value}, tail start {minimal.tail_start}){emin_notice}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamcircle",
        description="Count and classify Hamiltonian circle actions on blowups of ruled surfaces over positive-genus curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("-v", "--vector", required=True, help='encoding vector, e.g. "3,3;2,2"')
        p.add_argument(
            "-b",
            "--bundle",
            choices=["trivial", "nontrivial"],
            default="trivial",
            help="bundle type (default: trivial)",
        )
        p.add_argument("-g", "--genus", type=int, default=1, help="genus of the base surface (default: 1)")

    p_check = sub.add_parser("check", help="cone membership and reduced status")
    add_common(p_check)
    p_check.set_defaults(handler=cmd_check)

    p_reduce = sub.add_parser("reduce", help="bring a vector to reduced normal form")
    add_common(p_reduce)
    p_reduce.add_argument("--format", choices=["text", "json"], default="text")
    p_reduce.set_defaults(handler=cmd_reduce)

    p_count = sub.add_parser("count", help="count the inequivalent circle actions")
    add_common(p_count)
    p_count.add_argument("--format", choices=["text", "json"], default="text")
    # every count is checked; the flag is accepted and ignored, as the benchmark's count commands still pass it
    p_count.add_argument("--formula-crosscheck", action="store_true", help=argparse.SUPPRESS)
    p_count.set_defaults(handler=cmd_count)

    p_enum = sub.add_parser("enumerate", help="emit every inequivalent decorated graph")
    add_common(p_enum)
    p_enum.add_argument("--format", choices=["json", "dot"], default="json")
    p_enum.add_argument("--out", default=None, help="write to this path instead of stdout")
    p_enum.set_defaults(handler=cmd_enumerate)

    p_inv = sub.add_parser("invariants", help="volume, Gromov width, packing number, minimal classes")
    add_common(p_inv)
    p_inv.add_argument("--format", choices=["text", "json"], default="text")
    p_inv.set_defaults(handler=cmd_invariants)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        args.vector = parse_vector(args.vector, BundleType(args.bundle), args.genus)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except NotBlowupFormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except TooManyGraphsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _CountMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUG
    except OSError as exc:
        # stdout cannot be written (a reader that is gone, a full device):
        # point it at devnull, so that the interpreter's last flush of what is
        # still buffered stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
