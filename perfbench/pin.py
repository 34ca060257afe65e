"""Write ``pins.json``: the output digest of every benchmark instance at unit scale and genus 1.

    python3 perfbench/pin.py

The pins fix the outputs of the commit they were taken at; the benchmark
compares every solve against them.  Take them again only when a change is
meant to alter an output, and say why.  An instance with a closed form is
refused here too if its count disagrees with that form.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import catalog
import run


def main() -> int:
    prog = run.load_program(run.ROOT)
    expected = catalog.closed_forms(prog)
    pins = {}
    for insts in catalog.CATALOG.values():
        for inst in insts:
            solve = catalog.Solve(inst, Fraction(1), 1)
            got = catalog.digest(solve, catalog.execute(solve, catalog.prepare(solve, prog), prog))
            error = catalog.check(solve, got, {inst.id: got}, expected)
            if error:
                print(f"error: {inst.id}: {error}", file=sys.stderr)
                return 1
            pins[inst.id] = got
    (run.HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pins)} instances")
    return 0


if __name__ == "__main__":
    sys.exit(main())
