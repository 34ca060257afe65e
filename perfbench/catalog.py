"""The benchmark's workloads: instances, seeded inputs, and output checks.

Every instance is written once, at unit scale and genus 1.  A run draws, for
each round and each instance, an exact positive rational scale factor and a
genus, and shuffles the order of the round.  The action count and the graphs
(up to the scale) do not depend on either draw, so every solve is checked
against one pinned digest per instance, taken at unit scale and genus 1, and
against a closed-form count wherever one applies.  Drawing a fresh scale per
solve also keeps any two solves of a run from receiving identical input.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("sharp_dedup", "twist_wide", "collide_mixed", "query_mix")


@dataclass(frozen=True)
class Instance:
    """One input of a workload.

    ``how`` is ``count`` or ``enumerate`` for a library call, or ``cli`` for
    one ``cli.main`` invocation: ``args`` is the subcommand and its flags, and
    the scaled vector, bundle and genus are inserted after the subcommand.
    ``raw`` instances pass ``args`` verbatim, never scaled.  ``oracle`` names
    the closed form that must give the count; ``repeat`` is how many solves of
    the instance, each with its own draw, one round holds.
    """

    id: str
    how: str
    vector: str = ""
    bundle: str = "trivial"
    args: tuple[str, ...] = ()
    exit: int = 0
    oracle: str | None = None
    repeat: int = 1
    raw: bool = False


def _sharp(k: int, smallest_first: bool = False) -> str:
    deltas = [f"1/{4 ** i}" for i in range(1, k + 1)]
    return "1,2;" + ",".join(reversed(deltas) if smallest_first else deltas)


HALF8 = ",".join(["1/2"] * 8)
QUARTER8 = ",".join(["1/4"] * 8)
PAIRS = "1/3,1/3,1/6,1/6,1/12,1/12"
JSON = ("--format", "json")
XCHECK = ("--formula-crosscheck", "--format", "json")

CATALOG: dict[str, tuple[Instance, ...]] = {
    # Every candidate survives, so GraphKey buckets grow large and dedup by
    # pairwise comparison dominates.  The k = 5 solves go through the CLI
    # with the deltas written smallest first, so the auto-reduction runs.
    "sharp_dedup": (
        Instance("sharp6_count", "count", _sharp(6), oracle="max_count"),
        Instance("sharp6_enum", "enumerate", _sharp(6), oracle="max_count"),
        Instance("sharp5_count_cli", "cli", _sharp(5, True), args=("count", *XCHECK), oracle="max_count", repeat=20),
        Instance("sharp5_enum_cli", "cli", _sharp(5), args=("enumerate",), oracle="max_count", repeat=20),
    ),
    # lambda_b/lambda_f from 200 to 4400: thousands of seed graphs, buckets of
    # one or two, so seeding, generation, sort and serialization dominate and
    # dedup is bypassed.  The sizes make a ladder of solve costs, each about
    # 1.13 times the one below, so that a machine-wide slowdown moves the
    # latency percentiles smoothly instead of flipping them between modes.
    "twist_wide": (
        Instance("twist_ruled_1700", "enumerate", "1,1700", oracle="ruled"),
        Instance("twist_trivial_630", "enumerate", "1,630;1/2", oracle="equal_sizes"),
        Instance("twist_nontrivial_800", "enumerate", "1,800;1/2", "nontrivial", oracle="equal_sizes"),
        Instance("twist_cremona_300", "enumerate", "1,601/2;3/4,3/4", oracle="equal_sizes"),
        Instance("twist_unequal_220", "enumerate", "1,220;1/2,1/3"),
        Instance("twist_count_cli_770", "cli", "1,770;1/2", "nontrivial", args=("count", *XCHECK), oracle="equal_sizes"),
        Instance("twist_enum_cli_950", "cli", "1,950;1/2", args=("enumerate",), oracle="equal_sizes"),
        Instance("twist_enum_cli_1200", "cli", "1,1200;1/2", "nontrivial", args=("enumerate",), oracle="equal_sizes"),
        Instance("twist_ruled_4400", "enumerate", "1,4400", oracle="ruled"),
        Instance("twist_trivial_1650", "enumerate", "1,1650;1/2", oracle="equal_sizes"),
        Instance("twist_nontrivial_2100", "enumerate", "1,2100;1/2", "nontrivial", oracle="equal_sizes"),
        Instance("twist_cremona_790", "enumerate", "1,1581/2;3/4,3/4", oracle="equal_sizes"),
        Instance("twist_unequal_580", "enumerate", "1,580;1/2,1/3"),
        Instance("twist_count_cli_2000", "cli", "1,2000;1/2", "nontrivial", args=("count", *XCHECK), oracle="equal_sizes"),
    ),
    # Repeated sizes, including 2*delta == lambda_f: about half the candidates
    # merge as duplicates and most interior sites are pruned.  Again a ladder
    # of solve costs, as in twist_wide.
    "collide_mixed": (
        Instance("collide_quarter8_5", "count", "1,5;" + QUARTER8, oracle="equal_sizes"),
        Instance("collide_half8_20", "count", "1,20;" + HALF8, oracle="equal_sizes"),
        Instance("collide_quarter8_8_enum", "enumerate", "1,8;" + QUARTER8, "nontrivial", oracle="equal_sizes"),
        Instance("collide_quarter8_10", "count", "1,10;" + QUARTER8, oracle="equal_sizes"),
        Instance("collide_half8_25_cli", "cli", "1,25;" + HALF8, "nontrivial", args=("count", *XCHECK), oracle="equal_sizes"),
        Instance("collide_cremona_41", "count", "1,41/2;3/4,3/4,1/2,1/2,1/2,1/2"),
        Instance("collide_pairs_2", "count", "1,2;" + PAIRS),
        Instance("collide_half8_40_cli", "cli", "1,40;" + HALF8, "nontrivial", args=("count", *XCHECK), oracle="equal_sizes"),
        Instance("collide_pairs_2_enum", "enumerate", "1,2;" + PAIRS, "nontrivial"),
        Instance("collide_cremona_61", "count", "1,61/2;3/4,3/4,1/2,1/2,1/2,1/2"),
        Instance("collide_pairs_3", "count", "1,3;" + PAIRS),
        Instance("collide_half8_60", "count", "1,60;" + HALF8, oracle="equal_sizes"),
        Instance("collide_pairs_3_enum", "enumerate", "1,3;" + PAIRS, "nontrivial"),
    ),
    # Small front-door queries: the CLI, the vector layer and the formulas.
    "query_mix": (
        Instance("check_in", "cli", "3,3;2,2", args=("check",), repeat=2),
        Instance("check_ruled", "cli", "2,5", args=("check",)),
        Instance("check_out", "cli", "1,1;2", args=("check",), exit=1),
        Instance("reduce_one", "cli", "3,3;2,2", args=("reduce", *JSON)),
        Instance("reduce_long4", "cli", "2,10;19/10,19/10,19/10,19/10", args=("reduce", *JSON), repeat=2),
        Instance("reduce_long8", "cli", "2,20;" + ",".join(["19/10"] * 8), args=("reduce", *JSON), repeat=2),
        Instance("reduce_long10", "cli", "2,30;" + ",".join(["19/10"] * 10), args=("reduce", *JSON)),
        Instance("reduce_out", "cli", "1,1;1,1", args=("reduce", *JSON), exit=1),
        Instance("invariants_k1", "cli", "2,1;1", args=("invariants", *JSON)),
        Instance("invariants_k2", "cli", "6,1;2,1", args=("invariants", *JSON)),
        Instance("invariants_auto", "cli", "2,10;19/10,19/10,19/10,19/10", args=("invariants", *JSON)),
        Instance("invariants_out", "cli", "1,1;3/2", args=("invariants", *JSON), exit=1),
        Instance("count_equal", "cli", "10,2;1,1", args=("count", *XCHECK), oracle="equal_sizes"),
        Instance("count_sharp2", "cli", "1,1;1/4,1/16", args=("count", *XCHECK), oracle="max_count"),
        Instance("count_collide3", "cli", "1,5;1/2,1/2,1/2", args=("count", *XCHECK), oracle="equal_sizes"),
        Instance("count_ruled", "cli", "1,9", "nontrivial", args=("count", *XCHECK), oracle="ruled"),
        Instance("count_k1", "cli", "2,3;1/2", "nontrivial", args=("count", *XCHECK), oracle="equal_sizes"),
        Instance("count_out", "cli", "1,1;2", args=("count", *XCHECK), exit=1),
        Instance("enum_k1", "cli", "1,1;1/4", args=("enumerate",), oracle="equal_sizes"),
        Instance("enum_k2", "cli", "2,3;1/2,1/3", "nontrivial", args=("enumerate",)),
        Instance("bad_scalar", "cli", args=("count", "-v", "1,2;x"), exit=2, raw=True),
        Instance("bad_shape", "cli", args=("check", "-v", "1;2"), exit=2, raw=True),
        Instance("bad_zero_denominator", "cli", args=("reduce", "-v", "1,2;1/0,1"), exit=2, raw=True),
        Instance("bad_genus", "cli", args=("invariants", "-v", "1,2;1/2", "-g", "0"), exit=2, raw=True),
        Instance("bad_command", "cli", args=("frobnicate",), exit=2, raw=True),
    ),
}


def parse_vector_text(text: str) -> tuple[Fraction, Fraction, tuple[Fraction, ...]]:
    head, _, tail = text.partition(";")
    lf, lb = (Fraction(x) for x in head.split(","))
    return lf, lb, tuple(Fraction(x) for x in tail.split(",")) if tail else ()


def scale_text(text: str, scale: Fraction) -> str:
    lf, lb, deltas = parse_vector_text(text)
    head = f"{lf * scale},{lb * scale}"
    return head + (";" + ",".join(str(d * scale) for d in deltas) if deltas else "")


@dataclass(frozen=True)
class Solve:
    """One concrete solve: an instance with its drawn scale and genus."""

    instance: Instance
    scale: Fraction
    genus: int

    def argv(self) -> list[str]:
        inst = self.instance
        if inst.raw:
            return list(inst.args)
        sub, *flags = inst.args
        vector = scale_text(inst.vector, self.scale)
        return [sub, "-v", vector, "-b", inst.bundle, "-g", str(self.genus), *flags]

    def vector(self, prog):
        lf, lb, deltas = parse_vector_text(self.instance.vector)
        s = self.scale
        bundle = prog.vectors.BundleType(self.instance.bundle)
        return prog.vectors.BlowupVector(lf * s, lb * s, tuple(d * s for d in deltas), bundle, self.genus)


def rounds(workload: str, seed: int):
    """Endless rounds of a workload; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}/{seed}")
    while True:
        batch = []
        for inst in CATALOG[workload]:
            for _ in range(inst.repeat):
                scale = Fraction(rng.randint(1, 12), rng.randint(1, 12))
                genus = rng.randint(1, 4)
                batch.append(Solve(inst, Fraction(1), 1) if inst.raw else Solve(inst, scale, genus))
        rng.shuffle(batch)
        yield batch


# --- running a solve and digesting its output ---------------------------------


def prepare(solve: Solve, prog):
    """The input of a solve, built before the clock starts."""
    return solve.argv() if solve.instance.how == "cli" else solve.vector(prog)


def execute(solve: Solve, inp, prog):
    """Run one solve through the program; everything here is timed.

    Library solves never pass ``jobs``.  CLI output is captured in memory.
    """
    how = solve.instance.how
    if how == "count":
        return prog.enumeration.count_actions(inp)
    if how == "enumerate":
        graphs, _ = prog.enumeration.enumerate_actions(inp)
        return [prog.graphs.canonical_json(g) for g in graphs]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = prog.cli.main(inp)
    return code, out.getvalue()


def _unscale(text: str, scale: Fraction, power: int = 1) -> str:
    return str(Fraction(text) / scale**power)


def _graph_digest(graphs: list[dict], scale: Fraction, genus: int) -> str:
    """SHA-256 of the canonical JSON of the graphs, brought back to unit scale and genus 1."""
    lines = []
    for g in graphs:
        normal = {
            "height": _unscale(g["height"], scale),
            "genus": g["genus"] - genus + 1,
            "bottom_area": _unscale(g["bottom_area"], scale),
            "top_area": _unscale(g["top_area"], scale),
            "chains": [[x if i % 2 else _unscale(x, scale) for i, x in enumerate(c)] for c in g["chains"]],
        }
        lines.append(json.dumps(normal, separators=(",", ":")))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def digest(solve: Solve, output) -> dict:
    """The scale- and genus-free part of a solve's output that the pins fix."""
    inst, s, genus = solve.instance, solve.scale, solve.genus
    if inst.how == "count":
        return {"count": output.count}
    if inst.how == "enumerate":
        return {"count": len(output), "sha256": _graph_digest([json.loads(t) for t in output], s, genus)}
    code, text = output
    result: dict = {"exit": code}
    if code != 0:
        return result
    sub = inst.args[0]
    if sub == "check":
        lines = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
        result["in_cone"] = lines.get("in cone")
        result["g_reduced"] = lines.get("g-reduced", "").split(" ")[0]
        return result
    payload = json.loads(text)
    if sub == "reduce":
        result["reduced"] = scale_text(payload["reduced"], 1 / s)
    elif sub == "count":
        result["count"] = payload["count"]
        formula = payload.get("formula_count")
        result["crosscheck_agrees"] = formula is None or formula == payload["count"]
    elif sub == "enumerate":
        result["count"] = payload["count"]
        result["sha256"] = _graph_digest(payload["graphs"], s, genus)
    elif sub == "invariants":
        emin = payload["emin"]
        result.update(
            volume=_unscale(payload["volume"], s, 2),
            width_squared=_unscale(payload["width_squared"], s, 2),
            packing_number=payload["packing_number"],
            emin=None if emin is None else [emin["classes"], emin["case"]],
        )
    return result


def closed_forms(prog) -> dict[str, int]:
    """The closed-form count of every instance that names an oracle, at unit scale.

    The closed form is evaluated on the reduced vector, which has the same
    count; ``max_count`` is used only where ``max_count_conditions`` holds.
    """
    v_mod, f = prog.vectors, prog.formulas
    expected = {}
    for insts in CATALOG.values():
        for inst in insts:
            if inst.oracle is None:
                continue
            lf, lb, deltas = parse_vector_text(inst.vector)
            v = v_mod.BlowupVector(lf, lb, deltas, v_mod.BundleType(inst.bundle))
            if v.k >= 2 and not v_mod.is_g_reduced(v):
                v = v_mod.cremona_reduce(v).vector
            if inst.oracle == "max_count":
                if not f.max_count_conditions(v):
                    raise ValueError(f"{inst.id}: max_count_conditions do not hold")
                expected[inst.id] = f.max_count(v.lambda_f, v.lambda_b, v.k)
            elif inst.oracle == "equal_sizes":
                expected[inst.id] = f.count_equal_sizes(v.lambda_f, v.lambda_b, v.deltas[0], v.k, v.bundle)
            else:
                expected[inst.id] = f.count_ruled(v.lambda_f, v.lambda_b, v.bundle)
    return expected


def check(solve: Solve, got: dict, pins: dict, expected: dict[str, int]) -> str | None:
    """None when the output is right, else what is wrong with it."""
    inst = solve.instance
    if got.get("exit", 0) != inst.exit:
        return f"exit code {got['exit']}, expected {inst.exit}"
    if not got.get("crosscheck_agrees", True):
        return "the CLI crosscheck disagrees with its own count"
    if inst.id in expected and got.get("count") != expected[inst.id]:
        return f"count {got.get('count')}, closed form {inst.oracle} gives {expected[inst.id]}"
    pinned = pins.get(inst.id)
    if pinned is None:
        return "no pinned digest for this instance"
    if got != pinned:
        return f"output {got} differs from the pinned {pinned}"
    return None
