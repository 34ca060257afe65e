"""Run workloads repeatedly and report how steady each metric is.

    python3 perfbench/steady.py                       # every workload once
    python3 perfbench/steady.py --runs 10             # ten seeds per workload
    python3 perfbench/steady.py --runs 10 --save a.json
    python3 perfbench/steady.py --runs 10 --against a.json

Each run is a fresh ``run.py`` process with its own seed.  For every metric
the report gives the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread, the distance between the quartiles divided by the median.
A metric whose spread exceeds its bound in ``BENCHMARK.json`` is flagged
unresolved: a change to it smaller than that spread cannot be told from
noise.  With ``--against`` the medians are compared with a saved set, and a
median worse by more than the bound is flagged as a regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import catalog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:  # 1: a result with wrong outputs
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}{proc.stdout[-2000:]}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else float("nan")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=catalog.WORKLOADS, help="repeatable; default all")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, help="write every value measured to this file")
    parser.add_argument("--against", type=Path, help="compare medians with a file written by --save")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    metric_specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    baseline = json.loads(args.against.read_text()) if args.against else {}

    values: dict[str, dict[str, list[float]]] = {}
    flagged = 0
    for workload in args.workload or catalog.WORKLOADS:
        per_metric: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, seconds, args.trace)
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            per_metric.setdefault("failed_frac", []).append(result["failed"] / result["attempted"])
            units["failed_frac"] = "ratio"
        values[workload] = per_metric
        for name, vals in per_metric.items():
            s = summarize(vals)
            spec = metric_specs.get(name, {})
            bound = spec.get("bound")
            notes = []
            if bound is not None and s.get("spread", 0) > bound:
                notes.append(f"unresolved (spread above bound {bound})")
            if name == "failed_frac" and any(vals):
                notes.append("FAILED outputs")
            old = baseline.get(workload, {}).get(name)
            if bound is not None and old:
                before = statistics.median(old)
                change = (s["median"] - before) / before
                worse = -change if spec["better"] == "higher" else change
                notes.append(f"{change:+.1%} vs saved")
                if worse > bound:
                    notes.append("REGRESSION")
            flagged += any(n.startswith(("unresolved", "REGRESSION", "FAILED")) for n in notes)
            quartiles = f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.3f}" if "q1" in s else ""
            bound_text = f"bound {bound}" if bound is not None else ""
            print(
                f"{workload:14s} {name:32s} {s['median']:14.6g} {units[name]:10s} {quartiles} {bound_text} {' '.join(notes)}".rstrip(),
                flush=True,
            )
    if args.save:
        args.save.write_text(json.dumps(values, indent=1) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
