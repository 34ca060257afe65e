"""Run one workload of the hamcircle benchmark and print its metrics.

    python3 perfbench/run.py --workload sharp_dedup --seed 1 --seconds 25 --trace 0

One process, one client, a closed loop: each solve starts when the previous
one has returned, with no threads.  The timed pass runs one whole round of
the workload (see ``catalog.py``), then solves until ``--seconds`` of wall
time have passed, with at least 11 solves.  Every output is checked outside
the timed region, and every time is taken to the nominal speed of
``speed.py``, which takes the drift of a shared host out of it.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` untraced and traced whole rounds alternate, half the time
each, and give the per-layer metrics and the tracing overhead; the spans are
written to ``.bench_out/``.  The exit code is 0 when every output is correct, 1 when
some output is wrong, and 2 without a result when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

MIN_SAMPLES = 11
TAIL_BLOCK = 500
SETUP_SAMPLES = 15
MODULES = ("vectors", "formulas", "graphs", "blowups", "enumeration", "cli")
SETUP_CODE = "import sys; from hamcircle.cli import main; sys.exit(main(['check', '-v', '3,3;2,2']))"


class BenchError(Exception):
    """The benchmark cannot run here."""


def load_program(root: Path) -> SimpleNamespace:
    """Import the program from ``root/src``, and from nowhere else."""
    src = root / "src"
    if not (src / "hamcircle" / "cli.py").is_file():
        raise BenchError(f"no hamcircle source under {src}")
    sys.path.insert(0, str(src))
    try:
        mods = {name: importlib.import_module(f"hamcircle.{name}") for name in MODULES}
    except ImportError as exc:
        raise BenchError(f"cannot import hamcircle: {exc}") from exc
    for mod in mods.values():
        if not Path(mod.__file__).resolve().is_relative_to(src.resolve()):
            raise BenchError(f"{mod.__name__} was imported from {mod.__file__}, not from {src}")
    return SimpleNamespace(**mods)


def load_pins() -> dict:
    return json.loads((HERE / "pins.json").read_text())


@dataclass
class Pass:
    latencies: list[float] = field(default_factory=list)
    instances: list[catalog.Instance] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    actions: int = 0
    rounds: int = 0

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def enough(self, seconds: float) -> bool:
        return self.busy >= seconds and len(self.latencies) >= MIN_SAMPLES


def run_solve(solve, done: Pass, prog, pins, expected, tracer=None, clock=None) -> None:
    """Time one solve and check its output afterwards."""
    inp = catalog.prepare(solve, prog)
    error = None
    if clock is not None:
        clock.before()
    if tracer is not None:
        tracer.begin_solve(len(done.latencies))
    t0 = perf_counter()
    try:
        output = catalog.execute(solve, inp, prog)
    except Exception as exc:
        error = f"raised {exc!r}"
    except SystemExit as exc:
        error = f"exited with {exc.code!r}"
    finally:
        elapsed = perf_counter() - t0
        if clock is not None:
            elapsed -= clock.stop()
    if tracer is not None:
        tracer.end_solve()
    done.latencies.append(elapsed)
    done.instances.append(solve.instance)
    if error is None:
        if tracer is not None and solve.instance.how == "cli":
            tracer.counts["cli.output_bytes"] += len(output[1])
        try:
            got = catalog.digest(solve, output)
            error = catalog.check(solve, got, pins, expected)
        except (KeyError, ValueError, TypeError) as exc:
            error = f"unreadable output: {exc!r}"
    if error is None:
        done.actions += got.get("count", 0)
        done.counts[solve.instance.id] = got.get("count", 0)
    else:
        done.failures.append(f"{solve.instance.id} (scale {solve.scale}, genus {solve.genus}): {error}")


def run_round(batch, done: Pass, prog, pins, expected, tracer=None) -> None:
    done.rounds += 1
    for solve in batch:
        run_solve(solve, done, prog, pins, expected, tracer)


def settle_heap() -> None:
    """Collect, then move every object alive now out of the collector's reach.

    The benchmark's own objects (the modules, the catalog, the pins) then add
    nothing to the collections that run during the solves.
    """
    gc.collect()
    gc.freeze()


def timed_pass(gen, seconds: float, prog, pins, expected, clock: speed.Clock) -> Pass:
    """One whole round, then solves until ``seconds`` of wall time have passed.

    The clock probes the host's speed between and during solves; the probes
    and the output checks count in the wall time but not in any solve's time.
    """
    done = Pass()
    settle_heap()
    start = perf_counter()
    for batch in gen:
        for solve in batch:
            if done.rounds and len(done.latencies) >= MIN_SAMPLES and perf_counter() - start >= seconds:
                clock.after()
                return done
            run_solve(solve, done, prog, pins, expected, clock=clock)
        done.rounds += 1
    raise AssertionError("the rounds of a workload never end")


def traced_pass(gen, seconds: float, prog, pins, expected, tracer) -> tuple[Pass, Pass]:
    """Untraced and traced whole rounds alternate, half of ``seconds`` each.

    Both halves see the same machine, so their ratio is the tracing overhead.
    """
    plain, traced = Pass(), Pass()
    settle_heap()
    while not (plain.enough(seconds / 2) and traced.enough(seconds / 2)):
        run_round(next(gen), plain, prog, pins, expected)
        with spans.tracing(tracer):
            run_round(next(gen), traced, prog, pins, expected, tracer)
    return plain, traced


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile that still has at least 10 samples above it.

    Returns the latency and its percentile: the share of samples at or below
    it.  A pass of ``2 * TAIL_BLOCK`` solves or more is cut into consecutive
    blocks of at least ``TAIL_BLOCK``, and both are the median over the
    blocks: over ten thousand solves of a millisecond the rule would give the
    eleventh slowest, which is set by whichever solve an interrupt hit, not
    by the program.
    """
    n = len(latencies)
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n}")
    blocks = max(1, n // TAIL_BLOCK)
    values, percentiles = [], []
    for b in range(blocks):
        part = sorted(latencies[b * n // blocks : (b + 1) * n // blocks])
        values.append(part[-MIN_SAMPLES])
        percentiles.append(100.0 * (len(part) - 10) / len(part))
    return statistics.median(values), statistics.median(percentiles)


def one_round(done: Pass, latencies: list[float]) -> tuple[float, int, int, float]:
    """Time, solves, actions and median solve time of one round of the workload.

    Each instance takes the median time of its solves in the pass and counts
    as many times as a round holds it, so a pass that ends within a round
    weighs every instance as a whole round does.
    """
    per_instance: dict[catalog.Instance, list[float]] = {}
    for inst, t in zip(done.instances, latencies):
        per_instance.setdefault(inst, []).append(t)
    times = [statistics.median(ts) for inst, ts in per_instance.items() for _ in range(inst.repeat)]
    actions = sum(inst.repeat * done.counts.get(inst.id, 0) for inst in per_instance)
    return sum(times), len(times), actions, statistics.median(times)


def measure_setup(root: Path, samples: int) -> tuple[list[float], list[float]]:
    """Wall time of a fresh interpreter importing ``hamcircle.cli`` and answering one check.

    Returns the raw times and the times at the nominal speed of ``speed.py``.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    clock = speed.Clock(every=0.0, during=False)
    times = []
    for i in range(samples + 1):
        if i:  # the first run may still write bytecode caches
            clock.before()
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=root,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=60,
        )
        elapsed = perf_counter() - t0
        if i:
            clock.stop()
        if proc.returncode != 0:
            raise BenchError(f"set-up query exited {proc.returncode}: {proc.stderr.decode(errors='replace')}")
        if i:
            times.append(elapsed)
    clock.after()
    return times, clock.normalised(times)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` directly; ``unknown`` outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(root),
    }


def end_to_end(done: Pass, clock: speed.Clock, setup: tuple[list[float], list[float]]) -> tuple[dict, dict]:
    """The end-to-end metrics, every time at the nominal speed, and the raw times beside them."""
    latencies = clock.normalised(done.latencies)
    tail_s, tail_pct = tail(latencies)
    seconds, solves, actions, p50 = one_round(done, latencies)
    metrics = {
        "solves_per_s": (solves / seconds, "1/s"),
        "actions_per_s": (actions / seconds, "actions/s"),
        "solve_p50_ms": (p50 * 1000, "ms"),
        "solve_tail_ms": (tail_s * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup[1]), "s"),
    }
    factors = [clock.factor(i) for i in range(len(latencies))]
    details = {
        "actions_total": done.actions,
        "actions_per_round": actions,
        "solves_per_round": solves,
        "tail_percentile": round(tail_pct, 2),
        "samples": len(done.latencies),
        "rounds": done.rounds,
        "busy_s": done.busy,
        "probes": len(clock.probes),
        "speed_factor_median": statistics.median(factors),
        "speed_factor_range": [min(factors), max(factors)],
        "raw_solves_per_s": len(done.latencies) / done.busy,
        "raw_actions_per_s": done.actions / done.busy,
        "raw_solve_p50_ms": statistics.median(done.latencies) * 1000,
        "raw_solve_tail_ms": tail(done.latencies)[0] * 1000,
        "raw_setup_s": statistics.median(setup[0]),
        "setup_samples_s": setup[1],
        "failed_frac": len(done.failures) / len(done.latencies),
    }
    return metrics, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=catalog.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    speed.pin_to_current_cpu()
    try:
        prog = load_program(ROOT)
        pins = load_pins()
        expected = catalog.closed_forms(prog)
        setup = ([], []) if args.trace else measure_setup(ROOT, SETUP_SAMPLES)
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    gen = catalog.rounds(args.workload, args.seed)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    report["environment"] = environment(ROOT)
    if args.trace:
        tracer = spans.Tracer()
        plain, traced = traced_pass(gen, args.seconds, prog, pins, expected, tracer)
        metrics, shares = spans.layer_metrics(tracer, traced.rounds)
        overhead = (traced.busy / traced.rounds) / (plain.busy / plain.rounds)
        metrics["trace.overhead"] = (overhead, "ratio")
        spans_path = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(spans_path)
        failures = plain.failures + traced.failures
        attempted = len(plain.latencies) + len(traced.latencies)
        report.update(
            rounds_untraced=plain.rounds,
            rounds_traced=traced.rounds,
            spans=len(tracer.name),
            spans_file=str(spans_path.relative_to(ROOT)),
            self_time_shares={k: round(v, 4) for k, v in shares.items()},
        )
    else:
        clock = speed.Clock()
        done = timed_pass(gen, args.seconds, prog, pins, expected, clock)
        metrics, details = end_to_end(done, clock, setup)
        failures, attempted = done.failures, len(done.latencies)
        report.update(details)

    report["failures"] = failures[:20]
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:14s} {name:32s} {value:14.6g} {unit}")
    print(f"{args.workload:14s} {'failed_frac':32s} {len(failures) / attempted:14.6g} ratio")
    if failures:
        print(f"{len(failures)} of {attempted} solves failed, first: {failures[0]}", file=sys.stderr)
    print("# report " + json.dumps(report))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
