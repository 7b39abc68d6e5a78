"""Run one ellbundle benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else.  Every workload is a closed loop with one
client: the next query is issued only after the previous one returned.
The seed draws the inputs; the round of queries is cycled until
``--seconds`` have passed, finishing the round in progress.

``--trace 0`` measures the end-to-end metrics with no tracing and prints
them.  ``--trace 1`` alternates untraced and traced passes over the round,
prints the per-layer metrics (see ``tracer.py``) and writes the spans of
the first traced pass to ``bench/out/``.  Either way every output is
checked, and the last line of stdout is one JSON object; the exit code is
1 when a check failed and 2 when the package is missing.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import reference
import tracer as tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
LAYERS = ("picard", "bundles", "kring", "jordan", "expr", "cli")
SETUP_REPEATS = 5
PROBE_REPEATS = 3
TAIL_BEYOND = 10

END_TO_END = [
    ("throughput_qps", "queries/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("cpu_ms_per_query", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# name: (draw, build); see workloads.py.
WORKLOADS = {
    "tensor": (workloads.draw_tensor, workloads.build_tensor),
    "closure": (workloads.draw_closure, workloads.build_closure),
    "oracle": (workloads.draw_oracle, workloads.build_oracle),
    "cli": (workloads.draw_cli, lambda pkg, plan: workloads.build_cli(pkg, plan, str(SRC), str(ROOT))),
}
# Each workload's calibration block does the work its queries spend their
# time on: Clebsch-Gordan products, set-based closures, exact ranks for the
# oracle, and for the cli a bare interpreter start in a child process.
# Reference times: the Clebsch-Gordan block's median on a quiet 2-core
# x86-64 box under Python 3.11, and for the other blocks the time that reads
# the same scale as that block, timed alternately.
CALIBRATIONS = {
    "tensor": (reference.calibration_tensor, 0.010),
    "closure": (reference.calibration_closure, 0.0063),
    "oracle": (reference.calibration_rank, 0.005),
    "cli": (lambda: timed_children([["pass"]], ["-c"]), 0.0387),
}
CHILD_WORKLOADS = {"cli"}
PROBE_ARGV = ["tensor", "E[2]*L[1/2,0] + E[3]", "E[3]*Ta"]


def load_package() -> SimpleNamespace:
    """Import ellbundle afresh from the checkout, so each set-up pays the import."""
    for name in [m for m in sys.modules if m == "ellbundle" or m.startswith("ellbundle.")]:
        del sys.modules[name]
    pkg = SimpleNamespace(**{name: importlib.import_module(f"ellbundle.{name}") for name in LAYERS})
    if Path(pkg.cli.__file__).resolve().parent != SRC / "ellbundle":
        raise SystemExit(f"ellbundle was imported from {pkg.cli.__file__}, not from {SRC}")
    return pkg


def draw(name: str, seed: int):
    """The round's inputs from the seed, as plain data; not part of set-up."""
    return WORKLOADS[name][0](random.Random(seed))


def set_up(name: str, seed: int, plan):
    """Import, build the round and warm up; returns (seconds, pkg, queries)."""
    start = time.perf_counter()
    pkg = load_package()
    queries = WORKLOADS[name][1](pkg, plan)
    # Warm up on the first (smallest) query of each kind; a child process
    # needs one run only, to fill the bytecode cache.
    if name in CHILD_WORKLOADS:
        warm = queries[:1]
    else:
        warm = list({q.kind: q for q in reversed(queries) if "reference" not in q.kind}.values())
    for query in warm:
        query.call()
    elapsed = time.perf_counter() - start
    random.Random(seed).shuffle(queries)
    return elapsed, pkg, queries


class Outcomes:
    """First output per distinct query, and how many of its runs went wrong."""

    def __init__(self):
        self.first: dict = {}
        self.runs: dict = {}
        self.bad: dict = {}
        self.errors: list = []

    def record(self, query, call) -> float:
        """Run one query, return its latency; a raise or a changed output is a failure."""
        key = id(query)
        start = time.perf_counter()
        try:
            out = call()
        except Exception:  # a failed query is counted, and the loop goes on
            latency = time.perf_counter() - start
            self.bad[key] = self.bad.get(key, 0) + 1
            self.errors.append(f"{query.kind}: {traceback.format_exc(limit=3)}")
        else:
            latency = time.perf_counter() - start
            if key not in self.first:
                self.first[key] = (query, out)
            elif out != self.first[key][1]:
                self.bad[key] = self.bad.get(key, 0) + 1
                self.errors.append(f"{query.kind}: output changed between runs")
        self.runs[key] = self.runs.get(key, 0) + 1
        return latency

    def failed(self) -> int:
        """Check each distinct output once; a wrong one fails every run of its query."""
        total = 0
        for key, runs in self.runs.items():
            bad = self.bad.get(key, 0)
            if key in self.first:
                query, out = self.first[key]
                try:
                    message = query.check(out)
                except Exception:
                    message = traceback.format_exc(limit=3)
                if message:
                    self.errors.append(f"{query.kind}: {message}")
                    bad = runs
            total += bad
        return total


def cpu_seconds(children: bool) -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    total = usage.ru_utime + usage.ru_stime
    if children:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        total += usage.ru_utime + usage.ru_stime
    return total


def tail(latencies: list) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it: (percentile, value)."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(n - TAIL_BEYOND - 1, 0)
    return 100.0 * (index + 1) / n, ordered[index]


class Calibration:
    """Machine speed, from a fixed block of work timed between queries.

    The block (see CALIBRATIONS) is work of the kind the workload's
    queries do that calls none of the package's code, so a change
    to the package leaves it alone, while a machine made slower by other
    tenants slows it much as it slows the queries.  ``scale(k)`` is the
    median time of the blocks around the k-th over the block's reference
    time (see CALIBRATIONS); times divided by it (and rates multiplied) are
    at the reference speed.  Each query and each set-up is scaled by the
    blocks run around it, so the scale follows the machine's speed as it
    drifts within a run.
    """

    INTERVAL_S = 0.15
    WINDOW = 9  # blocks per scale: the five before a query and the four after it

    def __init__(self, block, reference_s: float):
        self.block = block
        self.reference_s = reference_s
        self.samples: list = []
        self.last = float("-inf")

    def tick(self, force: bool = False) -> int:
        """Maybe run the block; the number of blocks run so far."""
        if force or time.perf_counter() - self.last >= self.INTERVAL_S:
            start = time.perf_counter()
            self.block()
            self.last = time.perf_counter()
            self.samples.append(self.last - start)
        return len(self.samples)

    def scale(self, k: int) -> float:
        lo = max(min(k - (self.WINDOW + 1) // 2, len(self.samples) - self.WINDOW), 0)
        return statistics.median(self.samples[lo:lo + self.WINDOW]) / self.reference_s


def end_to_end(rounds: list, setups: list, rss_mb: float, scaled: bool) -> dict:
    """The end-to-end metrics from (latency s, CPU s, scale) per query of each
    round and (seconds, scale) per set-up; ``scaled`` divides every time by
    its scale."""

    def at(seconds, scale):
        return seconds / scale if scaled else seconds

    latencies = [at(lat, scale) for queries in rounds for lat, _, scale in queries]
    # Medians over rounds: a burst of load from outside touches a few rounds only.
    busy = [sum(at(lat, scale) for lat, _, scale in queries) for queries in rounds]
    cpus = [sum(at(cpu, scale) for _, cpu, scale in queries) for queries in rounds]
    n = len(rounds[0])
    return {
        "throughput_qps": n / statistics.median(busy),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail(latencies)[1] * 1e3,
        "cpu_ms_per_query": statistics.median(cpus) * 1e3 / n,
        "setup_s": statistics.median(at(seconds, scale) for seconds, scale in setups),
        "peak_rss_mb": rss_mb,
    }


def measure(name: str, seed: int, seconds: float) -> tuple[dict, Outcomes, dict]:
    calibration = Calibration(*CALIBRATIONS[name])
    plan = draw(name, seed)
    setups = []  # (seconds, blocks run before it)
    for _ in range(SETUP_REPEATS):
        k = calibration.tick(force=True)
        elapsed, pkg, queries = set_up(name, seed, plan)
        setups.append((elapsed, k))
    children = name in CHILD_WORKLOADS
    outcomes = Outcomes()
    rounds = []  # per round, per query: (latency, CPU seconds, blocks run before it)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        calibration.tick(force=True)
        records = []
        for query in queries:
            k = calibration.tick()
            cpu0 = cpu_seconds(children)
            latency = outcomes.record(query, query.call)
            records.append((latency, cpu_seconds(children) - cpu0, k))
        rounds.append(records)
    calibration.tick(force=True)
    rounds = [[(lat, cpu, calibration.scale(k)) for lat, cpu, k in records] for records in rounds]
    setups = [(elapsed, calibration.scale(k)) for elapsed, k in setups]
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    raw = end_to_end(rounds, setups, rss_mb, scaled=False)
    samples = [lat for records in rounds for lat, _, _ in records]
    scales = [scale for records in rounds for _, _, scale in records]
    info = {
        "rounds": len(rounds),
        "queries_per_round": len(queries),
        "samples": len(samples),
        "tail": f"p{tail(samples)[0]:.2f} ({TAIL_BEYOND} samples beyond it)",
        "setup_runs_s": ", ".join(f"{s:.3f}" for s, _ in setups),
        "calibration": f"{len(calibration.samples)} blocks, scales {min(scales):.3f}-{max(scales):.3f}",
        "raw": json.dumps(raw),
    }
    return end_to_end(rounds, setups, rss_mb, scaled=True), outcomes, info


def timed_children(argvs: list, prefix: list) -> list:
    env = workloads.child_env(str(SRC))
    walls = []
    for argv in argvs:
        start = time.perf_counter()
        subprocess.run([sys.executable, *prefix, *argv], cwd=ROOT, env=env, capture_output=True, timeout=60, check=True)
        walls.append(time.perf_counter() - start)
    return walls


def cli_layer(pkg, argvs: list, processes: list) -> dict:
    """Interpreter, import and in-process main times of the CLI; ``processes`` are child walls."""
    interpreter = statistics.median(timed_children([["pass"]] * PROBE_REPEATS, ["-c"]))
    imported = statistics.median(timed_children([["import ellbundle.cli"]] * PROBE_REPEATS, ["-c"]))
    mains = []
    for argv in argvs:
        start = time.perf_counter()
        workloads.run_in_process(pkg, argv)
        mains.append(time.perf_counter() - start)
    return {
        "cli.interpreter_s": interpreter,
        "cli.import_s": imported - interpreter,
        "cli.main_s": statistics.median(mains),
        "cli.process_s": statistics.median(processes),
    }


def trace(name: str, seed: int, seconds: float) -> tuple[dict, Outcomes, dict]:
    _, pkg, queries = set_up(name, seed, draw(name, seed))
    # The traced passes run in-process; for the cli workload that is cli.main
    # on the same argv, since a child process is outside the tracer's reach.
    calls = [q.in_process or q.call for q in queries]
    tracer = tracing.Tracer(pkg)
    outcomes = Outcomes()
    ratios = []
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        for query, call in zip(queries, calls):
            outcomes.record(query, call)
        untraced = time.perf_counter() - begin
        tracer.install()
        try:
            begin = time.perf_counter()
            for i, call in enumerate(calls):
                tracer.begin_query(i)
                try:
                    call()
                except Exception:  # already counted by the untraced pass
                    pass
            traced = time.perf_counter() - begin
        finally:
            tracer.uninstall()
        tracer.end_pass()
        ratios.append(traced / untraced)
        if time.perf_counter() - start >= seconds:
            break
    values = tracer.metrics()
    if name in CHILD_WORKLOADS:
        argvs = [q.argv for q in queries]
        processes = [outcomes.record(q, q.call) for q in queries]
    else:
        argvs = [PROBE_ARGV] * PROBE_REPEATS
        processes = timed_children(argvs, ["-m", "ellbundle"])
    values.update(cli_layer(pkg, argvs, processes))
    values["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    out = BENCH / "out" / f"{name}-seed{seed}.spans.json"
    tracer.write(out)
    info = {"passes": tracer.passes, "queries_per_pass": len(queries), "spans": str(out.relative_to(ROOT))}
    return values, outcomes, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ellbundle" / "__init__.py").is_file():
        print(f"error: no ellbundle package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run = trace if args.trace else measure
    values, outcomes, info = run(args.workload, args.seed, args.seconds)
    attempted = sum(outcomes.runs.values())
    failed = outcomes.failed()
    for error in outcomes.errors[:10]:
        print(f"check failed: {error}", file=sys.stderr)

    table = tracing.PER_LAYER if args.trace else END_TO_END
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} python={sys.version.split()[0]} nproc={len(os.sched_getaffinity(0))}")
    for key, value in info.items():
        print(f"{key}: {value}")
    rows = [(metric, values[metric], unit) for metric, unit, _ in table]
    if not args.trace:
        rows.append(("failed_frac", failed / attempted, "ratio"))
    for metric, value, unit in rows:
        print(f"  {metric:32s} {value:14.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": values[metric], "unit": unit} for metric, unit, _ in table},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
