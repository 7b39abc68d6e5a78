"""Run one workload once per seed and summarise each metric's spread.

    python3 bench/repeat.py --workload tensor --seeds 1-10 --seconds 20 [--trace 0] [--out FILE]

Runs ``bench/run.py`` one seed after another (never two at once) and prints,
per metric, the median, the first and third quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the distance between
the quartiles as a share of the median, for the reported values and, for
``--trace 0``, the unscaled ones from each run's ``raw:`` line.  ``--out``
also writes every run's result (with its ``raw`` values) and both summaries
as JSON.  Exits 1 if any run failed or was incorrect.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(runs: list, field: str = "metrics") -> dict:
    summary = {}
    for name in runs[0][field]:
        values = [run[field][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        summary[name] = {
            "unit": runs[0][field][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "iqr_share": (q3 - q1) / median if median else 0.0,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    runs, ok = [], True
    for seed in parse_seeds(args.seeds):
        command = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            ok = False
            if not lines:
                continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        result["seed"] = seed
        # The unscaled end-to-end values, from the run's "raw:" line.
        raw = next((json.loads(line[5:]) for line in lines if line.startswith("raw: ")), None)
        if raw is not None:
            result["raw"] = {k: {"value": v, "unit": result["metrics"][k]["unit"]} for k, v in raw.items()}
        runs.append(result)
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} {values}", flush=True)
    if not runs:
        return 1
    summary = summarise(runs)
    raw_summary = summarise(runs, "raw") if all("raw" in run for run in runs) else {}
    print(f"{args.workload}: {len(runs)} runs, {args.seconds} s each, python {platform.python_version()}")
    for label, table in (("", summary), ("raw ", raw_summary)):
        for name, s in table.items():
            print(f"  {label + name:36s} median {s['median']:12.5g} {s['unit']:10s} q1 {s['q1']:.5g} q3 {s['q3']:.5g} "
                  f"iqr/median {s['iqr_share']:.3f}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                                        "python": platform.python_version(), "runs": runs, "summary": summary,
                                        "raw_summary": raw_summary}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
