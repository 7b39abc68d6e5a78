"""Smoke test of the benchmark harness: a tiny run of each workload.

    python3 -m pytest bench/test_smoke.py

Each workload runs for one round, untraced and traced, and must check
clean and print every metric it owes.  Not part of the tier-1 suite.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300)


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == tracer.PER_LAYER
    assert SPEC["command"] == ["python3", "bench/run.py"] and SPEC["paths"] == ["bench"]


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run(workload, trace):
    done = bench("--workload", workload, "--seed", "7", "--seconds", "0.1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in table} == {k: v["unit"] for k, v in result["metrics"].items()}
    if trace == "0":
        assert any(line.split()[:1] == ["failed_frac"] and float(line.split()[1]) == 0 for line in lines)


def test_generated_text_parses_and_round_trips():
    pkg = run.load_package()
    rng = random.Random(3)
    for _ in range(20):
        got = workloads.power_of_sum(rng, workloads.twist_pool(rng, 3, True), lambda n, p: n >= 5, 400)
        if got is None:
            continue
        obj = workloads.to_object(pkg, got.summands)
        assert pkg.expr.parse_object(got.text) == obj
        assert pkg.expr.parse_object(pkg.expr.print_canonical(obj)) == obj


@pytest.mark.parametrize("seed", [4, 13])
def test_tensor_draw_meets_its_shapes(seed):
    plan = workloads.draw_tensor(random.Random(seed))
    lo, hi = workloads.PIECES_PER_PAIR
    shapes = workloads.TENSOR_SHAPES + workloads.CENTRE
    for (ta, tb, _, _), (a, b) in zip(shapes, plan["tensor"], strict=True):
        assert (len(a), len(b)) == (ta, tb)
        assert lo <= workloads.pieces_per_pair(a, b) <= hi
    for (size, _, _), (a, b) in zip(workloads.UNARY_SHAPES, plan["unary"], strict=True):
        assert len(a) == len(b) == size
    for (pairs, _, _), gen in zip(workloads.PARSE_SHAPES, plan["parse"], strict=True):
        assert 0.8 * pairs <= gen.pairs <= 1.25 * pairs


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "tensor", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
