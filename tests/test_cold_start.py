"""A cold ``python -m ellbundle`` process imports only what its verb needs,
and answers whole queries as it should.

The import probes run a fresh interpreter under ``-X importtime``, whose
stderr names every module the process imports.  A bare ``python -c pass``
gives the baseline that interpreter start-up loads anyway.  That baseline
includes what the ``.pth`` files of site-packages import, which can be
``typing``, so the probes for ``typing`` run under ``-S``, without the site
module.  argparse, with the ``gettext`` and ``locale`` it pulls in, is loaded
only for help and for argv the CLI's fast path leaves to it.

``COLD_QUERIES`` at the bottom is one table of whole queries, each with its
exit code, a check on its stdout (on its stderr for a refusal) and one time
limit: a new query that must keep holding end to end is one more row there.
"""

import json
import re
import time

import pytest

from ellbundle._budget import BUDGET
from ellbundle.jordan import jordan_tensor

from _runners import BUDGET_REFUSAL, run_caught, run_child

# Modules a `rank` query has no use for.
HEAVY = {"ellbundle.kring", "ellbundle.jordan", "json", "dataclasses", "string"}


def run_full(*args: str) -> tuple[int, str, str, set[str]]:
    """Exit code, stdout, stderr and imported modules of a fresh interpreter."""
    done = run_child("-X", "importtime", *args)
    modules = {
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:")
    }
    err = "".join(line + "\n" for line in done.stderr.splitlines() if not line.startswith("import time:"))
    return done.returncode, done.stdout, err, modules


def run(*args: str) -> tuple[int, str, set[str]]:
    """Exit code, stdout and imported modules of a fresh interpreter."""
    code, out, _, modules = run_full(*args)
    return code, out, modules


@pytest.fixture(scope="module")
def baseline() -> set[str]:
    code, _, modules = run("-c", "pass")
    assert code == 0
    return modules


def test_rank_loads_neither_kring_nor_jordan_nor_json_nor_dataclasses(baseline):
    code, out, modules = run("-m", "ellbundle", "rank", "E[2]")
    assert (code, out) == (0, "2\n")
    assert {"ellbundle.cli", "ellbundle.expr"} <= modules  # the probe sees the package
    assert HEAVY & (modules - baseline) == set()


def test_tensor_loads_nothing_beyond_a_rank_query(baseline):
    # big * big takes the kernel's packed path, which reads its fields
    # through int.to_bytes and memoryview: no array, struct or kring.
    big = "(E[2]*L[1/5,0] + E[3]*L[0,1/7] + Tg)^6"
    _, _, rank_modules = run("-m", "ellbundle", "rank", "E[2]")
    code, out, modules = run("-m", "ellbundle", "tensor", big, big)
    assert code == 0 and out.count(" + ") == 614  # the 615 classes of big * big
    assert modules - baseline - rank_modules == set()


def test_summands_loads_kring(baseline):
    code, out, modules = run("-m", "ellbundle", "summands", "E[2]*L[1/2,0]", "--max-power", "3")
    assert (code, out) == (0, "E[1]\nE[2]*L[1/2,0]\nE[3]\nE[4]*L[1/2,0]\nstabilized: false\n")
    assert "ellbundle.kring" in modules
    assert {"ellbundle.jordan", "json"} & (modules - baseline) == set()


def test_oracle_check_with_json_loads_jordan_and_json(baseline):
    code, out, modules = run(
        "-m", "ellbundle", "oracle-check", "E[2]*L[1/3,0]", "E[2]", "--modulus", "3", "--json"
    )
    assert code == 0
    assert out == (
        '{"components": [{"block": 1, "char": 1, "multiplicity": 1}, '
        '{"block": 3, "char": 1, "multiplicity": 1}], "inputs": ["E[2]*L[1/3,0]", "E[2]"], '
        '"modulus": 3, "ok": true, "text": "mod 3: (1,1) + (1,3)", "verb": "oracle-check"}\n'
    )
    assert {"ellbundle.jordan", "json"} <= modules
    assert "ellbundle.kring" not in modules


@pytest.mark.parametrize(
    "args",
    [
        ("summands", "E[2]*L[1/2,0]", "--max-power", "3"),
        ("group", "E[3]*L[1/3,0]", "--json"),
        ("oracle-check", "E[2]*L[1/3,0]", "E[2]", "--modulus", "3"),
    ],
)
def test_verbs_of_the_paper_layers_load_no_dataclasses(baseline, args):
    # Each verb builds a value type of kring or jordan.
    code, _, modules = run("-m", "ellbundle", *args)
    assert code == 0
    assert {"ellbundle.kring", "ellbundle.jordan"} & modules
    assert "dataclasses" not in modules - baseline


@pytest.mark.parametrize(
    "args",
    [
        ("rank", "E[2]"),
        ("summands", "E[2]*L[1/2,0]", "--max-power", "3"),
        ("oracle-check", "E[2]*L[1/3,0]", "E[2]", "--modulus", "3", "--json"),
    ],
)
def test_verbs_never_import_typing(args):
    code, _, modules = run("-S", "-m", "ellbundle", *args)
    assert code == 0
    assert "ellbundle.cli" in modules
    assert "typing" not in modules


@pytest.mark.parametrize("flags", [(), ("-S",)], ids=["site", "no-site"])
def test_rank_builds_no_argument_parser(baseline, flags):
    code, out, modules = run(*flags, "-m", "ellbundle", "rank", "E[2]")
    assert (code, out) == (0, "2\n")
    assert "ellbundle.cli" in modules
    # Under -S the baseline holds what site imports, so the probe takes all.
    seen = modules if flags else modules - baseline
    assert {"argparse", "gettext", "locale"} & seen == set()


def test_help_still_reaches_argparse():
    code, out, err, modules = run_full("-m", "ellbundle", "-h")
    assert (code, err) == (0, "")
    assert out.startswith("usage: ellbundle [-h] VERB ...\n")
    assert "argparse" in modules


def test_unknown_verb_still_reaches_argparse():
    code, out, err, _ = run_full("-m", "ellbundle", "nosuchverb")
    assert (code, out) == (2, "")
    assert err.startswith("usage: ellbundle")


def test_the_package_loads_a_layer_on_first_lookup():
    script = (
        "import sys, ellbundle\n"
        "def layers(): return sorted(m for m in sys.modules if m.startswith('ellbundle.'))\n"
        "print(layers()); ellbundle.parse_object; print(layers())\n"
    )
    code, out, _ = run("-c", script)
    # expr and the layers below it, with the work budget they draw from.
    assert (code, out) == (
        0,
        "[]\n['ellbundle._budget', 'ellbundle.bundles', 'ellbundle.expr', 'ellbundle.picard']\n",
    )


BIG = "(E[2]*L[1/5,0] + E[3]*L[0,1/7] + Tg)"
# Seconds any one query may take, in either runner.
TIME_LIMIT = 20


FREE_TWISTS = "+".join(f"T{name}" for name in "abcdefghijkl")


def oracle_agrees(out: str) -> bool:
    return out.startswith("ok: mod 1:")


def refused(err: str) -> bool:
    return re.fullmatch(BUDGET_REFUSAL, err) is not None


# id: (fresh process?, argv, exit code, check on stdout, or on stderr for a
# refusal).  A row runs in a fresh process when a cold start is its point:
# the imports its verb makes, the value types it builds, or an answer that
# must not lean on what earlier queries left behind.  The rest run main in
# this process, after clearing the oracle's cache.
COLD_QUERIES = {
    # The closure workload's reference query: 1,680 classes, one a line.
    "closure-reference": (
        False, ["summands", "E[3]*L[1/6,0] + E[2]*L[0,1/5]", "--max-power", "32"], 0,
        lambda out: len(lines := out.splitlines()) == 1681 and lines[-1] == "stabilized: false",
    ),
    # A free twist: the closure gains a twist row at every power.  E[5]^n
    # has the odd ranks 1 .. 4n+1 for n >= 2, so 1 + (5 + 7 + ... + 49) classes.
    "free-twist-closure": (
        True, ["summands", "E[5]*Ta", "--max-power", "24", "--json"], 0,
        lambda out: len((rec := json.loads(out))["classes"]) == 622 and rec["stabilized"] is False,
    ),
    "closedform": (
        True, ["closedform", "E[2]*L[1/4,0]", "--json"], 0,
        lambda out: (rec := json.loads(out))["kind"] == "CYCLIC_RANK_PARITY" and rec["order"] == 4,
    ),
    # BundleObject products and sums; the product has rank 6^3 * 3.
    "tensor": (
        True, ["tensor", f"{BIG}^3", "E[2]*L[1/3,0] + Tg", "--json"], 0,
        lambda out: sum(c["rank"] * c["multiplicity"] for c in json.loads(out)["summands"]) == 648,
    ),
    # One twist by two routes, a bare torsion class and one whose free part
    # cancels: the two keys of the object's map must merge.
    "twist-merge": (
        True, ["normalize", "E[2]*L[1/2,0] + E[2]*L[1/2,0]*Ta*~Ta"], 0,
        lambda out: out == "2*E[2]*L[1/2,0]\n",
    ),
    # The kernel's paths (tests/test_bundles.py::TestKernelPaths pins the
    # routes): the loop at every step of the chain, then the packed path with
    # one-limb and with two-limb fields.  6^12 and C(80, 40).
    "loop-chain": (False, ["rank", f"{BIG}^12"], 0, lambda out: out == "2176782336\n"),
    "one-limb-packed": (False, ["rank", f"{BIG}^6*{BIG}^6"], 0, lambda out: out == "2176782336\n"),
    "two-limb-packed": (
        False, ["gamma", "E[2]^40*E[2]^40"], 0, lambda out: out == "107507208733336176461620\n",
    ),
    # Equal subtrees are one node, evaluated once: the answer of BIG^3.
    "shared-factors": (
        False, ["normalize", f"{BIG}*{BIG}*{BIG}"], 0,
        lambda out: out == run_caught(["normalize", f"{BIG}^3"])[1],
    ),
    # The oracle's per-degree images on blocks larger than the acceptance
    # suite's; a long, thin pair whose sizes it swaps; and mixed parities,
    # swapped too, with both full degrees and degrees it still reduces.
    "oracle-40x40": (True, ["oracle-check", "E[40]", "E[40]", "--modulus", "1"], 0, oracle_agrees),
    "oracle-200x8": (True, ["oracle-check", "E[200]", "E[8]", "--modulus", "1"], 0, oracle_agrees),
    "oracle-61x60": (True, ["oracle-check", "E[61]", "E[60]", "--modulus", "1"], 0, oracle_agrees),
    # The work budget refuses what would run for seconds, minutes or more: a
    # power chain whose packed products outgrow it, one of multiplicities
    # 2^n times larger at every step, one whose twists multiply twelvefold,
    # a product of 10^8 summands, an oracle call on 400 x 400 blocks and a
    # Hom count over 5.7 million summand pairs.
    "budget-packed-chain": (False, ["rank", "E[300]^300"], 3, refused),
    "budget-loop-chain": (False, ["classify", "(2*E[2])^20000"], 3, refused),
    "budget-twist-chain": (False, ["rank", f"({FREE_TWISTS})^12"], 3, refused),
    "budget-product": (False, ["tensor", "E[100000000]", "E[100000000]"], 3, refused),
    "budget-oracle": (False, ["oracle-check", "E[400]", "E[400]", "--modulus", "1"], 3, refused),
    "budget-hom": (False, ["hom", "E[300]^16", "E[300]^16"], 3, refused),
    # A closure step is refused before it runs, here the first: a new row
    # entry, 200,000 shifts and the growth check on 400,002 bits, with
    # nothing drawn before it.
    "budget-closure": (
        False, ["summands", "E[200000]", "--max-power", "2"], 3,
        lambda err: refused(err) and err.endswith(f"(1253221198 units asked, {BUDGET} of {BUDGET} left)\n"),
    ),
    # ... and still answers the largest inputs that answered before it.
    "budget-e2-chain": (False, ["rank", "E[2]^2000"], 0, lambda out: out == f"{2 ** 2000}\n"),
    "budget-e100-chain": (False, ["rank", "E[100]^60*E[100]"], 0, lambda out: out == f"{100 ** 61}\n"),
    "budget-long-closure": (
        False, ["summands", "E[2]", "--max-power", "20000"], 0,
        lambda out: len(lines := out.splitlines()) == 20002 and lines[-2:] == ["E[20001]", "stabilized: false"],
    ),
}


@pytest.mark.parametrize("fresh, argv, code, check", COLD_QUERIES.values(), ids=list(COLD_QUERIES))
def test_cold_query(fresh, argv, code, check):
    start = time.perf_counter()
    if fresh:
        done = run_child("-m", "ellbundle", *argv, timeout=TIME_LIMIT)
        answer = done.returncode, done.stdout, done.stderr
    else:
        jordan_tensor.cache_clear()
        answer = run_caught(argv)
    assert time.perf_counter() - start < TIME_LIMIT
    code_seen, out, err = answer
    assert (code_seen, err if code == 0 else out) == (code, "")
    assert check(out if code == 0 else err)
