"""A cold ``python -m ellbundle`` process imports only what its verb needs.

Each case runs in a fresh interpreter under ``-X importtime``, whose stderr
names every module the process imports.  A bare ``python -c pass`` gives
the baseline that interpreter start-up loads anyway.  That baseline includes
what the ``.pth`` files of site-packages import, which can be ``typing``, so
the probes for ``typing`` run under ``-S``, without the site module.
argparse, with the ``gettext`` and ``locale`` it pulls in, is loaded only for
help and for argv the CLI's fast path leaves to it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
# Modules a `rank` query has no use for.
HEAVY = {"ellbundle.kring", "ellbundle.jordan", "json", "dataclasses", "string"}


def run_full(*args: str) -> tuple[int, str, str, set[str]]:
    """Exit code, stdout, stderr and imported modules of a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *args], capture_output=True, env=env, text=True
    )
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
    assert (code, out) == (
        0,
        "[]\n['ellbundle.bundles', 'ellbundle.expr', 'ellbundle.picard']\n",
    )
