"""Pinned CLI output: exit code, stdout and stderr for a fixed set of argvs.

`cli_corpus.json` records `ellbundle.cli.main` on every verb, in text and
`--json`, over inputs with mixed and negative fractions, powered twists, free
generators, `O`, `Z` and `oracle-check --modulus`, plus the errors the CLI
reports itself.  Any change in any byte of any answer fails here.

Rebuild the file only on purpose, from the tree whose output is wanted:

    PYTHONPATH=src python tests/test_cli_corpus.py

It prints the argv of every record that differs from the file it
overwrites, so the list of changed answers comes from the tool.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from ellbundle.cli import _VERBS, main

CORPUS = Path(__file__).resolve().parent / "cli_corpus.json"

SINGLE = [
    "O",
    "Z",
    "E[3]",
    "L[1/2,1/3]",
    "L[-1/3,5/4]",
    "E[2]*L[2/6,-7/9]",
    "L[1/4,0]^3",
    "E[2]*L[-2/5,1/10]^4",
    "Ta",
    "~Tb",
    "E[2]*Ta*L[1/3,0]",
    "E[3]*Ta^2*~Tb*L[0,-1/6]",
]
SUMS = [
    "E[2] + E[1] + O",
    "(E[2]*L[1/6,1/4])^2",
    "3*E[2]*L[3/4,1/6] + ~(E[3]*L[1/2,-1/3])",
    "E[4]*L[1/7,2/7] + E[2]*L[0,1/5] + L[1/35,0]",
    "Ta^2*~Tb + E[3]*~Tb + Ta*~Ta",
    "(L[1/2,0] + Ta)^3 + Z",
]
PAIRS = [
    ("E[2]", "E[2]"),
    ("E[3]*L[1/3,-1/4]", "E[2]*L[2/3,1/4]"),
    ("L[1/2,1/3]^5 + E[2]", "~(E[2]*L[1/6,5/6]) + Z"),
    ("E[2]*Ta + L[1/5,0]", "E[3]*~Ta + E[2]*L[-1/5,0]"),
    ("Z", "E[4]*Tb"),
    ("O", "2*E[2]*L[1/12,7/12]"),
]
ORACLE = [
    ("E[2]*L[1/5,0]", "E[3]*L[2/5,0]", 5),
    ("L[1/6,0]^2 + E[2]", "E[2]*L[-5/6,0]", 6),
    ("(E[2]*L[1/4,0] + O)^2", "E[3]*L[3/4,0]", 4),
    ("E[3]", "E[2] + E[1]", 1),
    ("O", "Z", 2),
    ("E[2]*L[0,1/3]", "E[2]", 3),
    ("E[2]*Ta", "E[1]", 5),
]
ERRORS = [
    ["rank", "E["],
    ["normalize", "E[0]"],
    ["dual", "L[1/0,0]"],
    ["det", "E[2] +"],
    ["tensor", "E[2]"],
    ["ringdim", "Z"],
    ["summands", "E[2]", "--max-power", "0"],
    ["oracle-check", "E[2]", "E[1]"],
    ["oracle-check", "E[2]", "E[1]", "--modulus", "0"],
]

ONE_ARG_VERBS = (
    "normalize", "dual", "rank", "det", "gamma", "jh", "classify", "closedform", "group", "ringdim"
)


def argvs() -> list[list[str]]:
    plain = []
    for text in SINGLE + SUMS:
        plain += [[verb, text] for verb in ONE_ARG_VERBS]
        plain.append(["summands", text, "--max-power", "3"])
    for left, right in PAIRS:
        plain += [["tensor", left, right], ["hom", left, right]]
    for left, right, modulus in ORACLE:
        plain.append(["oracle-check", left, right, "--modulus", str(modulus)])
    return [argv for base in plain for argv in (base, base + ["--json"])] + ERRORS


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


RECORDS = json.loads(CORPUS.read_text(encoding="utf-8")) if CORPUS.exists() else []


def test_corpus_covers_every_verb():
    assert {record["argv"][0] for record in RECORDS} == set(_VERBS)
    assert [record["argv"] for record in RECORDS] == argvs()


@pytest.mark.parametrize("verb", sorted(_VERBS))
def test_output_is_byte_identical(verb):
    for record in RECORDS:
        if record["argv"][0] == verb:
            assert run(record["argv"]) == record


if __name__ == "__main__":
    records = [run(argv) for argv in argvs()]
    for record in records:
        if record not in RECORDS:
            print("changed:", json.dumps(record["argv"], ensure_ascii=False))
    CORPUS.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {CORPUS}")
