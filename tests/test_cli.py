import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from ellbundle import cli
from ellbundle.cli import _VERBS, _build_parser, main
from ellbundle.jordan import jordan_tensor

from _runners import BUDGET_REFUSAL, child_env, run_caught, run_child
from _strategies import bundle_objects


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerbs:
    def test_tensor(self, capsys):
        code, out, _ = run(capsys, "tensor", "E[2]", "E[2]")
        assert (code, out) == (0, "E[1] + E[3]\n")

    def test_hom(self, capsys):
        code, out, _ = run(capsys, "hom", "E[3]", "E[5]")
        assert (code, out) == (0, "3\n")

    def test_group(self, capsys):
        code, out, _ = run(capsys, "group", "E[2]*L[1/5,0]")
        assert (code, out) == (0, "Ga x mu_5\n")

    def test_normalize(self, capsys):
        code, out, _ = run(capsys, "normalize", "O*E[2] + E[1] + E[1]")
        assert (code, out) == (0, "2*E[1] + E[2]\n")

    def test_dual(self, capsys):
        code, out, _ = run(capsys, "dual", "E[3]*L[1/3,0]")
        assert (code, out) == (0, "E[3]*L[2/3,0]\n")

    def test_rank_and_gamma(self, capsys):
        assert run(capsys, "rank", "E[3] + E[2]")[:2] == (0, "5\n")
        assert run(capsys, "gamma", "E[2] + E[3] + L[1/3,0]")[:2] == (0, "2\n")

    def test_det(self, capsys):
        assert run(capsys, "det", "E[3]*L[1/3,0]")[:2] == (0, "O\n")
        assert run(capsys, "det", "E[2]*L[1/4,0]")[:2] == (0, "L[1/2,0]\n")

    def test_jh(self, capsys):
        code, out, _ = run(capsys, "jh", "E[3]*L[1/2,0]")
        assert (code, out) == (0, "3*E[1]*L[1/2,0]\n")

    def test_classify(self, capsys):
        code, out, _ = run(capsys, "classify", "E[2]*L[1/3,0]")
        assert (code, out) == (0, "finite=false semifinite=true unipotent=false\n")

    def test_summands(self, capsys):
        code, out, _ = run(capsys, "summands", "L[1/2,0]", "--max-power", "4")
        assert code == 0
        assert out == "E[1]\nE[1]*L[1/2,0]\nstabilized: true\n"

    def test_closedform_supported(self, capsys):
        code, out, _ = run(capsys, "closedform", "E[3]")
        assert (code, out) == (0, "{E[2k-1] : k >= 1}\n")

    def test_closedform_unsupported(self, capsys):
        code, out, _ = run(capsys, "closedform", "E[2]*Tg")
        assert (code, out) == (0, "UNSUPPORTED\n")

    def test_ringdim(self, capsys):
        assert run(capsys, "ringdim", "L[1/2,0]")[:2] == (0, "0\n")
        assert run(capsys, "ringdim", "E[2]")[:2] == (0, "1\n")

    def test_oracle_check(self, capsys):
        code, out, _ = run(
            capsys, "oracle-check", "E[2]*L[1/5,0]", "E[3]*L[2/5,0]", "--modulus", "5"
        )
        assert code == 0
        assert out.startswith("ok: mod 5:")

    def test_oracle_check_large_blocks(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "E[16]", "E[16]", "--modulus", "1")
        assert code == 0
        assert out.startswith("ok: mod 1:")

    def test_rank_of_power_of_a_sum(self, capsys):
        text = "(E[2]*L[1/5,0] + E[3]*L[0,1/7] + Tg)^6"
        assert run(capsys, "rank", text)[:2] == (0, "46656\n")


class TestStructuredOutput:
    def test_tensor_record(self, capsys):
        code, out, _ = run(capsys, "tensor", "E[2]", "E[2]", "--json")
        assert code == 0
        record = json.loads(out)
        assert record["verb"] == "tensor"
        assert record["inputs"] == ["E[2]", "E[2]"]
        assert record["text"] == "E[1] + E[3]"
        assert record["summands"] == [
            {"rank": 1, "multiplicity": 1, "twist": {"t1": "0", "t2": "0", "free": {}}},
            {"rank": 3, "multiplicity": 1, "twist": {"t1": "0", "t2": "0", "free": {}}},
        ]

    def test_group_record(self, capsys):
        _, out, _ = run(capsys, "group", "E[2]*Tg", "--json")
        record = json.loads(out)
        assert record["label"] == "Ga x Gm"
        assert (record["unipotent"], record["free_rank"], record["torsion"]) == (True, 1, [])
        _, out, _ = run(capsys, "group", "E[3]*L[1/3,0]", "--json")
        record = json.loads(out)
        assert record["label"] == "Ga x mu_3"
        assert (record["unipotent"], record["free_rank"], record["torsion"]) == (True, 0, [3])
        assert "kind" not in record and "param" not in record

    def test_deterministic_output(self, capsys):
        first = run(capsys, "summands", "E[2]*L[1/3,0]", "--max-power", "5", "--json")
        second = run(capsys, "summands", "E[2]*L[1/3,0]", "--max-power", "5", "--json")
        assert first == second


class TestErrors:
    def test_parse_error_exit_code(self, capsys):
        code, out, err = run(capsys, "rank", "E[")
        assert code == 2
        assert out == ""
        assert "parse error" in err and "offset" in err

    @pytest.mark.parametrize("text, offset", [("E[²]", 2), ("E[٣]", 2), ("Tä", 1)])
    def test_non_ascii_input_is_parse_error(self, capsys, text, offset):
        code, out, err = run(capsys, "rank", text)
        assert (code, out) == (2, "")
        assert f"parse error: unexpected character {text[offset]!r} at offset {offset}" in err

    def test_validation_error_exit_code(self, capsys):
        for text, message in [("E[0]", "rank must be at least 1 at offset 2"),
                              ("T9a", "invalid generator name '9a' at offset 1")]:
            assert run(capsys, "rank", text) == (2, "", f"parse error: {message}\n")

    def test_too_long_integer_literal(self, capsys):
        code, out, err = run(capsys, "rank", "E[" + "9" * 5000 + "]")
        assert (code, out) == (2, "")
        assert err.startswith("parse error: integer literal too long (5000 digits")
        assert "at offset 2" in err

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-text limit"
    )
    @pytest.mark.parametrize("verb", ["rank", "normalize"])
    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_too_long_result(self, capsys, verb, mode):
        limit = sys.get_int_max_str_digits()
        big = "9" * limit
        code, out, err = run(capsys, verb, f"({big}*E[1])*({big}*E[1])", *mode)
        assert (code, out) == (3, "")
        assert err == f"error: result has more than {limit} digits (int-to-text limit {limit})\n"

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-to-text limit"
    )
    @pytest.mark.parametrize(
        "argv",
        [("summands", "E[2]", "--max-power"), ("oracle-check", "E[2]", "E[2]", "--modulus")],
        ids=["max-power", "modulus"],
    )
    def test_option_past_the_int_limit_is_a_usage_error(self, argv):
        # argparse reports it, as it does for --max-power=<digits>.
        code, out, err = run_caught([*argv, "9" * (sys.get_int_max_str_digits() + 1)])
        assert (code, out) == (2, "")
        assert f"error: argument {argv[-1]}: invalid int value: '999" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [("rank", "E[2]", "--modulus", "3"), ("dual", "E[2]", "--max-power", "2")],
        ids=["rank-modulus", "dual-max-power"],
    )
    def test_option_of_another_verb_is_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run(capsys, "ringdim", "Z")
        assert code == 3
        assert "zero object" in err

    def test_group_needs_single_class(self, capsys):
        code, _, err = run(capsys, "group", "E[1] + E[2]")
        assert code == 3
        assert "single indecomposable" in err

    def test_transport_domain_error(self, capsys):
        code, _, err = run(capsys, "oracle-check", "E[2]*Tg", "E[1]", "--modulus", "5")
        assert code == 3
        assert "cyclic subgroup" in err

    def test_missing_modulus(self, capsys):
        code, _, err = run(capsys, "oracle-check", "E[2]", "E[1]")
        assert code == 2
        assert "requires --modulus" in err

    def test_wrong_arity(self, capsys):
        code, _, err = run(capsys, "tensor", "E[2]")
        assert code == 2
        assert "takes 2 expression" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "rank", "--file", "/nonexistent/path")
        assert code == 2

    def test_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "exprs.txt"
        path.write_bytes(b"E[2]\xff\n")
        code, out, err = run(capsys, "rank", "--file", str(path))
        assert (code, out) == (2, "")
        assert "usage error" in err and "can't decode" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("summands", "E[", "--max-power", "0"),
            ("oracle-check", "E[2]", "E[", "--modulus", "0"),
            ("oracle-check", "E[", "E[2]"),
        ],
        ids=["max-power-0", "modulus-0", "no-modulus"],
    )
    def test_parse_error_wins_over_option_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("parse error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("modulus", ["0", "-3"])
    def test_modulus_below_one(self, capsys, modulus):
        code, out, err = run(capsys, "oracle-check", "E[2]", "E[1]", "--modulus", modulus)
        assert (code, out) == (2, "")
        assert "--modulus must be at least 1" in err

    @pytest.mark.parametrize(
        "verb, text",
        [
            ("rank", "~" * 3000 + "E[2]"),
            ("normalize", "(" * 2000 + "E[2]" + ")" * 2000),
        ],
        ids=["3000-duals", "2000-parentheses"],
    )
    def test_over_deep_expression_is_refused(self, capsys, verb, text):
        code, out, err = run(capsys, verb, text)
        assert (code, out) == (3, "")
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"recursion limit {sys.getrecursionlimit()}" in err


class TestLongInput:
    """A chain is one syntax node, so only nesting meets the recursion limit."""

    def test_1200_term_sum(self, capsys):
        assert run(capsys, "rank", " + ".join(["E[2]"] * 1200))[:2] == (0, "2400\n")

    def test_4000_term_distinct_twist_sum(self, capsys):
        text = " + ".join(f"E[2]*L[{i}/4001,0]" for i in range(4000))
        code, out, _ = run(capsys, "normalize", text)
        assert code == 0
        assert out.count(" + ") == 3999 and out.startswith("E[2] + E[2]*L[1/4001,0] + ")

    def test_huge_power_of_a_line_bundle_class(self):
        # (c*L)^n is one class, computed without a chain of n products.
        done = run_child("-m", "ellbundle", "normalize", "O^10000000", timeout=10)
        assert (done.returncode, done.stdout, done.stderr) == (0, "E[1]\n", "")

    @pytest.mark.parametrize(
        "verb, text, answer",
        [("rank", "Z^100000000000", "0\n"),
         ("classify", "(0*E[2])^100000000000", "finite=true semifinite=true unipotent=true\n")],
    )
    def test_huge_power_of_the_zero_object(self, verb, text, answer):
        # Z^n is Z for n >= 1, answered without a chain of n empty products.
        done = run_child("-m", "ellbundle", verb, text, timeout=5)
        assert (done.returncode, done.stdout, done.stderr) == (0, answer, "")

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-text limit"
    )
    def test_unprintable_power_of_a_line_bundle_class_is_refused_at_once(self):
        # classify never prints the multiplicity 2^(10^11), so only the
        # evaluator's bound stops it from computing that number.
        done = run_child("-m", "ellbundle", "classify", "(2*O)^100000000000", timeout=10)
        limit = sys.get_int_max_str_digits()
        error = f"error: result has more than {limit} digits (int-to-text limit {limit})\n"
        assert (done.returncode, done.stdout, done.stderr) == (3, "", error)

    def test_power_of_a_line_bundle_class_is_refused_at_once_with_no_int_to_text_limit(self):
        # With no digit limit to refuse 2^(10^11), its draw on the work
        # budget does: the words of c^n, squared, are far past the budget.
        done = run_child(
            "-X", "int_max_str_digits=0", "-m", "ellbundle", "classify", "(2*O)^100000000000", timeout=2
        )
        assert (done.returncode, done.stdout) == (3, "")
        assert re.fullmatch(BUDGET_REFUSAL, done.stderr)

    def test_long_summand_closure_of_e2(self):
        # One closure step is a few shifts of a rank bitmask, so 8000 powers
        # of E[2] (ranks 1..8001) finish well within the timeout.
        done = run_child("-m", "ellbundle", "summands", "E[2]", "--max-power", "8000", timeout=10)
        lines = done.stdout.splitlines()
        assert (done.returncode, done.stderr) == (0, "")
        assert lines[:-1] == [f"E[{k}]" for k in range(1, 8002)]
        assert lines[-1] == "stabilized: false"

    @pytest.mark.parametrize(
        "text, max_power",
        [
            ("E[2]", "9" * 4000),
            ("Ta+Tb+E[2]", "200"),
            ("E[200000]", "2"),
            ("+".join(f"Ta{chr(97 + i // 26)}{chr(97 + i % 26)}" for i in range(676)), "1"),
        ],
        ids=["e2-endless", "free-twists", "one-large-rank", "wide-generator"],
    )
    def test_runaway_summand_closure_is_refused(self, text, max_power):
        # The closure stops before a step it has no budget left for: the
        # first step of E[200000] shifts a 200,001-bit mask 200,000 times,
        # and that of 676 free twists makes 676 * 676 row entries.  One line
        # on stderr names the budget, and the exit code is 3.
        done = run_child("-m", "ellbundle", "summands", text, "--max-power", max_power, timeout=10)
        assert (done.returncode, done.stdout) == (3, "")
        assert re.fullmatch(BUDGET_REFUSAL, done.stderr)

    def test_329_nested_parentheses(self):
        # The deepest nesting the parser takes from a top-level script, run in
        # a fresh process so the test runner's own frames do not count.
        script = "import sys; from ellbundle import parse_object; print(parse_object(sys.argv[1]))"
        text = "(" * 329 + "E[2]*O + Z" + ")" * 329
        done = run_child("-c", script, text)
        assert (done.returncode, done.stdout, done.stderr) == (0, "E[2]\n", "")

    def test_900_duals(self):
        # The evaluator takes one frame per nesting level, as the parser
        # does for '~'; a second frame per level would pass the recursion
        # limit here.  A fresh process, so the test runner's frames do not count.
        done = run_child("-m", "ellbundle", "rank", "~" * 900 + "E[2]", timeout=10)
        assert (done.returncode, done.stdout, done.stderr) == (0, "2\n", "")


def expression_texts():
    """Bounded expression text: printed objects joined by the grammar's
    operators, and at times cut short, which makes it a syntax error."""
    atoms = st.one_of(bundle_objects(max_summands=2).map(lambda obj: f"({obj})"), st.sampled_from(["O", "Z", "Ta"]))
    texts = st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from([" + ", " * "]), inner).map("".join),
            inner.map(lambda text: f"~({text})"),
            st.tuples(inner, st.integers(0, 3)).map(lambda pair: f"({pair[0]})^{pair[1]}"),
            st.tuples(st.integers(0, 3), inner).map(lambda pair: f"{pair[0]}*({pair[1]})"),
        ),
        max_leaves=5,
    )
    return st.one_of(texts, st.tuples(texts, st.integers(0, 160)).map(lambda pair: pair[0][: pair[1]]))


@st.composite
def queries(draw):
    verb = draw(st.sampled_from(list(_VERBS)))
    arity, _, _, *option = _VERBS[verb]
    argv = [verb, *draw(st.lists(expression_texts(), min_size=arity, max_size=arity))]
    for name, *_ in option:
        argv += [name, str(draw(st.integers(1, 6)))]
    return argv + draw(st.sampled_from([[], ["--json"]]))


def test_no_input_hangs_or_leaks_a_traceback():
    start = time.perf_counter()

    @settings(max_examples=100, deadline=None)
    @given(queries())
    def answer(argv):
        jordan_tensor.cache_clear()
        code, _, err = run_caught(argv)
        assert code in (0, 1, 2, 3)
        assert err.count("\n") <= 1 and "Traceback" not in err

    answer()
    assert time.perf_counter() - start < 10


class TestFileInput:
    def test_expressions_from_file(self, capsys, tmp_path):
        path = tmp_path / "exprs.txt"
        path.write_text("E[2]*L[1/3,0]\n\nE[1]*L[1/3,0]\n")
        code, out, _ = run(capsys, "tensor", "--file", str(path))
        assert (code, out) == (0, "E[2]*L[2/3,0]\n")

    def test_file_and_args_conflict(self, capsys, tmp_path):
        path = tmp_path / "exprs.txt"
        path.write_text("E[1]\n")
        code, _, err = run(capsys, "rank", "E[1]", "--file", str(path))
        assert code == 2
        assert "not both" in err


class TestOutputFailure:
    """An answer that cannot be written is one line on stderr and exit 3; an
    error line that cannot be written keeps its own code."""

    def test_closed_pipe(self):
        command = [sys.executable, "-m", "ellbundle", "summands", "E[2]", "--max-power", "20000"]
        with subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env()
        ) as proc:
            # 20001 lines are far more than a pipe buffers, so the child is
            # still writing when the read end closes.
            assert proc.stdout.readline() == b"E[1]\n"
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (3, b"error: cannot write output: [Errno 32] Broken pipe\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device(self):
        with open("/dev/full", "w") as full:
            done = run_child("-m", "ellbundle", "rank", "E[2]", stdout=full, timeout=10)
        error = "error: cannot write output: [Errno 28] No space left on device\n"
        assert (done.returncode, done.stderr) == (3, error)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [["-h"], ["rank", "-h"]], ids=["help", "verb-help"])
    def test_help_that_cannot_be_written(self, argv):
        # argparse's own write of the help drops its OSError.
        with open("/dev/full", "w") as full:
            done = run_child("-m", "ellbundle", *argv, stdout=full, timeout=10)
        error = "error: cannot write output: [Errno 28] No space left on device\n"
        assert (done.returncode, done.stderr) == (3, error)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize(
        "text, full_stdout, code",
        [("E[", False, 2), ("E[2]", True, 3)],
        ids=["parse-error", "lost-answer"],
    )
    def test_error_line_that_cannot_be_written_keeps_its_code(self, text, full_stdout, code):
        with open("/dev/full", "w") as full:
            done = run_child(
                "-m", "ellbundle", "rank", text,
                stdout=full if full_stdout else subprocess.PIPE, stderr=full, timeout=10,
            )
        assert (done.returncode, done.stdout) == (code, None if full_stdout else "")


USAGE = "usage: ellbundle [-h] VERB ...\n"
SUMMANDS_E2_3 = "E[1]\nE[2]\nE[3]\nE[4]\nstabilized: false\n"
# argv argparse owns, with (exit code, stdout, stderr) as main gave them before
# it had a fast path: Python 3.11, COLUMNS=80.
ARGPARSE_OWNED = {
    "help": (["-h"], (0, USAGE + """
Exact calculator for degree-0 vector bundles on an elliptic curve.

positional arguments:
  VERB
    normalize   canonical normal form of an expression
    tensor      tensor product of two objects
    dual        dual object
    rank        total rank
    det         determinant line bundle class
    hom         dimension of the Hom space
    gamma       dimension of the space of global sections
    jh          Jordan-Holder factors (semisimplification)
    classify    finite / semifinite / unipotent flags
    summands    indecomposable summands of tensor powers
    closedform  closed form of the summand closure, if known
    group       Tannakian group label of a single indecomposable
    ringdim     Krull dimension class of the generated subring
    oracle-check
                compare the tensor against the linear-algebra oracle

options:
  -h, --help    show this help message and exit
""", "")),
    "verb-help": (["rank", "-h"], (0, """\
usage: ellbundle rank [-h] [--json] [--file PATH] [EXPR ...]

positional arguments:
  EXPR

options:
  -h, --help   show this help message and exit
  --json       emit a structured JSON record
  --file PATH  read expressions from PATH, one per line
""", "")),
    "unknown-verb": (["nosuchverb", "E[2]"], (2, "", USAGE + (
        "ellbundle: error: argument VERB: invalid choice: 'nosuchverb' (choose from "
        "'normalize', 'tensor', 'dual', 'rank', 'det', 'hom', 'gamma', 'jh', 'classify', "
        "'summands', 'closedform', 'group', 'ringdim', 'oracle-check')\n"
    ))),
    "empty": ([], (2, "", USAGE + "ellbundle: error: the following arguments are required: VERB\n")),
    "bad-int": (["summands", "E[2]", "--max-power", "x"], (2, "", (
        "usage: ellbundle summands [-h] [--json] [--file PATH] [--max-power N]\n"
        "                          [EXPR ...]\n"
        "ellbundle summands: error: argument --max-power: invalid int value: 'x'\n"
    ))),
    "split-run": (["tensor", "E[2]", "--json", "E[2]"], (
        2, "", USAGE + "ellbundle: error: unrecognized arguments: E[2]\n"
    )),
    "abbreviation": (["summands", "E[2]", "--max-p", "3"], (0, SUMMANDS_E2_3, "")),
    "equals": (["summands", "E[2]", "--max-power=3"], (0, SUMMANDS_E2_3, "")),
    "double-dash": (["rank", "--", "E[2]"], (0, "2\n", "")),
}
ARGPARSE_OWNED["long-help"] = (["--help"], ARGPARSE_OWNED["help"][1])


class TestArgparseOwned:
    """The fast path takes well-formed queries only; argparse answers the rest."""

    @pytest.mark.parametrize("argv", [v[0] for v in ARGPARSE_OWNED.values()], ids=list(ARGPARSE_OWNED))
    def test_same_answer_as_argparse_alone(self, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        answer = run_caught(argv)
        monkeypatch.setattr(cli, "_fast_args", lambda argv: None, raising=False)
        assert answer == run_caught(argv)

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="texts recorded with Python 3.11")
    @pytest.mark.parametrize("argv, answer", list(ARGPARSE_OWNED.values()), ids=list(ARGPARSE_OWNED))
    def test_recorded_answer(self, monkeypatch, argv, answer):
        monkeypatch.setenv("COLUMNS", "80")
        assert run_caught(argv) == answer

    @pytest.mark.parametrize(
        "argv",
        [
            ["rank", "E[2]"],
            ["tensor", "--json", "E[2]", "L[1/2,0]"],
            ["summands", "E[2]", "--max-power", "3", "--json"],
            ["oracle-check", "E[2]", "E[1]", "--json", "--modulus", "3"],
            ["hom", "--file", "exprs.txt"],
        ],
    )
    def test_well_formed_queries_take_the_fast_path(self, argv):
        assert vars(cli._fast_args(argv)) == vars(_build_parser().parse_args(argv))

    TOKENS = [*_VERBS, "nosuchverb", "--json", "--file", "--max-power", "--modulus", "--max-p",
              "--max-power=3", "-h", "--", "-3", "3", "٣", "", "E[2]", "L[1/2,0]"]

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(TOKENS), max_size=7))
    @example(["summands", "E[2]", "--max-power", "9" * 5000])
    def test_fast_path_agrees_with_argparse(self, argv):
        fast = cli._fast_args(argv)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                parsed = vars(_build_parser().parse_args(argv))
            except SystemExit:
                parsed = None
        assert fast is None or vars(fast) == parsed
