import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ellbundle.cli import main

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


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
        code, _, err = run(capsys, "rank", "E[0]")
        assert code == 2
        assert "rank must be at least 1" in err

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
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-m", "ellbundle", "normalize", "O^10000000"],
            capture_output=True, env=env, text=True, timeout=10,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "E[1]\n", "")

    def test_long_summand_closure_of_e2(self):
        # One closure step is a few shifts of a rank bitmask, so 8000 powers
        # of E[2] (ranks 1..8001) finish well within the timeout.
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-m", "ellbundle", "summands", "E[2]", "--max-power", "8000"],
            capture_output=True, env=env, text=True, timeout=10,
        )
        lines = done.stdout.splitlines()
        assert (done.returncode, done.stderr) == (0, "")
        assert lines[:-1] == [f"E[{k}]" for k in range(1, 8002)]
        assert lines[-1] == "stabilized: false"

    def test_329_nested_parentheses(self):
        # The deepest nesting the parser takes from a top-level script, run in
        # a fresh process so the test runner's own frames do not count.
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        script = "import sys; from ellbundle import parse_object; print(parse_object(sys.argv[1]))"
        text = "(" * 329 + "E[2]*O + Z" + ")" * 329
        done = subprocess.run(
            [sys.executable, "-c", script, text], capture_output=True, env=env, text=True
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "E[2]\n", "")


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
