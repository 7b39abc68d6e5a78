import json

import pytest

from ellbundle.cli import main


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
        code, out, _ = run(capsys, "closedform", "E[3]*L[1/3,0]")
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
        assert record["kind"] == "GA_X_GM"

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
