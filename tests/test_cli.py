"""End-to-end CLI checks: schemas, exit codes, formats, negative controls."""

import json

import pytest

from cospow import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, (json.loads(out) if out else None), err


class TestMinpoly:
    def test_success(self, capsys):
        code, doc, _ = run_json(capsys, "minpoly", "--n", "5",
                                "--form", "both")
        assert code == 0
        assert doc["n"] == "5"
        assert len(doc["closed"]) == 17
        assert doc["closed"] == doc["nested"]
        assert doc["equal"] is True
        assert doc["closed"][0] == "1"
        assert doc["closed"][16] == "32768"
        assert doc["closed"][2] == "-128"

    def test_closed_only_n2(self, capsys):
        code, doc, _ = run_json(capsys, "minpoly", "--n", "2")
        assert code == 0
        assert doc["closed"] == ["1", "0", "-2"]
        assert "nested" not in doc

    def test_nested_rejected_at_n2(self, capsys):
        code, out, err = run(capsys, "minpoly", "--n", "2",
                             "--form", "nested")
        assert code == 2
        assert out == ""
        assert "error:" in err


class TestMatrix:
    def test_odd_power(self, capsys):
        code, doc, _ = run_json(capsys, "matrix", "--n", "4", "--r", "7")
        assert code == 0
        assert doc["basis"] == "odd_cos"
        assert doc["scale"] == "1/2^6"
        assert doc["log2_denom"] == "6"
        assert doc["entries"] == [
            ["35", "21", "7", "1"],
            ["-7", "35", "-1", "-21"],
            ["-21", "1", "35", "7"],
            ["-1", "7", "-21", "35"],
        ]

    def test_reciprocal_sin_and_cos_presentations(self, capsys):
        code, doc, _ = run_json(capsys, "matrix", "--n", "4", "--r", "-3",
                                "--basis", "sin")
        assert code == 0
        assert doc["basis"] == "odd_sin"
        assert doc["scale"] == "2^3"
        assert doc["entries"][0] == ["2", "5", "7", "8"]
        code, doc, _ = run_json(capsys, "matrix", "--n", "4", "--r", "-3",
                                "--basis", "cos")
        assert code == 0
        assert doc["basis"] == "odd_cos"
        assert doc["entries"][0] == ["2", "-5", "7", "-8"]

    def test_even_power(self, capsys):
        code, doc, _ = run_json(capsys, "matrix", "--n", "4", "--r", "16")
        assert code == 0
        assert doc["basis"] == "even_cos"
        assert doc["entries"][0] == ["6434", "11424", "7888", "3808"]

    def test_unsupported_power(self, capsys):
        code, out, err = run(capsys, "matrix", "--n", "4", "--r", "-7")
        assert code == 2
        assert "unsupported power" in err

    def test_even_power_rejects_sine_basis(self, capsys):
        code, _, err = run(capsys, "matrix", "--n", "4", "--r", "16",
                           "--basis", "sin")
        assert code == 2
        assert "even" in err


class TestVerify:
    def test_success(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "--n", "4", "--r", "7")
        assert code == 0
        assert doc["ok"] is True
        assert doc["injected_error"] is False
        assert doc["precision_bits"] == "256"
        assert float(doc["residual"]) < 2.0**-128

    def test_injected_error_fails(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "--n", "4", "--r", "7",
                                "--inject-error")
        assert code == 1
        assert doc["ok"] is False
        assert doc["injected_error"] is True
        assert float(doc["residual"]) > 1e-3

    def test_bad_precision(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "4", "--r", "7",
                           "--precision", "32")
        assert code == 2
        assert "error:" in err

    def test_negative_power_verifies(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "--n", "5", "--r", "-5",
                                "--basis", "sin")
        assert code == 0
        assert doc["ok"] is True


class TestZeta:
    def test_sine_sum(self, capsys):
        code, doc, _ = run_json(capsys, "zeta", "--s", "2", "--n", "6")
        assert code == 0
        assert doc["method"] == "sine-sum"
        assert doc["s"] == "2"
        assert doc["terms_used"] == "0"
        assert doc["status"] == "ok"
        assert abs(float(doc["value"]) - 1.6449340668) < 1e-9
        assert float(doc["reference_error"]) < 1e-30

    def test_binomial_reports_tail_ratio(self, capsys):
        code, doc, _ = run_json(capsys, "zeta", "--s", "3", "--n", "4",
                                "--method", "binomial")
        assert code == 0
        assert doc["status"] == "ok"
        assert abs(float(doc["tail_ratio"]) - 0.853553390593) < 1e-9
        assert int(doc["terms_used"]) > 100

    def test_exhaustion_status(self, capsys):
        code, doc, _ = run_json(capsys, "zeta", "--s", "3", "--n", "5",
                                "--method", "binomial", "--max-terms", "7")
        assert code == 0
        assert doc["status"] == "terms-exhausted"
        assert doc["terms_used"] == "7"

    def test_weighted_methods(self, capsys):
        code, doc, _ = run_json(capsys, "zeta", "--s", "3", "--n", "8",
                                "--method", "weighted3")
        assert code == 0
        assert abs(float(doc["value"]) - 1.2020569) < 1e-3
        code, doc, _ = run_json(capsys, "zeta", "--s", "5", "--n", "8",
                                "--method", "weighted5")
        assert code == 0
        assert abs(float(doc["value"]) - 1.0369277) < 1e-3

    def test_rejects_small_s(self, capsys):
        code, _, err = run(capsys, "zeta", "--s", "0.5", "--n", "5")
        assert code == 2
        assert "s > 1" in err

    def test_weighted_method_wrong_s(self, capsys):
        code, _, err = run(capsys, "zeta", "--s", "4", "--n", "5",
                           "--method", "weighted3")
        assert code == 2
        assert "weighted3" in err


class TestSums:
    def test_even_s(self, capsys):
        code, doc, _ = run_json(capsys, "sums", "--s", "4", "--n", "5")
        assert code == 0
        assert doc["closed"] == "11008"
        assert doc["ok"] is True
        assert float(doc["gap"]) < 2.0**-128

    def test_odd_s_weights(self, capsys):
        code, doc, _ = run_json(capsys, "sums", "--s", "3", "--n", "4")
        assert code == 0
        assert "closed" not in doc
        assert doc["csc_weights"] == ["8", "20", "28", "32"]
        assert doc["ok"] is True

    @pytest.mark.parametrize("s, n", [(8, 10), (7, 11), (8, 11),
                                      (6, 12), (7, 12), (8, 12)])
    def test_large_sums_at_128_bits(self, capsys, s, n):
        """The gap is judged relative to the sum, which reaches ~1e25."""
        code, doc, _ = run_json(capsys, "sums", "--s", str(s), "--n", str(n),
                                "--precision", "128")
        assert code == 0
        assert doc["ok"] is True

    def test_out_of_range(self, capsys):
        code, _, err = run(capsys, "sums", "--s", "9", "--n", "5")
        assert code == 2
        code, _, err = run(capsys, "sums", "--s", "4", "--n", "13")
        assert code == 2

    def test_failure_path(self, capsys, monkeypatch):
        """Negative control: make the closed form lie and watch exit 1."""
        from fractions import Fraction

        from cospow.negative_power import CscPowerSum

        monkeypatch.setattr(
            cli, "S_closed_form",
            lambda s, n: CscPowerSum(s, n, scalar=Fraction(1)))
        code, doc, _ = run_json(capsys, "sums", "--s", "2", "--n", "4")
        assert code == 1
        assert doc["ok"] is False


class TestGroup:
    def test_success(self, capsys):
        code, doc, _ = run_json(capsys, "group", "--n", "4")
        assert code == 0
        assert doc["order"] == "4"
        assert doc["verdicts"] == {
            "closure": True, "identity": True, "commutative": True,
            "associative": True, "cyclic": True,
        }
        assert doc["cayley"][0] == ["1", "2", "3", "4"]
        assert len(doc["cayley"]) == 4

    def test_out_of_range(self, capsys):
        code, _, err = run(capsys, "group", "--n", "11")
        assert code == 2
        assert "error:" in err

    def test_failure_path(self, capsys, monkeypatch):
        broken = {"closure": True, "identity": True, "commutative": False,
                  "associative": True, "cyclic": True}
        monkeypatch.setattr(cli, "verify_group_axioms", lambda n: broken)
        code, doc, _ = run_json(capsys, "group", "--n", "4")
        assert code == 1
        assert doc["verdicts"]["commutative"] is False


class TestFormatsAndOutput:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "sums", "--s", "3", "--n", "4",
                           "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "s,3"
        assert any(line.startswith("csc_weights,8,20,28,32")
                   for line in lines)
        assert any(line.startswith("ok,true") for line in lines)

    def test_tex_matrix(self, capsys):
        code, out, _ = run(capsys, "matrix", "--n", "4", "--r", "7",
                           "--format", "tex")
        assert code == 0
        assert r"\begin{pmatrix}" in out
        assert r"35 & 21 & 7 & 1 \\" in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "m.json"
        code, out, _ = run(capsys, "matrix", "--n", "3", "--r", "3",
                           "--out", str(target))
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["entries"] == [["3", "1"], ["-1", "3"]]

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_argument_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["matrix", "--n", "4"])
        assert exc.value.code == 2
