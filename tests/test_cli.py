"""End-to-end CLI checks: schemas, exit codes, formats, negative controls."""

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cospow import cli, exact
from cospow.exact import EvalContext


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

    def test_forms_that_differ_exit_1(self, capsys, monkeypatch):
        """A nested form that differs from the closed one fails the
        command with exit 1; the output is what an agreeing run prints,
        with the differing coefficient and "equal": false."""
        code, agreed, _ = run(capsys, "minpoly", "--n", "3", "--form", "both")
        assert code == 0
        right = cli.nested_minpoly(3).coeffs
        wrong = exact.IntPolynomial((*right[:-1], right[-1] + 1))
        monkeypatch.setattr(cli, "nested_minpoly", lambda n: wrong)
        code, out, err = run(capsys, "minpoly", "--n", "3", "--form", "both")
        assert code == 1
        assert err == ""
        assert out == agreed.replace('"8"\n  ],\n  "equal": true',
                                     '"9"\n  ],\n  "equal": false')
        assert out != agreed

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

    @pytest.mark.parametrize("argv", [
        "--n 4 --r 129", "--n 4 --r 65 --precision 64",
        "--n 12 --r 4095 --precision 64", "--n 4 --r 129 --basis sin",
        "--n 9 --r 4095 --basis sin --precision 64",
        "--n 3 --r 130 --precision 128", "--n 8 --r -5 --basis sin",
        "--n 11 --r -3", "--n 5 --r -1 --basis sin --precision 64",
    ])
    def test_injected_error_fails_where_the_matrix_passes(self, capsys,
                                                         argv):
        """--inject-error moves the value, not the entry, by one unit, so a
        matrix that passes fails once corrupted at any served r and
        precision. One unit of entry [0][0] is 2^-log2_denom of the value:
        the first three requests passed with it."""
        argv = ["verify", *argv.split()]
        code, doc, _ = run_json(capsys, *argv)
        assert (code, doc["ok"]) == (0, True)
        code, doc, _ = run_json(capsys, *argv, "--inject-error")
        assert (code, doc["ok"], doc["injected_error"]) == (1, False, True)

    def test_bad_precision(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "4", "--r", "7",
                           "--precision", "32")
        assert code == 2
        assert "error:" in err

    def test_level_cap(self, capsys):
        # 2^38 x 2^38 would never finish; the cap answers before building
        code, out, err = run(capsys, "verify", "--n", "40", "--r", "3")
        assert code == 2
        assert out == ""
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


def test_shared_context_keeps_its_precision(capsys, monkeypatch):
    """verify, sums and zeta leave the mpmath context shared at each
    precision at that precision, whatever they evaluate in it."""
    monkeypatch.setattr(exact, "_SHARED", {})
    for argv in (("verify", "--n", "6", "--r", "7"),
                 ("verify", "--n", "5", "--r", "-5", "--precision", "128"),
                 ("verify", "--n", "5", "--r", "4"),
                 ("verify", "--n", "5", "--r", "5", "--basis", "sin"),
                 ("sums", "--s", "3", "--n", "6", "--precision", "128"),
                 ("zeta", "--s", "2.5", "--n", "6"),
                 ("zeta", "--s", "3", "--n", "5", "--method", "binomial",
                  "--precision", "192")):
        code, _, _ = run(capsys, *argv)
        assert code == 0, argv
    assert sorted(exact._SHARED) == [128, 192, 256]
    for prec, (mp, _) in exact._SHARED.items():
        assert mp.prec == prec


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

    def test_level_11_served(self, capsys):
        code, doc, _ = run_json(capsys, "group", "--n", "11")
        assert code == 0
        assert all(doc["verdicts"].values())
        assert len(doc["cayley"]) == 512
        assert all(len(row) == 512 for row in doc["cayley"])

    def test_out_of_range(self, capsys):
        code, out, err = run(capsys, "group", "--n", "13")
        assert code == 2
        assert out == ""
        assert err == "error: group supports n in [3, 12]\n"

    def test_failure_path(self, capsys, monkeypatch):
        broken = {"closure": True, "identity": True, "commutative": False,
                  "associative": True, "cyclic": True}
        monkeypatch.setattr(cli, "verify_group_axioms",
                            lambda n, table: broken)
        code, doc, _ = run_json(capsys, "group", "--n", "4")
        assert code == 1
        assert doc["verdicts"]["commutative"] is False


class TestCaps:
    def test_matrix_level_cap(self, capsys):
        code, out, err = run(capsys, "matrix", "--n", "40", "--r", "3")
        assert code == 2
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize("command", ["matrix", "verify"])
    @pytest.mark.parametrize("r", ["100000001", "-4097", "4097"])
    def test_power_cap(self, capsys, command, r):
        # odd r = 100000001 ran past 20 s before the cap
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--n", "4", "--r", r)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_power_cap_admits_its_bound(self, capsys):
        code, doc, _ = run_json(capsys, "matrix", "--n", "3", "--r", "4095")
        assert code == 0
        assert doc["r"] == "4095"

    def test_zeta_level_cap(self, capsys):
        code, out, err = run(capsys, "zeta", "--s", "3", "--n", "400")
        assert code == 2
        assert out == ""
        assert "error:" in err


class TestOutputCaps:
    def test_unwritable_out_path(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "minpoly", "--n", "3",
                             "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert not target.exists()

    @pytest.mark.parametrize("n", ["15", "40", "1"])
    def test_minpoly_level_cap(self, capsys, n):
        # n = 15 printed a traceback (int-to-str limit), n = 40 raised
        # MemoryError
        start = time.perf_counter()
        code, out, err = run(capsys, "minpoly", "--n", n)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_minpoly_serves_its_cap(self, capsys):
        most = cli.SERVED["minpoly"]["n"].hi
        code, doc, _ = run_json(capsys, "minpoly", "--n", str(most))
        assert code == 0
        assert len(doc["closed"]) == 2 ** (most - 1) + 1

    @pytest.mark.parametrize("n,r", [("12", "4095"), ("12", "65")])
    def test_matrix_print_cap(self, capsys, n, r):
        # matrix --n 12 --r 4095 wrote 1.2 GB of JSON in 43 s
        start = time.perf_counter()
        code, out, err = run(capsys, "matrix", "--n", n, "--r", r)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_matrix_print_cap_admits_the_served_sizes(self, capsys):
        # the largest matrix the benchmark requests
        assert 4 ** 9 * 63 <= cli.SERVED["matrix"]["printed"].hi
        code, doc, _ = run_json(capsys, "matrix", "--n", "10", "--r", "63")
        assert code == 0
        assert len(doc["entries"]) == 2 ** 8

    @pytest.mark.parametrize("argv", [("verify", "--n", "3", "--r", "1"),
                                      ("zeta", "--s", "3", "--n", "5"),
                                      ("sums", "--s", "3", "--n", "5")])
    def test_precision_cap(self, capsys, argv):
        # verify --n 3 --r 1 at 2^20 bits ran past 40 s
        most = cli.SERVED[argv[0]]["precision"].hi
        for bits in ("1000000", str(most + 1)):
            start = time.perf_counter()
            code, out, err = run(capsys, *argv, "--precision", bits)
            assert time.perf_counter() - start < 1
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and "Traceback" not in err

    def test_precision_cap_is_served(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "--n", "3", "--r", "1",
                                "--precision",
                                str(cli.SERVED["verify"]["precision"].hi))
        assert code == 0
        assert doc["ok"] is True

    def test_precision_floor_is_evalcontexts(self):
        lowest = cli.SERVED["verify"]["precision"].lo
        assert EvalContext(lowest).precision_bits == lowest
        with pytest.raises(ValueError):
            EvalContext(lowest - 1)

    def test_level_range_messages(self, capsys):
        _, _, err = run(capsys, "sums", "--s", "4", "--n", "13")
        assert err == "error: sums supports n in [3, 12]\n"
        _, _, err = run(capsys, "group", "--n", "13")
        assert err == "error: group supports n in [3, 12]\n"


def _binomial_most(capsys, n: str) -> int:
    """The --max-terms bound the binomial method names at level n."""
    code, out, err = run(capsys, "zeta", "--s", "3", "--n", n,
                         "--method", "binomial", "--max-terms", str(10**9))
    assert code == 2
    assert out == ""
    return int(err.rsplit("<=", 1)[1])


class TestZetaGuards:
    @pytest.mark.parametrize("n,terms", [("12", "50000"), ("12", "10000"),
                                         ("11", "10000")])
    def test_binomial_work_cap(self, capsys, n, terms):
        # the default 10000 terms at n = 12 ran 41 s, only to report
        # terms-exhausted
        start = time.perf_counter()
        code, out, err = run(capsys, "zeta", "--s", "3", "--n", n,
                             "--method", "binomial", "--max-terms", terms)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "max-terms" in err

    def test_binomial_work_cap_is_served(self, capsys):
        most = _binomial_most(capsys, "5")
        code, doc, _ = run_json(capsys, "zeta", "--s", "3", "--n", "5",
                                "--method", "binomial",
                                "--max-terms", str(most))
        assert code == 0
        assert doc["status"] == "ok"

    def test_default_max_terms_served_up_to_n10(self, capsys):
        assert _binomial_most(capsys, "10") >= 10000
        assert _binomial_most(capsys, "11") < 10000

    def test_max_terms_below_one(self, capsys):
        code, out, err = run(capsys, "zeta", "--s", "3", "--n", "5",
                             "--method", "binomial", "--max-terms", "0")
        assert code == 2
        assert out == ""
        assert "max-terms" in err

    @pytest.mark.parametrize("s", ["inf", "-inf", "nan"])
    def test_non_finite_s(self, capsys, s):
        code, out, err = run(capsys, "zeta", f"--s={s}", "--n", "5")
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_huge_s(self, capsys):
        code, out, err = run(capsys, "zeta", "--s", "1e308", "--n", "5")
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_json_never_carries_nan(self, capsys):
        args = cli.build_parser().parse_args(["zeta", "--s", "3", "--n", "5"])
        with pytest.raises(ValueError):
            cli._emit({"value": float("nan")}, args)
        assert capsys.readouterr().out == ""


def _jsonable(x):
    """The writer's reference route, cli's serializer before it wrote JSON
    itself: a str copy of every int (bool aside) and Fraction, for
    json.dumps to indent."""
    if isinstance(x, bool):
        return x
    if isinstance(x, (int, Fraction)):
        return str(x)
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    return x


# the four shapes of a payload value: a scalar, a list of numbers, a list
# of rows of numbers and a dict of scalars; lists and rows may be empty
_CELLS = st.integers(-10**40, 10**40) | st.fractions()
_SCALARS = (_CELLS | st.booleans() | st.none() | st.text()
            | st.floats(allow_nan=False, allow_infinity=False))
_VALUES = (_SCALARS | st.lists(_CELLS, max_size=5)
           | st.lists(st.lists(_CELLS, max_size=3)
                      | st.tuples(_CELLS, _CELLS), min_size=1, max_size=3)
           | st.dictionaries(st.text(), _SCALARS, max_size=4))
_PAYLOADS = st.dictionaries(st.text(), _VALUES, max_size=4)


@settings(max_examples=80, deadline=None)
@given(_PAYLOADS)
def test_json_writer_matches_dumps(payload):
    assert _emitted(payload, "json") == json.dumps(
        _jsonable(payload), indent=2, allow_nan=False) + "\n"


def _cells_reference(payload):
    """The line formats' reference route, cli's walk before it streamed:
    (name, cells, rows), every cell a string."""
    def cell(x):
        if isinstance(x, bool):
            return "true" if x else "false"
        return "" if x is None else str(x)
    for key, value in payload.items():
        if isinstance(value, dict):
            for k, v in value.items():
                yield f"{key}.{k}", [cell(v)], None
        elif isinstance(value, (list, tuple)) and value \
                and isinstance(value[0], (list, tuple)):
            yield key, [], [[cell(v) for v in row] for row in value]
        elif isinstance(value, (list, tuple)):
            yield key, [cell(v) for v in value], None
        else:
            yield key, [cell(value)], None


def _csv_reference(payload) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for name, cells, rows in _cells_reference(payload):
        writer.writerow([name, *cells])
        writer.writerows(rows or ())
    return buf.getvalue()


def _tex_reference(payload) -> str:
    lines = []
    for name, cells, rows in _cells_reference(payload):
        name = name.replace("_", r"\_")
        if rows is None:
            lines.append(f"% {name}: {', '.join(cells)}")
        else:
            lines += [f"% {name}", r"\begin{pmatrix}",
                      *("  " + " & ".join(row) + r" \\" for row in rows),
                      r"\end{pmatrix}"]
    return "\n".join(lines) + "\n"


def _emitted(payload, fmt):
    args = cli.build_parser().parse_args(["group", "--n", "3",
                                          "--format", fmt])
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._emit(payload, args)
    return buf.getvalue()


_REFERENCES = {
    "json": lambda p: json.dumps(_jsonable(p), indent=2, allow_nan=False)
    + "\n",
    "csv": _csv_reference,
    "tex": _tex_reference,
}


@settings(max_examples=120, deadline=None)
@given(_PAYLOADS, st.sampled_from(sorted(_REFERENCES)))
@example({"": [1, 2]}, "csv")
@example({"": []}, "csv")
def test_streamed_writer_matches_whole_documents(payload, fmt):
    """_emit, item by item and with one text per number, writes the bytes
    the whole-document routes build: CSV quoting of names and scalars, an
    empty name before a list, rows of ints and of Fractions, and payloads
    that give no line at all."""
    assert _emitted(payload, fmt) == _REFERENCES[fmt](payload)


class TestFormatsAndOutput:
    def test_parser_keeps_no_request_state(self, capsys, tmp_path):
        """main builds its parser once per process; a request that sets
        --inject-error, --format and --out leaves nothing for the next."""
        argv = ["verify", "--n", "4", "--r", "7"]
        cli.build_parser.cache_clear()
        fresh = run(capsys, *argv)
        assert cli.build_parser() is cli.build_parser()
        out = tmp_path / "bad.csv"
        code, stdout, _ = run(capsys, *argv, "--inject-error",
                              "--format", "csv", "--out", str(out))
        assert (code, stdout) == (1, "")
        assert "injected_error,true" in out.read_text()
        assert run(capsys, *argv) == fresh
        assert fresh[0] == 0

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

    def test_tex_escapes_every_key(self, capsys):
        code, out, _ = run(capsys, "sums", "--s", "3", "--n", "4",
                           "--format", "tex")
        assert code == 0
        assert r"% csc\_weights: 8, 20, 28, 32" in out
        assert r"% closed\_numeric: " in out
        assert "csc_weights" not in out

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


# sha256 of the exact stdout of `cospow verify`/`matrix`/`group` as first
# recorded. Any change to a printed digit fails here, so a reordered oracle
# sum or a switch to fdot cannot pass silently.
DIGEST_CASES = [(15, "cos"), (31, "sin"), (16, "cos"), (-1, "cos"),
                (-1, "sin"), (-3, "cos"), (-3, "sin"), (-5, "cos"),
                (-5, "sin")]

VERIFY_DIGESTS = {  # (n, r, basis, precision)
    (8, 15, "cos", 128):
        "8423478599a5eb06e852b430a56bfcaeed56e73f8dd121346efd4a9e9e32f959",
    (8, 15, "cos", 256):
        "0a778c7096181d6b787455487dca82eec77e64cd7ac7666f3d6fca6962f4a6ba",
    (8, 15, "cos", 384):
        "bb46941f7ed7d2a8304b667b2aca9b49eadf41235000829aa2fa6bb27ca5bb71",
    (8, 31, "sin", 128):
        "5652659542fa4a04a89f71c41ae32b44f87b6bbc8d4cdc22813315a388aa2e04",
    (8, 31, "sin", 256):
        "b8f1b135836d0e0ab1d48e7862e0dccdb8e92bf13c5b7c580175a2c72e65a1f2",
    (8, 31, "sin", 384):
        "f3b6895595e832890fc1bc79c8cb6398871c303f17dbd06980c92b580ff5f589",
    (8, 16, "cos", 128):
        "0bbc3e69adaa4e786875f003cebd9e7cedd00d19a0564f6a49d4fea78359e7bc",
    (8, 16, "cos", 256):
        "0e6a896ce12b64dbba6b5e709b19f5d2b5f56ebbf42722a6a3bfb364f4060c98",
    (8, 16, "cos", 384):
        "fa47b78161a227660a095b27aac2d3cb70b381a84fd607107a0ac18412c68fd0",
    (8, -1, "cos", 128):
        "adc89cf8543c208ee04f77b0737615ae44b7dae349e05ce128768413fa1a3589",
    (8, -1, "cos", 256):
        "6d6d110c7d305e04294f9bafefc65434a61ebab62c2333fffb13286af92bf243",
    (8, -1, "cos", 384):
        "522b78aa710a7e727ba198dbc7a1c49c373a28e04bba3cb3cb30db5ad97b7c0c",
    (8, -1, "sin", 128):
        "efc62417e39a7171f2d55d2e5a161f5f0a68dc4535a56307fc02221f83a62cf9",
    (8, -1, "sin", 256):
        "49f598fe8003a10a0394de98eb9a26cf4b89009324c46fb1236dbf10f9597274",
    (8, -1, "sin", 384):
        "7bb9dae2aca16ae762161203a7db11e072ab0e41bbc34ea820fa8990aa5ee7c9",
    (8, -3, "cos", 128):
        "c58be3a366ef119ef4bb7951d7fd166f7024c11cf0c7ef889e791ef7331385ca",
    (8, -3, "cos", 256):
        "4b7973d0b5296a536ad8f9d8f11ce7ff5062eb534d27784596bd176eeab197d4",
    (8, -3, "cos", 384):
        "f31e84ac7f043bf66ce53614f92ff2e84a15965b70f3564cace9741d5eea7c1d",
    (8, -3, "sin", 128):
        "aa446594afba074f417571ab2eaef3b8af8b232f948ae0abe190358808a234fc",
    (8, -3, "sin", 256):
        "edae66aa47ac3a7d9cbaf9c2e5812aa8e5be07191c3721e9cff315510e874162",
    (8, -3, "sin", 384):
        "5194bceafc3d7b6d4f03c4d2a9ce6d3f3aa72b7e74b4778214ab9abdc5091a4b",
    (8, -5, "cos", 128):
        "0a1fbf294519113f2eca1158d9298a93c0bdd5bbc7655b1313914d6c7fd7249d",
    (8, -5, "cos", 256):
        "ebdfccf248da5ff2852732d19ed949be9266e59b3c8f76d43df8f5b4774363dc",
    (8, -5, "cos", 384):
        "c2df217af7b5b2ac16e948bca400a46590b873a8874553605931fcb8e35fdc0d",
    (8, -5, "sin", 128):
        "c73a326951dd2a247e49ef698a11a35c8195f9f6781b4c05f769b125caeb7f7d",
    (8, -5, "sin", 256):
        "cdfa728ea2fed198e8a35e50ad8b481af4e89ff7c73ce0f21445b89b9d0c0f07",
    (8, -5, "sin", 384):
        "2ba738e064da6acf2faaaacb732c025621c9d4a0a153895d8261a54ce6c910fb",
    (9, 15, "cos", 128):
        "43c6e0c53ef99328adc2c3fd4b20b9b4b1ae2519f564f7e3e64ec31b4c61585b",
    (9, 15, "cos", 256):
        "a7f594692ff2caa6d6fdb294658e105933d866d1b82fd4c1c9c48cce3e050054",
    (9, 15, "cos", 384):
        "574b0198ef81a5f0bc7f65e653fbd1e904638aba3f7326306f7a3ef28ebb182c",
    (9, 31, "sin", 128):
        "11f77d1cd33b8bd92af6075886634eabb03abc539daec681aa0fcc9458ced7d6",
    (9, 31, "sin", 256):
        "ea8f8f783e26eb3737f5e938bb0b8343281baba29c864f687ce4992d887787a5",
    (9, 31, "sin", 384):
        "461e5d06692ba62299684a5e14255d00788541ff497d8a4a66750d924b23ae90",
    (9, 16, "cos", 128):
        "7dc7ac0f1c496d4700f59e2e88a7bd2b998db90a68009c86616a68df14dff095",
    (9, 16, "cos", 256):
        "b8913b80326625f429faa53f1d01faaaf4c6ce38e30e536614e715d20e549e6f",
    (9, 16, "cos", 384):
        "9880fb42655b624f444a9019320de6c3c6e0fca43f0cc5c7eb630802f7fe39e3",
    (9, -1, "cos", 128):
        "17c332a2b8c89156135053b6f8ac73235c6a877040552a6203642a3b736403e2",
    (9, -1, "cos", 256):
        "139e1a1d654c2d3decb872e32beba8f4d216fe2bc4041c9a663d4029effe6bdf",
    (9, -1, "cos", 384):
        "0ea296ceccf72f3d24fd31b2969dcd92a96b823db954bc00629678ca9d991dd4",
    (9, -1, "sin", 128):
        "75874f8d34b81e5dfdb6f3b9dc859c4452b2f8bd2a762b596d9f35c409c92ecb",
    (9, -1, "sin", 256):
        "035ec24d9d22cd0047b01aaf9b27d21d6a498bdca272e3c8e38df92a54fe9110",
    (9, -1, "sin", 384):
        "76952125853e7e578ae19f4ac196d1ab79a29bc1cd37b7f07c1e578df1277f33",
    (9, -3, "cos", 128):
        "2bc24c76a6144c479e40f827a92e83a47f8ef0f2216020be145aff5122bff245",
    (9, -3, "cos", 256):
        "e25b51b229d08206c3f247f2eb4758f94fa4f0f11aa63e692d4d47a4a9625cd6",
    (9, -3, "cos", 384):
        "75bd6361324dbf95504a9fb4c96641ed8613a7de3011ce7d3b0907031c68ce2b",
    (9, -3, "sin", 128):
        "c79e50ca1dfd7c0814c2184456ece1c63ba7a1c36f675275eb64e43355580a37",
    (9, -3, "sin", 256):
        "126870c06d89c567a23e646a20369c6089740c4ca72e5860669675e0b4e977b0",
    (9, -3, "sin", 384):
        "83c4f802ebf027fbf6766cebbdbd61adc8a28426fd87a965aa5fd21d0ff0c713",
    (9, -5, "cos", 128):
        "40416f10af08999770b8b960c5054b942fc1ce4d8b4d0e8bc2d5a58aab5496fc",
    (9, -5, "cos", 256):
        "1940364c9f0fb1931830a22cbc6639b329648fd2d2ee90861a35e992749b0b25",
    (9, -5, "cos", 384):
        "c2ffafdbca274883f84d0cbdcfc725067e0426ac1dc29fc7d1887b00eff9df4b",
    (9, -5, "sin", 128):
        "0fc4042dbac958ba2116dc5658d65db8703395d3f355e1c193415fae4e2619cc",
    (9, -5, "sin", 256):
        "1bd75f5a3253f81d7e889e8eeb76bc6c89809931fc8283963ae45d58e0b81cf9",
    (9, -5, "sin", 384):
        "4d24e715a3c32791015778853d1dc57098855c49f9e53ef81f16207ce303b9ad",
}
MATRIX_DIGESTS = {  # (n, r, basis)
    (8, 15, "cos"):
        "1c1805ff7a9e55f246c83105e3155406f7d69505cd1fe05afc49b3fd53430870",
    (8, 31, "sin"):
        "bfc3ffd47511aedd48a703c3a490a8675bcd4004615a87b678e1d57242ddc592",
    (8, 16, "cos"):
        "3bcfe424462786d3bda1785b367a4de58c399dc4df7a09390bff14e084b9076c",
    (8, -1, "cos"):
        "da6197d0a2ecbfdd88616c87d69b6a3948ece40c9765c80c59394a359617ea52",
    (8, -1, "sin"):
        "673e70f9ed1e748debcb5404e1810fa2d738a9e9ad6437e598cb896c81173136",
    (8, -3, "cos"):
        "c3691eb2c7970836f2034418a48c70e146dd362e8f953b725c2439cc22e642c1",
    (8, -3, "sin"):
        "4c9820e1c49c99dfdc7dc708e20a18725b517065666e175bd93a48b63b041fbc",
    (8, -5, "cos"):
        "1999028164491b0aeb33f554afa964365376fddc375c94d108fb056073df311c",
    (8, -5, "sin"):
        "21d82649becb96dc7e09420314b6a1a16c158070e7d6b58634702ee06f638f2f",
    (9, 15, "cos"):
        "9faea155d1519759fcc0fd3cd83d9ddc2c88865845aaa609ee807891b7b8e28b",
    (9, 31, "sin"):
        "a6d158a8c0b8cc3c85fc79a072f312e80ac1b952cd024a01cc4ab69f6aecc2df",
    (9, 16, "cos"):
        "4c6c4ece1be8f63ec3fc5775e111a0506fd5c8c56376054fa03b8834d1025756",
    (9, -1, "cos"):
        "71a166538a34e6eafdb6a0aa9a1e2da72df70efb4e40f769c653842821cab858",
    (9, -1, "sin"):
        "de6af0f6442a9ca8a5af454d1b12561a7425538ec5fbdb60af1c6e23910b8097",
    (9, -3, "cos"):
        "bf742778f671fd40ccfa41cf28b25e5d0fdad3427ea4e5c8e170bbbc16b7723e",
    (9, -3, "sin"):
        "9c9a223b0b3f6202a615a69f0eaadeb74ecb44d91464a15d846c5b99253dd1d8",
    (9, -5, "cos"):
        "8fa76b5bc89722583909e4900cbcce776dffc725b66cae0628864970fccfac30",
    (9, -5, "sin"):
        "a2da1425ad365f103858221497d6ff849e4c53d55bfc143575565517059ae01f",
}
GROUP_DIGESTS = {
    3: "70d8ac1fae41e2fab14776e6793adb82f78515ac8d234df3af3e474ed04ef023",
    4: "cae06d32901953eb7e2bec80355e37bacb7c5d9da12df90f96c802824bb8c7c6",
    5: "1e431fca72eb1baa32aeee1ec7524016eb457b3cc5ccf9c2839bfc617d3636a8",
    6: "781c06207ccfb9c6823ec99b55bd730131702e7bf7a8d6e98e6291595e82e67c",
    7: "8946ed3193e4fb89839a5db796606e262ee8174aa6977f34cd18259687bd07d5",
    8: "93b82cf67637244455d88339e455bf0330886f8c97ce256ee98afc19e8e6f3aa",
    9: "e70a2e1016f39f6c06c12264e5329698e82e9a0c5db62bf177868303bc3df04a",
}


def _digest(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0, argv
    return hashlib.sha256(out.encode()).hexdigest()


class TestByteIdentity:
    @pytest.mark.parametrize("n", [8, 9])
    @pytest.mark.parametrize("prec", [128, 256, 384])
    def test_verify(self, capsys, n, prec):
        for r, basis in DIGEST_CASES:
            got = _digest(capsys, "verify", "--n", str(n), "--r", str(r),
                          "--basis", basis, "--precision", str(prec))
            assert got == VERIFY_DIGESTS[n, r, basis, prec], (n, r, basis)

    @pytest.mark.parametrize("n", [8, 9])
    def test_matrix(self, capsys, n):
        for r, basis in DIGEST_CASES:
            got = _digest(capsys, "matrix", "--n", str(n), "--r", str(r),
                          "--basis", basis)
            assert got == MATRIX_DIGESTS[n, r, basis], (n, r, basis)

    def test_group(self, capsys):
        for n, want in GROUP_DIGESTS.items():
            assert _digest(capsys, "group", "--n", str(n)) == want, n

    def test_verify_under_optimize(self):
        """python -O strips asserts; the row sums use none, so the
        residual keeps its bytes."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "cospow.cli", "verify", "--n", "8",
             "--r", "-1", "--basis", "sin", "--precision", "128"],
            env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout).hexdigest() \
            == VERIFY_DIGESTS[8, -1, "sin", 128]


# sha256 over the stdout of every request of _line_cases(command), each
# run with --format format, in order, recorded before the writer streamed:
# the line formats had no digest, and `minpoly --form both` prints two
# lists of one set of ints
LINE_DIGESTS = {
    ("matrix", "csv"):
        "341ecd4860d0d4ff70be86ff9c4d221431325ed2ac58f14222af1904642c7f52",
    ("matrix", "tex"):
        "91048173fe61b6fc10d156abf3a5f57a9f42f3344db1b174f80b100536fd8772",
    ("group", "csv"):
        "85286f60093d038811cf24c2bf30ca14dc398f4d0f03d6f14e2a5b832ad4aa5e",
    ("group", "tex"):
        "6b91732faefcc27b38954f14948f4933d805247cb8c6e54ebb36ac857e7b5c3d",
    ("minpoly", "json"):
        "7e7059a7d8b94d84a6abc843d51f81598fa44aef3a9e8a00cf5bbde0f37c7430",
    ("minpoly", "csv"):
        "270ca5cb2ec6ee1ad6ae74fc4482fdc498f03ff163f69a3a99272ecfe0f12b6c",
    ("minpoly", "tex"):
        "a68c31d01be61136244c034b47f854b8408ccda32cc6a51c835c56d9e8baeb12",
}


def _line_cases(command):
    if command == "matrix":
        return [["matrix", "--n", str(n), "--r", str(r), "--basis", basis]
                for n in (8, 9) for r, basis in DIGEST_CASES]
    if command == "group":
        return [["group", "--n", str(n)] for n in range(3, 10)]
    return [["minpoly", "--n", str(n), "--form", "both"]
            for n in range(5, 13)]


def _cli_env():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestStreamedOutput:
    @pytest.mark.parametrize("command, fmt", LINE_DIGESTS)
    def test_bytes(self, capsys, command, fmt):
        digest = hashlib.sha256()
        for argv in _line_cases(command):
            code, out, _ = run(capsys, *argv, "--format", fmt)
            assert code == 0, argv
            digest.update(out.encode())
        assert digest.hexdigest() == LINE_DIGESTS[command, fmt]

    @pytest.mark.parametrize("argv", [
        "matrix --n 9 --r -5 --basis sin",
        "group --n 6 --format csv",
        "minpoly --n 9 --form both --format tex",
    ])
    def test_out_file_matches_stdout(self, capsys, tmp_path, argv):
        code, out, _ = run(capsys, *argv.split())
        target = tmp_path / "out"
        assert run(capsys, *argv.split(), "--out", str(target)) \
            == (code, "", "")
        assert target.read_bytes() == out.encode()

    @pytest.mark.parametrize("argv, size", [
        ("group --n 11", 50), ("group --n 11", 0), ("verify --n 4 --r 7", 0),
    ])
    def test_reader_closing_the_pipe_early(self, argv, size):
        """A reader that stops after 50 bytes, as `| head -c 50` does, or
        before the first: the command still exits 0, with nothing on
        stderr."""
        with subprocess.Popen(
                [sys.executable, "-m", "cospow.cli", *argv.split()],
                env=_cli_env(), stdout=subprocess.PIPE,
                stderr=subprocess.PIPE) as proc:
            head = proc.stdout.read(size)
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 0
        assert len(head) == size and b'{\n  "n": '.startswith(head[:9])
        assert err == b""

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="ru_maxrss is in kB on Linux")
    def test_group_n12_peak_memory(self):
        """The largest Cayley table, 13.6 MB of JSON, is written row by
        row below 60 MB (67 MB when the whole text was built first)."""
        assert _peak_mb("group", "--n", "12") < 60

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="ru_maxrss is in kB on Linux")
    def test_minpoly_n14_peak_memory(self):
        """The largest minpoly request, two lists of 8,193 coefficients and
        20 MB of JSON, is written one coefficient at a time below 55 MB
        (69 MB when each list was built as one string)."""
        assert _peak_mb("minpoly", "--n", "14", "--form", "both") < 55


def _peak_mb(*argv) -> float:
    """Peak RSS in MB of `cospow ARGV` with stdout discarded. A wrapper
    runs the command as its only child, so RUSAGE_CHILDREN sees that run
    alone."""
    wrapper = ("import resource, subprocess, sys\n"
               "subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, "
               "check=True)\n"
               "print(resource.getrusage("
               "resource.RUSAGE_CHILDREN).ru_maxrss)")
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, sys.executable, "-m", "cospow.cli",
         *argv], env=_cli_env(), capture_output=True, text=True, check=True)
    return int(proc.stdout) / 1024


# one argv per distinct error line, recorded before the served ranges moved
# into one table; the multi-fault argv pin which check each command makes
# first
ERROR_LINES = [
    ("minpoly --n 15", "minpoly supports n in [2, 14]"),
    ("minpoly --n 1", "minpoly supports n in [2, 14]"),
    ("minpoly --n 2 --form nested",
     "the nested form starts at n = 3; n = 2 has only the closed form"),
    ("matrix --n 13 --r 1", "matrices are served for n <= 12"),
    ("matrix --n 3 --r 4097", "matrices are served for |r| <= 4096"),
    ("matrix --n 3 --r -4097", "matrices are served for |r| <= 4096"),
    ("matrix --n 1 --r 3", "odd powers require n >= 2"),
    ("matrix --n 3 --r 2 --basis sin",
     "even powers expand over the even cosine basis only"),
    ("matrix --n 2 --r 2", "even powers require n >= 3"),
    ("matrix --n 2 --r -1", "reciprocal powers require n >= 3"),
    ("matrix --n 3 --r 0", "unsupported power r=0: need odd r >= 1, even "
                           "r >= 2, or r in {-1, -3, -5}"),
    ("matrix --n 12 --r 65", "matrix serves 4^(n-2)*|r| <= 67108864; verify "
                             "checks larger matrices without printing them"),
    ("verify --n 3 --r 1 --precision 2049",
     "--precision is served up to 2048 bits"),
    ("verify --n 3 --r 1 --precision 63",
     "EvalContext requires precision_bits >= 64"),
    ("zeta --s 1 --n 5", "zeta requires finite s > 1"),
    ("zeta --s=nan --n 5", "zeta requires finite s > 1"),
    ("zeta --s 101 --n 5", "zeta supports s <= 100"),
    ("zeta --s 3 --n 2", "zeta supports n in [3, 12]"),
    ("zeta --s 3 --n 5 --max-terms 0", "zeta requires --max-terms >= 1"),
    ("zeta --s 3 --n 12 --method binomial",
     "zeta --method binomial at n = 12 serves --max-terms <= 3861"),
    ("zeta --s 3 --n 11 --method binomial",
     "zeta --method binomial at n = 11 serves --max-terms <= 7327"),
    ("zeta --s 4 --n 5 --method weighted3",
     "method weighted3 is the s = 3 sum"),
    ("zeta --s 3 --n 5 --method weighted5",
     "method weighted5 is the s = 5 sum"),
    ("sums --s 1 --n 5", "sums supports s in [2, 8]"),
    ("sums --s 9 --n 5", "sums supports s in [2, 8]"),
    ("sums --s 3 --n 13", "sums supports n in [3, 12]"),
    ("sums --s 3 --n 5 --precision 10",
     "EvalContext requires precision_bits >= 64"),
    ("group --n 2", "group supports n in [3, 12]"),
    ("group --n 13", "group supports n in [3, 12]"),
    # the print bound comes before |r| below n = 13
    ("matrix --n 0 --r 100000001",
     "matrix serves 4^(n-2)*|r| <= 67108864; verify checks larger matrices "
     "without printing them"),
    ("matrix --n 4 --r 100000001",
     "matrix serves 4^(n-2)*|r| <= 67108864; verify checks larger matrices "
     "without printing them"),
    ("matrix --n 13 --r 100000001", "matrices are served for n <= 12"),
    # verify checks precision first; zeta and sums check it last
    ("verify --n 99 --r 99999 --precision 99999",
     "--precision is served up to 2048 bits"),
    ("verify --n 99 --r 99999", "matrices are served for n <= 12"),
    ("verify --n 2 --r 2 --basis sin --precision 32",
     "EvalContext requires precision_bits >= 64"),
    ("zeta --s 3 --n 5 --precision 2049",
     "--precision is served up to 2048 bits"),
    ("zeta --s=inf --n 5", "zeta requires finite s > 1"),
    ("zeta --s=inf --n 99 --precision 99999", "zeta requires finite s > 1"),
    ("zeta --s 999 --n 99 --precision 99999 --max-terms 0",
     "zeta supports s <= 100"),
    ("zeta --s 3 --n 99 --precision 99999 --max-terms 0",
     "zeta supports n in [3, 12]"),
    ("zeta --s 3 --n 5 --precision 99999 --max-terms 0",
     "zeta requires --max-terms >= 1"),
    ("zeta --s 3 --n 12 --method binomial --precision 99999",
     "zeta --method binomial at n = 12 serves --max-terms <= 3861"),
    ("zeta --s 4 --n 5 --method weighted3 --precision 63",
     "EvalContext requires precision_bits >= 64"),
    ("sums --s 99 --n 99 --precision 99999", "sums supports s in [2, 8]"),
    ("sums --s 3 --n 99 --precision 99999", "sums supports n in [3, 12]"),
    ("minpoly --n 99 --form nested", "minpoly supports n in [2, 14]"),
]


@pytest.mark.parametrize("argv,line", ERROR_LINES)
def test_error_line(capsys, argv, line):
    code, out, err = run(capsys, *argv.split())
    assert (code, out, err) == (2, "", f"error: {line}\n")


# cheap sizes on both sides of every served range: n <= 7, |r| <= 70,
# precision <= 256 bits and --max-terms <= 2000 when served, and values
# past each cap that must be turned away before any work. Each argument is
# drawn in range five times in six, so most requests get past the checks.
CHECKED = {
    "n": (st.integers(3, 7),
          st.integers(-2, 2) | st.sampled_from([15, 40])),
    "r": (st.integers(1, 70) | st.sampled_from([-1, -3, -5]),
          st.integers(-70, 0) | st.sampled_from([4097, 10**8])),
    "precision": (st.integers(64, 256),
                  st.integers(-8, 63) | st.sampled_from([2049, 10**6])),
    "max-terms": (st.integers(1, 2000), st.integers(-2, 0)),
    "zeta s": (st.sampled_from([3.0, 5.0, 100.0]) | st.floats(1.01, 12.0),
               st.sampled_from([float("nan"), float("inf"), float("-inf"),
                                -1.0, 1.0, 100.5, 1e308])),
    "sums s": (st.integers(2, 8), st.sampled_from([-1, 0, 1, 9, 10])),
}
ARGUMENTS = {
    "minpoly": ("n",),
    "matrix": ("n", "r"),
    "verify": ("n", "r", "precision"),
    "zeta": ("zeta s", "n", "max-terms", "precision"),
    "sums": ("sums s", "n", "precision"),
    "group": ("n",),
}
CHOICES = {
    "minpoly": {"form": ("closed", "nested", "both")},
    "matrix": {"basis": ("cos", "sin")},
    "verify": {"basis": ("cos", "sin")},
    "zeta": {"method": ("sine-sum", "binomial", "weighted3", "weighted5")},
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(ARGUMENTS)))
    argv = [command]
    for name in ARGUMENTS[command]:
        served, outside = CHECKED[name]
        value = draw(outside if draw(st.integers(0, 5)) == 0 else served)
        argv.append(f"--{name.split()[-1]}={value!r}")
    for name, choices in CHOICES.get(command, {}).items():
        argv.append(f"--{name}={draw(st.sampled_from(choices))}")
    return argv


def _no_constant(name):
    raise AssertionError(f"JSON carries {name}")


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_argv_contract(argv):
    """Any request exits 0, 1 or 2; stderr is empty or one error line with
    no traceback, and stdout is JSON without NaN or an infinity. Exit 1 is
    allowed: verify at 64 bits can fail on a correct matrix."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1 \
            and err.endswith("\n"), (argv, err)
    else:
        assert err == "", argv
        json.loads(out, parse_constant=_no_constant)
