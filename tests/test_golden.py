"""Golden digests of the routines that share the weight polynomials, the
level angle table and the tangent-series kernel.

Each case hashes the exact mpf bits (man, exp) of every output, plus term
counts and convergence flags for the series, so a rewritten formula must
keep the same expression and the same summation order. The exact cases
hash the integer and rational outputs. The CLI cases hash the whole
stdout of `cospow sums` and `cospow zeta`. All digests were recorded
before these routines were rewritten to share one definition each.
"""

import hashlib
from fractions import Fraction

import pytest

from cospow import cli
from cospow.exact import EvalContext
from cospow.minpoly import verify_minpoly_roots
from cospow.negative_power import (
    S_closed_form,
    direct_csc_power_sum,
    first_row_sum_identity,
    matrix_neg3,
    matrix_neg3_entry,
    matrix_neg5,
    row1_neg3,
    row1_neg5,
)
from cospow.series import (
    csc_power_series_result,
    generalized_cos_series,
    generalized_sin_series,
    sec_power_series_result,
)
from cospow.zeta import (
    csc3_weight,
    csc5_weight,
    finite_level_identity,
    zeta3_weighted,
    zeta5_weighted,
    zeta_sine_sum,
)

LEVELS = range(3, 9)
PRECISIONS = (128, 256)
POWERS = range(2, 9)
SERIES_R = (-3, 3, Fraction(1, 2), Fraction(-5, 2), 2.5)
SERIES_THETA = (Fraction(1, 5), Fraction(2, 5))
# csc^r at t needs |sin t| > |cos t|
CSC_THETA = (Fraction(7, 5),)


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


def _bits(x):
    return None if x is None else x.man_exp


def _zeta_bits(res):
    return (_bits(res.value), _bits(res.reference_error), res.terms_used,
            res.status)


def _series_bits(res):
    return (_bits(res.value), res.terms_used, res.converged)


def _exact_outputs():
    out = []
    for n in LEVELS:
        dim = 2 ** (n - 2)
        js = range(1, dim + 1)
        out.append([csc3_weight(n, j) for j in js])
        out.append([csc5_weight(n, j) for j in js])
        out.append([row1_neg3(n, j) for j in js])
        if n >= 4:
            out.append([row1_neg5(n, j) for j in js])
        for s in (3, 5, 7):
            out.append(S_closed_form(s, n).csc_weights)
        out.append(matrix_neg3(n).entries)
        out.append(matrix_neg5(n).entries)
        out.append([matrix_neg3_entry(i, j, n) for i in js for j in js])
    return out


def _numeric_outputs(ctx):
    return {
        "direct_csc_power_sum": [
            _bits(direct_csc_power_sum(s, n, ctx))
            for s in POWERS for n in LEVELS],
        "CscPowerSum.numeric": [
            _bits(S_closed_form(s, n).numeric(ctx))
            for s in POWERS for n in LEVELS],
        "first_row_sum_identity": [
            tuple(map(_bits, first_row_sum_identity(r, n, ctx)))
            for r in (-3, -5) for n in LEVELS],
        "zeta_sine_sum": [
            _zeta_bits(zeta_sine_sum(s, n, ctx))
            for s in (2, 3, 5, 2.5) for n in LEVELS],
        "zeta_weighted": [
            _zeta_bits(f(n, ctx))
            for f in (zeta3_weighted, zeta5_weighted) for n in LEVELS],
        # a short term budget: the right side is the weighted csc sum
        "finite_level_identity": [
            (tuple(map(_bits, res[:3])), res.terms_used, res.converged)
            for s in (3, 5) for n in LEVELS
            for res in [finite_level_identity(s, n, 300, ctx)]],
        "verify_minpoly_roots": [
            _bits(verify_minpoly_roots(n, ctx)) for n in LEVELS],
    }


def _series_outputs(ctx):
    out = []
    for r in SERIES_R:
        for t in SERIES_THETA:
            theta = ctx.to_real(t)
            out.append(_series_bits(generalized_cos_series(r, theta, ctx)))
            out.append(_series_bits(generalized_sin_series(r, theta, ctx)))
            for divisor in ("cos", "sin"):
                out.append(_series_bits(sec_power_series_result(
                    r, theta, ctx, divisor=divisor)))
        for t in CSC_THETA:
            out.append(_series_bits(csc_power_series_result(
                r, ctx.to_real(t), ctx)))
    return out


EXACT_DIGEST = \
    "26a43214bdb1ce51b0f82081f5810aed7b11c1804882fbf3eb36a6f21becec00"

NUMERIC_DIGESTS = {  # (routine, precision)
    ("direct_csc_power_sum", 128):
        "f0eaa86c16a389ae4c4ce3df7d1dfb977d75e9c66d3628191a0c397cc9424d0b",
    ("CscPowerSum.numeric", 128):
        "8ea7f876b105c18171bdfe3e66c4d9b5efc0e788e624d031f4d524ebca4740d7",
    ("first_row_sum_identity", 128):
        "caccbffe23ac67873ae669e548b1bc52a257ddf2f0f17b40620960fc68c7728c",
    ("zeta_sine_sum", 128):
        "6b4ecbd16c3ae3cbef813be5dea6d00ad853c1b76c41000a9443cfcb952a91b6",
    ("zeta_weighted", 128):
        "411126017a09fec160bf0ba66f6160fbf03ede554a858075d8760278272a66d0",
    ("finite_level_identity", 128):
        "4c82359b09c170cf71c72e959f42f9351ce4e3f09fa51422f09d383a3580e6e7",
    ("verify_minpoly_roots", 128):
        "be8b9867654f71919e786cd70a790f624c11d8d3b5b67fc44aff19e7177a42b0",
    ("direct_csc_power_sum", 256):
        "d666d9fdc8690dfe4d9752afcf612fcf2fedf9ed61ec52cf68056b46751a309f",
    ("CscPowerSum.numeric", 256):
        "583d76ee45a3d4df2e3e71b8e610531f16af4ae1329908378e7464d9bdcf144f",
    ("first_row_sum_identity", 256):
        "529a173e9a6ab3e4d9e6a3a0e4a0d1629ac82428f42185e77a7521d3bc2fc646",
    ("zeta_sine_sum", 256):
        "3567076355db314e0c6cba287c660081e50f799e2bcce7ade6d4308ede10a5d4",
    ("zeta_weighted", 256):
        "5a5fd56612175b11e8a697715c205a9b9a7f3d22ca538325ba3be369168a866c",
    ("finite_level_identity", 256):
        "ca8ba003e895ab4b8b0dc1248e3c45b9325b28e3facf0bf022d9b44df17fb01d",
    ("verify_minpoly_roots", 256):
        "fbf538144eb2fd2b2b0e11c752ab33396bd63a0751ebb8c146908c822d46e068",
}

SERIES_DIGESTS = {  # precision
    128: "43b8a45fd5b287bfbf2fe88adc8c5ca6ad33d65d1371cc2c61f200f03df66451",
    256: "28875826d61c85c53767e588bd5ab16c5b01053efa2cef4bad525dcce921af75",
}

CLI_DIGESTS = {
    "sums":
        "3e197abac977b4168724f5b842b28e30cfd05a6b187dce0c81f13159427d1c88",
    "zeta sine-sum":
        "9561c7b8d419d4b7100cdd4c4ef86ee318b7c4817f67df596814440766054b79",
    "zeta weighted3":
        "abb038645fa894a3121acaf35456b10c18e462e1c9848dbcdb3beb991ce7a096",
    "zeta weighted5":
        "c82bbaeabb2004ce509ec4658d865cda0cc591dc5f1306d30202a27cf5d54a6e",
    "zeta binomial":
        "9dcb94fd34730aeef3581ca2b98a687e5d65a687dae7e73f6b528b934500e634",
}


def test_exact_outputs():
    assert _digest(_exact_outputs()) == EXACT_DIGEST


@pytest.mark.parametrize("prec", PRECISIONS)
def test_numeric_outputs(prec):
    got = _numeric_outputs(EvalContext(prec))
    for name, values in got.items():
        assert _digest(values) == NUMERIC_DIGESTS[(name, prec)], name


@pytest.mark.parametrize("prec", PRECISIONS)
def test_series_outputs(prec):
    assert _digest(_series_outputs(EvalContext(prec))) \
        == SERIES_DIGESTS[prec]


_LEVEL_ARGS = [str(n) for n in LEVELS]
CLI_CASES = {
    "sums": [["sums", "--s", str(s), "--n", n]
             for s in POWERS for n in _LEVEL_ARGS],
    "zeta sine-sum": [["zeta", "--s", s, "--n", n]
                      for s in ("2", "3", "5", "2.5") for n in _LEVEL_ARGS],
    "zeta weighted3": [["zeta", "--s", "3", "--n", n, "--method", "weighted3"]
                       for n in _LEVEL_ARGS],
    "zeta weighted5": [["zeta", "--s", "5", "--n", n, "--method", "weighted5"]
                       for n in _LEVEL_ARGS],
    "zeta binomial": [["zeta", "--s", s, "--n", n, "--method", "binomial",
                       "--precision", "128"]
                      for s in ("2", "3") for n in ("3", "4", "5")],
}


@pytest.mark.parametrize("name", CLI_CASES)
def test_cli_stdout(capsys, name):
    chunks = []
    for argv in CLI_CASES[name]:
        cli.main(argv)
        chunks.append(capsys.readouterr().out)
    assert _digest(chunks) == CLI_DIGESTS[name]
