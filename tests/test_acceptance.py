"""Acceptance gate: ten numbered criteria, one test (and one -v line) each.

Every test prints a single "PASS criterion N" summary on success (visible
under pytest -s or -rA); pytest itself supplies the pass/fail verdict per
criterion. Stated runtime ceilings are asserted, not aspirational.
"""

import json
import time

from cospow import cli
from cospow.chebyshev import (
    composition_commutes,
    verify_inverse_composition,
    verify_recursion,
)
from cospow.even_power import (
    even_matrix,
    integer_power_average,
    merca_numeric_lhs,
    merca_sum,
)
from cospow.exact import ScaledMatrix, odd_sin_basis
from cospow.minpoly import closed_minpoly, lemma_sum_identity, nested_minpoly
from cospow.negative_power import (
    S_closed_form,
    cosine_basis_variant,
    direct_csc_power_sum,
    matrix_neg1,
    matrix_neg3,
    matrix_neg5,
)
from cospow.odd_power import (
    commutes,
    conjugation_invariance,
    is_normal,
    matrix_gather,
    matrix_scatter,
    verify_group_axioms,
    verify_numeric,
)
from cospow.zeta import (
    bernoulli_limit_check,
    finite_level_identity,
    zeta3_weighted,
    zeta5_weighted,
    zeta_sine_sum,
)


def report(num: int, elapsed: float, detail: str):
    print(f"PASS criterion {num}: {detail} ({elapsed:.2f}s)")


def test_criterion_01_minimal_polynomial(ctx):
    t0 = time.perf_counter()
    f5 = closed_minpoly(5)
    assert len(f5.coeffs) == 17
    assert f5.coeffs[::2] == (1, -128, 2688, -21504, 84480, -180224,
                              212992, -131072, 32768)
    assert f5.coeffs[1::2] == (0,) * 8
    for n in range(3, 13):
        assert nested_minpoly(n) == closed_minpoly(n), n
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, elapsed, "level-5 coefficients frozen; nested = closed, n in [3,12]")


def test_criterion_02_odd_matrices():
    t0 = time.perf_counter()
    m15 = matrix_scatter(15, 4)
    assert m15.log2_denom == 14
    assert m15.entries == (
        (6434, 4990, 2898, 910),
        (-2898, 6434, -910, -4990),
        (-4990, 910, 6434, 2898),
        (-910, 2898, -4990, 6434),
    )
    m7 = matrix_scatter(7, 4)
    assert m7.log2_denom == 6
    assert m7.entries == (
        (35, 21, 7, 1),
        (-7, 35, -1, -21),
        (-21, 1, 35, 7),
        (-1, 7, -21, 35),
    )
    for n in range(2, 8):
        for r in range(1, 22, 2):
            assert matrix_scatter(r, n) == matrix_gather(r, n), (r, n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(2, elapsed, "frozen r=15/r=7 at n=4; scatter = gather, r <= 21, n <= 7")


def test_criterion_03_numeric_residuals(ctx):
    t0 = time.perf_counter()
    bound = ctx.power(ctx.two, -128)
    worst = ctx.zero
    count = 0
    for n in range(2, 8):
        for r in range(1, 22, 2):
            worst = max(worst, verify_numeric(matrix_gather(r, n), r, ctx))
            count += 1
    for n in range(3, 7):
        for r in range(2, 21, 2):
            worst = max(worst, verify_numeric(even_matrix(r, n), r, ctx))
            count += 1
    for n in range(3, 8):
        for mat, r in ((matrix_neg1(n), -1), (matrix_neg3(n), -3),
                       (matrix_neg5(n), -5)):
            worst = max(worst, verify_numeric(mat, r, ctx))
            count += 1
    assert worst < bound
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(3, elapsed,
           f"{count} matrices verified at 256 bits, max residual < 2^-128")


def test_criterion_04_even_matrices(ctx):
    t0 = time.perf_counter()
    m4 = even_matrix(16, 4)
    assert m4.log2_denom == 15
    assert m4.entries == (
        (6434, 11424, 7888, 3808),
        (6434, -3808, -7888, 11424),
        (6434, 3808, -7888, -11424),
        (6434, -11424, 7888, -3808),
    )
    m5 = even_matrix(16, 5)
    assert m5.log2_denom == 15
    assert m5.entries == (
        (6435, 11440, 8008, 4368, 1820, 560, 120, 16),
        (6435, -560, -120, 11440, -1820, -16, 8008, -4368),
        (6435, -4368, 120, 16, -1820, 11440, -8008, 560),
        (6435, -16, -8008, 560, 1820, -4368, -120, 11440),
        (6435, 16, -8008, -560, 1820, 4368, -120, -11440),
        (6435, 4368, 120, -16, -1820, -11440, -8008, -560),
        (6435, 560, -120, -11440, -1820, 16, 8008, 4368),
        (6435, -11440, 8008, -4368, 1820, -560, 120, -16),
    )
    # the (6,6) entry circulates in print as -114400; the oracle settles it:
    # the constructed -11440 verifies, the extra zero does not
    assert m5.entries[5][5] == -11440
    assert verify_numeric(m5, 16, ctx) < ctx.power(ctx.two, -128)
    rows = [list(row) for row in m5.entries]
    rows[5][5] = -114400
    corrupted = ScaledMatrix(tuple(tuple(r) for r in rows),
                             m5.log2_denom, m5.basis)
    assert verify_numeric(corrupted, 16, ctx) > ctx.one
    elapsed = time.perf_counter() - t0
    report(4, elapsed,
           "even r=16 frozen at n=4 and n=5; -11440 correction oracle-confirmed")


def test_criterion_05_reciprocal_matrices(ctx):
    t0 = time.perf_counter()
    m1 = matrix_neg1(4)
    assert m1.log2_denom == -1
    assert m1.entries == (
        (1, -1, 1, -1),
        (-1, 1, 1, 1),
        (1, -1, 1, 1),
        (1, 1, 1, 1),
    )
    m3 = matrix_neg3(4)
    assert m3.log2_denom == -3
    assert m3.entries == (
        (2, 5, 7, 8),
        (7, 2, -8, 5),
        (5, 8, 2, -7),
        (-8, 7, -5, 2),
    )
    # row/column reversal moves each between its sine and cosine pictures
    c3 = cosine_basis_variant(m3)
    assert c3.entries == (
        (2, -5, 7, -8),
        (-7, 2, 8, 5),
        (5, -8, 2, 7),
        (8, 7, 5, 2),
    )
    assert verify_numeric(c3, -3, ctx) < ctx.power(ctx.two, -128)
    s1 = m1.reversed_rows_and_columns(odd_sin_basis(4))
    assert verify_numeric(s1, -1, ctx) < ctx.power(ctx.two, -128)
    assert s1.reversed_rows_and_columns(m1.basis) == m1
    elapsed = time.perf_counter() - t0
    report(5, elapsed,
           "1/cos and 1/sin^3 frozen at n=4; both presentations reproduced")


def test_criterion_06_group_structure():
    t0 = time.perf_counter()
    for n in range(3, 9):
        verdicts = verify_group_axioms(n)
        assert all(verdicts.values()), (n, verdicts)
    powers = (1, 3, 5, 7, 9, 11, 13, 15)
    for n in (4, 5):
        mats = [matrix_scatter(r, n) for r in powers]
        for m in mats:
            assert is_normal(m)
        for a in mats:
            for b in mats:
                assert commutes(a, b)
        for m in mats[:3]:
            for a in range(1, m.dim + 1):
                assert conjugation_invariance(m, a)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(6, elapsed,
           "axioms + cyclicity n in [3,8]; 8 powers normal, commuting, "
           "conjugation-invariant at n in {4,5}")


def test_criterion_07_identity_suite():
    t0 = time.perf_counter()
    for r in range(1, 65):
        for k in range(1, r + 1):
            lhs, rhs = lemma_sum_identity(r, k)
            assert lhs == rhs, (r, k)
    assert verify_recursion(16)
    for i in range(1, 9):
        for j in range(1, 9):
            assert composition_commutes(i, j)
    for n in range(3, 7):
        for i in range(1, 2 ** (n - 2) + 1):
            assert verify_inverse_composition(i, n), (i, n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(7, elapsed, "summation lemma k <= r <= 64; recursion i <= 16; "
                       "commuting compositions; exact inverses mod f_n, n <= 6")


def test_criterion_08_power_sums(ctx):
    t0 = time.perf_counter()
    bound = ctx.power(ctx.two, -100)
    for s in range(2, 9):
        for n in range(3, 9):
            gap = ctx.fabs(S_closed_form(s, n).numeric(ctx)
                           - direct_csc_power_sum(s, n, ctx))
            assert gap < bound, (s, n)
    cases = [(2, 1), (2, 5), (3, 1), (3, 4), (4, 1), (4, 5), (5, 2), (5, 7),
             (6, 3), (7, 2), (7, 9), (8, 8), (9, 4), (10, 11), (11, 11),
             (12, 6), (13, 15), (16, 17), (17, 3), (25, 30)]
    assert len(cases) == 20 and any(p >= bign for bign, p in cases)
    for bign, p in cases:
        gap = ctx.fabs(ctx.to_real(merca_sum(bign, p))
                       - merca_numeric_lhs(bign, p, ctx))
        assert gap < bound, (bign, p)
    for n in range(2, 7):
        for p in range(1, 41):
            val = integer_power_average(p, n)
            num = ctx.zero
            for i in range(1, 2 ** (n - 2) + 1):
                num += ctx.power(
                    2 * ctx.cos(ctx.pi * (2 * i - 1) / 2**n), 2 * p)
            num /= 2 ** (n - 2)
            # the integers hit ~2^76 by p=40: relative comparison required
            rel = ctx.fabs(num - val) / ctx.to_real(val)
            assert rel < bound, (p, n)
    elapsed = time.perf_counter() - t0
    report(8, elapsed, "S(s,n) closed forms, 20 finite sums with wraparound, "
                       "integer power averages to p=40")


def test_criterion_09_zeta_suite(ctx):
    t0 = time.perf_counter()
    # s = 2 is exact at every level: the identity leaves only rounding
    # noise, which has no usable ordering, so the decrease requirement
    # becomes an absolute bound there
    for n in range(5, 13):
        assert zeta_sine_sum(2, n, ctx).reference_error \
            < ctx.power(ctx.two, -100), n
    for s in (3, 4, 5):
        errs = [zeta_sine_sum(s, n, ctx).reference_error
                for n in range(5, 13)]
        for a, b in zip(errs, errs[1:]):
            assert b < a, s
    assert zeta_sine_sum(3, 12, ctx).reference_error < ctx.to_real(1e-4)
    assert zeta3_weighted(12, ctx).reference_error < ctx.to_real(1e-4)
    assert zeta5_weighted(12, ctx).reference_error < ctx.to_real(1e-4)
    for s_odd in (3, 5):
        for n in (4, 5, 6):
            li = finite_level_identity(s_odd, n, 20000, ctx)
            assert li.converged, (s_odd, n)
            assert li.gap < ctx.power(ctx.two, -40), (s_odd, n)
    # j = 1 closes to exactly 1/2 at every level, so both gaps sit at
    # truncation noise with no factor-4 ordering; accept either shape
    tiny = ctx.power(ctx.two, -80)
    for j in (1, 2):
        g4 = bernoulli_limit_check(j, 4, 20000, ctx).gap
        g6 = bernoulli_limit_check(j, 6, 20000, ctx).gap
        assert (g6 * 4 < g4) or (g4 < tiny and g6 < tiny), j
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(9, elapsed, "sine-sum convergence, weighted zeta(3)/zeta(5), "
                       "level identities, Bernoulli limits")


def test_criterion_10_cli_round_trip(capsys):
    t0 = time.perf_counter()

    def run(*argv):
        code = cli.main(list(argv))
        out = capsys.readouterr().out
        return code, (json.loads(out) if out else None)

    # one success, one verification-failure injection, one bad argument,
    # schema-checked output throughout
    code, doc = run("minpoly", "--n", "5", "--form", "both")
    assert code == 0 and doc["equal"] is True and len(doc["closed"]) == 17
    code, _ = run("minpoly", "--n", "2", "--form", "nested")
    assert code == 2

    code, doc = run("matrix", "--n", "4", "--r", "15")
    assert code == 0 and doc["entries"][0] == ["6434", "4990", "2898", "910"]
    assert doc["scale"] == "1/2^14"
    code, _ = run("matrix", "--n", "4", "--r", "-7")
    assert code == 2

    code, doc = run("verify", "--n", "4", "--r", "16")
    assert code == 0 and doc["ok"] is True
    code, doc = run("verify", "--n", "4", "--r", "16", "--inject-error")
    assert code == 1 and doc["ok"] is False
    code, doc = run("verify", "--n", "4", "--r", "7", "--precision", "16")
    assert code == 2

    code, doc = run("zeta", "--s", "3", "--n", "6", "--method", "weighted3")
    assert code == 0 and doc["status"] == "ok"
    assert abs(float(doc["value"]) - 1.202057) < 1e-2
    code, _ = run("zeta", "--s", "1.0", "--n", "6")
    assert code == 2

    code, doc = run("sums", "--s", "6", "--n", "4")
    assert code == 0 and doc["ok"] is True and "closed" in doc
    code, _ = run("sums", "--s", "9", "--n", "4")
    assert code == 2

    code, doc = run("group", "--n", "5")
    assert code == 0 and all(doc["verdicts"].values())
    assert len(doc["cayley"]) == 8
    code, _ = run("group", "--n", "2")
    assert code == 2

    elapsed = time.perf_counter() - t0
    report(10, elapsed, "all six commands: success, failure injection, "
                        "bad-argument rejection")
