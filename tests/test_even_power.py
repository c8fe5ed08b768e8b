"""Even powers over the halved-level basis, plus the two power-sum families."""

from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st
from reference import binomial_rows, wrapped_binomial

from cospow.even_power import (
    even_first_row,
    even_matrix,
    integer_power_average,
    merca_numeric_lhs,
    merca_sum,
)
from cospow.exact import EvalContext, binom_int, even_cos_basis, quarter_fold
from cospow.odd_power import verify_numeric

R16_N4 = (
    (6434, 11424, 7888, 3808),
    (6434, -3808, -7888, 11424),
    (6434, 3808, -7888, -11424),
    (6434, -11424, 7888, -3808),
)

# level 5, r = 16: an 8x8 over 2^15. The constant column is flat; the rest
# is a signed shuffle of row 1 = central binomials C(16, 8-j).
R16_N5 = (
    (6435, 11440, 8008, 4368, 1820, 560, 120, 16),
    (6435, -560, -120, 11440, -1820, -16, 8008, -4368),
    (6435, -4368, 120, 16, -1820, 11440, -8008, 560),
    (6435, -16, -8008, 560, 1820, -4368, -120, 11440),
    (6435, 16, -8008, -560, 1820, 4368, -120, -11440),
    (6435, 4368, 120, -16, -1820, -11440, -8008, -560),
    (6435, 560, -120, -11440, -1820, 16, 8008, 4368),
    (6435, -11440, 8008, -4368, 1820, -560, 120, -16),
)


def test_frozen_r16_n4():
    m = even_matrix(16, 4)
    assert m.entries == R16_N4
    assert m.log2_denom == 15
    assert m.basis.kind == "even_cos"


def test_frozen_r16_n5():
    m = even_matrix(16, 5)
    assert m.entries == R16_N5
    assert m.log2_denom == 15


def test_r16_n5_sub_blocks():
    """The even matrix tiles into rotation-like 2x2 and 4x4 sub-blocks:
    fixed row groups against the columns j with a fixed 2-adic valuation."""
    e = even_matrix(16, 5).entries
    # valuation-1 columns (indices 2 and 6), row pairs
    blocks2 = [
        [[e[i][2], e[i][6]] for i in rows]
        for rows in ((0, 1), (2, 3), (4, 5), (6, 7))
    ]
    assert blocks2 == [
        [[8008, 120], [-120, 8008]],
        [[120, -8008], [-8008, -120]],
        [[-8008, -120], [120, -8008]],
        [[-120, 8008], [8008, 120]],
    ]
    # odd columns (1, 3, 5, 7), row quadruples
    blocks4 = [
        [[e[i][j] for j in (1, 3, 5, 7)] for i in rows]
        for rows in ((0, 1, 2, 3), (4, 5, 6, 7))
    ]
    assert blocks4 == [
        [[11440, 4368, 560, 16],
         [-560, 11440, -16, -4368],
         [-4368, 16, 11440, 560],
         [-16, 560, -4368, 11440]],
        [[16, -560, 4368, -11440],
         [4368, -16, -11440, -560],
         [560, -11440, 16, 4368],
         [-11440, -4368, -560, -16]],
    ]


def test_constant_column_flat():
    for r in (2, 6, 16, 20):
        for n in (3, 4, 5):
            m = even_matrix(r, n)
            col0 = {row[0] for row in m.entries}
            assert len(col0) == 1


def test_r0_first_row():
    assert even_first_row(0, 4) == (1, 0, 0, 0)
    assert even_first_row(0, 3) == (1, 0)


def test_r2_half_angle():
    # cos^2 t = (1 + cos 2t)/2: row 1 at level n is (1, 0, .., 1 at col 1)
    for n in (3, 4, 5):
        fr = even_first_row(2, n)
        assert fr[0] == 1 and fr[1] == 1
        assert all(v == 0 for v in fr[2:])
    m = even_matrix(2, 3)
    assert m.entries == ((1, 1), (1, -1))
    assert m.log2_denom == 1


def test_rejects_bad_r():
    with pytest.raises(ValueError):
        even_matrix(7, 4)
    with pytest.raises(ValueError):
        even_matrix(0, 4)
    with pytest.raises(ValueError):
        even_first_row(-2, 4)
    with pytest.raises(ValueError):
        even_first_row(4, 2)


def test_no_wraparound_binomial_form():
    """For 2^{n-2} >= (r+1)/2 no binomial folds past the quarter turn:
    entry 0 is C(r, r/2)/2 and entry j is C(r, r/2 - j)."""
    for n in (4, 5, 6):
        for r in range(2, 2 ** (n - 1) - 1, 2):
            if 2 ** (n - 2) < (r + 1) // 2:
                continue
            fr = even_first_row(r, n)
            assert fr[0] * 2 == binom_int(r, r // 2)
            for j in range(1, len(fr)):
                assert fr[j] == binom_int(r, r // 2 - j)


@pytest.mark.parametrize("n", range(3, 10))
def test_even_first_row_equals_reference_route(n):
    """The folded binomial row equals the reference route's alternating
    wrapped sum, half of it on the constant, at every even r up to
    2^(n+2) + 2."""
    js = range(1, 2 ** (n - 2))
    for r, row in enumerate(islice(binomial_rows(), 2 ** (n + 2) + 3)):
        if r and r % 2 == 0:
            const, *rest = even_first_row(r, n)
            assert 2 * const == wrapped_binomial(row, n, 0, 0), r
            assert rest == [wrapped_binomial(row, n, j, j) for j in js], r


@pytest.mark.parametrize("n", range(2, 9))
def test_integer_power_average_equals_reference_route(n):
    rows = islice(binomial_rows(), 2, 600, 2)
    for p, row in enumerate(rows, start=1):
        assert integer_power_average(p, n) \
            == wrapped_binomial(row, n, 0, 0), p


def test_first_row_nonnegative_decreasing():
    for n in (3, 4, 5, 6):
        for r in range(2, 2**n - 1, 2):
            fr = even_first_row(r, n)
            assert all(v >= 0 for v in fr)
            # weakly decreasing past the constant slot
            assert all(fr[j] >= fr[j + 1] for j in range(1, len(fr) - 1))


def test_numeric_residuals(ctx):
    for n in (3, 4, 5):
        for r in (2, 8, 14, 20):
            m = even_matrix(r, n)
            assert verify_numeric(m, r, ctx) < ctx.power(ctx.two, -128)


MERCA_CASES = [
    (2, 1), (2, 5), (3, 1), (3, 4), (4, 1), (4, 5), (5, 2), (5, 7),
    (6, 3), (7, 2), (7, 9), (8, 8), (9, 4), (10, 11), (11, 11), (12, 6),
    (13, 15), (16, 17), (17, 3), (25, 30),
]


def test_merca_exact_values():
    assert merca_sum(4, 1) == Fraction(1, 2)
    # N=3, p=1: cos^2(pi/3) = 1/4
    assert merca_sum(3, 1) == Fraction(1, 4)
    # N=2 has an empty lhs for every p
    assert merca_sum(2, 1) == 0
    assert merca_sum(2, 9) == 0


def test_merca_vs_numeric(ctx):
    wrapped = 0
    for bign, p in MERCA_CASES:
        if p >= bign:
            wrapped += 1
        gap = ctx.fabs(ctx.to_real(merca_sum(bign, p))
                       - merca_numeric_lhs(bign, p, ctx))
        assert gap < ctx.power(ctx.two, -128), (bign, p)
    assert wrapped >= 5  # the case list must exercise the wraparound arm


def test_merca_rejects_bad_args():
    with pytest.raises(ValueError):
        merca_sum(1, 3)
    with pytest.raises(ValueError):
        merca_sum(5, 0)


def test_integer_power_average_small():
    assert integer_power_average(1, 2) == 2
    assert integer_power_average(2, 2) == 4
    # n large enough: average of (2cos)^{2p} tends to the central binomial
    assert integer_power_average(3, 5) == binom_int(6, 3)


def test_integer_power_average_vs_numeric(ctx):
    for n in (2, 3, 4, 6):
        for p in (1, 2, 5, 17, 40):
            val = integer_power_average(p, n)
            num = ctx.zero
            for i in range(1, 2 ** (n - 2) + 1):
                num += ctx.power(
                    2 * ctx.cos(ctx.pi * (2 * i - 1) / 2**n), 2 * p)
            num /= 2 ** (n - 2)
            # values reach ~2^76 at p=40, so compare relatively
            rel = ctx.fabs(num - val) / max(ctx.one, ctx.fabs(ctx.to_real(val)))
            assert rel < ctx.power(ctx.two, -128), (p, n)


def test_power_average_bracket_identity():
    """Independent form: the average equals C(2p, p) plus twice the
    alternating off-center binomial tail at stride 2^{n-1}."""
    for n in (2, 3, 4, 5, 6):
        stride = 2 ** (n - 1)
        for p in range(1, 41):
            rhs = binom_int(2 * p, p) + 2 * sum(
                (-1) ** k * binom_int(2 * p, p - k * stride)
                for k in range(1, p // stride + 1)
            )
            assert integer_power_average(p, n) == rhs, (p, n)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 30), st.integers(1, 60))
def test_merca_property(bign, p):
    ctx = EvalContext(192)
    gap = ctx.fabs(ctx.to_real(merca_sum(bign, p))
                   - merca_numeric_lhs(bign, p, ctx))
    assert gap < ctx.power(ctx.two, -80)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, 2 ** (n - 2)), st.integers(1, 2 ** (n - 2) - 1))))
def test_fold_total_on_in_range_indices(nij):
    """The module docstring's totality claim: for 1 <= i <= 2^{n-2} and
    1 <= j < 2^{n-2}, j(2i-1) folds onto a non-constant basis element,
    never onto cos(pi/2) = 0, so even_matrix cannot raise."""
    n, i, j = nij
    k, sign = even_cos_basis(n).fold(j * (2 * i - 1))
    assert 1 <= k < 2 ** (n - 2)
    assert sign in (1, -1)


def test_even_scatter_rows_are_permutations():
    """The scatter assigns each entry to its fold target, so on the even
    basis every row's targets must be all dim columns, once each; checked
    exhaustively at n = 3..12 on the angles 2j(2i-1)pi/2^n it folds."""
    for n in range(3, 13):
        dim = 2 ** (n - 2)
        for odd in range(1, 2 * dim, 2):
            targets = sorted(quarter_fold(2 * j * odd, dim)[0]
                             for j in range(dim))
            assert targets == list(range(dim)), (n, odd)
