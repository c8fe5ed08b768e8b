"""Reciprocal-power matrices and the cosecant power sums."""

import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cospow.negative_power import (
    CscPowerSum,
    S_closed_form,
    cosine_basis_variant,
    direct_csc_power_sum,
    first_row_sum_identity,
    matrix_neg1,
    matrix_neg3,
    matrix_neg3_entry,
    matrix_neg3_gather,
    matrix_neg5,
    odd_csc_weights,
    reciprocal_first_row,
)
from cospow import cli, exact
from cospow.exact import (
    EvalContext,
    exact_div,
    odd_cos_basis,
    odd_sin_basis,
)
from cospow.odd_power import (
    gather,
    scatter,
    verify_numeric,
)
from cospow.zeta import _zeta_weights, zeta3_weighted, zeta_sine_sum

# The reference route: the closed forms as first typed in by hand, scalars
# for even s and weight polynomials in the column j for odd s. The library
# derives every one of them from the level polynomial instead
# (negative_power.odd_csc_weights); test_trace_equals_reference_route
# holds the two routes equal.

def ref_csc3_weight(n, j):
    """Weight on csc((2j-1)pi/2^n) in the zeta(3) sum."""
    return -j * j + (2 ** (n - 1) + 1) * j - 2 ** (n - 2)


def ref_csc5_weight(n, j):
    """Weight on csc((2j-1)pi/2^n) in the zeta(5) sum, a quartic in j."""
    return (j**4 - 2 * (2 ** (n - 1) + 1) * j**3
            + (3 * 2 ** (n - 1) - 1) * j**2
            + 2 * (2 ** (n - 2) + 2 ** (3 * n - 4) + 1) * j
            - 2 ** (n - 1) * (2 ** (2 * n - 3) + 1))


def ref_weight7(n, j):
    return Fraction(
        -4 * j**6 + 12 * (2 ** (n - 1) + 1) * j**5
        - 10 * (3 * 2 ** (n - 1) - 2) * j**4
        - 20 * (2 ** (3 * n - 3) + 2 ** n + 3) * j**3
        + 2 * (15 * 2 ** (3 * n - 3) + 45 * 2 ** (n - 1) - 8) * j**2
        + 4 * (3 * 2 ** (5 * n - 5) + 5 * 2 ** (3 * n - 3)
               + 4 * 2 ** (n - 1) + 12) * j
        - 3 * (2 ** (5 * n - 4) + 5 * 2 ** (3 * n - 3) + 2 ** (n + 2)),
        45,
    )


def ref_closed_form(s, n):
    """S(s, n) as the hand-typed CscPowerSum, s in [2, 8]."""
    even = {
        2: Fraction(2 ** (2 * n - 3)),
        4: Fraction(2 ** (4 * n - 4) + 2 ** (2 * n - 1), 6),
        6: Fraction(2 ** (6 * n - 5) + 5 * 2 ** (4 * n - 4)
                    + 2 ** (2 * n + 1), 30),
        8: Fraction(17 * 2 ** (8 * n - 8) + 56 * 2 ** (6 * n - 6)
                    + 98 * 2 ** (4 * n - 4) + 144 * 2 ** (2 * n - 2), 630),
    }
    if s in even:
        return CscPowerSum(s, n, scalar=even[s])
    weight = {
        3: lambda j: Fraction(2 * ref_csc3_weight(n, j)),
        5: lambda j: Fraction(2 * ref_csc5_weight(n, j), 3),
        7: lambda j: ref_weight7(n, j),
    }[s]
    return CscPowerSum(s, n, csc_weights=tuple(
        weight(j) for j in range(1, 2 ** (n - 2) + 1)))


def ref_row1_neg3(n, j):
    """First-row entry j of the 1/sin^3 matrix: csc3_weight/2."""
    return exact_div(ref_csc3_weight(n, j), 2, "row1_neg3")


def ref_row1_neg5(n, j):
    """First-row entry j of the 1/sin^5 matrix: csc5_weight/24, n >= 4.

    At n = 3 the quartic over 24 gives 3/2 and 7/2, so that one level is
    carried over 2^4 instead: the doubled entry csc5_weight/12."""
    return exact_div(ref_csc5_weight(n, j), 12 if n == 3 else 24,
                     "row1_neg5")


def ref_reciprocal_first_row(r, n, length):
    """The row polynomial at j = 1..length and its log2 denominator."""
    entry = ref_row1_neg3 if r == -3 else ref_row1_neg5
    log2_denom = -4 if (r, n) == (-5, 3) else r
    return [entry(n, j) for j in range(1, length + 1)], log2_denom


def sine_mirror(row, n):
    """The first row on the extended range 1..2^{n-1} as the gather folds
    it out: column j is the entry odd_sin_basis(n).fold(2j-1) names, with
    its sign (sin(pi - t) = sin t, so the mirror is plain)."""
    return [sign * row[col] for col, sign
            in map(odd_sin_basis(n).fold, range(1, 2 ** n, 2))]


@pytest.mark.parametrize("n", range(3, 13))
def test_trace_equals_reference_route(n):
    """The derived closed forms equal the hand-typed ones exactly, repr
    included: every S(s, n), s = 2..8, the 1/sin^3 and 1/sin^5 first rows,
    and through their mirror the reference rows on the whole extended
    range 1..2^{n-1}, and the zeta(3), zeta(5) weights."""
    for s in range(2, 9):
        assert repr(S_closed_form(s, n)) == repr(ref_closed_form(s, n)), s
    for r in (-3, -5):
        row, log2_denom = reciprocal_first_row(r, n)
        assert (row, log2_denom) \
            == ref_reciprocal_first_row(r, n, 2 ** (n - 2)), r
        assert (sine_mirror(row, n), log2_denom) \
            == ref_reciprocal_first_row(r, n, 2 ** (n - 1)), r
    js = range(1, 2 ** (n - 2) + 1)
    assert _zeta_weights(3, n) == [ref_csc3_weight(n, j) for j in js]
    assert _zeta_weights(5, n) == [ref_csc5_weight(n, j) for j in js]


NEG1_N4 = (
    (1, -1, 1, -1),
    (-1, 1, 1, 1),
    (1, -1, 1, 1),
    (1, 1, 1, 1),
)

NEG3_N4_SIN = (
    (2, 5, 7, 8),
    (7, 2, -8, 5),
    (5, 8, 2, -7),
    (-8, 7, -5, 2),
)

NEG3_N4_COS = (
    (2, -5, 7, -8),
    (-7, 2, 8, 5),
    (5, -8, 2, 7),
    (8, 7, 5, 2),
)


def test_frozen_neg1_n4():
    m = matrix_neg1(4)
    assert m.entries == NEG1_N4
    assert m.log2_denom == -1
    assert m.basis.kind == "odd_cos"


def test_neg1_scatter_route_frozen_n4():
    """The cosine-rule scatter of the alternating first row, the other
    route to matrix_neg1, gives the frozen n = 4 matrix."""
    m = scatter((1, -1, 1, -1), odd_cos_basis(4), -1)
    assert m.entries == NEG1_N4
    assert m.log2_denom == -1


@pytest.mark.parametrize("n", range(3, 10))
def test_neg1_scatter_equals_gather(n):
    """matrix_neg1 is the gather of the alternating row; scattering its
    first row over the odd cosines rebuilds it."""
    m = matrix_neg1(n)
    assert m.entries[0] == tuple(
        1 if p % 2 else -1 for p in range(1, 2 ** (n - 2) + 1))
    assert scatter(m.entries[0], odd_cos_basis(n), -1) == m


@pytest.mark.parametrize("r", (-3, -5))
@pytest.mark.parametrize("n", range(3, 10))
def test_reciprocal_scatter_equals_gather(r, n):
    """matrix_neg3 and matrix_neg5 are scatters over the odd sines; the
    gather of the same first row gives the same matrix, the doubled row
    over 2^4 included at (r, n) = (-5, 3)."""
    row, log2_denom = reciprocal_first_row(r, n)
    scattered = matrix_neg3(n) if r == -3 else matrix_neg5(n)
    assert gather(row, odd_sin_basis(n), log2_denom) == scattered


def test_extended_rows_integral():
    """The -3 and -5 rows are integers, one per column, and their mirror,
    the row on the whole extended range 1..2^{n-1} the gather reads, is
    the reference row polynomial there."""
    for n in range(3, 12):
        row3, _ = reciprocal_first_row(-3, n)
        row5, log2_denom = reciprocal_first_row(-5, n)
        assert len(row3) == len(row5) == 2 ** (n - 2)
        assert all(type(v) is int for v in row3 + row5)
        assert log2_denom == (-4 if n == 3 else -5)
        for r, row in ((-3, row3), (-5, row5)):
            assert sine_mirror(row, n) \
                == ref_reciprocal_first_row(r, n, 2 ** (n - 1))[0], (r, n)
    with pytest.raises(ValueError):
        reciprocal_first_row(-1, 4)


def test_neg1_entries_all_unit():
    for n in (3, 4, 5, 6):
        for row in matrix_neg1(n).entries:
            assert set(row) <= {1, -1}


def test_frozen_neg3_n4_both_presentations():
    m = matrix_neg3(4)
    assert m.entries == NEG3_N4_SIN
    assert m.log2_denom == -3
    assert m.basis.kind == "odd_sin"
    c = cosine_basis_variant(m)
    assert c.entries == NEG3_N4_COS
    assert c.basis.kind == "odd_cos"
    # reversal is an involution
    assert c.reversed_rows_and_columns(m.basis) == m


def test_frozen_neg5_rows():
    assert matrix_neg5(4).entries[0] == (11, 31, 46, 54)
    assert matrix_neg5(5).entries[0] == (86, 254, 411, 551, 669, 761, 824, 856)
    assert matrix_neg5(6).entries[0] == (
        684, 2044, 3381, 4681, 5931, 7119, 8234, 9266,
        10206, 11046, 11779, 12399, 12901, 13281, 13536, 13664)
    assert matrix_neg5(4).log2_denom == -5


def test_row_polynomials_divide_exactly():
    # the reference rows: the quadratic is /2, the quartic /24 (/12 at
    # n = 3) on the extended range; any remainder trips exact_div
    for n in range(3, 10):
        for j in range(1, 2 ** (n - 1) + 1):
            ref_row1_neg3(n, j)
            ref_row1_neg5(n, j)


def test_neg5_half_integral_level():
    # csc^5(pi/8) = 48 sin(pi/8) + 112 sin(3pi/8), so over 2^5 the n = 3
    # entries would be 3/2 and 7/2; the matrix drops to scale 2^4 instead
    m = matrix_neg5(3)
    assert m.log2_denom == -4
    assert m.entries == ((3, 7), (-7, 3))


def test_neg3_gather_equals_scatter():
    for n in range(3, 7):
        assert matrix_neg3(n) == matrix_neg3_gather(n)


@settings(max_examples=10, deadline=None)
@given(st.integers(3, 9))
def test_neg3_scatter_equals_gather_property(n):
    assert matrix_neg3(n) == matrix_neg3_gather(n)


def test_scatter_target_reciprocal_sign():
    """The reciprocal scatter folds onto the sine basis: the same position
    as on the cosines, and a sign that is negative exactly when
    (p-1)//2^{n-1} is odd, p = 2ij-i-j+1; every (i, j) at n = 2..9."""
    for n in range(2, 10):
        dim = 2 ** (n - 2)
        cos, sin = odd_cos_basis(n), odd_sin_basis(n)
        for i in range(1, dim + 1):
            for j in range(1, dim + 1):
                t = (2 * i - 1) * (2 * j - 1)
                k, s = sin.fold(t)
                p = 2 * i * j - i - j + 1
                assert k == cos.fold(t)[0], (i, j, n)
                assert (s == -1) == bool((p - 1) // 2 ** (n - 1) % 2), \
                    (i, j, n)


def test_neg3_entry_spot_values():
    assert matrix_neg3_entry(1, 1, 4) == 2
    assert matrix_neg3_entry(4, 3, 4) == -5
    assert matrix_neg3_entry(2, 4, 5) == matrix_neg3(5).entries[1][3]


def test_neg3_entry_rejects_out_of_range():
    """Row and column run over 1..2^{n-2}; outside that the extended row
    would hand back some other entry."""
    for i, j in ((1, 0), (0, 1), (5, 1), (1, -1), (1, 5)):
        with pytest.raises(ValueError):
            matrix_neg3_entry(i, j, 4)


def test_rejects_small_n():
    with pytest.raises(ValueError):
        matrix_neg1(2)
    with pytest.raises(ValueError):
        matrix_neg3(2)
    with pytest.raises(ValueError):
        matrix_neg5(2)
    with pytest.raises(ValueError):
        matrix_neg3_gather(2)


def test_cosine_variant_rejects_cos_input():
    with pytest.raises(ValueError):
        cosine_basis_variant(matrix_neg1(4))


def test_numeric_residuals(ctx):
    for n in (3, 4, 5, 6):
        assert verify_numeric(matrix_neg1(n), -1, ctx) < ctx.power(ctx.two, -128)
        assert verify_numeric(matrix_neg3(n), -3, ctx) < ctx.power(ctx.two, -128)
        assert verify_numeric(matrix_neg5(n), -5, ctx) < ctx.power(ctx.two, -128)


def test_cosine_variants_numeric(ctx):
    for n in (3, 4, 5):
        c3 = cosine_basis_variant(matrix_neg3(n))
        c5 = cosine_basis_variant(matrix_neg5(n))
        assert verify_numeric(c3, -3, ctx) < ctx.power(ctx.two, -128)
        assert verify_numeric(c5, -5, ctx) < ctx.power(ctx.two, -128)


def test_first_row_sum_identity(ctx):
    for r in (-3, -5):
        for n in (3, 4, 5, 6):
            lhs, rhs = first_row_sum_identity(r, n, ctx)
            assert ctx.close(lhs, rhs), (r, n)
    with pytest.raises(ValueError):
        first_row_sum_identity(-7, 4, ctx)


def _count_angles(monkeypatch) -> list:
    """The angles t of every level table built from now on: t = odd,
    odd + 2, ... below 2^(n-1) for each exact._dyadic_walk, which runs
    once per table built. A table kept in its context is not built again,
    so it adds nothing."""
    calls = []
    walk = exact._dyadic_walk

    def counting(odd, n, F, Pi):
        calls.extend(range(odd, 1 << (n - 1), 2))
        return walk(odd, n, F, Pi)

    monkeypatch.setattr(exact, "_dyadic_walk", counting)
    return calls


class TestPowerSums:
    def test_even_scalars(self):
        assert S_closed_form(2, 4).scalar == Fraction(32)
        assert S_closed_form(4, 3).scalar == Fraction(2**8 + 2**5, 6)
        assert S_closed_form(2, 3).scalar == Fraction(8)

    def test_shapes(self):
        even = S_closed_form(6, 4)
        assert even.scalar is not None and even.csc_weights is None
        odd = S_closed_form(5, 4)
        assert odd.scalar is None and len(odd.csc_weights) == 4

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            S_closed_form(9, 4)
        with pytest.raises(ValueError):
            S_closed_form(1, 4)
        with pytest.raises(ValueError):
            S_closed_form(3, 2)
        for s in (3.0, Fraction(4), True):
            with pytest.raises(ValueError):
                S_closed_form(s, 4)

    def test_odd_csc_weights_rejects_other_input(self):
        """Only odd integer s >= 3 at n >= 3: an even s had returned the
        weights of s - 1, and s in {-1, 0, 2} all ones."""
        for s, n in ((4, 3), (6, 4), (8, 5), (2, 3), (0, 3), (-1, 3),
                     (1, 4), (3.0, 3), (Fraction(5), 4), (3, 2), (5, 1)):
            with pytest.raises(ValueError):
                odd_csc_weights(s, n)

    def test_against_direct_sums(self, ctx):
        for s in range(2, 9):
            for n in range(3, 9):
                closed = S_closed_form(s, n).numeric(ctx)
                direct = direct_csc_power_sum(s, n, ctx)
                gap = ctx.fabs(closed - direct)
                assert gap < ctx.power(ctx.two, -100), (s, n)

    def test_weight_cross_relations(self):
        """Odd-sum weights tie back to the matrix first rows: the s=3
        weights are 4x the 1/sin^3 row and the s=5 weights are half the
        1/sin^5 scale times its first row, exact rationals throughout."""
        for n in (3, 4, 5, 6):
            w3 = S_closed_form(3, n).csc_weights
            w5 = S_closed_form(5, n).csc_weights
            m5 = matrix_neg5(n)
            half_scale = 2 ** (-m5.log2_denom - 1)
            row3, _ = reciprocal_first_row(-3, n)
            for j in range(1, 2 ** (n - 2) + 1):
                assert w3[j - 1] == 4 * row3[j - 1]
                assert w5[j - 1] == half_scale * m5.entries[0][j - 1]
            if n >= 4:
                assert half_scale == 16

    def test_numeric_method_on_scalar(self, ctx):
        v = CscPowerSum(2, 4, scalar=Fraction(32)).numeric(ctx)
        assert ctx.close(v, ctx.to_real(32))

    def test_one_sine_table_per_context(self, monkeypatch):
        """Every level-6 sine route in one context reads one table of 16
        sines, built on first use; a context at another precision builds
        its own; and each result is bit for bit the one a fresh context
        per call gives."""
        calls = _count_angles(monkeypatch)
        routes = [
            lambda c: zeta_sine_sum(3, 6, c).value,
            lambda c: zeta3_weighted(6, c).value,
            lambda c: S_closed_form(3, 6).numeric(c),
            lambda c: direct_csc_power_sum(3, 6, c),
            lambda c: first_row_sum_identity(-3, 6, c)[0],
            lambda c: first_row_sum_identity(-3, 6, c)[1],
        ]
        shared = EvalContext(256)
        got = [route(shared) for route in routes]
        assert len(calls) == 16
        table = odd_sin_basis(6).values(shared)
        assert odd_sin_basis(6).values(shared) is table
        assert len(calls) == 16
        other = EvalContext(128)
        assert odd_sin_basis(6).values(other) is not table
        assert len(calls) == 32
        for route, value in zip(routes, got):
            assert value.man_exp == route(EvalContext(256)).man_exp

    @pytest.mark.parametrize("s", [4, 7])
    def test_sums_request_builds_one_sine_table(self, monkeypatch, s):
        calls = _count_angles(monkeypatch)
        assert cli.main(["sums", "--s", str(s), "--n", "5",
                         "--out", os.devnull]) == 0
        assert len(calls) == 8
