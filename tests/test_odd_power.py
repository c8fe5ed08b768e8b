"""Odd-power matrices: dual construction, group law, spectral structure."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cospow.exact import EvalContext
from cospow.odd_power import (
    all_angles_power_sum,
    cayley_table,
    commutes,
    conjugation_invariance,
    element_order,
    find_generator,
    first_row,
    first_row_entry,
    group_inverse,
    group_op,
    is_normal,
    matrix_gather,
    matrix_scatter,
    perm_sign,
    power_sum,
    sine_basis_variant,
    verify_group_axioms,
    verify_numeric,
)

R7_N4 = (
    (35, 21, 7, 1),
    (-7, 35, -1, -21),
    (-21, 1, 35, 7),
    (-1, 7, -21, 35),
)

R15_N4 = (
    (6434, 4990, 2898, 910),
    (-2898, 6434, -910, -4990),
    (-4990, 910, 6434, 2898),
    (-910, 2898, -4990, 6434),
)


def test_frozen_r7_n4():
    m = matrix_scatter(7, 4)
    assert m.entries == R7_N4
    assert m.log2_denom == 6
    assert m.basis.kind == "odd_cos"


def test_frozen_r15_n4():
    m = matrix_scatter(15, 4)
    assert m.entries == R15_N4
    assert m.log2_denom == 14


def test_frozen_r3_n3():
    # cos^3 t = (3 cos t + cos 3t)/4 folded onto the two level-3 angles
    assert matrix_scatter(3, 3).entries == ((3, 1), (-1, 3))


def test_r1_is_identity():
    for n in range(2, 7):
        m = matrix_scatter(1, n)
        assert m.log2_denom == 0
        for i in range(m.dim):
            for j in range(m.dim):
                assert m.entries[i][j] == (1 if i == j else 0)


def test_rejects_even_or_negative_r():
    with pytest.raises(ValueError):
        matrix_scatter(4, 4)
    with pytest.raises(ValueError):
        matrix_gather(-1, 4)
    with pytest.raises(ValueError):
        first_row(7, 1)


def test_scatter_equals_gather_sweep():
    for n in range(2, 8):
        for r in range(1, 23, 2):
            assert matrix_scatter(r, n) == matrix_gather(r, n), (r, n)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 8).flatmap(lambda n: st.tuples(
    st.integers(0, 2 ** (n + 1) - 1).map(lambda k: 2 * k + 1), st.just(n))))
def test_scatter_equals_gather_property(rn):
    # odd r up to 2^{n+2}: large r reaches the wrap-around terms (k >= 1)
    # of first_row_entry in gather's extended row
    r, n = rn
    assert matrix_scatter(r, n) == matrix_gather(r, n)


def test_first_row_antisymmetry():
    """Extended row-1 formula is antisymmetric about the fold point."""
    for r in (1, 7, 15, 21):
        for n in (3, 4, 5):
            top = 2 ** (n - 1)
            for j in range(1, top + 1):
                assert (first_row_entry(r, n, j)
                        == -first_row_entry(r, n, top - j + 1))


def test_level_two_collapses_to_power_of_two():
    # n=2 has the single angle pi/4, where cos^r = 2^{(r-1)/2} cos(pi/4) / 2^{r-1}
    for r in range(1, 22, 2):
        assert first_row(r, 2) == (2 ** ((r - 1) // 2),)


def test_numeric_residuals(ctx):
    for n in (3, 4, 5):
        for r in (1, 3, 7, 13, 21):
            m = matrix_gather(r, n)
            assert verify_numeric(m, r, ctx) < ctx.power(ctx.two, -128)


def test_sine_variant(ctx):
    m = matrix_scatter(7, 4)
    s = sine_basis_variant(m)
    assert s.basis.kind == "odd_sin"
    assert s.entries[0] == (35, -21, 7, -1)
    assert s.reversed_rows_and_columns(m.basis) == m
    assert verify_numeric(s, 7, ctx) < ctx.power(ctx.two, -128)
    with pytest.raises(ValueError):
        sine_basis_variant(s)


class TestGroup:
    def test_axioms_small_levels(self):
        for n in range(3, 7):
            verdicts = verify_group_axioms(n)
            assert all(verdicts.values()), (n, verdicts)

    def test_identity_element(self):
        for n in (3, 4, 5):
            dim = 2 ** (n - 2)
            for a in range(1, dim + 1):
                assert group_op(1, a, n) == a
                assert group_op(a, 1, n) == a

    def test_inverse_and_order(self):
        for n in (4, 5, 6):
            dim = 2 ** (n - 2)
            for a in range(1, dim + 1):
                inv = group_inverse(a, n)
                assert group_op(a, inv, n) == 1
                assert dim % element_order(a, n) == 0

    def test_generator_exists(self):
        for n in range(3, 9):
            g = find_generator(n)
            assert g is not None
            assert element_order(g, n) == 2 ** (n - 2)

    def test_cayley_rows_are_permutations(self):
        for n in (4, 5):
            dim = 2 ** (n - 2)
            for row in cayley_table(n):
                assert sorted(row) == list(range(1, dim + 1))


class TestStructure:
    def test_normal(self):
        for r in (1, 3, 7, 11):
            assert is_normal(matrix_scatter(r, 4))
        assert is_normal(matrix_scatter(15, 5))

    def test_pairwise_commute(self):
        mats = [matrix_scatter(r, 4) for r in (1, 3, 5, 7, 9)]
        for a in mats:
            for b in mats:
                assert commutes(a, b)

    def test_commutes_rejects_mixed_levels(self):
        with pytest.raises(ValueError):
            commutes(matrix_scatter(3, 4), matrix_scatter(3, 5))

    def test_conjugation_invariance(self):
        for r in (3, 7, 15):
            m = matrix_gather(r, 4)
            for a in range(1, m.dim + 1):
                assert conjugation_invariance(m, a)

    def test_conjugation_range_check(self):
        with pytest.raises(ValueError):
            conjugation_invariance(matrix_scatter(3, 4), 5)

    def test_rows_from_first_row_via_signed_relabeling(self):
        """Gather rows match scattering row 1 by perm_sign: the two routes
        are independent implementations of the same signed permutation."""
        for r, n in ((7, 4), (9, 5), (15, 6)):
            m = matrix_gather(r, n)
            row1 = m.entries[0]
            dim = m.dim
            for i in range(1, dim + 1):
                for j in range(1, dim + 1):
                    ps = perm_sign(i, j, n)
                    assert m.entries[i - 1][ps.m - 1] == ps.sign * row1[j - 1]


def test_power_sum_frozen():
    v = power_sum(7, 4)
    assert v.coeffs == (Fraction(6, 64), Fraction(64, 64),
                        Fraction(20, 64), Fraction(22, 64))


def test_power_sum_numeric(ctx):
    for r, n in ((3, 3), (7, 4), (9, 5)):
        direct = ctx.zero
        for i in range(1, 2 ** (n - 2) + 1):
            direct += ctx.power(ctx.cos(ctx.pi * (2 * i - 1) / 2**n), r)
        assert ctx.close(power_sum(r, n).value(ctx), direct)


def test_all_angles_power_sum(ctx):
    """Level split of sum over ALL angles i*pi/2^m, i = 1..2^{m-1}-1."""
    r, m = 5, 5
    parts = all_angles_power_sum(r, m)
    assert [n for n, _ in parts] == [2, 3, 4, 5]
    total = ctx.zero
    for _, vec in parts:
        total += vec.value(ctx)
    direct = ctx.zero
    for i in range(1, 2 ** (m - 1)):
        direct += ctx.power(ctx.cos(ctx.pi * i / 2**m), r)
    assert ctx.close(total, direct)
