"""Odd-power matrices: dual construction, group law, spectral structure."""

import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st
from reference import (
    binomial_rows,
    euler_group_inverse,
    euler_inverse_index,
    folded_composition_angle,
    folded_element_order,
    folded_group_op,
    relabeled_invariance,
    relabeling,
    scatter_by_cell,
    wrapped_binomial,
)

from cospow.chebyshev import inverse_index, signed_composition_angle
from cospow.even_power import even_first_row, even_matrix
from cospow.exact import (
    EvalContext,
    ScaledMatrix,
    even_cos_basis,
    odd_cos_basis,
    odd_sin_basis,
)
from cospow.negative_power import (
    cosine_basis_variant,
    matrix_neg1,
    matrix_neg3,
    matrix_neg5,
    reciprocal_first_row,
)
from cospow.odd_power import (
    _compose,
    _signed_turn,
    all_angles_power_sum,
    cayley_table,
    commutes,
    conjugation_invariance,
    element_order,
    find_generator,
    first_row,
    first_row_entry,
    gather,
    group_inverse,
    group_op,
    is_normal,
    matrix_gather,
    matrix_scatter,
    power_sum,
    scatter,
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
    # odd r up to 2^{n+2}: large r folds its binomials around the circle
    # more than once
    r, n = rn
    assert matrix_scatter(r, n) == matrix_gather(r, n)


def test_routes_reject_bad_rows_and_bases(ctx):
    with pytest.raises(ValueError):
        scatter(first_row(7, 5)[:-1], odd_cos_basis(5), 6)
    # both routes read the same row of 2^(n-2) columns
    for row in (first_row(7, 5)[:-1], first_row(7, 5) * 2):
        with pytest.raises(ValueError):
            gather(row, odd_cos_basis(5), 6)
    # the gather has no even-basis form
    with pytest.raises(ValueError):
        gather(even_first_row(6, 5), even_cos_basis(5), 5)
    # the scatter serves the even basis as well
    m = scatter(even_first_row(6, 5), even_cos_basis(5), 5)
    assert m.basis == even_cos_basis(5)
    assert verify_numeric(m, 6, ctx) < ctx.power(ctx.two, -128)


@pytest.mark.parametrize("n", range(3, 10))
def test_same_row_scatter_equals_gather(n):
    """scatter and gather of one first row give one matrix: the rows of
    every odd r up to 2^(n+1) + 1 and of 2^(n+2) - 1 (wrap-around
    included) over both odd bases, the alternating r = -1 row over the
    cosines and the r = -3, -5 rows over the sines."""
    dim = 2 ** (n - 2)
    cases = [(first_row(r, n), basis)
             for r in (*range(1, 8 * dim + 2, 2), 16 * dim - 1)
             for basis in (odd_cos_basis(n), odd_sin_basis(n))]
    cases.append(([1 if p % 2 else -1 for p in range(1, dim + 1)],
                  odd_cos_basis(n)))
    cases += [(reciprocal_first_row(r, n)[0], odd_sin_basis(n))
              for r in (-3, -5)]
    for row, basis in cases:
        assert scatter(row, basis, 0) == gather(row, basis, 0), (row, basis)


@pytest.mark.parametrize("n", range(2, 12))
def test_scatter_equals_cell_reference(n):
    """The generator walk of scatter equals the per-cell fold of the
    reference route on all three bases (the even one from n = 3), the
    only exact second route for the even basis: rows of distinct entries,
    which show every slot and sign, and the real first rows, odd r with
    wrap-around, even r with wrap-around and the r = -3, -5 sine rows."""
    dim = 2 ** (n - 2)
    distinct = tuple(range(1, dim + 1))
    cases = [(row, basis)
             for basis in (odd_cos_basis(n), odd_sin_basis(n))
             for row in (distinct, *(first_row(r, n)
                                     for r in (1, 2 ** n - 3, 16 * dim - 1)))]
    if n >= 3:
        cases += [(row, even_cos_basis(n))
                  for row in (distinct, *(even_first_row(r, n)
                                          for r in (2, 8 * dim + 2)))]
        cases += [(reciprocal_first_row(r, n)[0], odd_sin_basis(n))
                  for r in (-3, -5)]
    for row, basis in cases:
        assert scatter(row, basis, 0).entries == scatter_by_cell(row, basis), (
            row, basis)


@pytest.mark.parametrize("n", range(3, 10))
def test_gather_extension_is_the_fold(n):
    """The gather's half-turn extension of a row holds at X - 1 the entry
    and sign that Basis.fold names for 2X - 1, every odd angle below 2 pi,
    the fold the reference scatter reads, so the gather and the per-cell
    fold state one law; a row of distinct entries shows every position."""
    row = list(range(1, 2 ** (n - 2) + 1))
    for basis in (odd_cos_basis(n), odd_sin_basis(n)):
        assert _signed_turn(row, basis) == [
            sign * row[k]
            for k, sign in map(basis.fold, range(1, 2 ** (n + 1), 2))], basis


@pytest.mark.parametrize("n", range(2, 10))
def test_first_row_equals_reference_route(n):
    """The folded binomial row equals the alternating wrapped sum of the
    reference route at every odd r up to 2^(n+2) + 1."""
    dim = 2 ** (n - 2)
    for r, row in enumerate(islice(binomial_rows(), 2 ** (n + 2) + 2)):
        if r % 2:
            assert first_row(r, n) == tuple(
                wrapped_binomial(row, n, j - 1, j)
                for j in range(1, dim + 1)), r


def test_rows_equal_reference_route_n12():
    """The largest rows the CLI serves, r = 4094 and 4095 at n = 12, equal
    the reference route's wrapped sums."""
    rows = islice(binomial_rows(), 4094, None)
    row = next(rows)
    const, *rest = even_first_row(4094, 12)
    assert 2 * const == wrapped_binomial(row, 12, 0, 0)
    assert rest == [wrapped_binomial(row, 12, j, j) for j in range(1, 1024)]
    row = next(rows)
    assert first_row(4095, 12) == tuple(
        wrapped_binomial(row, 12, j - 1, j) for j in range(1, 1025))


def test_first_row_antisymmetry():
    """first_row_entry equals the reference route's wrapped sum on the
    extended range 1..2^{n-1}, which is antisymmetric about the fold
    point."""
    rows = list(islice(binomial_rows(), 66))
    for r in (1, 7, 15, 21, 65):
        for n in (2, 3, 4, 5):
            top = 2 ** (n - 1)
            for j in range(1, top + 1):
                assert first_row_entry(r, n, j) \
                    == wrapped_binomial(rows[r], n, j - 1, j), (r, n, j)
                assert (first_row_entry(r, n, j)
                        == -first_row_entry(r, n, top - j + 1))


def test_first_row_entry_rejects_out_of_range():
    for r, n, j in ((3, 4, 0), (3, 4, 9), (3, 4, 100), (3, 4, -7),
                    (3, 1, 1), (4, 4, 1)):
        with pytest.raises(ValueError):
            first_row_entry(r, n, j)


def test_level_two_collapses_to_power_of_two():
    # n=2 has the single angle pi/4, where cos^r = 2^{(r-1)/2} cos(pi/4) / 2^{r-1}
    for r in range(1, 22, 2):
        assert first_row(r, 2) == (2 ** ((r - 1) // 2),)


def test_numeric_residuals(ctx):
    for n in (3, 4, 5):
        for r in (1, 3, 7, 13, 21):
            m = matrix_gather(r, n)
            assert verify_numeric(m, r, ctx) < ctx.power(ctx.two, -128)


def verify_numeric_per_entry(m, r, ctx):
    """The oracle read straight off its definition, one fresh basis
    evaluation per nonzero entry. verify_numeric's per-call table must
    reproduce its residual bit for bit."""
    n = m.basis.n
    scale = ctx.power(ctx.two, -m.log2_denom)
    fn = ctx.sin if m.basis.kind == "odd_sin" else ctx.cos
    worst = ctx.zero
    for i in range(1, m.dim + 1):
        theta = ctx.pi * (2 * i - 1) / 2**n
        lhs = ctx.power(fn(theta), r)
        rhs = ctx.zero
        for k, entry in enumerate(m.entries[i - 1]):
            if entry:
                rhs += entry * m.basis.element(k, ctx)
        worst = max(worst, ctx.fabs(lhs - scale * rhs))
    return worst


def _oracle_cases(n):
    yield matrix_scatter(15, n), 15
    yield sine_basis_variant(matrix_scatter(31, n)), 31
    if n >= 3:
        yield even_matrix(16, n), 16
        yield matrix_neg1(n), -1
        for r, m in ((-3, matrix_neg3(n)), (-5, matrix_neg5(n))):
            yield m, r
            yield cosine_basis_variant(m), r


@pytest.mark.parametrize("prec", [128, 256, 384])
def test_verify_numeric_matches_per_entry_reference(prec):
    ctx = EvalContext(prec)
    for n in range(3, 8):
        for m, r in _oracle_cases(n):
            want = verify_numeric_per_entry(m, r, ctx)
            assert verify_numeric(m, r, ctx) == want, (n, r, m.basis.kind)
    # a residual far from zero is reproduced too
    m = matrix_scatter(7, 5)
    rows = [list(row) for row in m.entries]
    rows[2][1] += 1
    bad = ScaledMatrix(tuple(map(tuple, rows)), m.log2_denom, m.basis)
    assert verify_numeric(bad, 7, ctx) == verify_numeric_per_entry(bad, 7, ctx)


def perm_sign(i: int, j: int, n: int) -> tuple[int, int]:
    """The angle law per entry, stated independently of the fold: where
    row i sends row-1 column j (1-based) on the odd cosines, and the sign.

    p = 2ij - i - j + 1 tracks the product of odd numbers (2i-1)(2j-1);
    the quotient/residue pair of p against 2^{n-2} and 2^{n-1} yields the
    folded position and the reflection sign.
    """
    dim = 2 ** (n - 2)
    p = 2 * i * j - i - j + 1
    s = (p - 1) // dim
    m = (-1) ** s * (p - s * dim) % (dim + 1)
    q = (dim + 2 * i * j - i - j) // 2 ** (n - 1)
    return m, (-1) ** q


def test_scatter_target_equals_perm_sign():
    """Where the scatter sends each entry, Basis.fold of the product angle
    (2i-1)(2j-1), against the per-entry law, position and sign, for every
    (i, j) at n = 2..9."""
    for n in range(2, 10):
        dim = 2 ** (n - 2)
        b = odd_cos_basis(n)
        for i in range(1, dim + 1):
            for j in range(1, dim + 1):
                m, sign = perm_sign(i, j, n)
                assert b.fold((2 * i - 1) * (2 * j - 1)) == (m - 1, sign), \
                    (i, j, n)


def test_sine_variant(ctx):
    m = matrix_scatter(7, 4)
    s = sine_basis_variant(m)
    assert s.basis.kind == "odd_sin"
    assert s.entries[0] == (35, -21, 7, -1)
    assert s.reversed_rows_and_columns(m.basis) == m
    assert verify_numeric(s, 7, ctx) < ctx.power(ctx.two, -128)
    with pytest.raises(ValueError):
        sine_basis_variant(s)


def exhaustive_associative(table) -> bool:
    """The reference route to associativity: every triple, O(dim^3)."""
    dim = len(table)
    return all(table[table[a][b] - 1][c] == table[a][table[b][c] - 1]
               for a in range(dim) for b in range(dim) for c in range(dim))


def swap_symmetric_pairs(table, a, b, c, d):
    """table with the values at {(a, b), (b, a)} and {(c, d), (d, c)}
    (0-based) exchanged, so a commutative table stays commutative."""
    rows = [list(row) for row in table]
    u, v = rows[a][b], rows[c][d]
    rows[a][b] = rows[b][a] = v
    rows[c][d] = rows[d][c] = u
    return tuple(map(tuple, rows))


class TestGroup:
    def test_axioms_small_levels(self):
        for n in range(2, 12):
            verdicts = verify_group_axioms(n)
            assert all(verdicts.values()), (n, verdicts)

    def test_certificate_matches_exhaustive_reference(self):
        for n in range(3, 9):
            table = cayley_table(n)
            assert exhaustive_associative(table), n
            assert verify_group_axioms(n, table)["associative"], n

    def test_certificate_on_perturbed_tables(self):
        """Swapped symmetric cell pairs keep the table commutative. The
        certificate never says True where the reference says False, and
        it agrees with the reference wherever the generator's walk covers
        the table; some such walks survive the swap, so Light's identity
        itself rejects those tables. A walk that does not cover gives
        False even on an associative table (n = 3 has one)."""
        rng = random.Random(10)
        caught_by_identity = 0
        for n in range(3, 7):
            dim = 2 ** (n - 2)
            g = find_generator(n)
            for trial in range(40):
                cells = [rng.randrange(dim) for _ in range(4)]
                if trial % 2:
                    cells[1] = g - 1    # a cell of the generator's column
                table = swap_symmetric_pairs(cayley_table(n), *cells)
                verdicts = verify_group_axioms(n, table)
                reference = exhaustive_associative(table)
                assert verdicts["commutative"]
                assert reference or not verdicts["associative"], (n, cells)
                if verdicts["cyclic"]:
                    assert verdicts["associative"] == reference, (n, cells)
                caught_by_identity += verdicts["cyclic"] \
                    and not verdicts["associative"]
        assert caught_by_identity

    def test_corrupted_generator_row_is_not_cyclic(self):
        """cyclic reads the table it is given: with the generator's row
        made the identity row, g.g = g and the walk never covers."""
        for n in range(3, 8):
            dim = 2 ** (n - 2)
            g = find_generator(n)
            rows = list(cayley_table(n))
            rows[g - 1] = tuple(range(1, dim + 1))
            verdicts = verify_group_axioms(n, tuple(rows))
            assert verdicts["closure"]
            assert not verdicts["cyclic"], n
            assert not verdicts["associative"], n

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

    def test_inverse_is_fold_of_inverse_index(self):
        for n in range(3, 11):
            basis = odd_cos_basis(n)
            for a in range(1, 2 ** (n - 2) + 1):
                inv = group_inverse(a, n)
                assert inv == basis.fold(2 * inverse_index(a, n) - 1)[0] + 1
                assert group_op(a, inv, n) == 1
        for a in (0, 5):
            with pytest.raises(ValueError):
                group_inverse(a, 4)

    def test_generator_matches_search(self):
        """find_generator's closed answer against the O(dim^2) search for
        the least element of full order."""
        for n in range(2, 11):
            dim = 2 ** (n - 2)
            least = next(g for g in range(1, dim + 1)
                         if element_order(g, n) == dim)
            assert find_generator(n) == least, n
        with pytest.raises(ValueError):
            find_generator(1)

    def test_generator_exists(self):
        for n in range(3, 9):
            g = find_generator(n)
            assert g is not None
            assert element_order(g, n) == 2 ** (n - 2)

    def test_group_op_is_perm_sign_position(self):
        for n in range(2, 8):
            dim = 2 ** (n - 2)
            assert cayley_table(n) == tuple(
                tuple(perm_sign(a, b, n)[0] for b in range(1, dim + 1))
                for a in range(1, dim + 1))

    def test_group_op_rejects_out_of_range(self):
        for a, b in ((0, 1), (1, 5), (5, 5)):
            with pytest.raises(ValueError):
                group_op(a, b, 4)

    def test_element_order_checks_its_range(self):
        """element_order takes the range check of group_op: no group
        exists below n = 2, and a must lie in 1..2^(n-2)."""
        for n in (1, 0, -3):
            with pytest.raises(ValueError):
                element_order(1, n)
        for a in (0, -1, 5):
            with pytest.raises(ValueError):
                element_order(a, 4)
        assert element_order(1, 2) == 1

    def test_table_and_axioms_reject_levels_below_two(self):
        for n in (1, 0, -2):
            with pytest.raises(ValueError):
                cayley_table(n)
            with pytest.raises(ValueError):
                verify_group_axioms(n)
            with pytest.raises(ValueError):
                verify_group_axioms(n, ((1,),))

    def test_cayley_rows_are_permutations(self):
        for n in (4, 5):
            dim = 2 ** (n - 2)
            for row in cayley_table(n):
                assert sorted(row) == list(range(1, dim + 1))


class TestGroupReference:
    """The one composition fold and the one modular inverse against the
    per-function bodies they replaced (reference.py), value for value."""

    @pytest.mark.parametrize("n", range(2, 10))
    def test_all_pairs(self, n):
        dim = 2 ** (n - 2)
        elems = range(1, dim + 1)
        table = tuple(tuple(folded_group_op(a, b, n) for b in elems)
                      for a in elems)
        assert cayley_table(n) == table
        assert tuple(tuple(group_op(a, b, n) for b in elems)
                     for a in elems) == table
        for a in elems:
            assert group_inverse(a, n) == euler_group_inverse(a, n), a
            assert inverse_index(a, n) == euler_inverse_index(a, n), a
            assert element_order(a, n) == folded_element_order(a, n), a
        # past the quarter turn, the half turn and the full turn 2^n
        wide = range(1, 4 * dim + 3)
        for i in wide:
            for j in wide:
                assert signed_composition_angle(i, j, n) \
                    == folded_composition_angle(i, j, n), (i, j)

    @pytest.mark.parametrize("n", range(10, 13))
    def test_sampled_pairs(self, n):
        rng = random.Random(n)
        dim = 2 ** (n - 2)
        for _ in range(300):
            a, b = rng.randint(1, dim), rng.randint(1, dim)
            i, j = rng.randint(1, 8 * dim), rng.randint(1, 8 * dim)
            assert group_op(a, b, n) == folded_group_op(a, b, n)
            assert group_inverse(a, n) == euler_group_inverse(a, n)
            assert inverse_index(a, n) == euler_inverse_index(a, n)
            assert signed_composition_angle(i, j, n) \
                == folded_composition_angle(i, j, n), (i, j)
        for a in rng.sample(range(1, dim + 1), 8):
            assert element_order(a, n) == folded_element_order(a, n)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_relabeling_on_both_odd_bases(self, n):
        """The relabeling of conjugation_invariance on the odd-cosine and
        the odd-sine basis, and its verdict on each family's matrix and
        on that matrix with one entry changed, which some a reject."""
        for m in (matrix_gather(7, n), sine_basis_variant(matrix_gather(7, n)),
                  matrix_neg3(n)):
            rows = [list(row) for row in m.entries]
            rows[-1][0] += 1
            broken = ScaledMatrix(tuple(map(tuple, rows)), m.log2_denom,
                                  m.basis)
            rejected = 0
            for a in range(1, m.dim + 1):
                assert [_compose(a, i, m.basis) for i in range(1, m.dim + 1)] \
                    == [(k + 1, s) for k, s in relabeling(m.basis, a)]
                for mat in (m, broken):
                    assert conjugation_invariance(mat, a) \
                        == relabeled_invariance(mat, a), (m.basis, a)
                rejected += not conjugation_invariance(broken, a)
            assert rejected, m.basis


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

    def test_conjugation_invariance_sine_basis(self):
        """The sine-basis matrices relabel with the sine's fold signs."""
        for n in range(3, 7):
            for m in (sine_basis_variant(matrix_scatter(7, n)),
                      matrix_neg3(n), matrix_neg5(n)):
                for a in range(1, m.dim + 1):
                    assert conjugation_invariance(m, a), (n, a)

    def test_conjugation_range_check(self):
        with pytest.raises(ValueError):
            conjugation_invariance(matrix_scatter(3, 4), 5)
        with pytest.raises(ValueError):
            conjugation_invariance(even_matrix(4, 4), 1)

    def test_rows_from_first_row_via_signed_relabeling(self):
        """Gather rows match scattering row 1 by perm_sign: the two routes
        are independent implementations of the same signed permutation."""
        for r, n in ((7, 4), (9, 5), (15, 6)):
            m = matrix_gather(r, n)
            row1 = m.entries[0]
            dim = m.dim
            for i in range(1, dim + 1):
                for j in range(1, dim + 1):
                    k, sign = perm_sign(i, j, n)
                    assert m.entries[i - 1][k - 1] == sign * row1[j - 1]


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
