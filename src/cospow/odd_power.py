"""Exact change-of-basis matrices for odd positive cosine powers.

For odd r >= 1 there is a 2^{n-2} x 2^{n-2} integer matrix M with

    cos^r((2i-1)pi/2^n) = (1/2^{r-1}) sum_k M[i,k] cos((2k-1)pi/2^n).

Row 1 is the binomial expansion of cos^r folded onto the basis by
exact.quarter_fold; every later row is a signed permutation of row 1.
The even powers (even_power) and the reciprocal powers (negative_power)
share that shape, so every matrix in the package is built from its
first row of 2^{n-2} entries, by one of two routes:

  * scatter: row i multiplies the angle of each row-1 column by 2i-1 and
    puts the entry where the basis folds the product. The rows are
    walked in the order of the multipliers 3^m, m < dim, so each row is
    the last one with every angle tripled: one signed permutation, read
    once off exact.Basis.fold. It serves all three bases;
  * gather: compute each entry in place from a modular inverse power,
    looking it up in the first row extended once, by its half-turn
    mirror, to every odd angle below 2 pi. It serves the odd bases.

The two routes must agree entrywise on every odd-basis family, which is
the core self-check of the package; the tests also hold the fold to an
independent per-entry statement of the law.

The unsigned permutation law makes {1..2^{n-2}} a cyclic abelian group
(group elements are plain ints here). The matrices are normal and any two
at the same level commute, all checkable in exact integer arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter

from .exact import (
    Basis,
    BasisVector,
    EvalContext,
    ScaledMatrix,
    _folded_binomial_row,
    int_mat_mul,
    odd_cos_basis,
)


def _check_odd_r(r: int):
    if r < 1 or r % 2 == 0:
        raise ValueError("power r must be odd and >= 1")


def first_row_entry(r: int, n: int, j: int) -> int:
    """Row-1 entry at (possibly extended) column j, 1 <= j <= 2^{n-1}:
    the coefficient of cos((2j-1)pi/2^n), which for j > 2^{n-2} is the
    negated entry at column 2^{n-1} - j + 1 (cos(pi - t) = -cos t)."""
    if n < 2 or not 1 <= j <= 2 ** (n - 1):
        raise ValueError("first_row_entry needs n >= 2 and 1 <= j <= 2^(n-1)")
    return _signed_turn(first_row(r, n), odd_cos_basis(n))[j - 1]


def first_row(r: int, n: int) -> tuple[int, ...]:
    """Coefficients of cos^r(pi/2^n) over the odd-cosine basis, times
    2^{r-1}. Requires odd r >= 1 and n >= 2."""
    _check_odd_r(r)
    if n < 2:
        raise ValueError("first_row requires n >= 2")
    return tuple(_folded_binomial_row(r, 2 ** (n - 2)))


def scatter(first_row, basis: Basis, log2_denom: int) -> ScaledMatrix:
    """The matrix whose row i is row 1 sent through the angle law: column
    j (0-based), at t = 2j+1 on the odd bases and at t = j on the even
    one, goes where basis.fold(t(2i-1)) puts it, with that sign.

    The rows are visited in the order of the multipliers o = 3^m mod
    2^{n+1}, m < dim, which meet every row once since 3 generates the
    group (find_generator). The row of 3o is the row of o with every
    column's angle tripled, so column k's entry moves, signed, to
    basis.fold(3t): one permutation of the row and its negation, held
    as one tuple of 2 dim ints, applied by one itemgetter. The row of o
    is 0-based row k of the matrix times sign, (k, sign) = basis.fold(o)
    on the odd bases, since g(tox) = sign g(t(2k+1)x) for odd t; on the
    even basis k is odd_cos_basis(n).fold(o)'s column and the sign +,
    cosines of even multiples being even. Every row is a slice of the
    walk's tuple, sharing the first row's ints."""
    dim = basis.dim
    if len(first_row) != dim:
        raise ValueError("scatter needs a first row of length 2^(n-2)")
    even = basis.kind == "even_cos"
    ts = range(dim) if even else range(1, 2 * dim, 2)
    source = [0] * (2 * dim)
    for k, t in enumerate(ts):
        c, sign = basis.fold(3 * t)
        source[c], source[c + dim] = (k, k + dim) if sign > 0 else (k + dim, k)
    triple = itemgetter(*source)
    row_fold = odd_cos_basis(basis.n).fold if even else basis.fold
    pair = (*first_row, *(-v for v in first_row))
    rows = [()] * dim
    o = 1
    for _ in range(dim):
        k, sign = row_fold(o)
        rows[k] = pair[:dim] if even or sign > 0 else pair[dim:]
        pair = triple(pair)
        o = 3 * o % (8 * dim)
    return ScaledMatrix(tuple(rows), log2_denom, basis)


def _signed_turn(first_row, basis: Basis) -> list:
    """The first row over an odd basis extended to every odd angle below
    2 pi: entry X-1 is the coefficient of g((2X-1)pi/2^n), 1 <= X <= 2^n,
    g the basis function. Past the quarter turn it is the row's half-turn
    mirror, g(pi - t) = sign * g(t) with basis.fold's sign for pi - t,
    t the last column's angle; past the half turn, the negation of both."""
    _, sign = basis.fold(2 * basis.dim + 1)
    extended = [*first_row, *(sign * v for v in reversed(first_row))]
    return [*extended, *(-v for v in extended)]


def gather_rows(first_row, basis: Basis, rows):
    """Rows i in `rows` of the gathered matrix over an odd basis, one list
    each, from the same first row the scatter reads: entry (i, j) is
    _signed_turn(first_row, basis)[X-1], X = (i+j-1)(2i-1)^{2^{n-2}-1}
    mod 2^n, never 0 or 2^{n-1}, the power inverting 2i-1 (_odd_inverse).
    Each row reduces its own power, not the group law's. Row i reads the
    multiples k*inv, i <= k < i+dim, as one stepped range, each reduced
    mod 2^n by a mask."""
    dim = basis.dim
    mask = 4 * dim - 1
    signed = _signed_turn(first_row, basis)
    signed.insert(0, signed.pop())  # entry X now at X mod 2^n
    for i in rows:
        inv = pow(2 * i - 1, dim - 1, mask + 1)
        yield [signed[x & mask] for x in range(i * inv, (i + dim) * inv, inv)]


def gather(first_row, basis: Basis, log2_denom: int) -> ScaledMatrix:
    """The matrix over an odd basis built by gather_rows from its first
    row."""
    if basis.kind == "even_cos":
        raise ValueError("gather needs an odd basis")
    if len(first_row) != basis.dim:
        raise ValueError("gather needs a first row of length 2^(n-2)")
    rows = gather_rows(first_row, basis, range(1, basis.dim + 1))
    return ScaledMatrix(tuple(map(tuple, rows)), log2_denom, basis)


def matrix_scatter(r: int, n: int) -> ScaledMatrix:
    """Build M by scattering row 1 through the permutation/sign law."""
    return scatter(first_row(r, n), odd_cos_basis(n), r - 1)


def matrix_gather(r: int, n: int) -> ScaledMatrix:
    """Build M entry by entry from the modular inverse power."""
    return gather(first_row(r, n), odd_cos_basis(n), r - 1)


# the permutation law as a group on {1..2^{n-2}}

def _compose(a: int, b: int, basis: Basis) -> tuple[int, int]:
    """The odd basis's fold of (2a-1)(2b-1), its index 1-based; a, b >= 1."""
    k, sign = basis.fold((2 * a - 1) * (2 * b - 1))
    return k + 1, sign


def _odd_inverse(a: int, n: int) -> int:
    """The inverse of 2a-1 modulo 2^{n+1}. Modulo 2^k, k >= 3, it is
    (2a-1)^{2^{k-2}-1} (Euler), the power gather_rows reduces at k = n."""
    return pow(2 * a - 1, -1, 2 ** (n + 1))


def group_op(a: int, b: int, n: int) -> int:
    """The composition index: a then b lands on group_op(a, b, n)."""
    basis = odd_cos_basis(n)
    if not (1 <= a <= basis.dim and 1 <= b <= basis.dim):
        raise ValueError("group elements out of range")
    return _compose(a, b, basis)[0]


def group_inverse(a: int, n: int) -> int:
    """The fold of the inverse of 2a-1 (_odd_inverse)."""
    basis = odd_cos_basis(n)
    if not 1 <= a <= basis.dim:
        raise ValueError("group element out of range")
    return basis.fold(_odd_inverse(a, n))[0] + 1


def element_order(a: int, n: int) -> int:
    x, order = group_op(a, 1, n), 1  # group_op checks a and n
    while x != 1:
        x = group_op(x, a, n)
        order += 1
    return order


def find_generator(n: int) -> int:
    """The least generator of the group at level n >= 2.

    Index 2 stands for the odd number 3, which has order 2^{n-2} modulo 2^n
    and never reaches -1, so it generates (Z/2^n)*/{+-1} for every n >= 3;
    it is the least generator, since index 1 is the identity. At n = 2 the
    group is trivial and its one element 1 generates it.
    """
    if n < 2:
        raise ValueError("find_generator requires n >= 2")
    return 1 if n == 2 else 2


def cayley_table(n: int) -> tuple[tuple[int, ...], ...]:
    """group_op over all pairs, each row one odd number's products with
    the odd numbers 1, 3, ..., 2^{n-1} - 1, read off the odd-cosine fold
    of each odd t < 2^n, once: a product's column is its fold's mod 2^n."""
    basis = odd_cos_basis(n)
    modulus = 4 * basis.dim
    cols = [t % 2 and basis.fold(t)[0] + 1 for t in range(modulus)]
    odds = range(1, modulus // 2, 2)
    return tuple(tuple(cols[a * b % modulus] for b in odds) for a in odds)


def verify_group_axioms(n: int, table=None) -> dict[str, bool]:
    """Closure, identity, commutativity, associativity and cyclicity of
    the unsigned permutation law at level n, each read off table, which
    is cayley_table(n) when the caller has not built it.

    The walk g, g.g, (g.g).g, ... of the table's left powers of
    g = find_generator(n) is cyclic when it covers all dim elements and
    first returns to 1 at step dim. Associativity is Light's test
    (Clifford & Preston, The Algebraic Theory of Semigroups I, 1961,
    sec. 1.2): the a with (x.a).y = x.(a.y) for all x, y form a
    submagma, so a covering walk and that identity for a = g certify the
    whole table in O(dim^2). A walk that does not cover gives False,
    never an uncertified True; the walk of a cayley_table always covers.
    """
    dim = odd_cos_basis(n).dim
    elems = range(1, dim + 1)
    if table is None:
        table = cayley_table(n)
    closure = all(1 <= v <= dim for row in table for v in row)
    identity = all(table[0][b - 1] == b and table[b - 1][0] == b
                   for b in elems)
    commutative = all(table[a - 1][b - 1] == table[b - 1][a - 1]
                      for a in elems for b in elems)
    g = find_generator(n)
    walk = [g]
    while closure and len(walk) < dim:
        walk.append(table[walk[-1] - 1][g - 1])
    covers = closure and sorted(walk) == list(elems)
    associative = covers and all(
        list(table[row[g - 1] - 1]) == [row[v - 1] for v in table[g - 1]]
        for row in table)
    return {
        "closure": closure,
        "identity": identity,
        "commutative": commutative,
        "associative": associative,
        "cyclic": covers and walk[-1] == 1,
    }


def verify_numeric(m: ScaledMatrix, r: int, ctx: EvalContext):
    """Max residual of the represented expansion at level n.

    Row i asserts g^r((2i-1)pi/2^n) = scale * sum_k entries[i][k] * basis_k
    where g is cos for cosine bases and sin for the sine basis; r may be
    negative. Works for every matrix this package constructs.

    The basis is evaluated once per context. For the odd bases g((2i-1)pi/2^n)
    is basis element i-1, so the left side reads the same table; only the
    even basis needs a second one, of odd-angle cosines. The residuals
    come from EvalContext.max_residual: row sums on ints, rounded step by
    step exactly as the mpf loop `rhs += entry * v` rounds them, and the
    rest on mpmath's raw tuples, rounded as the mpf operators round.
    """
    vals = m.basis.values(ctx)
    if m.basis.kind == "even_cos":
        g_vals = odd_cos_basis(m.basis.n).values(ctx)
    else:
        g_vals = vals
    return ctx.max_residual(m.entries, vals, g_vals, r, m.log2_denom)


def is_normal(m: ScaledMatrix) -> bool:
    """Exact test of M M^T = M^T M."""
    t = tuple(zip(*m.entries))
    return int_mat_mul(m.entries, t) == int_mat_mul(t, m.entries)


def commutes(a: ScaledMatrix, b: ScaledMatrix) -> bool:
    """Exact test of AB = BA; requires matching basis."""
    if a.basis != b.basis:
        raise ValueError("commutes requires matching bases")
    return int_mat_mul(a.entries, b.entries) == int_mat_mul(b.entries, a.entries)


def conjugation_invariance(m: ScaledMatrix, a: int) -> bool:
    """Entrywise invariance of M under the signed relabeling by a:

        M[i,j] = s_i s_j M[a o i, a o j]

    where _compose(a, i, m.basis) gives the index a o i and sign s_i,
    the sign of the basis function. The sign convention extends the group
    law by (-a) o b = -(a o b). Requires an odd basis.
    """
    dim = m.dim
    if not 1 <= a <= dim:
        raise ValueError("group element out of range")
    if m.basis.kind == "even_cos":
        raise ValueError("conjugation_invariance needs an odd basis")
    folds = [_compose(a, i, m.basis) for i in range(1, dim + 1)]
    return all(
        m.entries[i][j] == si * sj * m.entries[ki - 1][kj - 1]
        for i, (ki, si) in enumerate(folds)
        for j, (kj, sj) in enumerate(folds))


def power_sum(r: int, n: int) -> BasisVector:
    """Coefficients c with sum_i cos^r((2i-1)pi/2^n) = sum_j c_j cos_j,
    as exact rationals (the 1/2^{r-1} scale folded in)."""
    m = matrix_gather(r, n)
    den = 2 ** (r - 1)
    cols = tuple(Fraction(sum(col), den) for col in zip(*m.entries))
    return BasisVector(cols, m.basis)


def all_angles_power_sum(r: int, m: int) -> list[tuple[int, BasisVector]]:
    """Decompose sum_{i=1}^{2^{m-1}-1} cos^r(i pi/2^m) by level.

    Each i factors as (2t-1) 2^{m-n}, so the full sum splits into the
    per-level odd-angle sums for n = 2..m.
    """
    _check_odd_r(r)
    if m < 2:
        raise ValueError("all_angles_power_sum requires m >= 2")
    return [(n, power_sum(r, n)) for n in range(2, m + 1)]


def sine_basis_variant(m: ScaledMatrix) -> ScaledMatrix:
    """The same transform presented over the odd-sine basis.

    sin((2k-1)pi/2^n) = cos((2k'-1)pi/2^n) for k' = 2^{n-2}-k+1, so the
    conversion is exactly: reverse the row order and the column order.
    """
    if m.basis.kind != "odd_cos":
        raise ValueError("sine_basis_variant expects an odd_cos matrix")
    return m.reversed_rows_and_columns(Basis("odd_sin", m.basis.n))
