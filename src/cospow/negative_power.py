"""Reciprocal powers 1/cos and 1/sin^3, 1/sin^5 over the dyadic bases.

The reciprocal of a dyadic cosine is again an integer combination of the
same cosines divided by 2: the matrix for r = -1 has every entry +-1, with
the sign read off a modular quotient parity. For 1/sin^3 and 1/sin^5 the
entries grow polynomially in the column index; each matrix is a single
polynomial first row scattered through the rows by the same
position-and-sign permutation, scaled by 2^3 resp. 2^5. Those first rows
are csc3_weight/2 and csc5_weight/24, the zeta(3) and zeta(5) weights.

The cube case also has a one-shot closed form per entry (a quadratic in a
reduced residue), which the tests pit against the scatter construction.

The scalar sums sum_i csc^s((2i-1)pi/2^n) close in exact rationals for
even s and in quadratic-through-sextic weight vectors against the
cosecants themselves for odd s; S_closed_form packages both shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    EvalContext,
    ScaledMatrix,
    exact_div,
    make_matrix,
    mod_pos,
    odd_cos_basis,
    odd_sin_basis,
)
from .odd_power import scatter_target


def matrix_neg1(n: int) -> ScaledMatrix:
    """Sign matrix with 1/cos((2i-1)pi/2^n) = 2 sum_j M[i,j] cos((2j-1)pi/2^n).

    M[i,j] = (-1)^{1+q} where q is the parity of
    floor((1-i-j)(1 + 2^{n-1} - 2i)^{2^{n-2}-1} / 2^{n-1}); the power is
    reduced mod 2^n first, which preserves that parity. Requires n >= 3.
    """
    if n < 3:
        raise ValueError("matrix_neg1 requires n >= 3")
    dim = 2 ** (n - 2)
    modulus = 2**n
    rows = []
    for i in range(1, dim + 1):
        powi = pow(1 + 2 ** (n - 1) - 2 * i, dim - 1, modulus)
        row = []
        for j in range(1, dim + 1):
            q = (mod_pos((1 - i - j) * powi, modulus) >> (n - 1)) & 1
            row.append((-1) ** (1 + q))
        rows.append(row)
    return make_matrix(rows, -1, odd_cos_basis(n))


def csc3_weight(n: int, j: int) -> int:
    """Weight on csc((2j-1)pi/2^n) in the zeta(3) sum: -j^2+(2^{n-1}+1)j-2^{n-2}."""
    return -j * j + (2 ** (n - 1) + 1) * j - 2 ** (n - 2)


def csc5_weight(n: int, j: int) -> int:
    """Weight on csc((2j-1)pi/2^n) in the zeta(5) sum, a quartic in j."""
    return (j**4 - 2 * (2 ** (n - 1) + 1) * j**3
            + (3 * 2 ** (n - 1) - 1) * j**2
            + 2 * (2 ** (n - 2) + 2 ** (3 * n - 4) + 1) * j
            - 2 ** (n - 1) * (2 ** (2 * n - 3) + 1))


def row1_neg3(n: int, j: int) -> int:
    """First-row entry j of the 1/sin^3 matrix: csc3_weight(n, j)/2."""
    return exact_div(csc3_weight(n, j), 2, "row1_neg3")


def row1_neg5(n: int, j: int) -> int:
    """First-row entry j of the 1/sin^5 matrix: csc5_weight(n, j)/24.

    Integral for n >= 4. At n = 3 the quartic over 24 gives 3/2 and 7/2,
    so that one level is carried over 2^4 instead; see matrix_neg5.
    """
    return exact_div(csc5_weight(n, j), 24, "row1_neg5")


def _row1_neg5_doubled(n: int, j: int) -> int:
    # doubled entry for the n = 3 matrix over 2^4
    return exact_div(csc5_weight(n, j), 12, "doubled row1_neg5")


def _scatter_reciprocal(n: int, first_row, log2_denom: int) -> ScaledMatrix:
    # same destination as the positive odd powers (scatter_target), but the
    # sign that works here is the parity of (p-1)//2^{n-1} = s//2, not
    # perm_sign's flag
    dim = 2 ** (n - 2)
    fr = [first_row(n, j) for j in range(1, dim + 1)]
    rows = []
    for i in range(1, dim + 1):
        row = [0] * dim
        for j, v in enumerate(fr, start=1):
            m, s = scatter_target(i, j, dim)
            row[m - 1] = -v if s & 2 else v
        rows.append(row)
    return make_matrix(rows, log2_denom, odd_sin_basis(n))


def matrix_neg3(n: int) -> ScaledMatrix:
    """1/sin^3((2i-1)pi/2^n) = 2^3 sum_j M[i,j] sin((2j-1)pi/2^n), n >= 3."""
    if n < 3:
        raise ValueError("matrix_neg3 requires n >= 3")
    return _scatter_reciprocal(n, row1_neg3, -3)


def matrix_neg5(n: int) -> ScaledMatrix:
    """1/sin^5((2i-1)pi/2^n) = 2^5 sum_j M[i,j] sin((2j-1)pi/2^n), n >= 4.

    n = 3 is the one level where the quartic row over 24 is half-integral:
    csc^5(pi/8) = 48 sin(pi/8) + 112 sin(3pi/8), so the 2x2 matrix comes
    back over 2^4 with entries ((3, 7), (-7, 3)) instead.
    """
    if n < 3:
        raise ValueError("matrix_neg5 requires n >= 3")
    if n == 3:
        return _scatter_reciprocal(3, _row1_neg5_doubled, -4)
    return _scatter_reciprocal(n, row1_neg5, -5)


def matrix_neg3_entry(i: int, j: int, n: int) -> int:
    """Closed form for one entry of matrix_neg3, no scatter pass.

    Reduce X = (i+j-1)(2i-1)^{2^{n-2}-1} mod 2^n, split X = q 2^{n-1} + P;
    the entry is (-1)^q row1_neg3(n, P), the first-row quadratic read at P.
    """
    dim = 2 ** (n - 2)
    x = mod_pos((i + j - 1) * pow(2 * i - 1, dim - 1, 2**n), 2**n)
    p = x % 2 ** (n - 1)
    q = x >> (n - 1)
    return (-1) ** q * row1_neg3(n, p)


def matrix_neg3_gather(n: int) -> ScaledMatrix:
    """matrix_neg3 rebuilt entrywise from matrix_neg3_entry."""
    if n < 3:
        raise ValueError("matrix_neg3_gather requires n >= 3")
    dim = 2 ** (n - 2)
    rows = [[matrix_neg3_entry(i, j, n) for j in range(1, dim + 1)]
            for i in range(1, dim + 1)]
    return make_matrix(rows, -3, odd_sin_basis(n))


def cosine_basis_variant(m: ScaledMatrix) -> ScaledMatrix:
    """Reverse rows and columns to move a sine-basis matrix to cosines."""
    if m.basis.kind != "odd_sin":
        raise ValueError("expected an odd-sine-basis matrix")
    return m.reversed_rows_and_columns(odd_cos_basis(m.basis.n))


def first_row_sum_identity(r: int, n: int, ctx: EvalContext):
    """Both sides of S(|r|, n) = (scale/2) sum_j M[1,j] csc((2j-1)pi/2^n).

    The left side sums csc^{|r|} over the level directly; the right side
    uses only the first matrix row and the matrix's own scale, which is
    2^{|r|} everywhere except the half-integral (r, n) = (-5, 3) level.
    r in {-3, -5}.
    """
    if r == -3:
        mat = matrix_neg3(n)
    elif r == -5:
        mat = matrix_neg5(n)
    else:
        raise ValueError("r must be -3 or -5")
    lhs = ctx.zero
    rhs = ctx.zero
    for entry, sin in zip(mat.entries[0], mat.basis.values(ctx)):
        csc = 1 / sin
        lhs += csc ** (-r)
        rhs += entry * csc
    return lhs, 2 ** (-mat.log2_denom - 1) * rhs


@dataclass(frozen=True)
class CscPowerSum:
    """Exact form of S(s, n) = sum_i csc^s((2i-1)pi/2^n).

    Even s closes as a rational scalar. Odd s closes as a rational weight
    vector against csc((2j-1)pi/2^n), j = 1 .. 2^{n-2}.
    """

    s: int
    n: int
    scalar: Fraction | None = None
    csc_weights: tuple[Fraction, ...] | None = None

    def numeric(self, ctx: EvalContext):
        if self.scalar is not None:
            return ctx.to_real(self.scalar)
        tot = ctx.zero
        for w, sin in zip(self.csc_weights, odd_sin_basis(self.n).values(ctx)):
            tot += ctx.to_real(w) / sin
        return tot


def _weight3(n: int, j: int) -> Fraction:
    return Fraction(2 * csc3_weight(n, j))


def _weight5(n: int, j: int) -> Fraction:
    return Fraction(2 * csc5_weight(n, j), 3)


def _weight7(n: int, j: int) -> Fraction:
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


def S_closed_form(s: int, n: int) -> CscPowerSum:
    """Closed form of the cosecant power sum for s in [2, 8], n >= 3."""
    if n < 3:
        raise ValueError("S_closed_form requires n >= 3")
    dim = 2 ** (n - 2)
    if s == 2:
        return CscPowerSum(s, n, scalar=Fraction(2 ** (2 * n - 3)))
    if s == 4:
        return CscPowerSum(s, n, scalar=Fraction(
            2 ** (4 * n - 4) + 2 ** (2 * n - 1), 6))
    if s == 6:
        return CscPowerSum(s, n, scalar=Fraction(
            2 ** (6 * n - 5) + 5 * 2 ** (4 * n - 4) + 2 ** (2 * n + 1), 30))
    if s == 8:
        return CscPowerSum(s, n, scalar=Fraction(
            17 * 2 ** (8 * n - 8) + 56 * 2 ** (6 * n - 6)
            + 98 * 2 ** (4 * n - 4) + 144 * 2 ** (2 * n - 2), 630))
    if s == 3:
        w = _weight3
    elif s == 5:
        w = _weight5
    elif s == 7:
        w = _weight7
    else:
        raise ValueError("s must be in [2, 8]")
    return CscPowerSum(s, n, csc_weights=tuple(
        w(n, j) for j in range(1, dim + 1)))


def direct_csc_power_sum(s: int, n: int, ctx: EvalContext):
    """Numeric S(s, n) summed term by term, the oracle side of the tests."""
    tot = ctx.zero
    for sin in odd_sin_basis(n).values(ctx):
        tot += sin ** (-s)
    return tot
