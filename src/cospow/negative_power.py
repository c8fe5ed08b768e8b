"""Reciprocal powers 1/cos and 1/sin^3, 1/sin^5 over the dyadic bases.

The reciprocal of a dyadic cosine is again an integer combination of the
same cosines divided by 2: the matrix for r = -1 has every entry +-1, its
first row alternating. For 1/sin^3 and 1/sin^5 the entries grow
polynomially in the column index, scaled by 2^3 resp. 2^5; those first
rows are csc3_weight/2 and csc5_weight/24, the zeta(3) and zeta(5)
weights. Like the odd positive powers, each matrix is its first row sent
through odd_power's scatter or gather, and each family has both routes:
the scatter folds every angle by exact.quarter_fold and signs it by the
basis function (cosine for r = -1, sine for r = -3, -5), and the row
polynomials stay integral on the extended range 1..2^{n-1} the gather
reads.

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
    odd_cos_basis,
    odd_sin_basis,
)
from .odd_power import gather, gather_rows, scatter


def matrix_neg1(n: int) -> ScaledMatrix:
    """Sign matrix with 1/cos((2i-1)pi/2^n) = 2 sum_j M[i,j] cos((2j-1)pi/2^n).

    The gather of the alternating row, +1 at odd and -1 at even extended
    columns. Requires n >= 3.
    """
    if n < 3:
        raise ValueError("matrix_neg1 requires n >= 3")
    alternating = [1 if p % 2 else -1 for p in range(1, 2 ** (n - 1) + 1)]
    return gather(alternating, odd_cos_basis(n), -1)


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


def reciprocal_first_row(r: int, n: int, length: int) \
        -> tuple[list[int], int]:
    """Columns 1..length of the 1/sin^{-r} first row, r = -3 or -5, n >= 3,
    and the log2 denominator of its matrix: 2^{n-2} columns feed the
    scatter, 2^{n-1} the gather. (r, n) = (-5, 3) takes the doubled row
    over 2^4."""
    if n < 3:
        raise ValueError("reciprocal sine matrices require n >= 3")
    if r == -3:
        entry, log2_denom = row1_neg3, -3
    elif r == -5 and n == 3:
        entry, log2_denom = _row1_neg5_doubled, -4
    elif r == -5:
        entry, log2_denom = row1_neg5, -5
    else:
        raise ValueError("r must be -3 or -5")
    return [entry(n, j) for j in range(1, length + 1)], log2_denom


def matrix_neg3(n: int) -> ScaledMatrix:
    """1/sin^3((2i-1)pi/2^n) = 2^3 sum_j M[i,j] sin((2j-1)pi/2^n), n >= 3."""
    row, log2_denom = reciprocal_first_row(-3, n, 2 ** (n - 2))
    return scatter(row, odd_sin_basis(n), log2_denom)


def matrix_neg5(n: int) -> ScaledMatrix:
    """1/sin^5((2i-1)pi/2^n) = 2^5 sum_j M[i,j] sin((2j-1)pi/2^n), n >= 4.

    n = 3 is the one level where the quartic row over 24 is half-integral:
    csc^5(pi/8) = 48 sin(pi/8) + 112 sin(3pi/8), so the 2x2 matrix comes
    back over 2^4 with entries ((3, 7), (-7, 3)) instead.
    """
    row, log2_denom = reciprocal_first_row(-5, n, 2 ** (n - 2))
    return scatter(row, odd_sin_basis(n), log2_denom)


def matrix_neg3_entry(i: int, j: int, n: int) -> int:
    """One entry of matrix_neg3 from the gather's row i alone, no scatter
    pass and no other row."""
    row, _ = reciprocal_first_row(-3, n, 2 ** (n - 1))
    return next(gather_rows(row, n, (i,)))[j - 1]


def matrix_neg3_gather(n: int) -> ScaledMatrix:
    """matrix_neg3 rebuilt by the gather of the extended first row."""
    row, log2_denom = reciprocal_first_row(-3, n, 2 ** (n - 1))
    return gather(row, odd_sin_basis(n), log2_denom)


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
    row, log2_denom = reciprocal_first_row(r, n, 2 ** (n - 2))
    lhs = ctx.zero
    rhs = ctx.zero
    for entry, sin in zip(row, odd_sin_basis(n).values(ctx)):
        csc = 1 / sin
        lhs += csc ** (-r)
        rhs += entry * csc
    return lhs, 2 ** (-log2_denom - 1) * rhs


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
