"""Reciprocal powers 1/cos and 1/sin^3, 1/sin^5 over the dyadic bases,
and the cosecant power sums S(s, n) = sum_i csc^s((2i-1)pi/2^n).

The reciprocal of a dyadic cosine is again an integer combination of the
same cosines divided by 2: the matrix for r = -1 has every entry +-1, its
first row alternating. For 1/sin^3 and 1/sin^5 the first row is the
weight vector of the odd cosecant sum S(-r, n) over 2^{-r-1}, scaled by
2^3 resp. 2^5; the zeta(3) and zeta(5) sums read the same weights. Like
the odd positive powers, each matrix is its first row sent through
odd_power's scatter or gather, and each family has both routes from the
same first row: the scatter walks the rows by multiplying every angle
by 3, reading each column and sign off the fold of the cosine basis
(r = -1) or the sine basis (r = -3, -5), and the gather looks each
entry up by a modular inverse.

S(s, n) closes in an exact rational for even s and in an integer weight
vector against the cosecants themselves for odd s; S_closed_form
packages both shapes. Both come from one exact route, odd_csc_weights,
which derives them from the level polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, islice
from operator import or_

from .exact import (
    EvalContext,
    ScaledMatrix,
    exact_div,
    odd_cos_basis,
    odd_sin_basis,
)
from .minpoly import _newton_averages, _two_cos_even_coefficients
from .odd_power import gather, gather_rows, scatter


def matrix_neg1(n: int) -> ScaledMatrix:
    """Sign matrix with 1/cos((2i-1)pi/2^n) = 2 sum_j M[i,j] cos((2j-1)pi/2^n).

    The gather of the alternating row, +1 at odd and -1 at even columns.
    Requires n >= 3.
    """
    if n < 3:
        raise ValueError("matrix_neg1 requires n >= 3")
    alternating = [1 if p % 2 else -1 for p in range(1, 2 ** (n - 2) + 1)]
    return gather(alternating, odd_cos_basis(n), -1)


def _even_power_sums(n: int, top: int) -> list[int]:
    """S(2k, n), k = 0..top, n >= 3; see odd_csc_weights."""
    dim = 2 ** (n - 2)
    h = list(islice(_two_cos_even_coefficients(n), top + 1))
    cs = [-exact_div(4**k * c, h[0], "reciprocal Newton coefficient")
          for k, c in enumerate(h[1:], start=1)]
    return [dim * a for a in islice(_newton_averages(cs, dim), top + 1)]


def odd_csc_weights(s: int, n: int) -> list[int]:
    """Integer weights w_1..w_{2^{n-2}} with S(s, n) = sum_j w_j
    csc((2j-1)pi/2^n), odd s >= 3, n >= 3: the one exact route to every
    cosecant closed form, derived from the level polynomial.

    Even powers. x_i = 4cos^2 t_i, t_i = (2i-1)pi/2^n, i = 1..N = 2^{n-2},
    are the roots of the even part h of monic_two_cos_poly(n), and
    {sin^2 t_i} = {cos^2 t_i}, so S(2k, n) = sum_i (4/x_i)^k. The 4/x_i
    are the roots of the reversed h scaled by 4, whose signed elementary
    symmetric functions (-1)^{k+1} e_k are -4^k h_k/h_0; Newton's
    identities on them give the power sums from h_0..h_k alone
    (_even_power_sums).

    Odd powers, s = 2m+1. The weights are the sine coefficients of csc^s
    over the level, csc^s t_i = 2 sum_j w_j sin((2j-1)t_i) for every i
    (the 1/sin^s matrix row; see reciprocal_first_row). The odd sines
    are orthogonal there, sum_i sin((2j-1)t_i) sin((2k-1)t_i) =
    (N/2) delta_jk, and csc t sin((2j-1)t) = 1 + 2 sum_{k=1}^{j-1} cos 2kt,
    so with D_m(k) = sum_i csc^{2m} t_i cos 2kt_i
        w_j = (D_m(0) + 2 sum_{k=1}^{j-1} D_m(k)) / N.
    Since (1 - cos 2t) cos 2kt = cos 2kt - (cos 2(k+1)t + cos 2(k-1)t)/2
    and 1 - cos 2t = 2 sin^2 t,
        D_m(k+1) = 2 D_m(k) - D_m(k-1) - 4 D_{m-1}(k),
        D_m(1) = D_m(0) - 2 D_{m-1}(0),
    from D_m(0) = S(2m, n) and D_0(k) = N [k = 0], 0 <= k < N. That is
    O(s N) integer steps, each division exact.
    """
    if not isinstance(s, int) or s < 3 or s % 2 == 0 or n < 3:
        raise ValueError("odd_csc_weights requires odd s >= 3 and n >= 3")
    dim = 2 ** (n - 2)
    sums = _even_power_sums(n, (s - 1) // 2)
    d = [dim] + [0] * (dim - 1)
    for total in sums[1:]:
        prev = d
        d = [total, total - 2 * prev[0]]
        for k in range(1, dim - 1):
            d.append(2 * d[k] - d[k - 1] - 4 * prev[k])
    return [exact_div(t, dim, "csc weight") for t in
            accumulate((2 * x for x in d[1:dim]), initial=d[0])]


def reciprocal_first_row(r: int, n: int) -> tuple[list[int], int]:
    """The 1/sin^{-r} first row, r = -3 or -5, n >= 3, and the log2
    denominator of its matrix; the scatter and the gather both read it.

    The row is w = odd_csc_weights(-r, n) over 2^e, e the smaller of -r-1
    and the least 2-adic valuation of the w_j, so the matrix comes over
    2^{e+1}: 2^{-r} except at (r, n) = (-5, 3).
    """
    if n < 3:
        raise ValueError("reciprocal sine matrices require n >= 3")
    if r not in (-3, -5):
        raise ValueError("r must be -3 or -5")
    w = odd_csc_weights(-r, n)
    low = reduce(or_, w)
    e = min(-r - 1, (low & -low).bit_length() - 1)
    return [x >> e for x in w], -e - 1


def matrix_neg3(n: int) -> ScaledMatrix:
    """1/sin^3((2i-1)pi/2^n) = 2^3 sum_j M[i,j] sin((2j-1)pi/2^n), n >= 3."""
    row, log2_denom = reciprocal_first_row(-3, n)
    return scatter(row, odd_sin_basis(n), log2_denom)


def matrix_neg5(n: int) -> ScaledMatrix:
    """1/sin^5((2i-1)pi/2^n) = 2^5 sum_j M[i,j] sin((2j-1)pi/2^n), n >= 3,
    with 2^4 for 2^5 at n = 3, where the row over 2^5 is half-integral:
    csc^5(pi/8) = 48 sin(pi/8) + 112 sin(3pi/8), so the 2x2 matrix is
    ((3, 7), (-7, 3)) over 2^4.
    """
    row, log2_denom = reciprocal_first_row(-5, n)
    return scatter(row, odd_sin_basis(n), log2_denom)


def matrix_neg3_entry(i: int, j: int, n: int) -> int:
    """One entry of matrix_neg3 from the gather's row i alone, no scatter
    pass and no other row. i, j in 1..2^{n-2}."""
    row, _ = reciprocal_first_row(-3, n)
    if not (1 <= i <= len(row) and 1 <= j <= len(row)):
        raise ValueError("matrix_neg3 entries are indexed 1..2^(n-2)")
    return next(gather_rows(row, odd_sin_basis(n), (i,)))[j - 1]


def matrix_neg3_gather(n: int) -> ScaledMatrix:
    """matrix_neg3 rebuilt by the gather of its first row."""
    row, log2_denom = reciprocal_first_row(-3, n)
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
    row, log2_denom = reciprocal_first_row(r, n)
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
        """The value at ctx's precision."""
        if self.scalar is not None:
            return ctx.to_real(self.scalar)
        return weighted_csc_sum(self.csc_weights, self.n, ctx)


def S_closed_form(s: int, n: int) -> CscPowerSum:
    """Closed form of the cosecant power sum for integer s in [2, 8],
    n >= 3, read off odd_csc_weights and its even power sums."""
    if not isinstance(s, int) or not 2 <= s <= 8:
        raise ValueError("s must be an integer in [2, 8]")
    if n < 3:
        raise ValueError("S_closed_form requires n >= 3")
    if s % 2 == 0:
        return CscPowerSum(s, n, scalar=Fraction(
            _even_power_sums(n, s // 2)[-1]))
    return CscPowerSum(s, n, csc_weights=tuple(
        map(Fraction, odd_csc_weights(s, n))))


def weighted_csc_sum(weights, n: int, ctx: EvalContext):
    """sum_j w_j csc((2j-1)pi/2^n), each int or Fraction weight put to
    ctx's precision once: the one sum behind CscPowerSum and the weighted
    zeta routes."""
    return ctx.quotient_sum(weights, odd_sin_basis(n).values(ctx))


def direct_csc_power_sum(s: int, n: int, ctx: EvalContext):
    """Numeric S(s, n) summed term by term, the oracle side of the tests."""
    return ctx.power_sum(odd_sin_basis(n).values(ctx), -s)
