"""Even cosine powers over the basis {1} u {cos(j pi/2^{n-1})}.

cos^r at a level-n dyadic angle, r even, lives in the span of the constant
and the halved-level cosines. Row 1 (the angle pi/2^n) is an alternating
binomial sum whose constant entry carries an exact factor 1/2; every other
row follows by the basis automorphism cos(j pi/2^{n-1}) ->
cos(j(2i-1) pi/2^{n-1}) followed by index folding. The folding can never
land on cos(pi/2) = 0 for in-range source indices (the 2-adic valuation of
j(2i-1) equals that of j, which is too small), so the construction is
total.

Also here: the general-N scalar power sum of cos^{2p}(k pi/N) (an exact
rational), and the integer-valued averages of (2 cos)^{2p} over a dyadic
level, which feed the zeta series.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import (
    EvalContext,
    ScaledMatrix,
    binom_int,
    even_cos_basis,
    exact_div,
    fold_even_cos_index,
    make_matrix,
)


def _check_even_r(r: int):
    if r < 0 or r % 2:
        raise ValueError("power r must be even and >= 0")


def even_first_row(r: int, n: int) -> tuple[int, ...]:
    """Coefficients of cos^r(pi/2^n) over the even basis, times 2^{r-1}.

    Entry 0 multiplies the constant 1, entry j multiplies cos(j pi/2^{n-1}).
    r = 0 returns (1, 0, ..., 0) directly (the represented value is the
    constant 1 with no scale). Requires even r >= 0 and n >= 3.
    """
    _check_even_r(r)
    if n < 3:
        raise ValueError("even_first_row requires n >= 3")
    dim = 2 ** (n - 2)
    if r == 0:
        return (1,) + (0,) * (dim - 1)
    half = r // 2
    kmax = r // 2**n + 1
    bracket = sum(
        (-1) ** k * (binom_int(r, half - k * 2 ** (n - 1))
                     - binom_int(r, half - (k + 1) * 2 ** (n - 1)))
        for k in range(kmax + 1)
    )
    # the constant entry is half the bracket; the bracket is always even
    row = [exact_div(bracket, 2, "even_first_row constant")]
    for j in range(1, dim):
        row.append(sum(
            (-1) ** k * (binom_int(r, half - (k * 2 ** (n - 1) + j))
                         - binom_int(r, half - ((k + 1) * 2 ** (n - 1) - j)))
            for k in range(kmax + 1)
        ))
    return tuple(row)


def even_matrix(r: int, n: int) -> ScaledMatrix:
    """The full change-of-basis matrix for cos^r, r even >= 2, n >= 3.

    Row i distributes the first row through the automorphism: source index
    j lands at fold_even_cos_index(j(2i-1), n) with the fold sign, and the
    constant column is invariant across rows.
    """
    _check_even_r(r)
    if r < 2:
        raise ValueError("even_matrix requires r >= 2")
    dim = 2 ** (n - 2)
    fr = even_first_row(r, n)
    rows = []
    for i in range(1, dim + 1):
        row = [0] * dim
        row[0] = fr[0]
        for j in range(1, dim):
            k, sign = fold_even_cos_index(j * (2 * i - 1), n)
            if k == 0:
                raise ArithmeticError("fold reached the constant column")
            row[k] += sign * fr[j]
        rows.append(row)
    return make_matrix(rows, r - 1, even_cos_basis(n))


def merca_sum(bign: int, p: int) -> Fraction:
    """Exact value of sum_{k=1}^{floor((N-1)/2)} cos^{2p}(k pi/N):

        -1/2 + (N/2^{2p+1}) sum_{k=-floor(p/N)}^{floor(p/N)} C(2p, p+kN)

    for integers N >= 2, p >= 1. Large p wraps around the central column
    and picks up the off-center binomials.
    """
    if bign < 2:
        raise ValueError("merca_sum requires N >= 2")
    if p < 1:
        raise ValueError("merca_sum requires p >= 1")
    wrap = p // bign
    tot = sum(binom_int(2 * p, p + k * bign) for k in range(-wrap, wrap + 1))
    return Fraction(-1, 2) + Fraction(bign, 2 ** (2 * p + 1)) * tot


def merca_numeric_lhs(bign: int, p: int, ctx: EvalContext):
    tot = ctx.zero
    for k in range(1, (bign - 1) // 2 + 1):
        tot += ctx.power(ctx.cos(ctx.pi * k / bign), 2 * p)
    return tot


def integer_power_average(p: int, n: int) -> int:
    """The exact integer equal to sum_i (2 cos((2i-1)pi/2^n))^{2p} / 2^{n-2}:

        sum_k (-1)^k [C(2p, p - k 2^{n-1}) - C(2p, p - (k+1) 2^{n-1})]

    Requires p >= 1, n >= 2. That the average of 2^{n-2} algebraic numbers
    is an integer at all is the point; the tests confirm it numerically.
    """
    if p < 1:
        raise ValueError("integer_power_average requires p >= 1")
    if n < 2:
        raise ValueError("integer_power_average requires n >= 2")
    step = 2 ** (n - 1)
    return sum(
        (-1) ** k * (binom_int(2 * p, p - k * step)
                     - binom_int(2 * p, p - (k + 1) * step))
        for k in range(p // step + 1)
    )
