"""Minimal polynomials of cos((2i-1)*pi/2^n).

The degree-2^{n-1} polynomial f_n with those cosines (and their negatives)
as its roots is built two independent ways:

  * nested:  expand ((...(((2x)^2-2)^2-2)...)^2-2)/2, built from
             q = (2x)^2 - 2 by squaring and subtracting 2, n-2 times.
  * closed:  1 + sum_m c_{n,m} x^{2m} with
             c_{n,m} = (-1)^m 2^{n+2m-2}/(2^{n-2}+m) * C(2^{n-2}+m, 2^{n-2}-m).

Both agree exactly for n >= 3. Normalization note: the canonical form here
is the closed one (constant term +1). At n = 2 the nested expression gives
2x^2 - 1, the NEGATIVE of the closed form 1 - 2x^2; same roots, opposite
sign. nested_minpoly therefore requires n >= 3, and the halving recursion
below uses the 2x^2 - 1 normalization at n = 2 so that the identity
f_n(2x^2 - 1) = f_{n+1}(x) is exact for every n >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    EvalContext,
    IntPolynomial,
    binom_int,
    exact_div,
    odd_cos_basis,
)


def closed_minpoly(n: int) -> IntPolynomial:
    """Closed-form f_n, constant term +1, degree 2^{n-1}. Requires n >= 2.

    The binomial b_m = C(h+m, h-m), h = 2^{n-2}, is stepped from b_{m-1}
    by the ratio (h+m)(h-m+1) / ((2m)(2m-1)) instead of being recomputed
    for every coefficient. Both that step and the division by h+m are
    known integralities, checked by exact_div.
    """
    if n < 2:
        raise ValueError("closed_minpoly requires n >= 2")
    half = 2 ** (n - 2)
    coeffs = [0] * (2 ** (n - 1) + 1)
    coeffs[0] = 1
    b = 1
    for m in range(1, half + 1):
        b = exact_div(b * (half + m) * (half - m + 1), 2 * m * (2 * m - 1),
                      "closed_minpoly binomial step")
        q = exact_div(b << (n + 2 * m - 2), half + m,
                      "closed_minpoly coefficient")
        coeffs[2 * m] = -q if m % 2 else q
    return IntPolynomial(coeffs)


def nested_minpoly(n: int) -> IntPolynomial:
    """Nested square-and-subtract form of f_n. Requires n >= 3.

    n = 2 is excluded: the nested expression there is 2x^2 - 1, which is
    the negative of the canonical closed form (see the module docstring).
    """
    if n < 3:
        raise ValueError("nested_minpoly requires n >= 3")
    q = IntPolynomial([-2, 0, 4])  # (2x)^2 - 2
    for _ in range(n - 2):
        q = q * q - IntPolynomial([2])
    return IntPolynomial([exact_div(c, 2, "nested_minpoly halving")
                          for c in q.coeffs])


@dataclass(frozen=True)
class MinPolyPair:
    n: int
    nested: IntPolynomial
    closed: IntPolynomial

    @property
    def equal(self) -> bool:
        return self.nested == self.closed


def minpoly_pair(n: int) -> MinPolyPair:
    if n < 3:
        raise ValueError("minpoly_pair requires n >= 3")
    return MinPolyPair(n, nested_minpoly(n), closed_minpoly(n))


def verify_minpoly_roots(n: int, ctx: EvalContext):
    """Max |f_n(+-cos((2i-1)pi/2^n))| over i = 1..2^{n-2}; should be tiny."""
    f = closed_minpoly(n)
    worst = ctx.zero
    for x in odd_cos_basis(n).values(ctx):
        for root in (x, -x):
            worst = max(worst, ctx.fabs(f.eval_real(root, ctx)))
    return worst


_HALVING_INNER = IntPolynomial([-1, 0, 2])  # 2x^2 - 1


def verify_halving_recursion(n: int) -> bool:
    """Exact check of f_n(2x^2 - 1) = f_{n+1}(x) for n >= 2.

    Uses the 2x^2 - 1 normalization at n = 2 (module docstring); the closed
    form elsewhere.
    """
    if n < 2:
        raise ValueError("verify_halving_recursion requires n >= 2")
    low = _HALVING_INNER if n == 2 else closed_minpoly(n)
    return low.compose(_HALVING_INNER) == closed_minpoly(n + 1)


def lemma_sum_identity(r: int, k: int) -> tuple[Fraction, Fraction]:
    """Both sides of the binomial summation identity

        sum_{i=0}^{r} (-1)^i 2^{2i-1}/(r+i) C(r+i, r-i) C(2i, k)
            = (-1)^r 2^k/(2r+k) C(2r+k, 2r-k)

    for 1 <= k <= r, as exact rationals. The identity holds iff they agree.

    The (-1)^r on the right is forced by the sum's first-order recursion in
    r, whose ratio is negative; the closed-form half is often quoted without
    it because the interesting specializations take r to be a power of two.
    """
    if not 1 <= k <= r:
        raise ValueError("lemma_sum_identity requires 1 <= k <= r")
    lhs = Fraction(0)
    # the i = 0 term carries C(0, k) = 0 for every k >= 1
    for i in range(1, r + 1):
        b = binom_int(r + i, r - i) * binom_int(2 * i, k)
        if b:
            lhs += Fraction((-1) ** i * 2 ** (2 * i - 1) * b, r + i)
    sign = -1 if r % 2 else 1
    rhs = Fraction(sign * 2**k * binom_int(2 * r + k, 2 * r - k), 2 * r + k)
    return lhs, rhs
