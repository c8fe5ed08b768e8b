"""Reference routes that only the tests use: plain algorithms that the
package's faster routes are checked against."""

from fractions import Fraction

from cospow.exact import IntPolynomial


def schoolbook_product(a, b) -> list[int]:
    """Ascending coefficients of the product of two ascending coefficient
    lists by the double loop; an empty factor gives the empty list."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ci in enumerate(a):
        for j, cj in enumerate(b):
            out[i + j] += ci * cj
    return out


def poly_mod_reduce(p: IntPolynomial, f: IntPolynomial) -> tuple[Fraction, ...]:
    """Remainder of p modulo f over the rationals, ascending coefficients.

    f must be nonzero; its leading coefficient need not be 1 (the reduction
    divides through by it, so a leading power of two is fine).
    """
    if not f:
        raise ZeroDivisionError("poly_mod_reduce modulus is zero")
    rem = [Fraction(c) for c in p.coeffs]
    fc = [Fraction(c) for c in f.coeffs]
    lead = fc[-1]
    df = len(fc) - 1
    while len(rem) - 1 >= df and rem:
        q = rem[-1] / lead
        shift = len(rem) - 1 - df
        for k, c in enumerate(fc):
            rem[shift + k] -= q * c
        while rem and rem[-1] == 0:
            rem.pop()
    return tuple(rem)
