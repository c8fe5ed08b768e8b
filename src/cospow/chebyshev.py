"""Odd-order Chebyshev-like transforms p_i and their composition algebra.

p_i is the degree 2i-1 odd polynomial with coefficient of x^{2j-1} equal to

    (-1)^j 2^{2j-2} C(i+j-2, 2j-2) (2i-1)/(2j-1)

(always an integer; the division is checked). The sign convention keeps no
embedded (-1)^i inside p_i; identities apply it at use sites:

    sin((2i-1)t) = -p_i(sin t)         cos((2i-1)t) = (-1)^i p_i(cos t)

so p_1(x) = -x, p_2(x) = 4x^3 - 3x, p_3(x) = -(16x^5 - 20x^3 + 5x).

On dyadic angles the signed maps compose like odd numbers multiply, the
group law whose one composition fold and one inverse odd_power defines.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import (
    EvalContext,
    IntPolynomial,
    binom_int,
    exact_div,
    odd_cos_basis,
    poly_mul_coeffs,
)
from .minpoly import closed_minpoly
from .odd_power import _compose, _odd_inverse


def p_poly(i: int) -> IntPolynomial:
    """The transform p_i as an exact polynomial. Requires i >= 1."""
    if i < 1:
        raise ValueError("p_poly requires i >= 1")
    coeffs = [0] * (2 * i)
    for j in range(1, i + 1):
        num = ((-1) ** j * 2 ** (2 * j - 2) * binom_int(i + j - 2, 2 * j - 2)
               * (2 * i - 1))
        coeffs[2 * j - 1] = exact_div(num, 2 * j - 1, "p_poly coefficient")
    return IntPolynomial(coeffs)


def signed_p_poly(i: int) -> IntPolynomial:
    """(-1)^i p_i, the polynomial that maps cos t to cos((2i-1)t)."""
    p = p_poly(i)
    return p if i % 2 == 0 else -p


def verify_recursion(i_max: int) -> bool:
    """Exact three-term recursion -p_i - 2(2x^2-1) p_{i+1} - p_{i+2} = 0
    for all i in [1, i_max]."""
    if i_max < 1:
        raise ValueError("verify_recursion requires i_max >= 1")
    shift = IntPolynomial([-2, 0, 4])  # 2(2x^2 - 1)
    prev = p_poly(1)
    cur = p_poly(2)
    for i in range(1, i_max + 1):
        nxt = p_poly(i + 2)
        if -prev - shift * cur - nxt != IntPolynomial():
            return False
        prev, cur = cur, nxt
    return True


def closed_form_eval(i: int, x, ctx: EvalContext):
    """Evaluate p_i(x) for |x| < 1 via the explicit surd formula.

    The radicand x^2(x^2-1) is negative on the domain, so the two conjugate
    factors are complex; their symmetric combinations are real and the
    imaginary residue is discarded. x = 0 returns 0 (every p_i is odd).
    Exists as a cross-check; the polynomial form is canonical.
    """
    if i < 1:
        raise ValueError("closed_form_eval requires i >= 1")
    x = ctx.to_real(x)
    if not ctx.fabs(x) < 1:
        raise ValueError("closed_form_eval requires |x| < 1")
    if x == 0:
        return ctx.zero
    x2 = x * x
    root = ctx.mpc(x2 * (x2 - 1)) ** ctx.to_real(Fraction(1, 2))
    a = 1 - 2 * x2 + 2 * root
    b = 1 - 2 * x2 - 2 * root
    val = (root * (a**i - b**i) + x2 * (a**i + b**i)) / (2 * x)
    return val.real


def odd_multiple_identity_check(i: int, theta, ctx: EvalContext):
    """Deviations of sin((2i-1)t) = -p_i(sin t) and
    cos((2i-1)t) = (-1)^i p_i(cos t) at t = theta."""
    if i < 1:
        raise ValueError("odd_multiple_identity_check requires i >= 1")
    theta = ctx.to_real(theta)
    p = p_poly(i)
    err_sin = ctx.fabs(ctx.sin((2 * i - 1) * theta)
                       + p(ctx.sin(theta)))
    err_cos = ctx.fabs(ctx.cos((2 * i - 1) * theta)
                       - (-1) ** i * p(ctx.cos(theta)))
    return err_sin, err_cos


def composition_commutes(i: int, j: int) -> bool:
    """Exact polynomial check of p_i(p_j(x)) = p_j(p_i(x))."""
    pi = p_poly(i)
    pj = p_poly(j)
    return pi.compose(pj) == pj.compose(pi)


def signed_composition_angle(i: int, j: int, n: int) -> tuple[int, int]:
    """Canonical (index, sign) of (-1)^i p_i applied to cos((2j-1)pi/2^n):
    the odd-cosine fold of its image cos((2i-1)(2j-1)pi/2^n), 1-based.
    """
    if i < 1 or j < 1:
        raise ValueError("signed_composition_angle requires i, j >= 1")
    return _compose(i, j, odd_cos_basis(n))


def inverse_index(i: int, n: int) -> int:
    """The index k with s_k(s_i(x)) = x on level-n angles, s_i = (-1)^i p_i.

    k = i times the inverse of 2i-1 (_odd_inverse), modulo 2^{n+1}: the
    angle depends on k mod 2^n only and the sign on k's parity, which the
    even modulus keeps.
    """
    if not 1 <= i <= 2 ** (n - 2):
        raise ValueError("inverse_index requires 1 <= i <= 2^(n-2)")
    return i * _odd_inverse(i, n) % 2 ** (n + 1)


# exact composition modulo the level minimal polynomial, over dyadic rationals


def compose_mod(p: IntPolynomial, q: IntPolynomial,
                f: IntPolynomial) -> tuple[Fraction, ...]:
    """p(q(x)) reduced modulo f, exact rational coefficients (Horner).

    f's leading coefficient must be +-2^k (f_n's is +2^{2^{n-1}-1}); any
    other raises ValueError. Every intermediate value is then dyadic, so the
    accumulator is kept as integer numerators over one denominator 2^e.
    Before a product is reduced its numerators are shifted left by k bits
    per reduction step, which makes each quotient (top >> k) exact; after
    each Horner step the common trailing zero bits are stripped, so e stays
    minimal. Only the result is converted to Fraction, with no trailing
    zero coefficients.
    """
    fc = f.coeffs
    lead = fc[-1] if fc else 0
    lead_bits = abs(lead).bit_length() - 1
    if not fc or abs(lead) != 1 << lead_bits:
        raise ValueError("compose_mod requires a modulus with leading "
                         "coefficient +-2^k")
    if lead < 0:
        fc = tuple(-c for c in fc)  # same remainders, leading term +2^k
    df = len(fc) - 1
    qc = q.coeffs
    acc: list[int] = []  # numerators over 2^e, no trailing zeros
    e = 0
    for c in reversed(p.coeffs):
        if acc:
            out = poly_mul_coeffs(acc, qc)
            steps = len(out) - df
            if steps > 0:
                shift = lead_bits * steps
                out = [v << shift for v in out]
                e += shift
                while len(out) > df:
                    top = out.pop()
                    if top:
                        quo = top >> lead_bits
                        base = len(out) - df
                        for k in range(df):
                            out[base + k] -= quo * fc[k]
            acc = out
        if c:
            if acc:
                acc[0] += c << e
            else:
                acc = [c << e]
        while acc and acc[-1] == 0:
            acc.pop()
        bits = 0
        for v in acc:
            bits |= v
        strip = min(e, (bits & -bits).bit_length() - 1) if bits else e
        if strip:
            acc = [v >> strip for v in acc]
            e -= strip
    return tuple(Fraction(v, 1 << e) for v in acc)


def verify_inverse_composition(i: int, n: int) -> bool:
    """Exact check that s_k after s_i is the identity modulo f_n,
    with k = inverse_index(i, n)."""
    k = inverse_index(i, n)
    f = closed_minpoly(n)
    inner = signed_p_poly(i)
    outer = signed_p_poly(k)
    return compose_mod(outer, inner, f) == (Fraction(0), Fraction(1))


# brute-force forms of the two summation identities behind the coefficient
# formula; both sides exact rationals

def coefficient_sum_identity(i: int) -> tuple[Fraction, Fraction]:
    """sum_{j=1}^{i} (-1)^j 2^{2j-1} (2i-1)/(2j-1) C(i+j-2, 2j-2)
    against its closed value (-1)^i * 2."""
    if i < 1:
        raise ValueError("coefficient_sum_identity requires i >= 1")
    lhs = Fraction(0)
    for j in range(1, i + 1):
        lhs += Fraction((-1) ** j * 2 ** (2 * j - 1) * (2 * i - 1)
                        * binom_int(i + j - 2, 2 * j - 2), 2 * j - 1)
    return lhs, Fraction((-1) ** i * 2)


def weighted_coefficient_sum_identity(i: int, j: int) \
        -> tuple[Fraction, Fraction]:
    """sum_{k=1}^{i} (-1)^k 2^{2k} (2i-1)/(2k-1) C(i+k-2, 2k-2) C(k, j-1)
    against (-1)^i 2^{2j-2} (2i^2-2i+j-1)/((2j-3)(j-1)) C(i+j-3, i-j+1),
    valid for i >= j >= 2."""
    if not (i >= j >= 2):
        raise ValueError("requires i >= j >= 2")
    lhs = Fraction(0)
    for k in range(1, i + 1):
        lhs += Fraction((-1) ** k * 2 ** (2 * k) * (2 * i - 1)
                        * binom_int(i + k - 2, 2 * k - 2)
                        * binom_int(k, j - 1), 2 * k - 1)
    rhs = Fraction((-1) ** i * 2 ** (2 * j - 2)
                   * (2 * i * i - 2 * i + j - 1)
                   * binom_int(i + j - 3, i - j + 1),
                   (2 * j - 3) * (j - 1))
    return lhs, rhs
