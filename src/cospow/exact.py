"""Exact integer and rational arithmetic kernel plus the numeric oracle.

Everything downstream is built from the pieces here: binomial machinery;
quarter_fold, the one law that folds a dyadic angle back into the first
quadrant; the first row of every positive cosine power, its binomial
expansion folded by that law; the declared bases, which fold an angle by
the same law (Basis.fold) and evaluate their elements by one expression;
dense integer polynomials with their one product, a double loop (every
caller has a short factor: the nested minimal polynomial squares its
long iterates as one packed number in minpoly); and EvalContext, an
arbitrary-precision evaluation environment wrapping the mpmath context
of its precision, one context per precision, shared by every EvalContext
at it and written by none after it is built: it builds and keeps each
level table (dyadic_trig, never shared), bit for bit mpmath's by one
fixed-point walk and a Ziv rounding test that hands mpmath the values it
cannot settle; reads an mpf back as an exact rational (to_fraction,
refusing +-inf and NaN); and runs the numeric oracle's row sums and its
scalar sums (power sums, weighted sums, verify's residuals) on plain
ints, each step rounded exactly as the libmp routine the mpf operator
calls rounds it, at the same precision and nearest rounding: the scalar
steps are three helpers (_nearest, _quotient, _power) and a sum that
rounds by the first. The power repeats the branches of mpmath 1.3.0's
mpf_pow_int, as _libmp_trig_error's bound is derived from its trig code,
so the package pins mpmath 1.3. This is the only module that imports
mpmath or reads an mpf's layout.

Conventions used throughout the package:
  * "mod" always means the least nonnegative residue and "floor" always
    rounds toward minus infinity: Python's % and // with a positive
    divisor, which is the only kind this package divides by.
  * A dyadic angle is (2i-1)*pi/2^n, written as the integer pair (i, n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import index
from typing import Iterable, Sequence

from mpmath.ctx_mp import MPContext
from mpmath.libmp import (from_man_exp, fzero, mpf_add, mpf_cos, mpf_cos_sin,
                          mpf_pi, mpf_pow, mpf_shift, mpf_sin,
                          pi_fixed, round_nearest, to_fixed)
from mpmath.libmp.libelefun import COS_SIN_CACHE_PREC


def exact_div(num: int, den: int, what: str) -> int:
    """num / den for a division the mathematics says is exact.

    A nonzero remainder means a bug, and raises ArithmeticError naming
    `what` (a fixed string, so the success path formats nothing); unlike an
    assert, the guard survives python -O.
    """
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"non-exact division by {den} in {what}")
    return q


def binom_int(r: int, k: int) -> int:
    """C(r, k) for r >= 0, with C(r, k) = 0 outside 0 <= k <= r.

    Negative upper index is rejected: no formula in this package needs the
    generalized convention, and silently extending it would mask index bugs.
    """
    if r < 0:
        raise ValueError("binom_int requires r >= 0")
    if k < 0 or k > r:
        return 0
    return math.comb(r, k)


def binom_real(a, k: int, ctx: "EvalContext"):
    """Generalized binomial coefficient C(a, k) = prod_{t<k} (a-t) / k!.

    Exact inputs (int, Fraction) are computed exactly and converted once at
    the end; inexact inputs go through ctx arithmetic term by term.
    """
    if k < 0:
        raise ValueError("binom_real requires k >= 0")
    if isinstance(a, (int, Fraction)):
        v = Fraction(1)
        for t in range(k):
            v *= Fraction(a) - t
        return ctx.to_real(v / math.factorial(k))
    v = ctx.one
    a = ctx.to_real(a)
    for t in range(k):
        v = v * (a - t) / (t + 1)
    return v


class ZeroBasisElementError(ValueError):
    """Raised when an even-basis fold lands on cos(pi/2) = 0."""


def quarter_fold(h: int, dim: int) -> tuple[int, int]:
    """Fold the angle h*pi/2^n, 2^n = 4 dim, into the first quadrant.

    The angle is s quarter turns plus rem*pi/2^n, 0 <= rem < 2 dim; an odd
    s reflects the remainder, so the folded angle has numerator rem or
    2 dim - rem. Returns (k, s) with k that numerator halved down: the
    0-based column of the folded angle in the odd bases (numerator 2k+1,
    odd h) and in the even basis (numerator 2k, even h; k = dim is pi/2).
    The sign is the function's: a cosine turns negative when s = 1, 2
    mod 4, a sine when s = 2, 3 mod 4.
    """
    s, rem = divmod(h, 2 * dim)
    return (2 * dim - rem if s & 1 else rem) >> 1, s


def _folded_binomial_row(r: int, dim: int) -> list[int]:
    """2^{r-1} cos^r(pi/2^n), 2^n = 4 dim, r >= 1, folded onto a basis
    of dim columns: the expansion

        2^{r-1} cos^r t = sum_{k < r/2} C(r, k) cos((r-2k)t)
                          + [r even] C(r, r/2)/2

    with each cos((r-2k)pi/2^n) put by quarter_fold on its column and
    signed by the cosine's rule. Odd r lands on the odd-cosine columns;
    even r on the even basis, where column 0 is the constant (the middle
    binomial's half lands there) and a fold onto cos(pi/2) = 0 drops out.
    C(r, k) is stepped from C(r, k-1), one exact division per term.
    """
    row = [0] * (dim + 1)
    c = 1
    for k in range((r + 1) // 2):
        col, s = quarter_fold(r - 2 * k, dim)
        row[col] += -c if (s + 1) & 2 else c
        c = exact_div(c * (r - k), k + 1, "binomial step")
    if r % 2 == 0:
        row[0] += exact_div(c, 2, "middle binomial")
    return row[:dim]


@dataclass(frozen=True)
class Basis:
    """A declared cosine or sine basis at level n.

    kind "odd_cos":  column k (0-based) is cos((2k+1)*pi/2^n)
    kind "even_cos": column 0 is the constant 1, column j is cos(j*pi/2^{n-1})
    kind "odd_sin":  column k is sin((2k+1)*pi/2^n)
    All three have dimension 2^{n-2}.
    """

    kind: str
    n: int

    _KINDS = ("odd_cos", "even_cos", "odd_sin")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.n < 2:
            raise ValueError("basis level must be >= 2")
        if self.kind == "even_cos" and self.n < 3:
            raise ValueError("even_cos basis requires n >= 3")

    @property
    def dim(self) -> int:
        return 2 ** (self.n - 2)

    def element(self, k: int, ctx: "EvalContext"):
        """Numeric value of basis element k (0-based), as values gives it."""
        if not 0 <= k < self.dim:
            raise IndexError(f"basis index {k} out of range")
        return self.values(ctx)[k]

    def fold(self, t: int) -> tuple[int, int]:
        """(column, sign) with g(t*pi/2^m) = sign * element(column), g the
        basis function. 2^m is 2^n on the odd bases, which fold odd t only,
        and 2^{n-1} on the even basis, where a fold onto cos(pi/2) = 0
        raises ZeroBasisElementError; the sign is quarter_fold's rule for g."""
        if self.kind == "even_cos":
            k, s = quarter_fold(2 * t, self.dim)
            if k == self.dim:
                raise ZeroBasisElementError(
                    f"cos({t}*pi/2^{self.n - 1}) folds to cos(pi/2) = 0")
        elif t % 2 == 0:
            raise ValueError(f"the {self.kind} basis folds odd t only")
        else:
            k, s = quarter_fold(t, self.dim)
        return k, -1 if (s + (self.kind != "odd_sin")) & 2 else 1

    def values(self, ctx: "EvalContext") -> tuple:
        """Numeric values of all dim basis elements, in column order:
        g(t*pi/2^n), g the basis function, t = 2k+1 for column k on the
        odd bases and t = 2k on the even one, whose constant column is
        cos 0 = 1: ctx.dyadic_trig(self), built once per context."""
        return ctx.dyadic_trig(self)


def odd_cos_basis(n: int) -> Basis:
    return Basis("odd_cos", n)


def even_cos_basis(n: int) -> Basis:
    return Basis("even_cos", n)


def odd_sin_basis(n: int) -> Basis:
    return Basis("odd_sin", n)


@dataclass(frozen=True)
class ScaledMatrix:
    """Square exact integer matrix with a global power-of-two denominator.

    The represented value is entries / 2^{log2_denom}; log2_denom may be
    negative (the inverse-power matrices carry scale factors 2, 8, 32).
    """

    entries: tuple[tuple[int, ...], ...]
    log2_denom: int
    basis: Basis

    def __post_init__(self):
        d = self.basis.dim
        if len(self.entries) != d or any(len(row) != d for row in self.entries):
            raise ValueError(
                f"matrix must be {d}x{d} for basis level {self.basis.n}"
            )

    @property
    def dim(self) -> int:
        return self.basis.dim

    def reversed_rows_and_columns(self, new_basis: Basis) -> "ScaledMatrix":
        """Reverse both row order and column order, retagging the basis.

        This is the exact conversion rule between the odd cosine and odd
        sine presentations of the same transform: reversing the basis order
        swaps cos((2k-1)*pi/2^n) with sin((2k'-1)*pi/2^n) for k' = dim+1-k.
        """
        rev = tuple(tuple(row[::-1]) for row in self.entries[::-1])
        return ScaledMatrix(rev, self.log2_denom, new_basis)


@dataclass(frozen=True)
class BasisVector:
    """Exact rational coefficients over a declared basis."""

    coeffs: tuple[Fraction, ...]
    basis: Basis

    def __post_init__(self):
        if len(self.coeffs) != self.basis.dim:
            raise ValueError("coefficient count must equal basis dimension")

    def value(self, ctx: "EvalContext"):
        vals = self.basis.values(ctx)
        tot = ctx.zero
        for k, c in enumerate(self.coeffs):
            if c:
                tot += ctx.to_real(c) * vals[k]
        return tot


def int_mat_mul(a: Sequence[Sequence[int]],
                b: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    d = len(a)
    if len(b) != d or any(len(r) != d for r in a) or any(len(r) != d for r in b):
        raise ValueError("int_mat_mul requires equal square dimensions")
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def poly_mul_coeffs(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Ascending coefficients of the product of two ascending coefficient
    lists; an empty factor gives the empty list. The one polynomial
    product: IntPolynomial and compose_mod both call it. A double loop that
    skips zero coefficients of a and pays for each product by its own size.
    """
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ci in enumerate(a):
        if ci:
            for j, cj in enumerate(b):
                out[i + j] += ci * cj
    return out


class IntPolynomial:
    """Dense univariate polynomial with exact integer coefficients.

    Coefficients are stored ascending; the zero polynomial is the empty
    tuple and has degree -1. Instances are immutable. Sums and differences
    take IntPolynomial operands, and products an IntPolynomial or int
    factor; any other operand gives NotImplemented, so Python raises
    TypeError, as the constructor does for a non-integral coefficient. A
    product of two polynomials is poly_mul_coeffs' double loop, whose cost
    grows with the product of the lengths, so a long square is cheaper
    packed into one integer, as minpoly.nested_minpoly does.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(map(index, coeffs))
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)})"

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return IntPolynomial(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coeffs])
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return IntPolynomial(poly_mul_coeffs(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def compose(self, inner: "IntPolynomial") -> "IntPolynomial":
        """self(inner(x)) by Horner in the polynomial ring."""
        acc = IntPolynomial()
        for c in reversed(self.coeffs):
            acc = acc * inner + IntPolynomial([c])
        return acc

    def __call__(self, x):
        """p(x) by Horner. The accumulator starts from the int 0, so an
        exact x (int, Fraction) gives an exact value and a real or complex
        context number gives one of its own kind."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


# bound, in units of 2^-wp, on mpmath's fixed-point cosine and sine before
# their final rounding while wp <= COS_SIN_CACHE_PREC (_libmp_trig_error
# derives it)
_CACHED_TAYLOR_ERROR = 46


def _libmp_trig_error(wp: int, mag: int, sine: bool) -> int:
    """A bound, in units of 2^-wp, on |c - g(x) 2^wp| for the integer c
    that mpmath 1.3.0's mpf_cos_sin (libelefun) hands to its final
    from_man_exp rounding, g = sin if sine else cos, 0 < x < pi/2,
    2^(mag-1) <= x < 2^mag. Its working precision wp is prec + 10 - mag
    below 1 rad, and prec + 30 from 1 rad on, where mod_pi2's first pass
    keeps every x below pi/2 - 2^-30 (every level up to 31, past which a
    table would hold 2^30 values). Either way c comes from
    cos_sin_basecase(X, wp) on the exact X = x 2^wp.

    Cached Taylor series, wp <= COS_SIN_CACHE_PREC (400 on the python
    backend, 200 on gmpy's): x = tau + rho, tau the top 8 bits of x and
    rho < 2^-8. cos tau and sin tau come from a table of 410-bit
    exponential_series values (the next case bounds them by 25 units of
    2^-410), shifted down: each within 2.05 units. The loop for cos rho and
    sin rho floors each term once in the product with rho and once in the
    division by k, so a term is off by under 1 + (1 + e/256)/k < 1.51
    units, e the previous term's error. The terms fall below 1/2 by
    k = 35 (8k + log2 k! > 401), and the loop ends in the next pair of
    positive terms, so each sum has at most 19 terms, off by under
    19 * 1.51 + 1 < 30 units with the tail. The rotation by tau adds
    2.05 + sqrt(2) 30 + 1 < 46 units, which is _CACHED_TAYLOR_ERROR.

    Exponential series, wp above that: exponential_series(X, wp, 2)
    takes r0 = floor(sqrt(wp)/2), r = max(0, mag + r0) halvings and
    extra = 10 + 2 max(r, -mag) guard bits, W = wp + extra, so
    y = x/2^r < 2^-r0. Each term is positive and floored, off by under 2
    units of 2^-W and zero from k = W/r0 on; with at most
    int(0.3 wp^0.35) < W/r0 partial sums, the cosine of y is off by
    e0 < 2 W/r0 + 2 units. A doubling c -> 2c^2 - 1 multiplies the error
    by at most 4 and adds 1, so after r of them and the shift by extra
    the cosine is off by under (e0 + 1) 2^(2r - extra) + 1, and
    2r - extra <= -10. The sine is the floored square root of 1 - c^2,
    off by at most 2/sin x < 2^(3 - mag) times the cosine's error at W,
    plus 1, so by under (e0 + 1) 2^(2r + 3 - mag - extra) + 2 after the
    shift; the factor passes 1 only from wp of about 1300, for x between
    about 2^-(r0/2 + 2) and 2^-7.

    Measured over the level tables' angles (tests/test_level_tables.py
    pins the bound): at most 14.4 units in the cached series, and in the
    exponential series 1.0 for cosines and 33 for sines of small x
    (3 pi/2^16 at 3000 bits, against a bound of 7394).
    """
    if wp <= COS_SIN_CACHE_PREC:
        return _CACHED_TAYLOR_ERROR
    r0 = math.isqrt(wp) // 2
    r = max(0, mag + r0)
    extra = 10 + 2 * max(r, -mag)
    e0 = 2 * ((wp + extra) // r0) + 5
    amp = 2 * r + 3 - mag - extra if sine else -10
    return 2 + (e0 << amp if amp >= 0 else (e0 >> -amp) + 1)


def _dyadic_walk(odd: int, n: int, F: int, Pi: int) -> list:
    """e^(i m pi/2^n) for m = odd, odd + 2, ..., up to 2^(n-2), n >= 2, as
    pairs (cos, sin) in units of 2^-F, Pi = floor(pi 2^F): entry j is
    m = 2j + odd, within 4.5 j + 3 units of the exact value.

    The walk starts at 1 (odd = 0) or at e^(i phi), phi = pi/2^n, and
    steps by e^(2 i phi). Both come from mpf_cos_sin at F + 20 bits of
    k Pi 2^-(F+n), k = 1 or 2, which is within 2^(1-F-n) of k phi; with
    to_fixed's floor, each part is within 2 units, so the start and the
    step are within 2 sqrt 2 units. A step w -> floor(w e 2^-F), each part
    floored, scales the error by |e| 2^-F < 1 + 2^(2-F) and adds under
    2 sqrt 2 + sqrt 2 units, so entry j is off by under
    (2 sqrt 2 + 3 sqrt 2 j)(1 + 2^(2-F))^j < 4.5 j + 3 units: j < 2^(n-2)
    and F >= 2n + 72 keep the last factor below 1 + 2^-70.
    """
    def turn(k: int) -> tuple:
        c, s = mpf_cos_sin(from_man_exp(k * Pi, -F - n), F + 20,
                           round_nearest)
        return to_fixed(c, F), to_fixed(s, F)

    kc, ks = turn(2)
    walk = [turn(1) if odd else (1 << F, 0)]
    for _ in range(((1 << (n - 2)) - odd) >> 1):
        c, s = walk[-1]
        walk.append(((c * kc - s * ks) >> F, (s * kc + c * ks) >> F))
    return walk


# The oracle's scalar arithmetic on plain ints. A pair (m, e) is the
# number m 2^e, m signed; every step below gives the pair of the value
# the libmp routine it names gives, at prec bits with nearest rounding
# (round_nearest), so a sum packed into an mpf at its end is bit for bit
# the libmp loop's.

def _nearest(m: int, e: int, prec: int) -> tuple[int, int]:
    """m 2^e rounded to prec bits, to nearest with ties to even, as libmp's
    normalize rounds it; the result's |m| is at most 2^prec.

    Rounding shifts out sh = bits(m) - prec bits: t = m >> (sh - 1) keeps
    the half bit, and the floor t >> 1 goes up by one when the bits
    shifted out exceed half, or equal it and the floor is odd. Python's >>
    floors negative m too, and the rule is symmetric in sign.
    """
    sh = m.bit_length() - prec
    if sh <= 0:
        return m, e
    t = m >> (sh - 1)
    if t & 1 and (t & 2 or t << (sh - 1) != m):
        return (t >> 1) + 1, e + sh
    return t >> 1, e + sh


def _sum(am: int, ae: int, bm: int, be: int, prec: int) -> tuple[int, int]:
    """am 2^ae + bm 2^be, each |m| at most 2^prec, rounded by _nearest: as
    mpf_add rounds it. When a, the operand with the higher exponent, is
    nonzero and the other is below 2^(ae - prec - 4), under a sixteenth
    of a's last place at prec bits, the other cannot move the rounded
    sum, which is a itself: the shift that would align them is never
    made."""
    if ae < be:
        am, ae, bm, be = bm, be, am, ae
    d = ae - be
    if am and d > prec + 4 + bm.bit_length():
        return am, ae
    return _nearest((am << d) + bm, be, prec)


def _quotient(am: int, ae: int, bm: int, be: int,
              prec: int) -> tuple[int, int]:
    """(am 2^ae) / (bm 2^be), bm nonzero, rounded by _nearest: as mpf_div
    rounds it. The floored quotient q of am 2^k by bm keeps at least
    prec + 3 bits and 2q + 1 stands for a nonzero remainder (a sticky
    bit): both lie strictly between 2q and 2q + 2, where no rounding
    boundary at prec bits falls. bm = 0 raises ZeroDivisionError."""
    if bm < 0:
        am, bm = -am, -bm
    k = prec + 3 + bm.bit_length() - am.bit_length()
    if k < 0:
        k = 0
    q, rem = divmod(am << k, bm)
    return _nearest(2 * q + (rem != 0), ae - be - k - 1, prec)


def _power(m: int, e: int, n: int, prec: int) -> tuple[int, int]:
    """(m 2^e)^n for the odd mantissa m (signed) and exponent e of a
    normalized mpf, as mpmath 1.3.0's mpf_pow_int gives it, branch by
    branch (its bc is bits(m)):

      * n < 0: 1 over the power -n at prec + 5 bits, one _quotient; at
        n = -1, 1 over the value itself;
      * n <= 2 or bc n < 1000: the exact power, rounded once (so is a
        power of two, |m| = 1, on every branch);
      * otherwise binary powering that truncates the running power and
        the running square to wp = prec + 4 bits(n) + 4 bits whenever
        either grows past wp, then one rounding.

    Only the last branch is not the correctly rounded power, so the pairs
    of a truncated step must be mpmath's own: that is why m is the
    normalized mantissa.
    """
    if n < 0:
        if n != -1:
            m, e = _power(m, e, -n, prec + 5)
        return _quotient(1, 0, m, e, prec)
    if n <= 2 or m.bit_length() * n < 1000:
        return _nearest(m ** n, e * n, prec)
    negative = m < 0 and n & 1
    m = abs(m)
    wp = prec + 4 * n.bit_length() + 4
    pm, pe = 1, 0
    while True:
        if n & 1:
            pm *= m
            pe += e
            sh = pm.bit_length() - wp
            if sh > 0:
                pm >>= sh
                pe += sh
            n -= 1
            if not n:
                break
        m *= m
        e += e
        sh = m.bit_length() - wp
        if sh > 0:
            m >>= sh
            e += sh
        n >>= 1
    return _nearest(-pm if negative else pm, pe, prec)


def _exact_pair(x, prec: int) -> tuple[int, int]:
    """An int or Fraction as a pair rounded to prec bits by _nearest, as
    from_int rounds an int: a Fraction is the _quotient of its rounded
    numerator and denominator, as mpf_div gives it, which for every
    Fraction whose numerator and denominator fit the precision is its one
    rounding. An integral Fraction is rounded as its numerator: the
    quotient by a denominator of 1 would only round the same pair again."""
    if isinstance(x, Fraction):
        if x.denominator != 1:
            return _quotient(*_nearest(x.numerator, 0, prec),
                             *_nearest(x.denominator, 0, prec), prec)
        x = x.numerator
    return _nearest(x, 0, prec)


# (mpmath context, tolerance) per precision, built on first use: every
# EvalContext at that precision shares them, and nothing writes the
# context's prec after it is set here
_SHARED: dict = {}


class EvalContext:
    """Arbitrary-precision real/complex evaluation environment.

    Wraps the mpmath context of its precision, shared by every
    EvalContext at that precision: its prec is set once, when it is
    built, and nothing writes it after. Precision is fixed at
    construction. tolerance is 2^(-precision_bits/2).

    The instance keeps each level table it builds, which dies with it:
    dyadic_trig builds a basis's whole table on first use, bit for bit
    mpmath's per angle, and nothing else reads or writes the store.
    to_real rounds a number to the working precision and to_fraction
    reads one back exactly. The oracle's sums over the tables (power_sum,
    quotient_sum, max_residual, row_sums) run on plain ints, each step
    rounded as the libmp routine the mpf operator would call at the
    working precision with nearest rounding, so every result is bit for
    bit the one the mpf loop its docstring names gives.
    """

    __slots__ = ("precision_bits", "tolerance", "_mp", "_tables")

    def __init__(self, precision_bits: int = 256):
        if precision_bits < 64:
            raise ValueError("EvalContext requires precision_bits >= 64")
        shared = _SHARED.get(precision_bits)
        if shared is None:
            mpctx = MPContext()
            mpctx.prec = precision_bits
            shared = _SHARED[precision_bits] = (
                mpctx, mpctx.mpf(2) ** -(precision_bits // 2))
        object.__setattr__(self, "_mp", shared[0])
        object.__setattr__(self, "precision_bits", precision_bits)
        object.__setattr__(self, "tolerance", shared[1])
        object.__setattr__(self, "_tables", {})

    def __setattr__(self, name, value):
        raise AttributeError("EvalContext is immutable")

    def __repr__(self):
        return (f"EvalContext(precision_bits={self.precision_bits}, "
                f"tolerance={self.tolerance})")

    # conversions

    def to_real(self, x):
        """Convert int, Fraction, float, str, or mpf to an mpf at the
        working precision: an int or Fraction as _round_exact rounds it,
        anything else as mpmath's mpf constructor does."""
        if isinstance(x, (int, Fraction)):
            return self._mp.make_mpf(self._round_exact(x))
        return self._mp.mpf(x)

    def _round_exact(self, x) -> tuple:
        """An int or Fraction as a libmp tuple rounded to the working
        precision, nearest: _exact_pair's pair."""
        return from_man_exp(*_exact_pair(x, self.precision_bits))

    def to_fraction(self, x) -> Fraction:
        """x exactly, _round_exact's inverse: an int or Fraction as it is,
        else to_real(x) (a float or an mpf of this context unchanged) read
        off its raw tuple. +-inf and NaN, there a zero mantissa with a
        nonzero exponent, raise ValueError."""
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        sign, man, exp, _ = self.to_real(x)._mpf_
        if not man and exp:
            raise ValueError(f"to_fraction requires a finite number, not {x}")
        man = -man if sign else man
        return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)

    def mpc(self, re=0, im=0):
        return self._mp.mpc(re, im)

    @property
    def zero(self):
        return self._mp.mpf(0)

    @property
    def one(self):
        return self._mp.mpf(1)

    @property
    def two(self):
        return self._mp.mpf(2)

    @property
    def pi(self):
        return +self._mp.pi

    # elementary functions, all at the configured precision

    def cos(self, x):
        return self._mp.cos(x)

    def sin(self, x):
        return self._mp.sin(x)

    def power(self, x, y):
        return self._mp.power(x, y)

    def fabs(self, x):
        return self._mp.fabs(x)

    def nstr(self, x, digits: int = 17) -> str:
        return self._mp.nstr(x, digits)

    def row_sums(self, rows: Iterable[Sequence[int]], values: Sequence):
        """Yield sum_k row[k] * values[k] for each integer row, values being
        finite mpfs of this context: bit for bit the mpf loop
        `acc += entry * v` over the row's nonzero entries in column order,
        starting from zero.

        That loop rounds every product and every partial sum once, to the
        working precision, nearest-even (mpmath's mpf_mul_int and mpf_add
        are correctly rounded). Here the same steps run on plain ints:
        each value is unpacked once into a signed mantissa and exponent,
        a product or sum m 2^e is exact until it is rounded, and each row
        ends as one mpf. Aligning a sum shifts by the exponent gap of its
        operands: on a basis table at level n, whose values lie between
        2^-n and 1, at most about n bits plus the widest entry's width.
        """
        mpf = self._mp.mpf
        for am, ae in self._row_pairs(rows, values):
            yield mpf((am, ae))

    def _row_pairs(self, rows: Iterable[Sequence[int]], values: Sequence):
        """row_sums' sums as pairs (m, e), the sum m 2^e, |m| <= 2^prec.

        Each product and partial sum is rounded by _nearest's rule, inline
        for speed: calling _nearest and _sum here instead made this loop
        1.07-1.21x slower on the rows of verify --n 10 and 12 (r = 7 and
        63, 64 and 2048 bits; 15 alternating rounds each, slower in 12 to
        14 of 15, on a 2-vCPU Xeon). A row is read twice, once to pick its
        nonzero entries, so it is a sequence, not an iterator.
        """
        prec = self.precision_bits
        table = []
        for v in values:
            sign, man, exp, _ = v._mpf_
            table.append((-man if sign else man, exp))
        for row in rows:
            am = ae = 0
            for entry, (pm, pe) in compress(zip(row, table), row):
                pm *= entry
                sh = pm.bit_length() - prec
                if sh > 0:
                    t = pm >> (sh - 1)
                    pm = (t >> 1) + 1 if t & 1 and (
                        t & 2 or t << (sh - 1) != pm) else t >> 1
                    pe += sh
                d = ae - pe
                if d > 0:
                    pm += am << d
                else:
                    pm = am + (pm << -d)
                    pe = ae
                sh = pm.bit_length() - prec
                if sh > 0:
                    t = pm >> (sh - 1)
                    am = (t >> 1) + 1 if t & 1 and (
                        t & 2 or t << (sh - 1) != pm) else t >> 1
                    ae = pe + sh
                else:
                    am, ae = pm, pe
            yield am, ae

    def dyadic_trig(self, basis: Basis) -> tuple:
        """basis.values(self): g(t*pi/2^n), t = 2k+1 (odd bases) or 2k
        (even basis) for column k, g = sin on odd_sin and cos otherwise,
        built whole on the first call and kept in this context. Each value
        is bit for bit g(ctx.pi * t / 2**n). pi is rounded once per table;
        the product with t rounds as mpf * int does, and the division by
        2^n is exact, an exponent shift: x_t = round(round(pi) t)/2^n.

        One fixed-point walk (_dyadic_walk), F = prec + 2n + 8, gives
        cos and sin of theta_t = t pi/2^n for m = min(t, 2^(n-1) - t),
        swapped past pi/4, so one entry serves t and 2^(n-1) - t; every
        entry read is within 4.5 2^(n-3) + 3 units of 2^-F, below 2^-9 of
        an ulp of the smallest value. Each value is moved to x_t by
        cos x = cos theta - d sin theta and sin x = sin theta + d cos theta,
        d = x_t - theta_t computed from Pi = floor(pi 2^F) within half a
        unit and the product floored: 2 units more. |d| <= 2^(2-prec)
        bounds the terms dropped (d^2/2 and d^3/6) by 2^(F+4-2 prec).

        The value is v 2^-F within e units: ours plus mpmath's own error
        before its final rounding, _libmp_trig_error at mpmath's working
        precision for x_t. When [v - e, v + e] holds no rounding midpoint
        at prec bits and no power of two, every value mpmath's fixed-point
        result can have rounds to the same mpf, and that mpf is the result
        (Ziv's test, ACM TOMS 17(3), 1991). Otherwise, as for the even
        basis's cos 0 = 1 always, mpmath's g is called at x_t. The test is
        integer comparisons only, so it holds under python -O.
        """
        if (table := self._tables.get(basis)) is not None:
            return table
        prec, rnd = self.precision_bits, round_nearest
        sine, n = basis.kind == "odd_sin", basis.n
        odd = basis.kind != "even_cos"
        quarter = 1 << (n - 1)
        F = prec + 2 * n + 8
        Pi = pi_fixed(F)
        walk = _dyadic_walk(odd, n, F, Pi)
        # the last entry's bound, 2 units for the move to x_t and the
        # terms it drops
        last = len(walk) - 1
        ours = (9 * last + 1) // 2 + 5 + (1 << max(0, F + 4 - 2 * prec))
        _, pm, pe, _ = mpf_pi(prec, rnd)
        g = mpf_sin if sine else mpf_cos
        make = self._mp.make_mpf
        errors = {}
        out = []
        for t in range(odd, quarter, 2):
            # x_t = p 2^xe: pm t rounded as mpf_mul_int rounds it
            p, xe = _nearest(pm * t, pe - n, prec)
            m = t if 2 * t <= quarter else quarter - t
            c, s = walk[m >> 1]
            if m != t:
                c, s = s, c
            d = (p << (xe + n + F)) - t * Pi
            v = s + (d * c >> (F + n)) if sine else c - (d * s >> (F + n))
            mag = p.bit_length() + xe
            e = errors.get(mag)
            if e is None:
                wp = prec + 10 - mag if mag <= 0 else prec + 30
                lib = _libmp_trig_error(wp, mag, sine)
                e = errors[mag] = ours + (lib << (F - wp) if F >= wp
                                          else (lib >> (wp - F)) + 1)
            lo, hi = v - e, v + e
            k = hi.bit_length() - prec
            if lo > 0 and lo.bit_length() == hi.bit_length():
                half = 1 << (k - 1)
                q = (lo + half) >> k
                if q == (hi + half) >> k and (lo + half) & ((1 << k) - 1):
                    tz = (q & -q).bit_length() - 1
                    out.append(make((0, q >> tz, k - F + tz,
                                     q.bit_length() - tz)))
                    continue
            out.append(make(g(from_man_exp(p, xe), prec, rnd)))
        table = self._tables[basis] = tuple(out)
        return table

    def power_sum(self, values: Iterable, exponent, shift: int = 0):
        """sum_k (2^shift v_k)^exponent over positive mpfs v_k of this
        context: bit for bit the loop `tot += ctx.power(2**shift * v,
        exponent)` from zero, and for an int exponent and no shift the
        loop `tot += v ** exponent`, which reaches the same libmp power.
        The exponent is converted once, as ctx.power converts it.

        An integral exponent n, as mpf_pow reads it, runs on plain ints:
        each power a _power, each partial sum a _sum. A fractional one, or
        a value with a zero mantissa (0, +-inf, NaN), sends the whole sum
        through mpf_pow and mpf_add, which give the mpf loop's result or
        its exception."""
        prec, rnd = self.precision_bits, round_nearest
        e = self._mp.convert(exponent)._mpf_
        tsign, tman, texp, _ = e
        raw = [v._mpf_ for v in values]
        if texp < 0 or not all(man for _, man, _, _ in raw):
            tot = fzero
            for v in raw:
                power = mpf_pow(mpf_shift(v, shift), e, prec, rnd)
                tot = mpf_add(tot, power, prec, rnd)
            return self._mp.make_mpf(tot)
        n = -(tman << texp) if tsign else tman << texp
        am = ae = 0
        for sign, man, exp, _ in raw:
            pm, pe = _power(-man if sign else man, exp + shift, n, prec)
            am, ae = _sum(am, ae, pm, pe, prec)
        return self._mp.make_mpf(from_man_exp(am, ae))

    def quotient_sum(self, weights: Iterable, values: Iterable):
        """sum_k w_k / v_k over int or Fraction weights and finite nonzero
        mpfs of this context: bit for bit the loop `tot += ctx.to_real(w)
        / v` from zero, each weight rounded by the same _round_exact.

        On plain ints: each quotient a _quotient, each partial sum a _sum.
        A value with a zero mantissa (0, +-inf, NaN) is a divisor of zero
        there and raises ZeroDivisionError, as the mpf loop does for 0."""
        prec = self.precision_bits
        am = ae = 0
        for w, v in zip(weights, values):
            sign, man, exp, _ = v._mpf_
            qm, qe = _quotient(*_exact_pair(w, prec), -man if sign else man,
                               exp, prec)
            am, ae = _sum(am, ae, qm, qe, prec)
        return self._mp.make_mpf(from_man_exp(am, ae))

    def max_residual(self, rows: Iterable[Sequence[int]], values: Sequence,
                     lhs: Iterable, r: int, log2_denom: int):
        """max_i |g_i^r - 2^-log2_denom sum_k rows[i][k] values[k]|, g_i
        the i-th mpf of lhs, each finite: bit for bit the loop `worst =
        max(worst, ctx.fabs(ctx.power(g, r) - scale * rhs))` from zero,
        scale = 2^-log2_denom and rhs from row_sums. rhs is read as
        row_sums' pair (m, e), so the scaled rhs is the exact pair
        (m, e - log2_denom), an exponent shift. On plain ints: g^r is a
        _power, the gap a _sum, and a gap replaces the running maximum
        when its rounded difference with it, which has the sign of the
        exact one, is positive."""
        prec = self.precision_bits
        wm = we = 0
        for (am, ae), g in zip(self._row_pairs(rows, values), lhs):
            sign, man, exp, _ = g._mpf_
            gm, ge = _power(-man if sign else man, exp, r, prec)
            gm, ge = _sum(gm, ge, -am, ae - log2_denom, prec)
            gm = abs(gm)
            if _sum(gm, ge, -wm, we, prec)[0] > 0:
                wm, we = gm, ge
        return self._mp.make_mpf(from_man_exp(wm, we))

    def close(self, x, y, tol=None) -> bool:
        t = self.tolerance if tol is None else self.to_real(tol)
        return self.fabs(x - y) < t

