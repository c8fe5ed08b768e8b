"""Exact integer and rational arithmetic kernel plus the numeric oracle.

Everything downstream is built from the pieces here: binomial machinery;
quarter_fold, the one law that folds a dyadic angle back into the first
quadrant; the first row of every positive cosine power, its binomial
expansion folded by that law; the declared bases, which fold by the same
law one angle (Basis.fold) or a whole turn at once (Basis.turn); dense
integer polynomials with their one product (a double loop when a factor
is short, one big-integer multiply by Kronecker substitution when both
are long); and EvalContext, an arbitrary-precision evaluation
environment wrapping an isolated mpmath context.

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
from typing import Iterable, Sequence

from mpmath.ctx_mp import MPContext


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
        """Numeric value of basis element k (0-based)."""
        if not 0 <= k < self.dim:
            raise IndexError(f"basis index {k} out of range")
        if self.kind == "odd_cos":
            return ctx.cos(ctx.pi * (2 * k + 1) / 2**self.n)
        if self.kind == "odd_sin":
            return ctx.sin(ctx.pi * (2 * k + 1) / 2**self.n)
        if k == 0:
            return ctx.one
        return ctx.cos(ctx.pi * k / 2 ** (self.n - 1))

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

    def turn(self) -> list:
        """fold(t) at every t of one full turn, t < 8 dim on the odd bases
        and t < 4 dim on the even one, None where fold has no column: the
        table a caller reads at t mod len(turn) in place of folding."""
        if self.kind != "even_cos":
            # the odd bases fold odd t only
            return [None if t % 2 == 0 else self.fold(t)
                    for t in range(8 * self.dim)]
        turn = []
        for t in range(4 * self.dim):
            try:
                turn.append(self.fold(t))
            except ZeroBasisElementError:
                turn.append(None)
        return turn

    def values(self, ctx: "EvalContext") -> list:
        """Numeric values of all dim basis elements, in column order: one
        table per call, so a caller evaluates each element once."""
        return [self.element(k, ctx) for k in range(self.dim)]


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

    def scale(self, ctx: "EvalContext"):
        return ctx.power(ctx.two, -self.log2_denom)

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


# shortest factor, in coefficients, that poly_mul_coeffs multiplies by
# Kronecker substitution (its docstring says why there is one). On a
# 2-vCPU Xeon Kronecker squared nested_minpoly's q of 17 and 33
# coefficients 1.7x and 2.5x faster than the loop, but lost on the products
# of compose and compose_mod, whose short factor is an odd p_i of up to 32
# coefficients for i <= 16: composition_commutes over 9 <= i <= j <= 16
# took 1.4 s with this constant at 32, and 0.88 s at 33, as with the loop
# alone.
_KRONECKER_MIN_LEN = 33


def poly_mul_coeffs(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Ascending coefficients of the product of two ascending coefficient
    lists; an empty factor gives the empty list. The one polynomial
    product: IntPolynomial and compose_mod both call it.

    When both factors have at least _KRONECKER_MIN_LEN coefficients the
    product is one big-integer multiply by Kronecker substitution
    (Schoenhage 1982): each factor is packed into one int, a coefficient
    per slot, the two ints are multiplied (squared when a is b) by
    CPython's Karatsuba, and the slots are read back. A shorter factor
    takes the double loop, which skips zero coefficients and pays for each
    product by its own size, where Kronecker pays for every slot at the
    width of the largest product coefficient.
    """
    if not a or not b:
        return []
    if min(len(a), len(b)) < _KRONECKER_MIN_LEN:
        out = [0] * (len(a) + len(b) - 1)
        for i, ci in enumerate(a):
            if ci:
                for j, cj in enumerate(b):
                    out[i + j] += ci * cj
        return out
    return _kronecker_product(a, b)


def _kronecker_product(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """poly_mul_coeffs by Kronecker substitution, for nonempty factors.

    Every product coefficient is a sum of at most min(len a, len b) terms
    of size at most max|a| max|b|, so a slot of kb bytes with 2^(8 kb - 1)
    above that bound holds it as a balanced digit. Packing and unpacking
    are each one linear pass of to_bytes/from_bytes in C.
    """
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    size = len(a) + len(b) - 1
    if not bound:
        return [0] * size
    kb = bound.bit_length() // 8 + 1
    pa = _kronecker_pack(a, kb)
    prod = pa * pa if a is b else pa * _kronecker_pack(b, kb)
    # adding half a slot to every slot makes each digit nonnegative, so
    # the slots read back independently as unsigned bytes
    half = 1 << (8 * kb - 1)
    bias = int.from_bytes(half.to_bytes(kb, "little") * size, "little")
    raw = (prod + bias).to_bytes(kb * size, "little")
    return [int.from_bytes(raw[i:i + kb], "little") - half
            for i in range(0, kb * size, kb)]


def _kronecker_pack(cs: Sequence[int], kb: int) -> int:
    """sum_i cs[i] 2^(8 kb i), each |cs[i]| < 2^(8 kb - 1).

    A negative coefficient's two's-complement slot reads 2^(8 kb) too
    high, so one unit is taken off the slot above it."""
    packed = int.from_bytes(
        b"".join(c.to_bytes(kb, "little", signed=True) for c in cs), "little")
    borrows = bytearray(kb * (len(cs) + 1))
    borrows[kb::kb] = bytes(c < 0 for c in cs)
    return packed - int.from_bytes(borrows, "little")


class IntPolynomial:
    """Dense univariate polynomial with exact integer coefficients.

    Coefficients are stored ascending; the zero polynomial is the empty
    tuple and has degree -1. Instances are immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [int(c) for c in coeffs]
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
        return self + (-other)

    def __mul__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coeffs])
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


class EvalContext:
    """Arbitrary-precision real/complex evaluation environment.

    Wraps a private mpmath context so two EvalContexts never interfere;
    precision is fixed at construction and the instance is immutable.
    tolerance defaults to 2^(-precision_bits/2).
    """

    __slots__ = ("precision_bits", "tolerance", "_mp")

    def __init__(self, precision_bits: int = 256, tolerance=None):
        if precision_bits < 64:
            raise ValueError("EvalContext requires precision_bits >= 64")
        mpctx = MPContext()
        mpctx.prec = precision_bits
        object.__setattr__(self, "_mp", mpctx)
        object.__setattr__(self, "precision_bits", precision_bits)
        if tolerance is None:
            tolerance = mpctx.mpf(2) ** -(precision_bits // 2)
        else:
            tolerance = self.to_real(tolerance)
            if not tolerance > 0:
                raise ValueError("tolerance must be positive")
        object.__setattr__(self, "tolerance", tolerance)

    def __setattr__(self, name, value):
        raise AttributeError("EvalContext is immutable")

    def __repr__(self):
        return (f"EvalContext(precision_bits={self.precision_bits}, "
                f"tolerance={self.tolerance})")

    # conversions

    def to_real(self, x):
        """Convert int, Fraction, float, str, or mpf to an mpf exactly
        (Fractions round once, at full working precision)."""
        if isinstance(x, Fraction):
            return self._mp.mpf(x.numerator) / self._mp.mpf(x.denominator)
        return self._mp.mpf(x)

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

    def close(self, x, y, tol=None) -> bool:
        t = self.tolerance if tol is None else self.to_real(tol)
        return self.fabs(x - y) < t

