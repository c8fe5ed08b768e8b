"""Exact integer and rational arithmetic kernel plus the numeric oracle.

Everything downstream is built from the pieces here: binomial machinery,
floor/mod conventions, dyadic-angle index folding, dense integer polynomials,
and EvalContext, an arbitrary-precision evaluation environment wrapping an
isolated mpmath context.

Conventions used throughout the package:
  * "mod" always means the least nonnegative residue.
  * "floor" always rounds toward minus infinity (this matters for the
    negative arguments that show up in the inverse-power matrices).
  * A dyadic angle is (2i-1)*pi/2^n, written as the integer pair (i, n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from mpmath.ctx_mp import MPContext

Exact = Union[int, Fraction]


def floor_div(a: int, b: int) -> int:
    """Quotient of a by b rounded toward minus infinity. b must be positive."""
    if b <= 0:
        raise ValueError("floor_div requires b > 0")
    return a // b


def mod_pos(a: int, b: int) -> int:
    """Least nonnegative residue of a modulo b. b must be positive."""
    if b <= 0:
        raise ValueError("mod_pos requires b > 0")
    return a % b


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


def pochhammer(a, k: int, ctx: "EvalContext"):
    """Ascending factorial a(a+1)...(a+k-1); empty product is 1.

    Satisfies binom_real(-a, k) = (-1)^k * pochhammer(a, k) / k!.
    """
    if k < 0:
        raise ValueError("pochhammer requires k >= 0")
    if isinstance(a, (int, Fraction)):
        v = Fraction(1)
        for t in range(k):
            v *= Fraction(a) + t
        return ctx.to_real(v)
    v = ctx.one
    a = ctx.to_real(a)
    for t in range(k):
        v = v * (a + t)
    return v


class ZeroBasisElementError(ValueError):
    """Raised when an even-basis fold lands on cos(pi/2) = 0."""


def fold_odd_cos_index(t: int, n: int) -> tuple[int, int]:
    """Reduce cos(t*pi/2^n), t odd, to a signed canonical basis element.

    Returns (k, sign) with 1 <= k <= 2^{n-2} and
    cos(t*pi/2^n) = sign * cos((2k-1)*pi/2^n) exactly.
    """
    if t % 2 == 0:
        raise ValueError("fold_odd_cos_index requires odd t")
    if n < 2:
        raise ValueError("fold_odd_cos_index requires n >= 2")
    u = mod_pos(t, 2 ** (n + 1))
    if u > 2**n:
        u = 2 ** (n + 1) - u
    if u > 2 ** (n - 1):
        return (2**n - u + 1) // 2, -1
    return (u + 1) // 2, 1


def fold_even_cos_index(t: int, n: int) -> tuple[int, int]:
    """Reduce cos(t*pi/2^{n-1}) to a signed element of the even basis.

    Returns (k, sign) with 0 <= k <= 2^{n-2}-1 and
    cos(t*pi/2^{n-1}) = sign * cos(k*pi/2^{n-1}); k = 0 is the constant 1.
    Folding onto cos(pi/2) = 0 is not representable and raises.
    """
    if n < 3:
        raise ValueError("fold_even_cos_index requires n >= 3")
    u = mod_pos(t, 2**n)
    if u > 2 ** (n - 1):
        u = 2**n - u
    if u == 2 ** (n - 2):
        raise ZeroBasisElementError(
            f"cos({t}*pi/2^{n - 1}) folds to cos(pi/2) = 0"
        )
    if u > 2 ** (n - 2):
        return 2 ** (n - 1) - u, -1
    return u, 1


@dataclass(frozen=True)
class DyadicAngle:
    """The angle (2i-1)*pi/2^n as the integer pair (i, n)."""

    i: int
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("DyadicAngle requires n >= 2")
        if self.i < 1:
            raise ValueError("DyadicAngle requires i >= 1")

    @property
    def canonical(self) -> bool:
        return 1 <= self.i <= 2 ** (self.n - 2)

    def radians(self, ctx: "EvalContext"):
        return ctx.pi * (2 * self.i - 1) / 2**self.n


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

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

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


def make_matrix(rows: Iterable[Iterable[int]], log2_denom: int,
                basis: Basis) -> ScaledMatrix:
    return ScaledMatrix(tuple(tuple(int(x) for x in r) for r in rows),
                        log2_denom, basis)


@dataclass(frozen=True)
class BasisVector:
    """Exact rational coefficients over a declared basis."""

    coeffs: tuple[Fraction, ...]
    basis: Basis

    def __post_init__(self):
        if len(self.coeffs) != self.basis.dim:
            raise ValueError("coefficient count must equal basis dimension")

    def value(self, ctx: "EvalContext"):
        tot = ctx.zero
        for k, c in enumerate(self.coeffs):
            if c:
                tot += ctx.to_real(c) * self.basis.element(k, ctx)
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


def int_mat_transpose(a: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(zip(*a))


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
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ci in enumerate(a):
            if ci:
                for j, cj in enumerate(b):
                    out[i + j] += ci * cj
        return IntPolynomial(out)

    __rmul__ = __mul__

    def compose(self, inner: "IntPolynomial") -> "IntPolynomial":
        """self(inner(x)) by Horner in the polynomial ring."""
        acc = IntPolynomial()
        for c in reversed(self.coeffs):
            acc = acc * inner + IntPolynomial([c])
        return acc

    def eval_exact(self, x: Exact) -> Exact:
        acc: Exact = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_real(self, x, ctx: "EvalContext"):
        acc = ctx.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_complex(self, z, ctx: "EvalContext"):
        acc = ctx.mpc(0)
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc


def poly_x() -> IntPolynomial:
    return IntPolynomial([0, 1])


def poly_compose(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    return p.compose(q)


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

    def acos(self, x):
        return self._mp.acos(x)

    def sqrt(self, x):
        return self._mp.sqrt(x)

    def power(self, x, y):
        return self._mp.power(x, y)

    def fabs(self, x):
        return self._mp.fabs(x)

    def nstr(self, x, digits: int = 17) -> str:
        return self._mp.nstr(x, digits)

    def angle(self, a: DyadicAngle):
        return a.radians(self)

    def close(self, x, y, tol=None) -> bool:
        t = self.tolerance if tol is None else self.to_real(tol)
        return self.fabs(x - y) < t


DEFAULT_CONTEXT = EvalContext(256)
