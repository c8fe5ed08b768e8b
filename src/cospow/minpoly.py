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

The Newton power sums of 4cos^2 t_i below read the closed coefficients.
"""

from __future__ import annotations

from collections import deque
from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact,
                     Rounded)
from fractions import Fraction
from itertools import count
from operator import itemgetter, mul

from .exact import (
    EvalContext,
    IntPolynomial,
    binom_int,
    exact_div,
    odd_cos_basis,
)


def _closed_coefficients(n: int):
    """The even coefficients c_{n,0} = 1, c_{n,1}, ..., c_{n,2^{n-2}} of
    closed_minpoly(n), streamed so a caller can stop early. n >= 2.

    The binomial b_m = C(h+m, h-m), h = 2^{n-2}, is stepped from b_{m-1}
    by the ratio (h+m)(h-m+1) / ((2m)(2m-1)) instead of being recomputed
    for every coefficient. Both that step and the division by h+m are
    known integralities, checked by exact_div.
    """
    half = 2 ** (n - 2)
    yield 1
    b = 1
    for m in range(1, half + 1):
        b = exact_div(b * (half + m) * (half - m + 1), 2 * m * (2 * m - 1),
                      "closed_minpoly binomial step")
        q = exact_div(b << (n + 2 * m - 2), half + m,
                      "closed_minpoly coefficient")
        yield -q if m % 2 else q


def closed_minpoly(n: int) -> IntPolynomial:
    """Closed-form f_n, constant term +1, degree 2^{n-1}. Requires n >= 2."""
    if n < 2:
        raise ValueError("closed_minpoly requires n >= 2")
    coeffs = [0] * (2 ** (n - 1) + 1)
    coeffs[::2] = _closed_coefficients(n)
    return IntPolynomial(coeffs)


# first level whose squares nested_minpoly takes in decimal, not in a
# CPython int. On a 2-vCPU Xeon, squares plus slots took 0.10 against
# 0.46 ms at n = 9 and 0.63 against 1.3 ms at n = 10 (int against
# decimal), tied at n = 11 (5.0 and 4.8 ms), and 44 against 20 ms at
# n = 12 and 0.40 against 0.10 s at n = 13.
_DECIMAL_MIN_LEVEL = 11

# most digits of one str-to-int conversion: 640 is the lowest int-to-str
# digit limit Python accepts, so no setting of that limit is passed
_PIECE = 640


def nested_minpoly(n: int) -> IntPolynomial:
    """Nested square-and-subtract form of f_n. Requires n >= 3.

    Every iterate is a polynomial q in w = (2x)^2 = 4x^2, from q = w - 2,
    and the squares run on one number, q(-B) for one power B of the base:
    it is squared and decreased by 2, n - 2 times, and its slots are read
    once at the end. The roots of q in w are the 4cos^2 t > 0, so its
    coefficients c_m alternate in sign and q(-B) = sum |c_m| B^m (q has
    even degree). Their sum is |q(-1)|, which the same iteration gives from
    q(-1) = -3, so with B above it each slot holds one |c_m|, and the
    slots' sum checks the read. Below _DECIMAL_MIN_LEVEL, B is a power of
    256 and CPython squares an int (_byte_slots); from it on, B is a power
    of ten and decimal squares by its number-theoretic transform
    (_decimal_slots). Coefficient m is then signed, shifted left by 2m and
    halved onto x^{2m}, the factor 4^m of x^{2m}. The route never reads
    the closed form.

    n = 2 is excluded: the nested expression there is 2x^2 - 1, which is
    the negative of the canonical closed form (see the module docstring).
    """
    if n < 3:
        raise ValueError("nested_minpoly requires n >= 3")
    bound = -3  # q(-1) at q = w - 2; positive after the first step
    for _ in range(n - 2):
        bound = bound * bound - 2
    slots = _byte_slots if n < _DECIMAL_MIN_LEVEL else _decimal_slots
    ws = slots(n - 2, bound)
    if sum(ws) != bound:  # a slot that overflowed would carry
        raise ArithmeticError("nested_minpoly slot overflow")
    coeffs = [0] * (2 * len(ws) - 1)
    coeffs[::2] = [exact_div((-c if m % 2 else c) << 2 * m, 2,
                             "nested_minpoly halving")
                   for m, c in enumerate(ws)]
    return IntPolynomial(coeffs)


def _byte_slots(steps: int, bound: int) -> list[int]:
    """The slots of nested_minpoly's packed number after `steps` squares,
    lowest first, with B = 256^kb above bound: CPython squares the int, and
    the slots are read from its bytes in one pass."""
    kb = (bound.bit_length() + 7) // 8
    packed = -(1 << 8 * kb) - 2
    for _ in range(steps):
        packed = packed * packed - 2
    raw = packed.to_bytes(kb * (2 ** steps + 1), "little")
    return [int.from_bytes(raw[i:i + kb], "little")
            for i in range(0, len(raw), kb)]


def _decimal_slots(steps: int, bound: int) -> list[int]:
    """As _byte_slots with B = 10^kd above bound, squared by libmpdec.

    The arithmetic runs in a private context whose precision and exponent
    range hold any integer decimal can, with Inexact and Rounded trapped:
    an operation that lost a digit would raise, so the result is exact or
    there is none, under python -O too. The thread's current context is
    never read or changed. The number is printed once, and each slot read
    in pieces of at most _PIECE digits.
    """
    ctx = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                  traps=[Inexact, Rounded])
    kd = Decimal(bound).adjusted() + 1  # Decimal(int) has no digit limit
    packed = ctx.subtract(Decimal(f"-1e{kd}"), 2)
    for _ in range(steps):
        packed = ctx.subtract(ctx.multiply(packed, packed), 2)
    end = kd * (2 ** steps + 1)
    raw = str(packed).zfill(end)
    head = kd % _PIECE or _PIECE
    scale = 10 ** _PIECE
    ws = []
    for i in range(end - kd, -1, -kd):
        c = int(raw[i:i + head])
        for j in range(i + head, i + kd, _PIECE):
            c = c * scale + int(raw[j:j + _PIECE])
        ws.append(c)
    return ws


def _two_cos_even_coefficients(n: int):
    """h_m = +-2 c_{n,m}/4^m, m = 0..2^{n-2}, the coefficient of y^{2m}
    in monic_two_cos_poly(n) (x = y/2, doubled), so h_0 = 2 for n >= 3.
    The leading one is (-1)^{2^{n-2}}: the sign flips only at n = 2."""
    sign = -1 if n == 2 else 1
    for m, c in enumerate(_closed_coefficients(n)):
        yield sign * exact_div(2 * c, 4**m, "monic_two_cos_poly")


def monic_two_cos_poly(n: int) -> IntPolynomial:
    """Monic integer polynomial with roots 2cos((2i-1)pi/2^n), n >= 2."""
    if n < 2:
        raise ValueError("monic_two_cos_poly requires n >= 2")
    coeffs = [0] * (2 ** (n - 1) + 1)
    coeffs[::2] = _two_cos_even_coefficients(n)
    return IntPolynomial(coeffs)


def _newton_step(cs: list[int], recent, m: int, dim: int) -> int:
    """A(m), m >= 1, by Newton's identities on the averages
    A(p) = P(p)/dim of the power sums P(p) of dim roots.

    cs holds the signed elementary symmetric functions (-1)^{k+1} e_k of
    the roots for k = 1..min(m, dim) at least; recent holds A(m-1),
    A(m-2), ... most recent first, at least min(m, dim) of them, with
    A(0) = 1. Newton's identity for P(m) ends in m e_m instead of
    e_m P(0) while m <= dim; after dividing by dim that swap leaves the
    correction (m - dim) cs_m / dim, an integer when A(m) is. Beyond dim
    the step is the plain linear recurrence.
    """
    acc = sum(map(mul, cs, recent))
    if m <= dim:
        acc += exact_div((m - dim) * cs[m - 1], dim, "Newton step")
    return acc


def _newton_windows(cs: list[int], dim: int):
    """The window after each of A(0) = 1, A(1), ... by _newton_step: the
    last len(cs) averages, most recent first, the ones the next step
    reads. One deque, updated in place."""
    window = deque([1], maxlen=len(cs))
    yield window
    for m in count(1):
        window.appendleft(_newton_step(cs, window, m, dim))
        yield window


def _newton_averages(cs: list[int], dim: int):
    """A(0) = 1, A(1), ... by _newton_step, read off _newton_windows."""
    return map(itemgetter(0), _newton_windows(cs, dim))


def _level_recurrence(level: int) -> list[int]:
    """The signed elementary symmetric functions (-1)^{k+1} e_k,
    k = 1..2^{level-2}, of the roots x_i = 4cos^2 t_i of the monic even
    part h of monic_two_cos_poly(level): -h_{dim-k}. level >= 2."""
    h = list(_two_cos_even_coefficients(level))
    return [-c for c in reversed(h[:-1])]


def _average_stream(level: int):
    """Integer averages A(p) = (1/2^{level-2}) sum_i (2cos t_i)^{2p},
    p = 0, 1, ..., over the level angles t_i, level >= 2, by Newton's
    identities on the roots x_i = 4cos^2 t_i. A(p) has about 2p bits, so
    the zeta level series reads it exactly only while it is narrow and
    carries the scaled A(p)/4^p in fixed point beyond (zeta._average_floors);
    the binomial fold even_power.integer_power_average gives one A(p)
    alone."""
    cs = _level_recurrence(level)
    return _newton_averages(cs, len(cs))


def verify_minpoly_roots(n: int, ctx: EvalContext):
    """Max |f_n(+-cos((2i-1)pi/2^n))| over i = 1..2^{n-2}; should be tiny."""
    f = closed_minpoly(n)
    worst = ctx.zero
    for x in odd_cos_basis(n).values(ctx):
        for root in (x, -x):
            worst = max(worst, ctx.fabs(f(root)))
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
